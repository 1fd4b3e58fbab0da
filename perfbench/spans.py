"""Span tracing around trialgame's public functions, from outside the package.

``install`` replaces each traced function in every ``trialgame`` module that
holds it (``cli``, ``loss`` and ``thresholds`` import names from ``agent``
and from each other), so calls made inside the package are traced too.
Spans are aggregated in memory by (parent path, name) instead of being kept
one by one: a sweep makes hundreds of thousands of best-response calls.
A layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import sys
import time
import types

BR_EFFECTIVE = "agent.best_response.effective"
BR_WEAK = "agent.best_response.weak"

# (span name, module holding the original, attribute name).
_TRACED = (
    ("thresholds.participation_threshold", "trialgame.thresholds", "participation_threshold"),
    ("thresholds.critical_alpha", "trialgame.thresholds", "critical_alpha"),
    ("loss.loss_components", "trialgame.loss", "loss_components"),
    ("loss.sweep_alpha", "trialgame.loss", "sweep_alpha"),
    ("config.load_config", "trialgame.config", "load_config"),
    ("cli.main", "trialgame.cli", "main"),
)


class Tracer:
    """Aggregates spans as ``{(parent_path, name): [calls, total_s, self_s]}``.

    ``parent_path`` is the tuple of span names open when the span started,
    outermost first, so both the direct parent and every ancestor of a span
    can be recovered when the run ends.
    """

    def __init__(self) -> None:
        self.spans: dict[tuple[tuple[str, ...], str], list] = {}
        self.counters: dict[str, int] = {"erfc": 0, "quantile_misses": 0}
        # Each open span is [path including itself, time of its child spans].
        self._stack: list[list] = [[(), 0.0]]

    def span(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [parent[0] + (name,), 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                key = (parent[0], name)
                rec = spans.get(key)
                if rec is None:
                    spans[key] = [1, dt, dt - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[1]

        return traced

    def dump(self) -> dict:
        return {
            "spans": [[list(path), name, *rec] for (path, name), rec in self.spans.items()],
            "counters": dict(self.counters),
        }

    def merge(self, dumped: dict) -> None:
        for path, name, calls, total, self_s in dumped["spans"]:
            rec = self.spans.setdefault((tuple(path), name), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for key, value in dumped["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value


def _replace_everywhere(original, replacement) -> None:
    for modname, module in list(sys.modules.items()):
        if modname == "trialgame" or modname.startswith("trialgame."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Trace every layer of an imported ``trialgame`` in this process."""
    import trialgame.agent as agent
    import trialgame.cli  # noqa: F401  (so its imported names get replaced)
    import trialgame.stats as stats

    for span_name, modname, attr in _TRACED:
        original = getattr(sys.modules[modname], attr)
        _replace_everywhere(original, tracer.span(span_name, original))

    br = agent.best_response
    br_eff = tracer.span(BR_EFFECTIVE, br)
    br_weak = tracer.span(BR_WEAK, br)

    def best_response(alpha, mu0, inst):
        return (br_eff if mu0 > inst.mu_b else br_weak)(alpha, mu0, inst)

    _replace_everywhere(br, best_response)

    prior = stats.TruncatedNormalPrior
    prior.pdf = tracer.span("stats.prior_pdf", prior.pdf)
    prior.cdf = tracer.span("stats.prior_cdf", prior.cdf)

    counters = tracer.counters
    quantile = agent.std_normal_quantile

    def std_normal_quantile(p):
        counters["quantile_misses"] += 1
        return quantile(p)

    agent.std_normal_quantile = std_normal_quantile

    # Inside agent, math.erfc is reached only from best_response's pass
    # probability, so counting it through agent's own `math` name counts
    # the erfc evaluations of best-response spans.
    erfc = agent.math.erfc

    def counted_erfc(x):
        counters["erfc"] += 1
        return erfc(x)

    agent.math = types.SimpleNamespace(**{**vars(agent.math), "erfc": counted_erfc})


def _sum(tracer: Tracer, name: str, *, under: str | None = None, parent: str | None = None):
    calls, total, self_s = 0, 0.0, 0.0
    for (path, span_name), rec in tracer.spans.items():
        if span_name != name:
            continue
        if under is not None and under not in path:
            continue
        if parent is not None and (not path or path[-1] != parent):
            continue
        calls += rec[0]
        total += rec[1]
        self_s += rec[2]
    return calls, total, self_s


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``{name: (value, unit)}`` from aggregated spans."""
    eff_calls, eff_s, _ = _sum(tracer, BR_EFFECTIVE)
    weak_calls, weak_s, _ = _sum(tracer, BR_WEAK)
    br_calls = eff_calls + weak_calls

    def br_under(**kw) -> int:
        return _sum(tracer, BR_EFFECTIVE, **kw)[0] + _sum(tracer, BR_WEAK, **kw)[0]

    crit_calls, _, crit_self = _sum(tracer, "thresholds.critical_alpha")
    thr_calls, _, thr_self = _sum(tracer, "thresholds.participation_threshold")
    comp_calls, _, comp_self = _sum(tracer, "loss.loss_components")
    rows = _sum(tracer, "loss.loss_components", under="loss.sweep_alpha")[0]
    sweep_brs = br_under(under="loss.sweep_alpha")
    pdf_calls, pdf_s, _ = _sum(tracer, "stats.prior_pdf")
    cdf_calls, cdf_s, _ = _sum(tracer, "stats.prior_cdf")
    load_calls, load_s, _ = _sum(tracer, "config.load_config")
    main_calls, _, main_self = _sum(tracer, "cli.main")
    return {
        "agent.br_calls": (br_calls, "count"),
        "agent.br_s": (eff_s + weak_s, "s"),
        "agent.br_us_effective": (_ratio(eff_s, eff_calls) * 1e6, "us"),
        "agent.br_us_weak": (_ratio(weak_s, weak_calls) * 1e6, "us"),
        "agent.effective_frac": (_ratio(eff_calls, br_calls), "ratio"),
        "agent.erfc_per_br": (_ratio(tracer.counters["erfc"], br_calls), "count"),
        "agent.quantile_misses": (tracer.counters["quantile_misses"], "count"),
        "thresholds.critical_calls": (crit_calls, "count"),
        "thresholds.critical_self_s": (crit_self, "s"),
        "thresholds.br_per_cell": (
            _ratio(br_under(under="thresholds.critical_alpha"), crit_calls),
            "count",
        ),
        "thresholds.threshold_calls": (thr_calls, "count"),
        "thresholds.threshold_self_s": (thr_self, "s"),
        "thresholds.br_per_threshold": (
            _ratio(br_under(under="thresholds.participation_threshold"), thr_calls),
            "count",
        ),
        "loss.components_calls": (comp_calls, "count"),
        "loss.components_self_s": (comp_self, "s"),
        "loss.br_per_row": (_ratio(sweep_brs, rows), "count"),
        "loss.probe_br_frac": (_ratio(br_under(parent="loss.sweep_alpha"), sweep_brs), "ratio"),
        "stats.prior_pdf_calls": (pdf_calls, "count"),
        "stats.prior_cdf_calls": (cdf_calls, "count"),
        "stats.prior_s": (pdf_s + cdf_s, "s"),
        "config.load_s": (_ratio(load_s, load_calls), "s"),
        "cli.self_s": (_ratio(main_self, main_calls), "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
