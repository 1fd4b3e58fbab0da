"""Command-line front end.

Subcommands, each one row of :func:`build_parser`'s table: ``best-response``,
``threshold``, ``critical-alpha``, and the CSV commands ``loss-sweep`` and
``heatmap``, which name every missing input in one error.  Each accepts
``--config`` (a JSON file path or a bundled preset name), ``--output`` and
``--quiet``.  Exit codes: 0 on success, 2 for usage or validation problems,
3 for numeric domain failures, 4 for I/O failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .agent import EconomicInstance, best_response
from .config import (
    RunConfig,
    available_presets,
    default_alpha_grid,
    load_config,
    preset_path,
)
from .errors import ConfigError, DomainError
from .loss import sweep_alpha
from .thresholds import critical_alpha, critical_alpha_closed_form, participation_threshold

SWEEP_COLUMNS = (
    "alpha",
    "mu_tau",
    "fp_particip",
    "fn_particip",
    "fn_abstain",
    "fn_total",
    "total_loss",
)
HEATMAP_COLUMNS = ("R", "c0", "alpha_hat", "clamped", "alpha_hat_le_0_05")


def _fmt(value) -> str:
    return f"{value:.10g}" if isinstance(value, float) else str(value)


def _emit_csv(path: str, columns, rows, args) -> None:
    """Write ``rows`` under a ``columns`` header to ``path``, and say so unless ``--quiet``."""
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    if not args.quiet:
        print(f"wrote {len(rows)} rows to {path}")


def _report(args, columns, row, shown) -> None:
    """Print ``column: shown`` per column, and write ``row`` to ``--output`` if given."""
    for name, value in zip(columns, shown):
        print(f"{name}: {value}")
    if args.output:
        _emit_csv(args.output, columns, [row], args)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", metavar="PATH", help="JSON configuration file or bundled preset name"
    )
    common.add_argument("--output", metavar="PATH", help="write CSV output to this file")
    common.add_argument("--quiet", action="store_true", help="suppress informational messages")

    defaults = {f.name: f.default for f in dataclasses.fields(EconomicInstance)}
    economics = argparse.ArgumentParser(add_help=False)
    economics.add_argument("--R", type=float, help="revenue on approval")
    economics.add_argument("--c0", type=float, help="fixed trial cost")
    economics.add_argument("--c", type=float, help="cost per sample")
    economics.add_argument("--mu-b", type=float, help="baseline success rate")
    for name, role in (("n_min", "smallest"), ("n_max", "largest")):
        text = f"{role} admissible trial size (default {defaults[name]})"
        economics.add_argument(f"--{name.replace('_', '-')}", type=int, help=text)

    parser = argparse.ArgumentParser(
        prog="trialgame",
        description="Strategic trial-sizing game: applicant best responses and "
        "regulator loss curves for one-sided binomial approval tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    instance = [common, economics]
    alpha = ("--alpha", "significance level of the test")
    mu0 = ("--mu0", "applicant's believed success rate")
    # Each row: name, parent parsers, required float flags, handler, help.
    for name, parents, flags, handler, text in (
        ("best-response", instance, (alpha, mu0), cmd_best_response,
         "participation decision and optimal trial size for one applicant"),
        ("threshold", instance, (alpha,), cmd_threshold,
         "marginal participating belief at a significance level"),
        ("critical-alpha", instance, (), cmd_critical_alpha,
         "significance level below which weak applicants stay out"),
        ("loss-sweep", [common], (), cmd_loss_sweep,
         "regulator loss decomposition along an alpha grid (CSV)"),
        ("heatmap", [common], (), cmd_heatmap,
         "critical alpha over a revenue/fixed-cost grid (CSV)"),
    ):
        p = sub.add_parser(name, parents=parents, help=text)
        for flag, flag_help in flags:
            p.add_argument(flag, type=float, required=True, help=flag_help)
        p.set_defaults(handler=handler)
    return parser


def _load_config_arg(args) -> RunConfig | None:
    if not args.config:
        return None
    path = Path(args.config)
    if path.exists():
        return load_config(path)
    try:
        return load_config(preset_path(args.config))
    except FileNotFoundError:
        raise FileNotFoundError(
            f"config not found: {args.config!r} is neither a file nor a bundled preset "
            f"(presets: {', '.join(available_presets())})"
        ) from None


def _resolve_instance(args) -> EconomicInstance:
    """The configuration's instance with the economics flags given applied over it.

    Each field of :class:`EconomicInstance` is a flag of the same name.
    Without a configuration, each field that has no default is required.
    """
    cfg = _load_config_arg(args)
    fields = dataclasses.fields(EconomicInstance)
    overrides = {f.name: getattr(args, f.name) for f in fields if getattr(args, f.name) is not None}
    try:
        if cfg is not None:
            return dataclasses.replace(cfg.instance, **overrides)
        missing = [
            f"--{f.name.replace('_', '-')}: required when no configuration supplies the instance"
            for f in fields
            if f.default is dataclasses.MISSING and f.name not in overrides
        ]
        if missing:
            raise ConfigError(missing)
        return EconomicInstance(**overrides)
    except DomainError as exc:
        raise ConfigError(exc.problems) from exc


def _csv_inputs(args, **needs: str) -> tuple[RunConfig, str]:
    """A CSV command's configuration and output path; one error names every part missing.

    ``needs`` maps each :class:`RunConfig` field the command reads to its key.
    """
    cfg = _load_config_arg(args)
    if cfg is None:
        raise ConfigError([f"--config: required by the {args.command} command"])
    problems = [
        f"{key}: required by the {args.command} command"
        for field, key in needs.items()
        if getattr(cfg, field) is None
    ]
    out = args.output or cfg.output
    if not out:
        problems.append(
            f"output: the {args.command} command needs --output or an `output` entry "
            "in the configuration"
        )
    if problems:
        raise ConfigError(problems)
    return cfg, out


def cmd_best_response(args) -> None:
    inst = _resolve_instance(args)
    br = best_response(args.alpha, args.mu0, inst)
    _report(
        args,
        ("participates", "n_star", "pass_prob", "utility"),
        (int(br.participates), br.n_star, br.pass_prob, br.utility),
        ("yes" if br.participates else "no", br.n_star, f"{br.pass_prob:.6g}", f"{br.utility:.6g}"),
    )


def cmd_threshold(args) -> None:
    inst = _resolve_instance(args)
    th = participation_threshold(args.alpha, inst)
    _report(
        args,
        ("mu_tau", "epsilon", "status"),
        (th.mu_tau, th.epsilon, th.status),
        (f"{th.mu_tau:.6g}", f"{th.epsilon:.3g}", th.status),
    )


def cmd_critical_alpha(args) -> None:
    inst = _resolve_instance(args)
    ca = critical_alpha(inst)
    closed = critical_alpha_closed_form(inst)
    diff = abs(ca.alpha_hat - closed)
    _report(
        args,
        ("alpha_hat", "closed_form", "abs_diff", "status"),
        (ca.alpha_hat, closed, diff, ca.status),
        (f"{ca.alpha_hat:.6g}", f"{closed:.6g}", f"{diff:.3g}", ca.status),
    )


def cmd_loss_sweep(args) -> None:
    cfg, out = _csv_inputs(args, prior="prior")
    grid = cfg.alpha_grid if cfg.alpha_grid is not None else default_alpha_grid()
    breakdowns = sweep_alpha(grid, cfg.instance, cfg.prior, cfg.weights, cfg.quadrature)
    rows = [
        (a, b.mu_tau, b.fp_particip, b.fn_particip, b.fn_abstain, b.fn_particip + b.fn_abstain, b.total)
        for a, b in zip(grid, breakdowns)
    ]
    _emit_csv(out, SWEEP_COLUMNS, rows, args)


def cmd_heatmap(args) -> None:
    cfg, out = _csv_inputs(args, r_grid="grids.R", c0_grid="grids.c0")
    rows = []
    for r in cfg.r_grid:
        for c0 in cfg.c0_grid:
            inst = dataclasses.replace(cfg.instance, R=r, c0=c0)
            ca = critical_alpha(inst)
            rows.append((r, c0, ca.alpha_hat, ca.status, int(ca.alpha_hat <= 0.05)))
    _emit_csv(out, HEATMAP_COLUMNS, rows, args)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.handler(args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    return 0


def run() -> None:
    raise SystemExit(main())
