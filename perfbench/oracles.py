"""Correctness oracles for the benchmark's outputs.

Every check reports what is wrong (a list of problems, or one problem or
``None``) instead of raising, so callers can count failures instead of
stopping at the first one. None of these run inside a timed region.
"""

from __future__ import annotations

import math
import statistics

from trialgame import (
    BELIEF_CEIL,
    BELIEF_FLOOR,
    DEFAULT_EPS,
    QuadratureSpec,
    best_response,
    best_response_bruteforce,
    loss_components,
    utility,
)

SWEEP_HEADER = "alpha,mu_tau,fp_particip,fn_particip,fn_abstain,fn_total,total_loss"
HEATMAP_HEADER = "R,c0,alpha_hat,clamped,alpha_hat_le_0_05"
HEATMAP_STATUSES = ("interior", "at_floor", "no_feasible_alpha")

# CSV values carry 10 significant digits.
CSV_RTOL = 1e-9

# Fine-panel reference for sampled sweep rows. Today's 400-panel rows differ
# from it by at most about 5e-4 (fn_particip on fn-curves-062), and moving the
# integrals to the participating end of the threshold bracket is expected to
# shift rows by up to 3e-4; 2e-3 leaves room for both while still catching a
# wrong channel, weight or threshold.
REFERENCE_PANELS = 4000
REFERENCE_ATOL = 2e-3

# A critical level is checked by scanning weak beliefs at alpha_hat times
# these factors: no weak belief may participate below, and some must above.
CRITICAL_BELOW = 0.99
CRITICAL_ABOVE = 1.01

# The bisection search for alpha_hat is known to overshoot when the baseline
# exceeds 0.6 (participation is no longer monotone in belief); such cells are
# counted as known defects, not passed.
KNOWN_DEFECT_MU_B = 0.6

BRUTEFORCE_MAX_SIZES = 1000

_NORMAL = statistics.NormalDist()


def _close(a: float, b: float, rtol: float = CSV_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _parse_csv(text: bytes, header: str, expected_rows: int) -> tuple[list[list[str]], list[str]]:
    try:
        lines = text.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return [], ["output is not UTF-8"]
    if lines[-1] != "":
        return [], ["output does not end with a newline"]
    lines.pop()
    if not lines or lines[0] != header:
        return [], [f"header {lines[0] if lines else ''!r} is not {header!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != expected_rows:
        return [], [f"{len(rows)} rows, expected {expected_rows}"]
    width = header.count(",") + 1
    for i, row in enumerate(rows):
        if len(row) != width:
            return [], [f"row {i}: {len(row)} fields, expected {width}"]
    return rows, []


def _floats(row: list[str], i: int, problems: list[str]) -> list[float] | None:
    try:
        values = [float(v) for v in row]
    except ValueError:
        problems.append(f"row {i}: non-numeric field in {row!r}")
        return None
    if not all(math.isfinite(v) for v in values):
        problems.append(f"row {i}: non-finite field in {row!r}")
        return None
    return values


def check_sweep_csv(text: bytes, alpha_grid: list[float], weights) -> tuple[list[list[float]], list[str]]:
    """Parse a ``loss-sweep`` CSV and check every row's invariants."""
    rows, problems = _parse_csv(text, SWEEP_HEADER, len(alpha_grid))
    parsed = []
    for i, (row, alpha) in enumerate(zip(rows, alpha_grid)):
        values = _floats(row, i, problems)
        if values is None:
            continue
        a, mu_tau, fp, fn_p, fn_a, fn_total, total = values
        if not _close(a, alpha):
            problems.append(f"row {i}: alpha {a!r}, expected {alpha!r}")
        if not BELIEF_FLOOR <= mu_tau <= BELIEF_CEIL:
            problems.append(f"row {i}: mu_tau {mu_tau!r} outside the belief range")
        for name, v in (("fp_particip", fp), ("fn_particip", fn_p), ("fn_abstain", fn_a)):
            if not 0.0 <= v <= 1.0:
                problems.append(f"row {i}: {name} {v!r} outside [0, 1]")
        if not (-CSV_RTOL <= fn_total <= 1.0 + CSV_RTOL and _close(fn_total, fn_p + fn_a)):
            problems.append(f"row {i}: fn_total {fn_total!r} is not fn_particip + fn_abstain in [0, 1]")
        if not _close(total, weights.lambda_fp * fp + weights.lambda_fn * fn_total):
            problems.append(f"row {i}: total_loss {total!r} is not the weighted sum of its components")
        parsed.append(values)
    return parsed, problems


def check_sweep_row_reference(row: list[float], cfg) -> list[str]:
    """Compare one parsed sweep row with a fine-panel ``loss_components``."""
    alpha = row[0]
    ref = loss_components(alpha, cfg.instance, cfg.prior, QuadratureSpec(panels=REFERENCE_PANELS), cfg.weights)
    problems = []
    if not _close(row[1], ref.mu_tau):
        problems.append(f"alpha {alpha!r}: mu_tau {row[1]!r}, reference {ref.mu_tau!r}")
    for name, got, want in (
        ("fp_particip", row[2], ref.fp_particip),
        ("fn_particip", row[3], ref.fn_particip),
        ("fn_abstain", row[4], ref.fn_abstain),
    ):
        if abs(got - want) > REFERENCE_ATOL:
            problems.append(f"alpha {alpha!r}: {name} {got!r}, fine-panel reference {want!r}")
    return problems


def max_weak_utility(alpha: float, inst, points: int = 256) -> float:
    """Largest expected profit of any weak belief (``mu <= mu_b``) at ``alpha``.

    On the weak side more samples only lower the pass chance, so each weak
    belief's best trial is ``n_min``. The profit over beliefs is scanned on
    a uniform grid and the best cell refined by golden-section search. The
    test quantile comes from :class:`statistics.NormalDist`, not from the
    package, so the scan is independent of the solver it checks.
    """
    d = _NORMAL.inv_cdf(1.0 - alpha)
    mu_b = inst.mu_b
    ds = d * math.sqrt(mu_b * (1.0 - mu_b))
    root_n = math.sqrt(inst.n_min)
    cost = inst.c0 + inst.c * inst.n_min
    R = inst.R

    def u(mu: float) -> float:
        v = (ds - (mu - mu_b) * root_n) / math.sqrt(mu * (1.0 - mu))
        return R * 0.5 * math.erfc(v / math.sqrt(2.0)) - cost

    lo, hi = BELIEF_FLOOR, mu_b
    xs = [lo + (hi - lo) * i / points for i in range(points)] + [hi]
    values = [u(x) for x in xs]
    best = max(range(len(xs)), key=values.__getitem__)
    a, b = xs[max(best - 1, 0)], xs[min(best + 1, points)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        m1, m2 = b - inv_phi * (b - a), a + inv_phi * (b - a)
        if u(m1) < u(m2):
            a = m1
        else:
            b = m2
    return max(values[best], u(0.5 * (a + b)))


def weak_participates(alpha: float, inst) -> bool:
    return alpha < 1.0 and max_weak_utility(alpha, inst) >= 0.0


def classify_cell(inst, alpha_hat: float, status: str) -> str | None:
    """Check one heatmap cell against a weak-belief scan.

    Returns ``None`` when the cell passes, ``"known_defect"`` when it shows
    the known overshoot of the bisection search for baselines above 0.6,
    and otherwise a description of the failure.
    """
    if status == "interior":
        if not weak_participates(CRITICAL_ABOVE * alpha_hat, inst):
            return f"no weak belief participates at {CRITICAL_ABOVE} x alpha_hat {alpha_hat!r}"
        if weak_participates(CRITICAL_BELOW * alpha_hat, inst):
            if inst.mu_b > KNOWN_DEFECT_MU_B:
                return "known_defect"
            return f"a weak belief already participates at {CRITICAL_BELOW} x alpha_hat {alpha_hat!r}"
        return None
    if status == "at_floor":
        if not weak_participates(CRITICAL_ABOVE * alpha_hat, inst):
            return f"status at_floor, but no weak belief participates at {alpha_hat!r}"
        return None
    if status == "no_feasible_alpha":
        if weak_participates(alpha_hat, inst):
            return f"status no_feasible_alpha, but a weak belief participates at {alpha_hat!r}"
        return None
    return f"unknown status {status!r}"


def check_heatmap_csv(text: bytes, r_grid: list[float], c0_grid: list[float]):
    """Parse a ``heatmap`` CSV; return ``(cells, problems)``.

    ``cells`` maps ``(R, c0)`` to ``(alpha_hat, status)`` for rows that
    parsed, in the command's order: revenue outer, fixed cost inner.
    """
    rows, problems = _parse_csv(text, HEATMAP_HEADER, len(r_grid) * len(c0_grid))
    cells = {}
    for i, row in enumerate(rows):
        r, c0 = r_grid[i // len(c0_grid)], c0_grid[i % len(c0_grid)]
        status = row[3]
        if status not in HEATMAP_STATUSES:
            problems.append(f"row {i}: unknown status {status!r}")
            continue
        values = _floats(row[:3] + row[4:], i, problems)
        if values is None:
            continue
        got_r, got_c0, alpha_hat, flag = values
        if not (_close(got_r, r) and _close(got_c0, c0)):
            problems.append(f"row {i}: cell ({got_r!r}, {got_c0!r}), expected ({r!r}, {c0!r})")
        if not 0.0 < alpha_hat < 1.0:
            problems.append(f"row {i}: alpha_hat {alpha_hat!r} outside (0, 1)")
            continue
        if flag not in (0.0, 1.0) or (abs(alpha_hat - 0.05) > 1e-9 and flag != (alpha_hat <= 0.05)):
            problems.append(f"row {i}: alpha_hat_le_0_05 {row[4]!r} disagrees with alpha_hat {alpha_hat!r}")
        cells[(r, c0)] = (alpha_hat, status)
    return cells, problems


def check_best_response(alpha: float, mu0: float, inst, br) -> str | None:
    """Check one best response against a scan over trial sizes.

    Small ranges use the exhaustive scan; larger ones a log-spaced scan,
    which can never beat the true optimum, plus a recomputation of the
    reported utility.
    """
    tol = 1e-9 * max(1.0, inst.R)
    if inst.n_max - inst.n_min <= BRUTEFORCE_MAX_SIZES:
        ref = best_response_bruteforce(alpha, mu0, inst)
        if ref.participates != br.participates or abs(ref.utility - br.utility) > tol:
            return f"best_response {br} differs from the exhaustive scan {ref}"
        return None
    span = math.log(inst.n_max / inst.n_min)
    sizes = {inst.n_min, inst.n_max}
    sizes.update(int(round(inst.n_min * math.exp(span * i / 199))) for i in range(200))
    best_scan = max(utility(alpha, mu0, n, inst) for n in sizes)
    if br.participates:
        if not inst.n_min <= br.n_star <= inst.n_max:
            return f"best_response n_star {br.n_star} outside [{inst.n_min}, {inst.n_max}]"
        if abs(utility(alpha, mu0, br.n_star, inst) - br.utility) > tol or br.utility < 0.0:
            return f"best_response utility {br.utility!r} is not the utility of n_star {br.n_star}"
        if best_scan > br.utility + tol:
            return f"best_response utility {br.utility!r} is beaten by a scanned size ({best_scan!r})"
    elif best_scan >= tol or br.utility != 0.0:
        return f"best_response abstains, but a scanned size earns {best_scan!r}"
    return None


def check_threshold(alpha: float, inst, th) -> str | None:
    """Check a participation threshold's bracket with best responses."""
    if th.status == "interior":
        if not 0.0 < th.epsilon <= 0.5 * DEFAULT_EPS * (1.0 + 1e-9):
            return f"threshold epsilon {th.epsilon!r} is not within the tolerance"
        lo, hi = th.mu_tau - th.epsilon, th.mu_tau + th.epsilon
        if best_response(alpha, lo, inst).participates:
            return f"belief {lo!r} below the bracket already participates"
        if not best_response(alpha, hi, inst).participates:
            return f"belief {hi!r} above the bracket does not participate"
        return None
    if th.status == "all_participate":
        if th.mu_tau != BELIEF_FLOOR or not best_response(alpha, BELIEF_FLOOR, inst).participates:
            return f"status all_participate, but the floor belief does not participate ({th})"
        return None
    if th.status == "none_participate":
        if th.mu_tau != BELIEF_CEIL or best_response(alpha, BELIEF_CEIL, inst).participates:
            return f"status none_participate, but the ceiling belief participates ({th})"
        return None
    return f"unknown threshold status {th.status!r}"
