"""Test oracles for the applicant model and the regulator's loss.

The applicant-model oracles are the slope of expected profit, the curvature
partition of the trial-size range, and the critical level found by
evaluating the weak-belief maximand at its peak.  They are restated here
from the model's formulas rather than imported from ``trialgame``, so a test
that checks the solver against them checks it against an independent
derivation.  They are plain oracles: arguments are not validated, the slope
and the partition apply only on the effective side ``mu0 > mu_b``, and the
critical level only where ``(c0 + c * n_min) / R`` lies in ``(0, 1/2)``.

:func:`grid_optimal_alpha` is not restated: it searches the package's own
loss (``sweep_alpha``) on a uniform grid of levels, so it pins where the
least loss sits, not what the loss is.
"""

import math
from typing import NamedTuple

from trialgame import DEFAULT_EPS, critical_alpha, sweep_alpha
from trialgame.stats import std_normal_quantile, std_normal_sf


class CurvatureRegion(NamedTuple):
    """Maximal interval of trial sizes with a single curvature sign."""

    n_lo: float
    n_hi: float
    shape: str  # "concave" or "convex"


def utility_slope(alpha, mu0, n, inst):
    """Derivative of expected profit with respect to a real-valued ``n``."""
    d = -std_normal_quantile(alpha)
    dmu = mu0 - inst.mu_b
    sigma0 = math.sqrt(mu0 * (1.0 - mu0))
    sigma_b = math.sqrt(inst.mu_b * (1.0 - inst.mu_b))
    rootn = math.sqrt(n)
    v = (d * sigma_b - dmu * rootn) / sigma0
    pdf = 1.0 / math.sqrt(2.0 * math.pi) * math.exp(-0.5 * v * v)  # the normal density
    return pdf * inst.R * dmu / (2.0 * sigma0 * rootn) - inst.c


def convex_window(alpha, mu0, inst):
    """Real sizes ``(n1, n2)`` bounding the window where expected profit is convex in ``n``.

    With ``v(n) = (d*s_b - dmu*sqrt(n)) / s_0`` the second derivative of
    expected profit has, in ``t = sqrt(n)``, the sign of the quadratic
    ``t^2 - (d*s_b/dmu)*t + s_0^2/dmu^2`` (positive means concave).  When
    its roots are real and positive they bound the window; otherwise there
    is none, reported as ``(0.0, 0.0)``.  Takes ``mu0 > mu_b``.
    """
    dmu = mu0 - inst.mu_b
    b = -std_normal_quantile(alpha) * math.sqrt(inst.mu_b * (1.0 - inst.mu_b)) / dmu
    disc = b * b - 4.0 * mu0 * (1.0 - mu0) / (dmu * dmu)
    if b > 0.0 and disc > 0.0:
        return ((b - math.sqrt(disc)) / 2.0) ** 2, ((b + math.sqrt(disc)) / 2.0) ** 2
    return 0.0, 0.0


def curvature_regions(alpha, mu0, inst):
    """Ordered, contiguous partition of [n_min, n_max] by the curvature of expected profit.

    The convex window of :func:`convex_window` splits the range into at most
    a concave, a convex and a concave piece.
    """
    n1, n2 = convex_window(alpha, mu0, inst)
    lo, hi = float(inst.n_min), float(inst.n_max)
    regions, a = [], lo
    for end, shape in ((n1, "concave"), (n2, "convex"), (hi, "concave")):
        end = min(end, hi)
        if a < end:
            regions.append(CurvatureRegion(a, end, shape))
            a = end
    # Degenerate n_min = n_max: classify the single admissible size.
    return tuple(regions) or (CurvatureRegion(lo, hi, "convex" if n1 < lo < n2 else "concave"),)


def peak_critical_alpha(inst):
    """Unclamped critical level, ``sf`` of the weak-belief maximand at its peak.

    A weak belief ``mu`` enters at ``alpha`` when ``Phi^{-1}(1 - alpha) <=
    g(mu) = (z s(mu) - (mu_b - mu) sqrt(n_min)) / s(mu_b)``.  For ``k < 1/2``
    the maximand is concave and peaks at ``(1 + sqrt(n_min / (z^2 +
    n_min))) / 2``; over ``[BELIEF_FLOOR, mu_b]`` it is largest there or, if
    the peak lies beyond ``mu_b``, at ``mu_b``.
    """
    k = (inst.c0 + inst.c * inst.n_min) / inst.R
    z = -std_normal_quantile(k)
    mu_b, root_n = inst.mu_b, math.sqrt(inst.n_min)

    def g(mu):
        return (z * math.sqrt(mu * (1.0 - mu)) - (mu_b - mu) * root_n) / math.sqrt(mu_b * (1.0 - mu_b))

    return std_normal_sf(g(min(0.5 * (1.0 + root_n / math.sqrt(z * z + inst.n_min)), mu_b)))


def grid_optimal_alpha(inst, prior, weights, quad):
    """Least-loss level among 100 evenly spaced in ``[alpha_hat, 1 - DEFAULT_EPS]``.

    Below the critical level the false-positive channel is flat at zero
    while missed approvals only grow, so the grid starts at ``alpha_hat``.
    Ties resolve to the smaller level.
    """
    a0 = critical_alpha(inst).alpha_hat
    step = (1.0 - DEFAULT_EPS - a0) / 99
    grid = [a0 + i * step for i in range(100)]
    losses = [b.total for b in sweep_alpha(grid, inst, prior, weights, quad)]
    return grid[losses.index(min(losses))]
