"""Test oracles for the applicant model: the slope of expected profit and
the curvature partition of the trial-size range.

Both are restated here from the model's formulas rather than imported from
``trialgame.agent``, so a test that checks the best response against them
checks it against an independent derivation.  They are plain oracles:
arguments are not validated, and both apply only on the effective side
``mu0 > mu_b``.
"""

import math
from typing import NamedTuple

from trialgame.stats import std_normal_quantile


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


def curvature_regions(alpha, mu0, inst):
    """Ordered, contiguous partition of [n_min, n_max] by the curvature of expected profit.

    With ``v(n) = (d*s_b - dmu*sqrt(n)) / s_0`` the second derivative of
    expected profit has, in ``t = sqrt(n)``, the sign of the quadratic
    ``t^2 - (d*s_b/dmu)*t + s_0^2/dmu^2`` (positive means concave).  When
    its roots are real and positive they bound the convex window.
    """
    dmu = mu0 - inst.mu_b
    b = -std_normal_quantile(alpha) * math.sqrt(inst.mu_b * (1.0 - inst.mu_b)) / dmu
    disc = b * b - 4.0 * mu0 * (1.0 - mu0) / (dmu * dmu)
    n1 = n2 = 0.0
    if b > 0.0 and disc > 0.0:
        n1 = ((b - math.sqrt(disc)) / 2.0) ** 2
        n2 = ((b + math.sqrt(disc)) / 2.0) ** 2
    lo, hi = float(inst.n_min), float(inst.n_max)
    regions, a = [], lo
    for end, shape in ((n1, "concave"), (n2, "convex"), (hi, "concave")):
        end = min(end, hi)
        if a < end:
            regions.append(CurvatureRegion(a, end, shape))
            a = end
    # Degenerate n_min = n_max: classify the single admissible size.
    return tuple(regions) or (CurvatureRegion(lo, hi, "convex" if n1 < lo < n2 else "concave"),)
