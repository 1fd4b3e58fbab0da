"""Numerical building blocks: normal tails and truncated priors.

Everything here is deliberately dependency-free.  The standard normal CDF
rides on the C library's ``erfc`` (absolute error well below 1e-12).  The
quantile of a lower-half probability uses Acklam's rational approximation
sharpened by one Newton step against that CDF; an upper-half ``p`` is
reflected to ``-quantile(1 - p)``, where ``1 - p`` is exact, so the Newton
step never works against a CDF that has rounded towards 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from .errors import DomainError, reject

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Coefficients of Acklam's rational approximation to the standard normal
# quantile (relative error ~1.15e-9 before refinement).
_ACKLAM_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_ACKLAM_P_LOW = 0.02425


def std_normal_pdf(z: float) -> float:
    """Density of the standard normal distribution at ``z``."""
    if not math.isfinite(z):
        raise DomainError(f"std_normal_pdf requires a finite argument, got {z!r}")
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def std_normal_cdf(z: float) -> float:
    """Left tail probability of the standard normal distribution at ``z``."""
    if not math.isfinite(z):
        raise DomainError(f"std_normal_cdf requires a finite argument, got {z!r}")
    return 0.5 * math.erfc(-z / _SQRT2)


def std_normal_sf(z: float) -> float:
    """Right tail ``1 - cdf(z)``, computed without cancellation."""
    if not math.isfinite(z):
        raise DomainError(f"std_normal_sf requires a finite argument, got {z!r}")
    return 0.5 * math.erfc(z / _SQRT2)


def std_normal_quantile(p: float) -> float:
    """Inverse of :func:`std_normal_cdf` on the open interval (0, 1).

    One Newton correction against the erfc-based CDF pushes the rational
    approximation down to roundoff level, so ``cdf(quantile(p))`` matches
    ``p`` to well under 1e-9.  Above one half the quantile is the reflected
    ``-quantile(1 - p)``.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"std_normal_quantile requires 0 < p < 1, got {p!r}")
    upper = p > 0.5
    if upper:
        p = 1.0 - p
    if p < _ACKLAM_P_LOW:
        c, d = _ACKLAM_C, _ACKLAM_D
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    else:
        a, b = _ACKLAM_A, _ACKLAM_B
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    pdf = _INV_SQRT_2PI * math.exp(-0.5 * x * x)
    if pdf > 0.0:
        x -= (0.5 * math.erfc(-x / _SQRT2) - p) / pdf
    return -x if upper else x


class Prior(Protocol):
    """Belief distribution over an applicant's true success probability."""

    def pdf(self, mu: float) -> float: ...

    def cdf(self, mu: float) -> float: ...

    @property
    def support(self) -> tuple[float, float]: ...


@dataclass(frozen=True)
class TruncatedNormalPrior:
    """Normal distribution truncated to a subinterval of (0, 1).

    ``pdf`` and ``cdf`` are renormalised so the retained mass integrates
    to one; outside ``[lo, hi]`` the density is zero and the CDF clamps.
    """

    mean: float
    sd: float
    lo: float
    hi: float

    def __post_init__(self) -> None:
        problems = []
        if not math.isfinite(self.mean):
            problems.append(f"mean must be a finite number, got {self.mean!r}")
        if not (self.sd > 0.0 and math.isfinite(self.sd)):
            problems.append(f"sd must be a positive finite number, got {self.sd!r}")
        if not 0.0 < self.lo < 1.0:
            problems.append(f"lo must lie strictly between 0 and 1, got {self.lo!r}")
        if not self.lo < self.hi < 1.0:
            problems.append(f"hi must lie strictly between lo and 1, got {self.hi!r}")
        if not problems:
            low = std_normal_cdf((self.lo - self.mean) / self.sd)
            mass = std_normal_cdf((self.hi - self.mean) / self.sd) - low
            if mass <= 0.0:
                problems.append(
                    f"support must carry probability mass, got [{self.lo!r}, {self.hi!r}] "
                    f"under mean={self.mean!r}, sd={self.sd!r}"
                )
        reject(self, problems)
        # Constant per prior, so computed once.  Plain attributes, not
        # fields: equality, hashing and repr see only the four parameters.
        object.__setattr__(self, "_low", low)
        object.__setattr__(self, "_mass", mass)
        object.__setattr__(self, "_scale", self.sd * mass)

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def pdf(self, mu: float) -> float:
        if mu < self.lo or mu > self.hi:
            return 0.0
        return std_normal_pdf((mu - self.mean) / self.sd) / self._scale

    def cdf(self, mu: float) -> float:
        if mu <= self.lo:
            return 0.0
        if mu >= self.hi:
            return 1.0
        return (std_normal_cdf((mu - self.mean) / self.sd) - self._low) / self._mass
