"""Numerical building blocks: a finiteness test, normal tails and quantile, the prior.

Everything here is deliberately dependency-free.  The standard normal CDF
rides on the C library's ``erfc`` (absolute error well below 1e-12).  The
quantile is Wichura's AS241 as the standard library ships it in C, the
function behind :meth:`statistics.NormalDist.inv_cdf`.  An interpreter built
without that accelerator gets the same algorithm, bit for bit, in Python from
:mod:`statistics`; importing ``statistics`` pulls in ``decimal`` and
``fractions``, so it happens only there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, reject

try:
    from _statistics import _normal_dist_inv_cdf
except ImportError:  # no C accelerator: the same AS241 in Python
    from statistics import _normal_dist_inv_cdf

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def finite(x) -> bool:
    """Whether the number ``x`` is finite; an int too large for a float is not."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def std_normal_cdf(z: float) -> float:
    """Left tail probability of the standard normal distribution at ``z``."""
    if not finite(z):
        raise DomainError(f"std_normal_cdf requires a finite argument, got {z!r}")
    return 0.5 * math.erfc(-z / _SQRT2)


def std_normal_sf(z: float) -> float:
    """Right tail ``1 - cdf(z)``, computed without cancellation."""
    if not finite(z):
        raise DomainError(f"std_normal_sf requires a finite argument, got {z!r}")
    return 0.5 * math.erfc(z / _SQRT2)


def std_normal_quantile(p: float) -> float:
    """Inverse of :func:`std_normal_cdf` on the open interval (0, 1).

    Wichura's AS241 (*Applied Statistics* 37(3), 1988), the algorithm behind
    :meth:`statistics.NormalDist.inv_cdf`: rational approximations in
    ``p - 1/2`` near the centre and in ``sqrt(-ln min(p, 1 - p))`` in the
    tails.  Its error is within 6 ulps of ``max(|x|, 1)`` against a 50-digit
    reference, and a test holds it within 8 of scipy's ``ndtri`` down to
    ``p = 1e-300``.  For a small ``q``, ``Phi^{-1}(1 - q)`` is best taken as
    ``-quantile(q)``: ``quantile(1 - q)`` loses ``q`` to the rounding of
    ``1 - q``.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"std_normal_quantile requires 0 < p < 1, got {p!r}")
    return _normal_dist_inv_cdf(p, 0.0, 1.0)


@dataclass(frozen=True)
class TruncatedNormalPrior:
    """Normal distribution truncated to a subinterval of (0, 1).

    ``pdf`` and ``cdf`` are renormalised so the retained mass integrates
    to one; outside ``[lo, hi]`` the density is zero and the CDF clamps.
    The retained mass, ``cdf`` and ``_sf`` are each the normal mass of one
    interval ``[a, b]``, taken from the tails on ``a``'s side of the mean
    (``_between``), as ``Phi(b) - Phi(a)`` cancels near 1.  A retained mass
    below the least normal float is none.
    """

    mean: float
    sd: float
    lo: float
    hi: float

    def __post_init__(self) -> None:
        problems = []
        if not finite(self.mean):
            problems.append(f"mean must be a finite number, got {self.mean!r}")
        if not (self.sd > 0.0 and finite(self.sd)):
            problems.append(f"sd must be a positive finite number, got {self.sd!r}")
        if not 0.0 < self.lo < 1.0:
            problems.append(f"lo must lie strictly between 0 and 1, got {self.lo!r}")
        if not self.lo < self.hi < 1.0:
            problems.append(f"hi must lie strictly between lo and 1, got {self.hi!r}")
        if not problems:
            mass = self._between(self.lo, self.hi)
            if mass < sys.float_info.min:
                problems.append(
                    f"support must carry probability mass, got [{self.lo!r}, {self.hi!r}] "
                    f"under mean={self.mean!r}, sd={self.sd!r}"
                )
        reject(self, problems)
        # Constant per prior, so computed once.  Plain attributes, not
        # fields: equality, hashing and repr see only the four parameters.
        object.__setattr__(self, "_mass", mass)
        object.__setattr__(self, "_scale", self.sd * mass)

    def pdf(self, mu: float) -> float:
        if not self.lo <= mu <= self.hi:
            if mu != mu:  # NaN, the one number outside every comparison
                raise DomainError(f"prior density requires a number, got {mu!r}")
            return 0.0
        z = (mu - self.mean) / self.sd
        return _INV_SQRT_2PI * math.exp(-0.5 * z * z) / self._scale

    def cdf(self, mu: float) -> float:
        if mu <= self.lo:
            return 0.0
        if mu >= self.hi:
            return 1.0
        return self._between(self.lo, mu) / self._mass

    def _sf(self, mu: float) -> float:
        """``1 - cdf(mu)`` as the mass of ``[mu, hi]``, which keeps its digits where ``cdf`` nears 1."""
        if mu <= self.lo:
            return 1.0
        if mu >= self.hi:
            return 0.0
        return self._between(mu, self.hi) / self._mass

    def _between(self, a: float, b: float) -> float:
        """Normal mass of ``[a, b]``, unnormalised, from the tails on ``a``'s side of the mean.

        Left tails where ``a`` lies below the mean, right ones from it up: the
        tail taken away is then below 1/2, so no difference cancels two values
        near 1, as ``Phi(b) - Phi(a)`` does far above the mean.
        """
        za, zb = (a - self.mean) / self.sd, (b - self.mean) / self.sd
        if a < self.mean:
            return std_normal_cdf(zb) - std_normal_cdf(za)
        return std_normal_sf(za) - std_normal_sf(zb)
