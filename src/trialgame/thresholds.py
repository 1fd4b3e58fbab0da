"""Participation threshold and critical significance level.

The marginal belief ``mu_tau(alpha)`` is where participation switches from
abstaining to participating.  For a fixed trial size the belief that breaks
even is a root of a quadratic, so iterating between break-even beliefs and
the best size just below each locates the crossing and closes a bracket
around it of half-width ``2**-34``; no search over beliefs is needed.  The
abstaining end is answered by the best response, and the participating end
is witnessed by one size that pays there, scored as the best response
scores it.  This assumes participation is monotone in belief, true for
baselines up to about 0.6; above that a lower crossing may be returned, still
between an abstaining and a participating belief.  The critical level
``alpha_hat`` is where a weak belief (``mu <= mu_b``) first enters.  Weak
applicants always buy ``n_min`` samples, so it is one formula with no search
and no best response; where a weaker belief enters first, it is the level at
which ``n_min``'s break-even quadratic has a double root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .agent import BELIEF_CEIL, BELIEF_FLOOR, EconomicInstance, _level, _respond, _score
from .stats import std_normal_quantile, std_normal_sf

#: Clamp margin of the critical level: ``alpha_hat`` is reported within
#: ``[DEFAULT_EPS, 1 - DEFAULT_EPS]``.
DEFAULT_EPS = 1e-6


@dataclass(slots=True)
class ParticipationThreshold:
    """Marginal belief at a fixed significance level.

    ``status`` is ``"interior"`` for a genuine crossing, or records that
    the whole clamped belief range participates (``"all_participate"``)
    or abstains (``"none_participate"``), in which case ``mu_tau`` is the
    corresponding clamp boundary.
    """

    mu_tau: float
    epsilon: float
    status: str


@dataclass(slots=True)
class CriticalAlpha:
    """Significance level at which a weak belief first enters the trial.

    No belief at or below the baseline participates below ``alpha_hat``.
    ``status`` is ``"interior"``, ``"at_floor"`` (the level is at most
    ``DEFAULT_EPS`` and reported as ``DEFAULT_EPS``) or
    ``"no_feasible_alpha"`` (above ``1 - DEFAULT_EPS``, e.g. when revenue
    cannot cover the cheapest trial; reported as ``1 - DEFAULT_EPS``).
    """

    alpha_hat: float
    status: str


def _break_even(level: tuple, n: int) -> float | None:
    """Lowest belief in the clamped range at which ``n`` samples break even.

    ``R * p(n, mu) = c0 + c * n`` means ``v(mu) = z`` with ``k = (c0 + c n) / R``,
    ``z = Phi^{-1}(1 - k)``, ``r = sqrt(n)``, ``A = d s_b + mu_b r`` and
    ``v = (A - r mu) / s(mu)``.  Squaring gives the quadratic
    ``(A - r mu)^2 = z^2 mu (1 - mu)``, whose roots count when
    ``(A - r mu) z >= 0``.  ``None`` when no such root lies in range.
    """
    mu_b, ds, R, c0, c = level[:5]
    k = (c0 + c * n) / R
    if not 0.0 < k < 1.0:
        return None
    z = -std_normal_quantile(k)
    r = math.sqrt(n)
    a = ds + mu_b * r
    b = 2.0 * a * r + z * z
    disc = z * z * (z * z + 4.0 * a * (r - a))
    if b <= 0.0 or disc < 0.0:  # both roots at or below 0, or none real
        return None
    q = r * r + z * z
    big = (b + math.sqrt(disc)) / (2.0 * q)
    for mu in (a * a / (q * big), big):
        if BELIEF_FLOOR <= mu <= BELIEF_CEIL and (a - r * mu) * z >= 0.0:
            return mu
    return None


#: Half-width of the evaluated bracket closed around a break-even belief.
_BRACKET = 2.0**-34


def _on_grid(mu: float) -> float:
    """Nearest multiple of ``2**-52``.

    For two such beliefs, ``m - h`` and ``m + h`` from their exact midpoint
    ``m`` and half-width ``h`` give both back bit for bit.
    """
    return math.ldexp(round(math.ldexp(mu, 52)), -52)


def _bracket(level: tuple, n_ceil: int) -> tuple[float, float]:
    """Beliefs ``(a, b)``, ``a < b``, where ``a`` abstains and ``b`` participates.

    Starts from the lowest break-even belief ``mu`` of ``n_min``, ``n_max``
    and ``n_ceil`` (the best size at the ceiling).  The participating end
    ``mu + _BRACKET`` is witnessed by the size ``n`` that breaks even at
    ``mu`` and scored by ``agent._score`` as the kernel scores it, so a
    witness that earns at least zero proves that the kernel participates;
    the kernel is asked there only if ``n`` does not pay.  The abstaining
    end ``mu - _BRACKET`` is asked of the kernel: if it abstains, the
    bracket is closed.  If it participates with size ``m``, the walk moves
    to ``m``'s break-even belief, and doubles ``m`` while the doubled size
    pays at the current belief (scored the same way), which puts its
    break-even belief lower still; then both ends are tried again.  Each
    size's break-even belief is solved once.  No belief is asked at a root
    itself, where the answer flips on the last bit, and ``mu`` is put on the
    grid of :func:`_on_grid` first.  The walk stops, leaving a wider bracket
    for the caller to bisect, if the witnessed end abstains or the kernel's
    size breaks even no lower.  The clamp ends are returned for whatever
    this cannot settle.
    """
    a, b = BELIEF_FLOOR, BELIEF_CEIL
    n_min, n_max = level[5:7]
    roots: dict[int, float | None] = {}
    for n in (n_min, n_max, n_ceil):
        if n not in roots:
            roots[n] = _break_even(level, n)
    found = [(mu, n) for n, mu in roots.items() if mu is not None]
    if not found:
        return a, b
    mu, n = min(found)
    while True:
        grid = _on_grid(mu)
        hi = grid + _BRACKET if grid + _BRACKET < BELIEF_CEIL else BELIEF_CEIL
        if not (_score(level, hi, n)[0] >= 0.0 or _respond(level, hi)[1]):
            a = hi
            break
        if hi < b:
            b = hi
        lo = grid - _BRACKET if grid - _BRACKET > BELIEF_FLOOR else BELIEF_FLOOR
        m = _respond(level, lo)[1]
        if not m:
            a = lo
            break
        # m pays at lo, so it breaks even lower, unless rounding says
        # otherwise; a doubled size that pays there breaks even lower still.
        b, start = lo, mu
        while True:
            if m not in roots:
                roots[m] = _break_even(level, m)
            if roots[m] is None or not roots[m] < mu:
                break
            mu, n = roots[m], m
            if m == n_max:
                break
            m = 2 * m if 2 * m < n_max else n_max
            if m not in roots and _score(level, mu, m)[0] < 0.0:
                break
        if mu == start:
            break
    return (a, b) if a < b else (BELIEF_FLOOR, BELIEF_CEIL)


def _threshold(level: tuple) -> ParticipationThreshold:
    """:func:`participation_threshold` at a :func:`_level`."""
    if _respond(level, BELIEF_FLOOR)[1]:  # n_star, which is 0 only when abstaining
        return ParticipationThreshold(BELIEF_FLOOR, 0.0, "all_participate")
    n_ceil = _respond(level, BELIEF_CEIL)[1]
    if not n_ceil:
        return ParticipationThreshold(BELIEF_CEIL, 0.0, "none_participate")
    a, b = _bracket(level, n_ceil)
    while b - a > 2.0 * _BRACKET:
        mid = _on_grid(0.5 * (a + b))
        if _respond(level, mid)[1]:
            b = mid
        else:
            a = mid
    return ParticipationThreshold(0.5 * (a + b), 0.5 * (b - a), "interior")


def participation_threshold(alpha: float, inst: EconomicInstance) -> ParticipationThreshold:
    """Lowest belief that still participates, to within ``2**-34``.

    :func:`_bracket` locates the crossing from closed-form break-even
    beliefs and returns an abstaining belief ``a``, which the kernel
    answered, and a participating belief ``b``, witnessed by one size's
    utility (or answered by the kernel, should that size not pay).  Should
    they be more than ``2 * _BRACKET`` apart (the closing ask participated
    and the walk could not move lower, or an end failed), the bracket is
    bisected at grid points down to that width.  ``mu_tau`` is the midpoint
    and ``epsilon`` the half-width, and ``mu_tau - epsilon`` and ``mu_tau +
    epsilon`` recompute ``a`` and ``b`` exactly, unless one is a clamp
    belief.  Interior thresholds cost 3 best responses at the least: the
    two clamp probes and the closing ask.
    """
    return _threshold(_level(alpha, inst))


def critical_alpha_closed_form(inst: EconomicInstance) -> float:
    """Break-even significance level of the baseline-belief applicant.

    An applicant whose belief equals the baseline passes with probability
    exactly ``alpha`` no matter the trial size, so it participates exactly
    when ``R * alpha`` covers the cheapest trial: ``(c0 + c * n_min) / R``.
    This is :func:`critical_alpha` whenever the baseline belief is the
    first weak belief to enter, which always holds for ``mu_b <= 1/2``.
    """
    return (inst.c0 + inst.c * inst.n_min) / inst.R


def critical_alpha(inst: EconomicInstance) -> CriticalAlpha:
    """Level at which some belief ``mu <= mu_b`` first participates.

    A weak belief buys ``n = n_min`` samples and enters at ``alpha`` exactly
    when ``Phi^{-1}(1 - alpha) <= g(mu) = (z s(mu) - (mu_b - mu) sqrt(n)) / s_b``,
    with ``z = Phi^{-1}(1 - k)``, ``k = (c0 + c n) / R`` and ``s`` the Bernoulli
    standard deviation, so ``alpha_hat = sf(max g)`` over ``[BELIEF_FLOOR,
    mu_b]``, and ``g(mu_b) = z`` gives ``k``.  For ``k < 1/2``, ``g`` is
    concave and peaks above 1/2 at ``(1 + sqrt(n) / h) / 2``, ``h = sqrt(n +
    z^2)``.  A peak below ``mu_b`` is where :func:`_break_even`'s quadratic
    has a double root, at ``alpha_hat = sf((h + (1 - 2 mu_b) sqrt(n)) / (2
    s_b))``; the numerator is taken as ``(z^2 + 4 n s_b^2) / (h + (2 mu_b -
    1) sqrt(n))``, which cancels no digits.  Otherwise ``g`` is convex, and
    the floor wins if ``g`` exceeds ``z`` there.  The level is exact, so the
    only margin is the clamp to ``[DEFAULT_EPS, 1 - DEFAULT_EPS]`` that
    :class:`CriticalAlpha`'s status records.
    """
    alpha_hat = k = critical_alpha_closed_form(inst)
    if 0.0 < k < 1.0:
        mu_b, mu, n = inst.mu_b, BELIEF_FLOOR, inst.n_min
        root_n, s_b = math.sqrt(n), math.sqrt(mu_b * (1.0 - mu_b))
        z = -std_normal_quantile(k)
        if z > 0.0:
            h = math.hypot(root_n, z)
            if 0.5 * (1.0 + root_n / h) < mu_b:
                g = (z * z + 4.0 * n * mu_b * (1.0 - mu_b)) / (h + (2.0 * mu_b - 1.0) * root_n)
                alpha_hat = std_normal_sf(g / (2.0 * s_b))
        else:
            g = (z * math.sqrt(mu * (1.0 - mu)) - (mu_b - mu) * root_n) / s_b
            if g > z:
                alpha_hat = std_normal_sf(g)
    if alpha_hat <= DEFAULT_EPS:
        return CriticalAlpha(DEFAULT_EPS, "at_floor")
    if alpha_hat > 1.0 - DEFAULT_EPS:
        return CriticalAlpha(1.0 - DEFAULT_EPS, "no_feasible_alpha")
    return CriticalAlpha(alpha_hat, "interior")
