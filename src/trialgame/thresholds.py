"""Participation threshold and critical significance level.

The marginal belief ``mu_tau(alpha)`` is where participation switches from
abstaining to participating.  A fixed trial size pays between roots of a
quadratic.  A weak belief (``mu <= mu_b``) buys ``n_min`` alone, so a root of
``n_min`` at or below ``mu_b`` is the crossing; otherwise iterating between
break-even beliefs and the best size just below each locates it.  A bracket
of half-width ``2**-34`` is closed around it with no search over beliefs:
the best response answers its abstaining end, and one size that pays
witnesses its participating end.  The entry assumes participation is one
interval in belief, and it can be two: for ``k >= 1/2`` a size's pay set can
be two end pieces at any baseline, and an effective-side gap can follow the
weak piece (seen at baselines 0.78-0.89).  One entry is then reported for
both pieces; a strict xfail in ``tests/test_thresholds.py`` pins one case of
each, and ROADMAP item 3 is the fix.  The critical level ``alpha_hat``,
where a weak belief first enters, is one formula with no search and no best
response.
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


def _pay_interval(level: tuple, n: int) -> tuple[tuple[float, float], ...]:
    """Pieces ``(lo, hi)`` of ``[BELIEF_FLOOR, BELIEF_CEIL]``, in order, where ``n`` samples pay.

    ``R p(n, mu) >= c0 + c n`` means ``v(mu) = (A - r mu) / s(mu) <= z`` with
    ``k = (c0 + c n) / R``, ``z = Phi^{-1}(1 - k)``, ``r = sqrt(n)``, ``A = d
    s_b + mu_b r``.  ``v = z`` squares to ``(A - r mu)^2 = z^2 mu (1 - mu)``,
    whose roots count where ``(A - r mu) z >= 0``: two bound one interval for
    ``k < 1/2`` and cut a gap between two end pieces for ``k > 1/2``.  Where
    ``k`` rounds to 0, ``k = 1e-300`` is taken: a huge free trial passes only
    on a sliver below ``mu_b`` that the weak-side quadrature must be given.
    """
    mu_b, ds, R, c0, c = level[:5]
    k = (c0 + c * n) / R or 1e-300
    if not k < 1.0:
        return ()
    z = -std_normal_quantile(k)
    r = math.sqrt(n)
    a = ds + mu_b * r
    b = 2.0 * a * r + z * z
    disc = z * z * (z * z + 4.0 * a * (r - a))
    pieces = ((BELIEF_FLOOR, BELIEF_CEIL),) if a <= 0.0 else ()
    if b <= 0.0 or disc < 0.0:  # both roots at or below 0, or none real
        return pieces
    q = r * r + z * z
    big = (b + math.sqrt(disc)) / (2.0 * q)
    small = a * a / (q * big)
    if z > 0.0:  # a root counts where A - r mu >= 0
        if a - r * small >= 0.0:
            pieces = ((small, big if a - r * big >= 0.0 else BELIEF_CEIL),)
    elif a - r * big <= 0.0:  # and here where A - r mu <= 0
        two = z < 0.0 and a - r * small <= 0.0
        pieces = ((BELIEF_FLOOR, small), (big, BELIEF_CEIL)) if two else ((big, BELIEF_CEIL),)
    # Nothing to clip: without this return 6,000 seed-7 point-query thresholds ran 1.2x slower.
    if BELIEF_FLOOR <= small and big <= BELIEF_CEIL:
        return pieces
    clip = ((max(lo, BELIEF_FLOOR), min(hi, BELIEF_CEIL)) for lo, hi in pieces)
    return tuple((lo, hi) for lo, hi in clip if lo <= hi)


#: Half-width of the evaluated bracket closed around a break-even belief.
_BRACKET = 2.0**-34


def _on_grid(mu: float) -> float:
    """Nearest multiple of ``2**-52``.

    For two such beliefs, ``m - h`` and ``m + h`` from their exact midpoint
    ``m`` and half-width ``h`` give both back bit for bit.
    """
    return math.ldexp(round(math.ldexp(mu, 52)), -52)


def _bracket(level: tuple, pays: dict[int, tuple]) -> tuple[float, float]:
    """Beliefs ``(a, b)``, ``a < b``, where ``a`` abstains and ``b`` participates.

    Starts from the lowest break-even belief ``mu`` among the pay sets ``pays``
    (:func:`_pay_interval` by size, which the walk adds to).  The participating
    end ``mu + _BRACKET`` is witnessed by the size ``n`` that breaks even at
    ``mu`` and scored by ``agent._score`` as the kernel scores it, so a witness
    that earns at least zero proves that the kernel participates; the kernel is
    asked there only if ``n`` does not pay.  The abstaining end
    ``mu - _BRACKET`` is asked of the kernel: if it abstains, the bracket is closed.
    If it participates with ``m``, the walk moves to ``m``'s break-even belief,
    and doubles ``m`` while the doubled size pays at the current belief (scored
    the same way), which puts its break-even belief lower still; then both ends
    are tried again; the walk moves only once ``n_max`` is solved, so doubling
    into ``n_max`` ends it.  Each size's break-even belief is solved once.  No
    belief is asked at a root itself, where the answer flips on the last bit, and
    ``mu`` is put on the grid of :func:`_on_grid` first.  The walk stops,
    leaving a wider bracket for the caller to bisect, if the witnessed end
    abstains or the kernel's size breaks even no lower.  The clamp ends are
    returned for whatever this cannot settle.
    """
    a, b = BELIEF_FLOOR, BELIEF_CEIL
    n_max = level[6]
    found = [(pay[0][0], n) for n, pay in pays.items() if pay]
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
            if m not in pays:
                pays[m] = _pay_interval(level, m)
            if not pays[m] or not pays[m][0][0] < mu:
                break
            mu, n = pays[m][0][0], m
            m = 2 * m if 2 * m < n_max else n_max
            if m not in pays and _score(level, mu, m)[0] < 0.0:
                break
        if mu == start:
            break
    return (a, b) if a < b else (BELIEF_FLOOR, BELIEF_CEIL)


def _threshold(level: tuple) -> tuple[ParticipationThreshold, list, list]:
    """:func:`participation_threshold` at a :func:`_level`, and the pieces ``(lo, hi)`` that take part.

    Weak beliefs buy ``n_min`` alone, so their pieces are ``n_min``'s pay
    pieces cut at ``mu_b``.  The effective piece runs from the higher of
    ``mu_b`` and ``mu_tau + epsilon`` to ``BELIEF_CEIL``; ``none_participate``
    has none.  These are the limits of the loss's integrals.
    """
    mu_b, n_min, n_max = level[0], level[5], level[6]
    pays = {n_min: _pay_interval(level, n_min)}
    status, a, b = "interior", BELIEF_FLOOR, BELIEF_FLOOR
    if _respond(level, BELIEF_FLOOR)[1]:  # n_star, which is 0 only when abstaining
        status = "all_participate"
    elif not pays[n_min] or pays[n_min][0][0] > mu_b:  # else a weak root of n_min is the entry
        n_ceil = _respond(level, BELIEF_CEIL)[1]
        for n in (n_max, n_ceil or n_max):
            if n not in pays:
                pays[n] = _pay_interval(level, n)
        # A pay set can end below an abstaining ceiling; none_participate needs none.
        if not (n_ceil or any(pays.values())):
            status, a, b = "none_participate", BELIEF_CEIL, BELIEF_CEIL
    if status == "interior":
        a, b = _bracket(level, pays)
        while b - a > 2.0 * _BRACKET:
            mid = _on_grid(0.5 * (a + b))
            a, b = (a, mid) if _respond(level, mid)[1] else (mid, b)
    th = ParticipationThreshold(0.5 * (a + b), 0.5 * (b - a), status)
    weak = [(lo, hi if hi < mu_b else mu_b) for lo, hi in pays[n_min] if lo < hi and lo < mu_b]
    start = th.mu_tau + th.epsilon if th.mu_tau + th.epsilon > mu_b else mu_b
    return th, weak, [] if status == "none_participate" else [(start, BELIEF_CEIL)]


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
    belief.  Where ``n_min`` pays at a weak belief the walk starts from its
    root alone, at 2 best responses at the least, both at weak beliefs;
    otherwise at 3, with the ceiling probe.  An abstaining ceiling reports
    ``none_participate`` only if neither ``n_min`` nor ``n_max`` pays.
    """
    return _threshold(_level(alpha, inst))[0]


def critical_alpha_closed_form(inst: EconomicInstance) -> float:
    """Break-even significance level of the baseline-belief applicant.

    An applicant whose belief equals the baseline passes with probability
    exactly ``alpha`` no matter the trial size, so it participates exactly
    when ``R * alpha`` covers the cheapest trial: ``(c0 + c * n_min) / R``.
    This is :func:`critical_alpha` when the baseline belief enters first:
    for ``mu_b <= 1/2`` whenever ``k < 1/2``, and for ``k >= 1/2`` only if
    ``g(BELIEF_FLOOR) <= z`` (see :func:`critical_alpha`).
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
    z^2)``.  A peak below ``mu_b`` is where :func:`_pay_interval`'s quadratic
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
