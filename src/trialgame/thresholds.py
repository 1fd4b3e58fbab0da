"""Participation threshold and critical significance level.

The marginal belief ``mu_tau(alpha)`` is a bisection target on the
participation predicate, which assumes participation is monotone in
belief: true for baselines up to about 0.6, not in general.  The critical
level ``alpha_hat`` is where a weak belief (``mu <= mu_b``) first enters.
Weak applicants always buy ``n_min`` samples, so it has a closed form that
needs no search and no best response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .agent import BELIEF_CEIL, BELIEF_FLOOR, EconomicInstance, _level, _respond
from .errors import DomainError
from .stats import std_normal_quantile, std_normal_sf

#: Default threshold bisection tolerance and critical-level clamp margin.
DEFAULT_EPS = 1e-6


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class CriticalAlpha:
    """Significance level at which a weak belief first enters the trial.

    No belief at or below the baseline participates below ``alpha_hat``.
    ``status`` is ``"interior"``, ``"at_floor"`` (the level is at most
    ``eps`` and reported as ``eps``) or ``"no_feasible_alpha"`` (above
    ``1 - eps``, e.g. when revenue cannot cover the cheapest trial; reported
    as ``1 - eps``).
    """

    alpha_hat: float
    status: str


def _check_eps(eps: float) -> None:
    if not (0.0 < eps < 0.5):
        raise DomainError(f"tolerance must lie in (0, 0.5), got {eps!r}")


def participation_threshold(
    alpha: float, inst: EconomicInstance, eps: float = DEFAULT_EPS
) -> ParticipationThreshold:
    """Lowest belief that still participates, to within ``eps``.

    Bisects the clamped belief range on the participation predicate and
    returns the bracket midpoint once the bracket is narrower than
    ``eps``; ``epsilon`` carries the final half-width.
    """
    _check_eps(eps)
    level = _level(alpha, inst)
    lo, hi = BELIEF_FLOOR, BELIEF_CEIL
    if _respond(level, lo)[1]:  # n_star, which is 0 only when abstaining
        return ParticipationThreshold(lo, 0.0, "all_participate")
    if not _respond(level, hi)[1]:
        return ParticipationThreshold(hi, 0.0, "none_participate")
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        if _respond(level, mid)[1]:
            hi = mid
        else:
            lo = mid
    return ParticipationThreshold(0.5 * (lo + hi), 0.5 * (hi - lo), "interior")


def critical_alpha_closed_form(inst: EconomicInstance) -> float:
    """Break-even significance level of the baseline-belief applicant.

    An applicant whose belief equals the baseline passes with probability
    exactly ``alpha`` no matter the trial size, so it participates exactly
    when ``R * alpha`` covers the cheapest trial: ``(c0 + c * n_min) / R``.
    This is :func:`critical_alpha` whenever the baseline belief is the
    first weak belief to enter, which always holds for ``mu_b <= 1/2``.
    """
    return (inst.c0 + inst.c * inst.n_min) / inst.R


def critical_alpha(inst: EconomicInstance, eps: float = DEFAULT_EPS) -> CriticalAlpha:
    """Level at which some belief ``mu <= mu_b`` first participates.

    A weak belief buys ``n_min`` samples and enters at ``alpha`` exactly when
    ``Phi^{-1}(1 - alpha) <= g(mu) = (z s(mu) - (mu_b - mu) sqrt(n_min)) / s(mu_b)``,
    with ``z = Phi^{-1}(1 - k)``, ``k = (c0 + c n_min) / R`` and ``s`` the
    Bernoulli standard deviation, so ``alpha_hat = sf(max g)`` over
    ``[BELIEF_FLOOR, mu_b]``.  For ``k < 1/2``, ``g`` is concave with its
    peak at ``(1 + x) / 2``, ``x = sqrt(n_min / (z^2 + n_min))``; otherwise
    it is convex and an end wins.  A maximiser at ``mu_b`` gives exactly ``k``.
    """
    _check_eps(eps)
    alpha_hat = k = critical_alpha_closed_form(inst)
    if 0.0 < k < 1.0:
        mu_b = inst.mu_b
        root_n, s_b = math.sqrt(inst.n_min), math.sqrt(mu_b * (1.0 - mu_b))
        z = -std_normal_quantile(k)

        def g(mu: float) -> float:
            return (z * math.sqrt(mu * (1.0 - mu)) - (mu_b - mu) * root_n) / s_b

        if z > 0.0:  # the peak exceeds 1/2, so never falls below the floor
            best = min(0.5 * (1.0 + root_n / math.sqrt(z * z + inst.n_min)), mu_b)
        else:
            best = mu_b if g(mu_b) >= g(BELIEF_FLOOR) else BELIEF_FLOOR
        if best != mu_b:
            alpha_hat = std_normal_sf(g(best))
    if alpha_hat <= eps:
        return CriticalAlpha(eps, "at_floor")
    if alpha_hat > 1.0 - eps:
        return CriticalAlpha(1.0 - eps, "no_feasible_alpha")
    return CriticalAlpha(alpha_hat, "interior")
