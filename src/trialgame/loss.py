"""Regulator-side loss: error decomposition, sweeps, and optimal level.

Conditioned on the applicant's true side of the baseline, four error
channels exist: weak applicants that participate and pass (false
positives), effective applicants that participate and fail, effective
applicants priced out of participating entirely, and weak abstainers
(who by construction can never be approved, so that channel is zero).

Components are prior-weighted averages of the best-responding pass
probability.  The integrands jump at ``mu_tau(alpha)`` and ``mu_b``, the
integration limits, and are not smooth between them: the pass chance steps
wherever the integer best size switches (ROADMAP item 9) and climbs steeply
just above ``mu_tau`` (item 8): for ``cardiovascular`` at alpha = 0.030, ``n*``
goes from 463 to 9,305 and the pass chance from 0.056 to 0.43 within 0.002.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .agent import BELIEF_CEIL, BELIEF_FLOOR, EconomicInstance, _is_int, _level, _respond
from .errors import reject
from .stats import Prior, finite
from .thresholds import DEFAULT_EPS, _threshold, critical_alpha


@dataclass(frozen=True, slots=True)
class LossWeights:
    """Relative prices of a false approval and a missed approval."""

    lambda_fp: float = 1.0
    lambda_fn: float = 1.0

    def __post_init__(self) -> None:
        problems = [
            f"{name} must be a nonnegative finite number, got {value!r}"
            for name, value in (("lambda_fp", self.lambda_fp), ("lambda_fn", self.lambda_fn))
            if not (value >= 0.0 and finite(value))
        ]
        if self.lambda_fp == 0.0 and self.lambda_fn == 0.0:
            problems.append("lambda_fp or lambda_fn must be positive, got both 0")
        reject(self, problems)


@dataclass(frozen=True, slots=True)
class QuadratureSpec:
    """Composite Simpson panels per integral, each over a non-smooth integrand."""

    panels: int = 2000

    def __post_init__(self) -> None:
        p = self.panels
        if not _is_int(p) or p < 10 or p % 2:
            reject(self, [f"panels must be an even integer of at least 10, got {p!r}"])


@dataclass(slots=True)
class LossBreakdown:
    """Loss components at one significance level, all conditional rates.

    The fourth channel, weak applicants that abstain, is never approved and
    so is not reported.  When the prior has no mass on one side of the
    baseline the components conditioned on that side are reported as zero
    and the matching ``no_*_mass`` flag is set.
    """

    fp_particip: float
    fn_particip: float
    fn_abstain: float
    total: float
    mu_tau: float
    threshold_status: str
    no_weak_mass: bool = False
    no_effective_mass: bool = False


def _simpson(f, a: float, b: float, panels: int) -> float:
    if b <= a:
        return 0.0
    h = (b - a) / panels
    total = f(a) + f(b)
    for i in range(1, panels):
        total += f(a + i * h) * (4.0 if i % 2 else 2.0)
    return total * h / 3.0


def loss_components(
    alpha: float,
    inst: EconomicInstance,
    prior: Prior,
    quad: QuadratureSpec = QuadratureSpec(),
    weights: LossWeights = LossWeights(),
) -> LossBreakdown:
    """Error decomposition at one significance level.

    The participation threshold is solved first; both integrals then run
    over intervals bounded by it and by the baseline.  They start at
    ``mu_tau + epsilon``, the participating end of the threshold's bracket,
    so no Simpson node scores an abstainer; ``fn_abstain`` takes the prior
    mass below ``mu_tau``.
    """
    level = _level(alpha, inst)
    th = _threshold(level)
    mu_tau = th.mu_tau
    mu_in = mu_tau + th.epsilon
    mu_b = inst.mu_b
    lo, hi = prior.support
    lo = max(lo, BELIEF_FLOOR)
    hi = min(hi, BELIEF_CEIL)
    mass_weak = prior.cdf(mu_b)
    mass_eff = 1.0 - mass_weak

    def pass_density(mu: float) -> float:
        return _respond(level, mu)[2] * prior.pdf(mu)

    def fail_density(mu: float) -> float:
        return (1.0 - _respond(level, mu)[2]) * prior.pdf(mu)

    no_weak = mass_weak <= 0.0
    no_eff = mass_eff <= 0.0

    fp_particip = 0.0
    if not no_weak:
        a, b = max(mu_in, lo), min(mu_b, hi)
        fp_particip = _clip01(_simpson(pass_density, a, b, quad.panels) / mass_weak)

    fn_particip = 0.0
    fn_abstain = 0.0
    if not no_eff:
        a, b = max(mu_in, mu_b, lo), hi
        fn_particip = _clip01(_simpson(fail_density, a, b, quad.panels) / mass_eff)
        fn_abstain = _clip01((prior.cdf(max(mu_tau, mu_b)) - mass_weak) / mass_eff)

    total = weights.lambda_fp * fp_particip + weights.lambda_fn * (fn_particip + fn_abstain)
    return LossBreakdown(
        fp_particip=fp_particip,
        fn_particip=fn_particip,
        fn_abstain=fn_abstain,
        total=total,
        mu_tau=mu_tau,
        threshold_status=th.status,
        no_weak_mass=no_weak,
        no_effective_mass=no_eff,
    )


def _clip01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def optimal_alpha(
    inst: EconomicInstance,
    prior: Prior,
    weights: LossWeights,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Least-loss level among 100 evenly spaced in ``[alpha_hat, 1 - DEFAULT_EPS]``.

    Below the critical level the false-positive channel is flat at zero
    while missed approvals only grow, so nothing is lost by starting the
    grid at ``alpha_hat``.  Ties resolve to the smaller level.
    """
    a0 = critical_alpha(inst).alpha_hat
    step = (1.0 - DEFAULT_EPS - a0) / 99
    grid = [a0 + i * step for i in range(100)]
    losses = [b.total for b in sweep_alpha(grid, inst, prior, weights, quad)]
    return grid[losses.index(min(losses))]


def sweep_alpha(
    alpha_grid: Sequence[float],
    inst: EconomicInstance,
    prior: Prior,
    weights: LossWeights = LossWeights(),
    quad: QuadratureSpec = QuadratureSpec(),
) -> list[LossBreakdown]:
    """:func:`loss_components` at each level of ``alpha_grid``, in its order, each range-checked."""
    return [loss_components(a, inst, prior, quad, weights) for a in alpha_grid]
