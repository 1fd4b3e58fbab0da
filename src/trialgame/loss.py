"""Regulator-side loss: error decomposition and sweeps.

Conditioned on the applicant's true side of the baseline, four error
channels exist: weak applicants that participate and pass (false
positives), effective applicants that participate and fail, effective
applicants priced out of participating entirely, and weak abstainers
(who by construction can never be approved, so that channel is zero).

Components are prior-weighted averages of the best-responding pass
probability.  Weak participants all buy ``n_min``, a smooth integrand on
each piece of its pay set.  The effective one is not smooth: the pass chance
steps wherever the best size switches (ROADMAP item 9) and climbs steeply
above ``mu_tau`` (item 8), for ``cardiovascular`` at alpha = 0.030 from 0.056
to 0.43 within 0.002 as ``n*`` goes from 463 to 9,305.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .agent import EconomicInstance, _is_int, _level, _respond, _score
from .errors import reject
from .stats import _INV_SQRT_2PI, TruncatedNormalPrior, finite
from .thresholds import _threshold

#: Positive nodes and their weights of the symmetric 12-point Gauss-Legendre rule on [-1, 1].
_GAUSS_12 = ((0.1252334085114689, 0.24914704581340277), (0.3678314989981802, 0.2334925365383548),
             (0.5873179542866175, 0.20316742672306592), (0.7699026741943047, 0.16007832854334622),
             (0.9041172563704749, 0.10693932599531843), (0.9815606342467192, 0.04717533638651183))
_GAUSS_TOL = 1e-13  # relative agreement of two sums at which _gauss stops doubling its panels


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
    """Composite Simpson panels over the effective side, a non-smooth integrand."""

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


def _gauss(f, a: float, b: float, panels: int) -> float:
    """Gauss-Legendre integral of ``f`` on ``[a, b]``; ``panels`` double up to ten times."""
    total = None
    for _ in range(11):
        h = 0.5 * (b - a) / panels
        mids = [a + (2 * i + 1) * h for i in range(panels)]
        new = h * sum(w * (f(m - h * x) + f(m + h * x)) for m in mids for x, w in _GAUSS_12)
        if total is not None and abs(new - total) < _GAUSS_TOL * abs(new):  # never two zeros
            break
        total, panels = new, 2 * panels
    return new


def loss_components(
    alpha: float,
    inst: EconomicInstance,
    prior: TruncatedNormalPrior,
    quad: QuadratureSpec = QuadratureSpec(),
    weights: LossWeights = LossWeights(),
) -> LossBreakdown:
    """Error decomposition at one significance level.

    Each channel is a sum over its side's participating pieces, which the
    threshold hands over (:func:`~trialgame.thresholds._threshold`), each cut
    to the prior's support.  A weak belief participates exactly where
    ``n_min`` pays, so ``fp_particip`` integrates ``n_min``'s pass chance by
    :func:`_gauss` over the weak pieces.  Composite Simpson integrates the
    effective piece, which starts at the participating end of the
    threshold's bracket, so no node scores an abstainer.  A node at ``mu``
    weighs ``(1 - p) * pdf(mu)``, the chance that its best size fails.  The
    two ends ``a`` and ``b`` are solved and summed first, with no hint; the
    interior nodes follow in belief order, each passing the kernel
    (:func:`~trialgame.agent._respond`, by its name in this module, where
    the tests swap it) a ``hint``: ``n1*n1 // n0`` from the ``n_star`` of
    the two nodes before it, as near the participating end ``n_star`` grows
    by a near-constant factor per node, or ``n1`` where ``n0`` is 0.  The
    kernel alone judges a hint, and no hint moves an answer (see
    ``_respond``).  The chain starts from ``a``'s size, so ``b``'s, often
    far from its neighbours', predicts nothing.  What the hints save is
    pinned by ``tests/test_loss.py::test_loss_hints_follow_the_geometric_rule``.
    The interior nodes lie inside the prior's support, and the loop weighs them
    with ``pdf``'s expression inlined, bit for bit; the ends call ``pdf``.
    ``fn_abstain`` takes the prior mass between ``mu_b`` and ``mu_tau``.
    Both effective-side masses come from the prior's ``_sf``, which
    differences the normal tails on the belief's side of the mean, so it
    keeps its digits where the weak side holds nearly all the mass and ``1 -
    cdf`` cancels.
    """
    level = _level(alpha, inst)
    th, weak, effective = _threshold(level)
    mass_weak = prior.cdf(inst.mu_b)
    mass_eff = prior._sf(inst.mu_b)

    def pass_density(mu: float) -> float:
        return _score(level, mu, inst.n_min)[1] * prior.pdf(mu)

    no_weak = mass_weak <= 0.0
    no_eff = mass_eff <= 0.0

    fp_particip = 0.0
    if not no_weak:
        # Beyond 40 sd the density is 0.0; panels of 4 sd leave no node blind to it.
        for a, b in weak:
            a = max(a, prior.lo, prior.mean - 40.0 * prior.sd)
            b = min(b, prior.hi, prior.mean + 40.0 * prior.sd)
            if a < b:
                fp_particip += _gauss(pass_density, a, b, math.ceil((b - a) / (4.0 * prior.sd)))
        fp_particip = _clip01(fp_particip / mass_weak)

    fn_particip = fn_abstain = 0.0
    if not no_eff:
        for a, b in effective:
            a, b = max(a, prior.lo), min(b, prior.hi)
            if a < b:
                # Composite Simpson; the ends pass no hint.
                h = (b - a) / quad.panels
                _, n1, p = _respond(level, a)
                total = (1.0 - p) * prior.pdf(a) + (1.0 - _respond(level, b)[2]) * prior.pdf(b)
                # Interior nodes lie inside the support: prior.pdf, inlined.
                n0, mean, sd, scale = 0, prior.mean, prior.sd, prior._scale
                for i in range(1, quad.panels):
                    mu = a + i * h
                    _, n, p = _respond(level, mu, n1 * n1 // n0 if n0 else n1)
                    n0, n1 = n1, n
                    z = (mu - mean) / sd
                    total += (1.0 - p) * (_INV_SQRT_2PI * math.exp(-0.5 * z * z) / scale) * (4.0 if i % 2 else 2.0)
                fn_particip += total * h / 3.0
        fn_particip = _clip01(fn_particip / mass_eff)
        fn_abstain = _clip01((mass_eff - prior._sf(max(th.mu_tau, inst.mu_b))) / mass_eff)

    total = weights.lambda_fp * fp_particip + weights.lambda_fn * (fn_particip + fn_abstain)
    return LossBreakdown(fp_particip, fn_particip, fn_abstain, total, th.mu_tau, th.status, no_weak, no_eff)


def _clip01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def sweep_alpha(
    alpha_grid: Sequence[float],
    inst: EconomicInstance,
    prior: TruncatedNormalPrior,
    weights: LossWeights = LossWeights(),
    quad: QuadratureSpec = QuadratureSpec(),
) -> list[LossBreakdown]:
    """:func:`loss_components` at each level of ``alpha_grid``, in its order, each range-checked."""
    return [loss_components(a, inst, prior, quad, weights) for a in alpha_grid]
