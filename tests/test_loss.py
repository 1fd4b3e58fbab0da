"""Regulator loss decomposition, quadrature accuracy, sweeps.

Quadrature is validated against analytic integrals and adaptive
scipy.integrate.quad references, and the per-level solver against the
per-node form that asks the public best response at every Simpson node;
component values on the standard unit instance are frozen for regression.
Conditional-mass edge cases (priors entirely on one side of the baseline)
are exercised explicitly.
"""

import dataclasses
import math

import pytest
from scipy import integrate
from scipy import stats as sps

from trialgame import (
    BELIEF_CEIL,
    BELIEF_FLOOR,
    DomainError,
    EconomicInstance,
    LossBreakdown,
    LossWeights,
    QuadratureSpec,
    TruncatedNormalPrior,
    best_response,
    critical_alpha,
    load_config,
    loss_components,
    optimal_alpha,
    participation_threshold,
    preset_path,
    sweep_alpha,
)
from trialgame.loss import _simpson

INST = EconomicInstance(R=1.0, c0=0.05, c=0.002, mu_b=0.5, n_min=1, n_max=500)
PRIOR = TruncatedNormalPrior(mean=0.62, sd=0.04, lo=0.4, hi=0.7)

# Frozen from this implementation at default settings (panels=2000);
# guards against accidental behaviour drift.
FROZEN = {
    0.03: dict(
        fp_particip=0.0,
        fn_particip=0.14969455091935166,
        fn_abstain=0.0678706814305068,
        total=0.21756523234985847,
        mu_tau=0.5602391075774418,
    ),
    0.1: dict(
        fp_particip=0.09602812319580774,
        fn_particip=0.1574562979465458,
        fn_abstain=0.0,
        total=0.25348442114235353,
        mu_tau=0.36027778078177275,
    ),
}


def test_simpson_is_exact_for_cubics():
    assert abs(_simpson(lambda x: x * x * x, 0.0, 1.0, 10) - 0.25) < 1e-15
    assert abs(_simpson(lambda x: x * x, -1.0, 2.0, 10) - 3.0) < 1e-14


def test_simpson_matches_analytic_sine_integral():
    assert abs(_simpson(math.sin, 0.0, math.pi, 200) - 2.0) < 1e-9


def test_simpson_empty_interval_is_zero():
    assert _simpson(math.sin, 1.0, 1.0, 100) == 0.0
    assert _simpson(math.sin, 2.0, 1.0, 100) == 0.0


def test_weights_validation():
    with pytest.raises(DomainError):
        LossWeights(lambda_fp=-1.0, lambda_fn=1.0)
    with pytest.raises(DomainError):
        LossWeights(lambda_fp=0.0, lambda_fn=0.0)
    with pytest.raises(DomainError):
        LossWeights(lambda_fp=math.inf, lambda_fn=1.0)
    with pytest.raises(DomainError) as excinfo:
        LossWeights(lambda_fp=math.nan, lambda_fn=-1.0)
    assert [p.split()[0] for p in excinfo.value.problems] == ["lambda_fp", "lambda_fn"]
    assert LossWeights().lambda_fp == 1.0


def test_quadrature_spec_validation():
    for panels in (7, 8, 401, 12.0, True, "400"):
        with pytest.raises(DomainError, match="panels must be"):
            QuadratureSpec(panels=panels)
    assert QuadratureSpec().panels == 2000


def test_loss_components_frozen_regression():
    for alpha, expected in FROZEN.items():
        bd = loss_components(alpha, INST, PRIOR)
        for field, value in expected.items():
            assert abs(getattr(bd, field) - value) < 1e-12, (alpha, field)
        assert bd.threshold_status == "interior"
        assert not bd.no_weak_mass and not bd.no_effective_mass


def test_loss_components_match_adaptive_quadrature():
    # A fixed trial size keeps the integrands smooth, so composite
    # Simpson and scipy's adaptive rule must agree closely over the same
    # interval, which starts at the participating end of the threshold.
    inst = EconomicInstance(R=1.0, c0=0.05, c=0.002, mu_b=0.5, n_min=150, n_max=150)
    alpha = 0.05
    bd = loss_components(alpha, inst, PRIOR, QuadratureSpec(panels=2000))
    th = participation_threshold(alpha, inst)
    ref = sps.truncnorm((0.4 - 0.62) / 0.04, (0.7 - 0.62) / 0.04, loc=0.62, scale=0.04)
    mass_weak = float(ref.cdf(0.5))
    mass_eff = 1.0 - mass_weak

    def fail_density(mu):
        return (1.0 - best_response(alpha, mu, inst).pass_prob) * float(ref.pdf(mu))

    fn_ref, _ = integrate.quad(fail_density, th.mu_tau + th.epsilon, 0.7, limit=400)
    assert abs(bd.fn_particip - fn_ref / mass_eff) < 1e-9
    fn_abstain_ref = (float(ref.cdf(bd.mu_tau)) - mass_weak) / mass_eff
    assert abs(bd.fn_abstain - fn_abstain_ref) < 1e-12
    assert bd.fp_particip == 0.0  # threshold sits above the baseline here


def loss_components_per_node(alpha, inst, prior, quad, weights):
    """The loss decomposition with one public ``best_response`` per Simpson node.

    Same threshold, limits and summation order as ``loss_components``, so
    the two must agree exactly.
    """
    th = participation_threshold(alpha, inst)
    mu_b = inst.mu_b
    lo, hi = max(prior.lo, BELIEF_FLOOR), min(prior.hi, BELIEF_CEIL)
    mass_weak = prior.cdf(mu_b)
    mass_eff = 1.0 - mass_weak

    def clip(x):
        return min(max(x, 0.0), 1.0)

    def pass_density(mu):
        return best_response(alpha, mu, inst).pass_prob * prior.pdf(mu)

    def fail_density(mu):
        return (1.0 - best_response(alpha, mu, inst).pass_prob) * prior.pdf(mu)

    a, b = max(th.mu_tau + th.epsilon, lo), min(mu_b, hi)
    fp = clip(_simpson(pass_density, a, b, quad.panels) / mass_weak)
    a, b = max(th.mu_tau + th.epsilon, mu_b, lo), hi
    fn = clip(_simpson(fail_density, a, b, quad.panels) / mass_eff)
    abstain = clip((prior.cdf(max(th.mu_tau, mu_b)) - mass_weak) / mass_eff)
    total = weights.lambda_fp * fp + weights.lambda_fn * (fn + abstain)
    return LossBreakdown(fp, fn, abstain, total, th.mu_tau, th.status)


@pytest.mark.parametrize("preset", ["cardiovascular", "fn-curves-062"])
def test_loss_components_match_per_node_best_responses(preset):
    cfg = load_config(preset_path(preset))
    args = (cfg.instance, cfg.prior, cfg.quadrature, cfg.weights)
    statuses, weak_rows = set(), 0
    for alpha in (1e-4, 0.003, 0.02, 0.05, 0.1, 0.3, 0.9):
        bd = loss_components(alpha, *args)
        assert bd == loss_components_per_node(alpha, *args), alpha
        statuses.add(bd.threshold_status)
        weak_rows += bd.fp_particip > 0.0  # weak beliefs participate
    assert statuses == {"interior", "all_participate"}
    assert weak_rows >= 3


def test_loss_components_weighted_total_identity():
    weights = LossWeights(lambda_fp=2.5, lambda_fn=0.5)
    bd = loss_components(0.1, INST, PRIOR, weights=weights)
    expected = 2.5 * bd.fp_particip + 0.5 * (bd.fn_particip + bd.fn_abstain)
    assert abs(bd.total - expected) < 1e-15


def test_loss_components_all_conditional_rates_in_unit_interval():
    for alpha in (1e-3, 0.03, 0.052, 0.1, 0.3, 0.8):
        bd = loss_components(alpha, INST, PRIOR, QuadratureSpec(panels=100))
        for value in (bd.fp_particip, bd.fn_particip, bd.fn_abstain):
            assert 0.0 <= value <= 1.0


def test_loss_components_prior_entirely_effective():
    high = TruncatedNormalPrior(mean=0.6, sd=0.03, lo=0.52, hi=0.68)
    bd = loss_components(0.05, INST, high, QuadratureSpec(panels=100))
    assert bd.no_weak_mass
    assert not bd.no_effective_mass
    assert bd.fp_particip == 0.0
    assert bd.fn_particip > 0.0


def test_loss_components_prior_entirely_weak():
    low = TruncatedNormalPrior(mean=0.35, sd=0.04, lo=0.2, hi=0.45)
    bd = loss_components(0.05, INST, low, QuadratureSpec(panels=100))
    assert bd.no_effective_mass
    assert not bd.no_weak_mass
    assert bd.fn_particip == 0.0
    assert bd.fn_abstain == 0.0


def test_loss_components_rejects_bad_alpha():
    with pytest.raises(DomainError):
        loss_components(0.0, INST, PRIOR)
    with pytest.raises(DomainError):
        loss_components(1.0, INST, PRIOR)


def test_optimal_alpha_is_grid_argmin():
    weights = LossWeights()
    quad = QuadratureSpec(panels=50)
    best = optimal_alpha(INST, PRIOR, weights, quad)
    # Rebuild the same 100-point grid and scan it directly.
    a0 = critical_alpha(INST).alpha_hat
    a1 = 1.0 - 1e-6
    grid = [a0 + i * (a1 - a0) / 99 for i in range(100)]
    losses = [loss_components(a, INST, PRIOR, quad, weights).total for a in grid]
    assert best == grid[losses.index(min(losses))]
    assert loss_components(best, INST, PRIOR, quad, weights).total <= losses[0]


def test_sweep_alpha_structure_and_identities():
    grid = [0.01, 0.03, 0.052, 0.1, 0.3]
    quad = QuadratureSpec(panels=100)
    weights = LossWeights(lambda_fp=2.0, lambda_fn=0.5)
    rows = sweep_alpha(grid, INST, PRIOR, weights, quad)
    # One breakdown per level, in grid order, each the single-level result.
    assert rows == [loss_components(a, INST, PRIOR, quad, weights) for a in grid]
    for bd in rows:
        assert bd.threshold_status in {"interior", "all_participate", "none_participate"}


def test_sweep_alpha_rejects_bad_grids():
    # Any sequence of levels is answered in its order; only a level outside
    # (0, 1) is rejected.
    quad = QuadratureSpec(panels=50)
    for grid in ([], [0.1, 0.1], [0.3, 0.2]):
        rows = sweep_alpha(grid, INST, PRIOR, quad=quad)
        assert rows == [loss_components(a, INST, PRIOR, quad) for a in grid]
    with pytest.raises(DomainError):
        sweep_alpha([0.5, 1.5], INST, PRIOR)
    with pytest.raises(DomainError):
        sweep_alpha([-0.1, 0.5], INST, PRIOR)


def test_inputs_are_frozen_and_hashable_results_are_plain_records():
    # Inputs are frozen: a solver may key on them, and a run configuration,
    # grids included, cannot change under a sweep.  Results are plain slotted
    # records, which are several times cheaper to build than frozen ones.
    config = load_config(preset_path("cardiovascular"))
    assert config.alpha_grid and config.r_grid and config.c0_grid
    for record in (INST, PRIOR, LossWeights(), QuadratureSpec(), config):
        field = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, getattr(record, field))
        twin = dataclasses.replace(record)
        assert twin == record and hash(twin) == hash(record)
    quad = QuadratureSpec(panels=100)
    for record in (
        best_response(0.05, 0.6, INST),
        participation_threshold(0.05, INST),
        critical_alpha(INST),
        loss_components(0.05, INST, PRIOR, quad),
    ):
        twin = dataclasses.replace(record)
        assert twin == record and twin is not record
        field = next(f.name for f in dataclasses.fields(record) if f.type == "float")
        value = getattr(record, field)
        setattr(twin, field, value + 1.0)
        assert twin != record and getattr(record, field) == value
