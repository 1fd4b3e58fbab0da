"""Regulator loss decomposition, quadrature accuracy, sweeps.

Quadrature is validated against analytic integrals and adaptive
scipy.integrate.quad references: the weak side on every preset row and on
seeded instances, over pay pieces held to brentq roots.  The per-level
solver is checked against the per-node form that asks the public best
response at every node; component values on the standard unit instance are
frozen for regression.
Conditional-mass edge cases (priors entirely on one side of the baseline)
are exercised explicitly.
"""

import dataclasses
import math
import random
import sys

import pytest
from scipy import integrate, optimize
from scipy import stats as sps

from trialgame import agent
from trialgame import (
    BELIEF_CEIL,
    BELIEF_FLOOR,
    DomainError,
    EconomicInstance,
    LossBreakdown,
    LossWeights,
    QuadratureSpec,
    TruncatedNormalPrior,
    available_presets,
    best_response,
    critical_alpha,
    load_config,
    loss_components,
    participation_threshold,
    preset_path,
    sweep_alpha,
)
from trialgame.agent import _level
from trialgame.loss import _gauss
from trialgame.thresholds import _pay_interval
from reference import (
    count_kernel_math,
    grid_optimal_alpha,
    normal_pass,
    record_row_calls,
    record_sweep_calls,
    simpson,
)

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
    assert abs(simpson(lambda x: x * x * x, 0.0, 1.0, 10) - 0.25) < 1e-15
    assert abs(simpson(lambda x: x * x, -1.0, 2.0, 10) - 3.0) < 1e-14


def test_simpson_matches_analytic_sine_integral():
    assert abs(simpson(math.sin, 0.0, math.pi, 200) - 2.0) < 1e-9


def test_simpson_empty_interval_is_zero():
    assert simpson(math.sin, 1.0, 1.0, 100) == 0.0
    assert simpson(math.sin, 2.0, 1.0, 100) == 0.0


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


def weak_pass_chance(alpha, inst):
    """``n_min``'s pass chance as a function of belief, restated from the model."""
    n, mu_b = inst.n_min, inst.mu_b
    ds = float(sps.norm.isf(alpha)) * math.sqrt(mu_b * (1.0 - mu_b))
    return lambda mu: 0.5 * math.erfc((ds - (mu - mu_b) * math.sqrt(n)) / math.sqrt(mu * (1.0 - mu)) / math.sqrt(2.0))


def weak_pay_pieces_reference(alpha, inst, prior):
    """Stretches of the prior's weak beliefs where ``n_min`` pays.

    Their ends are brentq roots of the utility's sign changes on a 400-point
    scan, so a stretch narrower than the scan's step can be missed.
    """
    pass_chance = weak_pass_chance(alpha, inst)

    def utility(mu):
        return inst.R * pass_chance(mu) - (inst.c0 + inst.c * inst.n_min)

    lo, hi = max(prior.lo, BELIEF_FLOOR), min(prior.hi, BELIEF_CEIL, inst.mu_b)
    if not lo < hi:
        return []
    grid = [lo + (hi - lo) * i / 400 for i in range(401)]
    ends = [lo, hi]
    for x, y in zip(grid, grid[1:]):
        if (utility(x) >= 0.0) != (utility(y) >= 0.0):
            ends.insert(-1, optimize.brentq(utility, x, y, xtol=1e-16, rtol=1e-15))
    return [(a, b) for a, b in zip(ends, ends[1:]) if b > a and utility(0.5 * (a + b)) >= 0.0]


def assert_fp_particip_matches_reference(alpha, inst, prior):
    """``fp_particip`` against ``scipy.integrate.quad`` over the same pay pieces.

    The pieces are first held to the brentq reference's to 1e-12 (they agree
    to a few ulps where the utility crosses zero at a slope); the integral
    over them must then agree to 1e-12 relative.  Where a piece is narrow,
    an ulp of an end moves it by more than that, so the ends are shared.
    """
    bd = loss_components(alpha, inst, prior, QuadratureSpec(panels=10))
    lo, hi = max(prior.lo, BELIEF_FLOOR), min(prior.hi, BELIEF_CEIL, inst.mu_b)
    pieces = [
        (max(a, lo), min(b, hi))
        for a, b in _pay_interval(_level(alpha, inst), inst.n_min)
        if max(a, lo) < min(b, hi)
    ]
    if prior.cdf(inst.mu_b) <= 0.0:
        assert bd.fp_particip == 0.0 and bd.no_weak_mass
        return 0.0
    ref = weak_pay_pieces_reference(alpha, inst, prior)
    assert len(pieces) == len(ref), (alpha, inst, prior, pieces, ref)
    for piece, ref_piece in zip(pieces, ref):
        assert max(abs(x - y) for x, y in zip(piece, ref_piece)) <= 1e-12, (alpha, inst, prior, pieces, ref)
    pass_chance = weak_pass_chance(alpha, inst)
    want = 0.0
    for a, b in pieces:
        peak = [prior.mean] if a < prior.mean < b else None
        want += integrate.quad(
            lambda mu: pass_chance(mu) * prior.pdf(mu), a, b, epsabs=0.0, epsrel=1e-13, limit=200, points=peak
        )[0]
    want /= prior.cdf(inst.mu_b)
    assert abs(bd.fp_particip - want) <= 1e-12 * want, (alpha, inst, prior, bd.fp_particip, want)
    return bd.fp_particip


def test_fp_particip_matches_adaptive_quadrature_on_every_preset_row():
    # Below the critical level no weak belief pays, so the rate is exactly 0.
    weak_rows = 0
    for preset in available_presets():
        cfg = load_config(preset_path(preset))
        alpha_hat = critical_alpha(cfg.instance).alpha_hat
        for alpha in cfg.alpha_grid:
            fp = assert_fp_particip_matches_reference(alpha, cfg.instance, cfg.prior)
            assert fp == 0.0 or alpha > alpha_hat, (preset, alpha)
            weak_rows += fp > 0.0
    assert weak_rows > 500


def test_fp_particip_matches_adaptive_quadrature_on_seeded_instances():
    # Priors down to sd 0.005, n_min up to 1,000, baselines up to 0.95, and
    # k = (c0 + c * n_min) / R on both sides of 1/2, where a pay set can be
    # two pieces or end below the baseline.
    rng = random.Random(2026)
    weak_rows, high_k = 0, 0
    for _ in range(2000):
        R = 10.0 ** rng.uniform(0.0, 3.0)
        alpha = math.exp(rng.uniform(math.log(1e-3), math.log(0.99)))
        k = min(0.99, alpha * 10.0 ** rng.uniform(-1.0, 0.2))
        n_min = rng.choice([1, 1, 3, 10, 50, 200, 1000])
        c = R * k * rng.uniform(0.0, 0.5) / n_min
        mu_b = rng.uniform(0.05, 0.95)
        inst = EconomicInstance(R, R * k - c * n_min, c, mu_b, n_min, n_min + 100)
        mean = min(0.95, max(0.05, mu_b + rng.uniform(-0.3, 0.3)))
        prior = TruncatedNormalPrior(
            mean, 10.0 ** rng.uniform(math.log10(0.005), math.log10(0.3)),
            rng.uniform(1e-6, max(1e-6, mean - 0.05)), rng.uniform(min(mean + 0.05, 0.999), 0.999),
        )
        fp = assert_fp_particip_matches_reference(alpha, inst, prior)
        weak_rows += fp > 0.0
        high_k += fp > 0.0 and k > 0.5
    assert weak_rows > 1000 and high_k > 10


def test_fp_particip_skips_the_gap_of_a_two_piece_pay_set():
    # With k = 0.95 > 1/2 and A = d s_b + mu_b < 0, the one size pays on
    # [1e-6, 0.0042) and above 0.67, so weak participation has a gap that
    # Simpson integrated across (0.0063469).
    inst = EconomicInstance(R=1.0, c0=0.95, c=0.0, mu_b=0.3, n_min=1, n_max=1)
    prior = TruncatedNormalPrior(mean=0.3, sd=0.2, lo=1e-6, hi=0.999)
    fp = assert_fp_particip_matches_reference(0.81, inst, prior)
    assert round(fp, 7) == 0.0062879
    assert len(_pay_interval(_level(0.81, inst), 1)) == 2


def test_fp_particip_sees_a_prior_narrower_than_the_pay_piece():
    # One size that every belief buys at no cost.  At sd 3e-4 every node of
    # a one- and a two-panel rule over [0.1, 0.5] lies over 40 sd from the
    # mean, where the density is 0.0, and two zero sums agreed on 0.
    inst = EconomicInstance(R=1.0, c0=0.0, c=0.0, mu_b=0.5, n_min=1, n_max=1)
    at_mean = normal_pass(0.5, 0.4, 1, 0.5)
    fp = assert_fp_particip_matches_reference(0.5, inst, TruncatedNormalPrior(0.4, 3e-4, 0.1, 0.9))
    assert fp == pytest.approx(at_mean, rel=1e-6)
    for sd in (1e-6, 1e-9, 1e-12):
        fp = loss_components(0.5, inst, TruncatedNormalPrior(0.4, sd, 0.1, 0.9)).fp_particip
        assert fp == pytest.approx(at_mean, rel=1e-10), sd


def test_fp_particip_sees_the_sliver_where_a_free_huge_trial_passes():
    # Free trials pay at every belief, but at n = 1e10 and more the pass
    # chance is 0.0 but for a sliver below mu_b narrower than the finest
    # panel over [1e-6, mu_b]; 1e12 read 2.1e-23 and 1e14 read 0.0.  The pay
    # piece ends where the pass chance reaches 1e-300.
    prior = TruncatedNormalPrior(0.45, 0.2, 0.01, 0.99)
    for n, want in ((10**8, 6.5947135e-5), (10**10, 6.5944812e-6), (10**12, 6.5944580e-7), (10**14, 6.5944557e-8)):
        inst = EconomicInstance(R=1.0, c0=0.0, c=0.0, mu_b=0.5, n_min=n, n_max=n)
        fp = loss_components(0.5, inst, prior, QuadratureSpec(panels=10)).fp_particip
        (a, b), = _pay_interval(_level(0.5, inst), n)
        assert normal_pass(0.5, a, n, 0.5) == pytest.approx(1e-300, rel=1e-6) and b == BELIEF_CEIL
        pass_chance = weak_pass_chance(0.5, inst)
        ref = integrate.quad(lambda mu: pass_chance(mu) * prior.pdf(mu), a, inst.mu_b,
                             epsabs=0.0, epsrel=1e-13, limit=200)[0] / prior.cdf(inst.mu_b)
        assert abs(fp - ref) <= 1e-10 * ref, (n, fp, ref)
        assert fp == pytest.approx(want, rel=1e-7)


def loss_components_per_node(alpha, inst, prior, quad, weights):
    """The loss decomposition with one public ``best_response`` per node.

    Same threshold, limits, rules and summation order as ``loss_components``,
    so the two must agree exactly: Gauss-Legendre over ``n_min``'s pay pieces
    below the baseline within 40 sd of the prior mean, Simpson above it.  The
    limits are derived here from the pay set and the threshold's bracket, not
    taken from the pieces the threshold hands the loss.
    """
    th = participation_threshold(alpha, inst)
    mu_b = inst.mu_b
    lo, hi = max(prior.lo, BELIEF_FLOOR), min(prior.hi, BELIEF_CEIL)
    mass_weak = prior.cdf(mu_b)
    mass_eff = prior._sf(mu_b)

    def clip(x):
        return min(max(x, 0.0), 1.0)

    def pass_density(mu):
        return best_response(alpha, mu, inst).pass_prob * prior.pdf(mu)

    def fail_density(mu):
        return (1.0 - best_response(alpha, mu, inst).pass_prob) * prior.pdf(mu)

    fp, sd = 0.0, prior.sd
    for pay_lo, pay_hi in _pay_interval(_level(alpha, inst), inst.n_min):
        a = max(pay_lo, lo, prior.mean - 40.0 * sd)
        b = min(pay_hi, mu_b, hi, prior.mean + 40.0 * sd)
        if a < b:
            fp += _gauss(pass_density, a, b, math.ceil((b - a) / (4.0 * sd)))
    fp = clip(fp / mass_weak)
    a, b = max(th.mu_tau + th.epsilon, mu_b, lo), hi
    fn = clip(simpson(fail_density, a, b, quad.panels) / mass_eff)
    abstain = clip((mass_eff - prior._sf(max(th.mu_tau, mu_b))) / mass_eff)
    total = weights.lambda_fp * fp + weights.lambda_fn * (fn + abstain)
    return LossBreakdown(fp, fn, abstain, total, th.mu_tau, th.status)


def per_node_rows(source):
    """Rows ``(alpha, inst, prior, quad, weights)`` for the per-node comparison.

    A preset gives seven levels.  ``"seeded"`` gives priors with mass on both
    sides of the baseline (the per-node form divides by each), baselines up to
    0.95, rows where every belief or none participates, and two one-size pay
    sets with a gap: one weak piece ending below the baseline, and two.
    """
    if source != "seeded":
        cfg = load_config(preset_path(source))
        args = (cfg.instance, cfg.prior, cfg.quadrature, cfg.weights)
        return [(alpha, *args) for alpha in (1e-4, 0.003, 0.02, 0.05, 0.1, 0.3, 0.9)]
    quad, weights = QuadratureSpec(panels=20), LossWeights(lambda_fp=2.0, lambda_fn=0.5)
    rows = [
        (0.81, EconomicInstance(R=1.0, c0=0.95, c=0.0, mu_b=0.3, n_min=1, n_max=1),
         TruncatedNormalPrior(0.3, 0.2, 1e-6, 0.999), quad, weights),
        (0.99, EconomicInstance(R=1.0, c0=0.95, c=0.0, mu_b=0.7, n_min=1, n_max=1),
         TruncatedNormalPrior(0.5, 0.2, 1e-6, 0.999), quad, weights),
    ]
    rng = random.Random(16)
    while len(rows) < 300:
        R = 10.0 ** rng.uniform(0.0, 3.0)
        alpha = math.exp(rng.uniform(math.log(1e-3), math.log(0.99)))
        k = min(0.99, alpha * 10.0 ** rng.uniform(-1.0, 0.5))
        n_min = rng.choice([1, 1, 3, 10, 50])
        c = R * k * rng.uniform(0.0, 0.5) / n_min
        mu_b = rng.uniform(0.05, 0.95)
        inst = EconomicInstance(R, R * k - c * n_min, c, mu_b, n_min, n_min + rng.choice([0, 20, 200]))
        sd = 10.0 ** rng.uniform(-2.0, -0.5)
        prior = TruncatedNormalPrior(mu_b + rng.uniform(-2.0, 2.0) * sd, sd,
                                     rng.uniform(1e-6, mu_b), rng.uniform(mu_b, 0.999))
        if 0.0 < prior.cdf(mu_b) < 1.0:
            rows.append((alpha, inst, prior, quad, weights))
    return rows


@pytest.mark.parametrize("source", ["cardiovascular", "fn-curves-062", "seeded"])
def test_loss_components_match_per_node_best_responses(source):
    statuses, weak_rows, two_weak, ends_below, high_mu_b = set(), 0, 0, 0, 0
    for alpha, inst, *args in per_node_rows(source):
        bd = loss_components(alpha, inst, *args)
        assert bd == loss_components_per_node(alpha, inst, *args), (alpha, inst, args[0])
        statuses.add(bd.threshold_status)
        weak_rows += bd.fp_particip > 0.0  # weak beliefs participate
        weak = [(lo, hi) for lo, hi in _pay_interval(_level(alpha, inst), inst.n_min) if lo < inst.mu_b]
        two_weak += len(weak) == 2
        ends_below += any(hi < inst.mu_b for _, hi in weak)
        high_mu_b += inst.mu_b > 0.6
    if source == "seeded":
        assert statuses == {"interior", "all_participate", "none_participate"}
        assert two_weak >= 1 and ends_below >= 5 and high_mu_b >= 100 and weak_rows >= 200
    else:
        assert statuses == {"interior", "all_participate"}
        assert weak_rows >= 3


def test_loss_components_solves_the_weak_pay_set_once_per_row():
    # The threshold solves n_min's pay set and hands the loss its pieces, so
    # no row solves it twice.  Every execution of _pay_interval is counted,
    # whatever name it was called by.
    code = _pay_interval.__code__
    solved = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            solved.append(frame.f_locals["n"])

    statuses = set()
    for alpha, inst, *args in per_node_rows("seeded") + per_node_rows("cardiovascular"):
        solved.clear()
        sys.setprofile(profile)
        try:
            bd = loss_components(alpha, inst, *args)
        finally:
            sys.setprofile(None)
        assert solved.count(inst.n_min) == 1, (alpha, inst, solved)
        statuses.add(bd.threshold_status)
    assert statuses == {"interior", "all_participate", "none_participate"}


def test_recorded_sweep_calls_answer_alike_with_any_hint():
    # The corpus of test_agent.py::test_recorded_sweep_calls_pin_the_kernels_counts:
    # every kernel call of every 8th row of the cardiovascular and
    # fn-curves-062 sweeps and every 16th of vaccine's, recorded with the
    # hint the loss gave it.  A hint moves no answer: each call must give its
    # recorded answer, by repr, with the retired 2*n1 - n0 (raw, as the loss
    # passes its own prediction), with the previous call's n_star (the hint
    # of the loss's parent design), with none, and with a size 7, 60 or 500
    # (in turn) either side of its answer, which the kernel reaches by its
    # jump or not at all.  On vaccine, nodes reach n_max and 20 recorded
    # hints exceed it, which the kernel's check refuses unscored.
    hinted, overflows, row, n0, n1, n_end = 0, 0, None, 0, 0, 0
    calls = sum((record_sweep_calls(preset, stride)
                 for preset, stride in (("cardiovascular", 8), ("fn-curves-062", 8), ("vaccine", 16))), ())
    for i, (level, mu, hint, answer) in enumerate(calls):
        n_min, n_max = level[5], level[6]
        if level is not row:
            row, last = level, 0
        overflows += hint > n_max
        hinted += hint > 0
        offset = min(n_max, max(n_min, answer[1] + (-500, -60, -7, 7, 60, 500)[i % 6]))
        for other in (2 * n1 - n0, last, 0, offset):
            assert repr(agent._respond(level, mu, other)) == repr(answer), (level, mu, hint, other)
        if hint:
            n0, n1 = n1, answer[1]
        else:  # after the two ends, the chain holds the lower end's size
            n0, n1, n_end = 0, n_end, answer[1]
        last = answer[1]
    assert (hinted, overflows) == (39_900, 20)


# Per preset's row at alpha = 0.05: how often each hint rule of the loss
# fires, and the [erfc, log] that the row's nodes take with each rule.
HINT_COSTS = {
    "cardiovascular": ({"end": 2, "start": 1, "ratio": 398, "above n_max": 0},
                       {"geometric": [1545, 79], "linear": [1718, 70], "none": [1601, 2337]}),
    "vaccine": ({"end": 2, "start": 1, "ratio": 398, "above n_max": 3},
                {"geometric": [1646, 74], "linear": [1858, 158], "none": [1595, 2213]}),
    "fn-curves-062": ({"end": 2, "start": 1, "ratio": 398, "above n_max": 0},
                      {"geometric": [1359, 201], "linear": [1358, 201], "none": [1572, 2465]}),
}


@pytest.mark.parametrize("preset", HINT_COSTS)
def test_loss_hints_follow_the_geometric_rule(monkeypatch, preset):
    # The two ends of the effective piece are solved first, with no hint.
    # Each interior node's hint, in belief order, is n1*n1 // n0 from the
    # sizes n0 and n1 of the two nodes before it, or n1 where n0 is 0, passed
    # unfiltered: the kernel's check alone refuses a size outside the piece.
    # The chain starts from the lower end's size, so the first interior
    # node's hint is that size.  On cardiovascular at 0.05, n* grows by a
    # near-constant factor from the participating end (1, 2, 8, 19, 36, ...);
    # on vaccine n* reaches n_max, and some predictions exceed it.
    #
    # Each of the row's 401 nodes, ends included, is replayed with its hint,
    # with the retired linear rule 2*n1 - n0 on the same chain, and with
    # none; all three give its answer, and each rule's erfc and log are
    # pinned.  Every Newton step takes one log, as do each concave piece's
    # start, each check of a top end and the belief's constant, which is
    # taken only where Newton runs: a hint that the kernel certifies takes no
    # log, so the hinted rules take a small share of none's logs.  The
    # geometric rule takes fewer erfc than the linear one on cardiovascular
    # and vaccine, and more logs on cardiovascular only.  The pins count
    # cost, not answers.
    pinned, costs = HINT_COSTS[preset]
    cfg = load_config(preset_path(preset))
    nodes = [call for call in record_row_calls(cfg, 0.05) if call.node]
    assert len(nodes) == cfg.quadrature.panels + 1
    counted = count_kernel_math(monkeypatch)
    rules = dict.fromkeys(pinned, 0)
    spent, n0, n1 = {name: [0, 0] for name in costs}, 0, 0
    for i, (level, mu, hint, answer, _) in enumerate(nodes):
        if i < 2:
            rule, expected, linear = "end", 0, 0
        elif not n0:
            rule, expected, linear = "start", n1, n1
        else:
            rule, expected, linear = "ratio", n1 * n1 // n0, 2 * n1 - n0
        assert hint == expected, (n0, n1, hint)
        rules[rule] += 1
        rules["above n_max"] += hint > cfg.instance.n_max
        for name, other in (("geometric", hint), ("linear", linear), ("none", 0)):
            counted.clear()
            assert repr(agent._respond(level, mu, other)) == repr(answer), (mu, name, other)
            spent[name][0] += counted.erfc
            spent[name][1] += counted.log
        if i != 1:
            n0, n1 = n1, answer[1]
    assert (rules, spent) == (pinned, costs)


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


@pytest.mark.parametrize("prior, mu_b, alpha", [
    # 9.9e-10 of the mass lies above mu_b: 1 - cdf read it 5.3e-9 too high,
    # and fn_abstain, a difference of two cdf values near 1, 8.4e-9.
    (TruncatedNormalPrior(0.3, 0.05, 0.1, 0.9), 0.6, 0.05),
    # The support lies 9 sd below the mean: the right tails at mu_b and hi
    # both round to 1, which once read the effective side as empty.
    (TruncatedNormalPrior(0.9, 0.05, 0.1, 0.45), 0.4499, 0.3),
    # A support 5 sd below the mean, where right tails lost 2e-10 of the mass.
    (TruncatedNormalPrior(0.7, 0.05, 0.1, 0.45), 0.4, 0.05),
])
def test_effective_side_mass_keeps_its_digits(prior, mu_b, alpha):
    ref = sps.truncnorm((prior.lo - prior.mean) / prior.sd, (prior.hi - prior.mean) / prior.sd,
                        loc=prior.mean, scale=prior.sd)
    for mu in (mu_b, 0.5 * (mu_b + prior.hi), prior.hi - 0.01 * prior.sd):
        assert prior._sf(mu) == pytest.approx(float(ref.sf(mu)), rel=1e-11)
    assert (prior._sf(prior.lo), prior._sf(prior.hi)) == (1.0, 0.0)
    inst = dataclasses.replace(INST, mu_b=mu_b)
    quad = QuadratureSpec(panels=50)
    th = participation_threshold(alpha, inst)
    bd = loss_components(alpha, inst, prior, quad)
    assert not bd.no_effective_mass
    mass = float(ref.sf(mu_b))
    want = (mass - float(ref.sf(max(th.mu_tau, mu_b)))) / mass
    assert bd.fn_abstain == pytest.approx(want, rel=1e-11, abs=1e-15)
    # fn_particip divides the effective side's Simpson sum by that mass.
    node_sum = simpson(lambda mu: (1.0 - best_response(alpha, mu, inst).pass_prob) * prior.pdf(mu),
                        max(th.mu_tau + th.epsilon, mu_b), prior.hi, quad.panels)
    assert node_sum > 0.0 or want == 1.0
    assert bd.fn_particip == pytest.approx(node_sum / mass, rel=1e-11)


def test_loss_components_rejects_bad_alpha():
    with pytest.raises(DomainError):
        loss_components(0.0, INST, PRIOR)
    with pytest.raises(DomainError):
        loss_components(1.0, INST, PRIOR)


def test_grid_optimal_level_is_the_critical_level_on_five_presets():
    # The paper characterises the optimal level by the critical one.  On the
    # uniform grid from alpha_hat, the least loss sits at alpha_hat itself
    # (the grid's corner) on five presets, and inside the range only on
    # fn-curves-053, where the staircase floor decides it (ROADMAP item 11).
    interior = {"fn-curves-053": 0.2147877070707071}
    corner = ["cardiovascular", "fn-curves-062", "fn-curves-067", "oncology", "vaccine"]
    assert sorted(available_presets()) == sorted(corner + list(interior))
    for preset in available_presets():
        cfg = load_config(preset_path(preset))
        best = grid_optimal_alpha(cfg.instance, cfg.prior, cfg.weights, cfg.quadrature)
        assert best == interior.get(preset, critical_alpha(cfg.instance).alpha_hat), preset


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
