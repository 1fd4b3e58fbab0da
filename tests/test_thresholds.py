"""Participation threshold and critical significance level solvers.

Interior thresholds are checked against an independent bisection that
uses only the exhaustive best-response scan.  Every status is checked
against the same bisection asking the public ``best_response``, and every
interior bracket by asking the public ``best_response`` at both its ends.
The critical level is checked against a weak-belief utility scan that
shares no code with the package, and against the nested bisection search
it replaced, which stays here as an oracle for baselines up to 0.6.  Clamp
statuses and solver complexity (the number of best responses consulted)
are pinned down explicitly.
"""

import math
import random

import pytest

import trialgame.loss as loss
import trialgame.thresholds as thresholds
from trialgame import (
    BELIEF_CEIL,
    BELIEF_FLOOR,
    EconomicInstance,
    QuadratureSpec,
    TruncatedNormalPrior,
    best_response,
    best_response_bruteforce,
    critical_alpha,
    critical_alpha_closed_form,
    load_config,
    participation_threshold,
    pass_probability,
    preset_path,
    std_normal_quantile,
    std_normal_sf,
    sweep_alpha,
)
from reference import peak_critical_alpha

INST = EconomicInstance(R=1.0, c0=0.05, c=0.002, mu_b=0.5, n_min=1, n_max=500)

# Frozen by bisecting the participation predicate of the exhaustive-scan
# solver down to a bracket of 1e-18 on INST.
MU_TAU_AT_0_03 = 0.5602391075774416
MU_TAU_AT_0_10 = 0.36027778078177275


def test_interior_threshold_matches_exhaustive_bisection():
    for alpha, frozen in ((0.03, MU_TAU_AT_0_03), (0.1, MU_TAU_AT_0_10)):
        th = participation_threshold(alpha, INST)
        assert th.status == "interior"
        assert abs(th.mu_tau - frozen) < 1e-12
        assert 0.0 < th.epsilon <= thresholds._BRACKET


def test_threshold_separates_participants_from_abstainers():
    th = participation_threshold(0.1, INST)
    margin = 4.0 * thresholds.DEFAULT_EPS
    assert best_response(0.1, th.mu_tau + margin, INST).participates
    assert not best_response(0.1, th.mu_tau - margin, INST).participates


def test_threshold_status_all_participate():
    th = participation_threshold(0.99, INST)
    assert th == thresholds.ParticipationThreshold(BELIEF_FLOOR, 0.0, "all_participate")


def test_threshold_status_none_participate():
    broke = EconomicInstance(R=1.0, c0=2.0, c=0.002, mu_b=0.5, n_min=1, n_max=500)
    th = participation_threshold(0.05, broke)
    assert th == thresholds.ParticipationThreshold(BELIEF_CEIL, 0.0, "none_participate")


def test_threshold_non_increasing_in_alpha():
    grid = [1e-3, 5e-3, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7]
    values = [participation_threshold(a, INST).mu_tau for a in grid]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-6


# Kernel calls over each preset's alpha grid, measured when the participating
# end became a one-size witness (3,020 and 3,578 before).  A change to the
# walk that costs more calls fails here; one that saves calls re-pins.
PRESET_KERNEL_CALLS = {"cardiovascular": 2039, "oncology": 2242}


def test_threshold_uses_logarithmically_many_best_responses(monkeypatch):
    # The threshold sets up the level once and asks the per-belief kernel
    # for each best response, so counting kernel calls counts best responses.
    calls = 0
    real = thresholds._respond

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(thresholds, "_respond", counting)
    th = thresholds.participation_threshold(0.1, INST)
    assert th.status == "interior"
    # Two clamp probes and the closing ask; the participating end is
    # witnessed by one size's utility.  The plain bisection would ask about 22.
    assert calls <= 3
    measured = {}
    for preset in PRESET_KERNEL_CALLS:
        cfg = load_config(preset_path(preset))
        calls = 0
        for alpha in cfg.alpha_grid:
            thresholds.participation_threshold(alpha, cfg.instance)
        measured[preset] = calls
    assert measured == PRESET_KERNEL_CALLS


# Closed form (c0 + c * n_min) / R for the bundled category economics.
CARDIO = EconomicInstance(R=3560.0, c0=141.0, c=0.128, mu_b=0.5, n_min=1, n_max=100_000)
ONCO = EconomicInstance(R=5000.0, c0=648.0, c=0.136, mu_b=0.5, n_min=1, n_max=100_000)
VACCINE = EconomicInstance(R=17720.0, c0=886.0, c=0.05, mu_b=0.5, n_min=1, n_max=100_000)


def bisect_predicate(participates, eps=thresholds.DEFAULT_EPS):
    """The plain threshold bisection on a participation predicate."""
    lo, hi = BELIEF_FLOOR, BELIEF_CEIL
    if participates(lo):
        return thresholds.ParticipationThreshold(lo, 0.0, "all_participate")
    if not participates(hi):
        return thresholds.ParticipationThreshold(hi, 0.0, "none_participate")
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        if participates(mid):
            hi = mid
        else:
            lo = mid
    return thresholds.ParticipationThreshold(0.5 * (lo + hi), 0.5 * (hi - lo), "interior")


def bisect_public_best_response(alpha, inst, eps=thresholds.DEFAULT_EPS):
    """The threshold bisection, asking the public ``best_response`` per belief."""
    return bisect_predicate(lambda mu: best_response(alpha, mu, inst).participates, eps)


def random_instance(rng, mu_b_range):
    """Economics drawn like the point-query benchmark's, with a chosen baseline range."""
    R = 10.0 ** rng.uniform(0.0, 4.0)
    return EconomicInstance(
        R=R,
        c0=R * 10.0 ** rng.uniform(-4.0, -1.0),
        c=R * 10.0 ** rng.uniform(-7.0, -3.0),
        mu_b=rng.uniform(*mu_b_range),
        n_min=1,
        n_max=rng.choice([500, 100_000]),
    )


def log_uniform_alpha(rng):
    return math.exp(rng.uniform(math.log(1e-4), math.log(0.9)))


def assert_threshold_brackets_the_crossing(alpha, inst):
    """The threshold against the plain bisection asking ``best_response``.

    The status must be the bisection's.  An interior bracket must be an
    abstaining and a participating belief at most ``2 * _BRACKET`` apart,
    recomputed from ``mu_tau`` and ``epsilon`` as a caller would.  Where
    participation is monotone (baselines up to 0.6) both brackets hold the
    one crossing, so they overlap.
    """
    th = participation_threshold(alpha, inst)
    plain = bisect_public_best_response(alpha, inst)
    assert th.status == plain.status, (inst, alpha)
    if th.status != "interior":
        assert th == plain, (inst, alpha)
        return th
    assert 0.0 < th.epsilon <= thresholds._BRACKET, (inst, alpha)
    assert not best_response(alpha, th.mu_tau - th.epsilon, inst).participates, (inst, alpha)
    assert best_response(alpha, th.mu_tau + th.epsilon, inst).participates, (inst, alpha)
    if inst.mu_b <= 0.6:
        assert abs(th.mu_tau - plain.mu_tau) <= plain.epsilon + th.epsilon, (inst, alpha)
    return th


def test_threshold_matches_bisection_on_public_best_response():
    broke = EconomicInstance(R=1.0, c0=2.0, c=0.002, mu_b=0.5, n_min=1, n_max=500)
    high_baseline = EconomicInstance(R=271.7, c0=3.56e-3, c=0.432, mu_b=0.838, n_max=20_000)
    statuses = set()
    for inst in (INST, CARDIO, ONCO, broke, high_baseline):
        for alpha in (1e-4, 0.003, 0.03, 0.1, 0.3, 0.9):
            statuses.add(assert_threshold_brackets_the_crossing(alpha, inst).status)
    assert statuses == {"interior", "all_participate", "none_participate"}


@pytest.mark.parametrize("preset", [
    "cardiovascular", "oncology", "vaccine", "fn-curves-053", "fn-curves-062", "fn-curves-067",
])
def test_threshold_matches_bisection_on_every_preset_alpha(preset):
    cfg = load_config(preset_path(preset))
    for alpha in cfg.alpha_grid:
        assert_threshold_brackets_the_crossing(alpha, cfg.instance)


def test_threshold_matches_bisection_where_participation_is_monotone():
    # Baselines up to 0.6 keep participation monotone in belief, so the
    # bracket overlaps the plain bisection's.
    rng = random.Random(606)
    statuses = set()
    for _ in range(2000):
        inst = random_instance(rng, (0.05, 0.6))
        statuses.add(assert_threshold_brackets_the_crossing(log_uniform_alpha(rng), inst).status)
    assert "interior" in statuses and "all_participate" in statuses


def test_threshold_brackets_a_crossing_for_high_baselines():
    # Above 0.6 participation can be non-monotone, and a lower crossing
    # than the plain bisection's may be returned; either way the lower end
    # of the bracket abstains and the upper end participates.
    rng = random.Random(607)
    interior = 0
    for _ in range(600):
        inst = random_instance(rng, (0.6 + 1e-9, 0.95))
        th = assert_threshold_brackets_the_crossing(log_uniform_alpha(rng), inst)
        interior += th.status == "interior"
    assert interior >= 300


def test_kernel_callers_pass_only_clamped_beliefs(monkeypatch):
    # The kernel trusts its callers: only best_response checks a belief.
    # The threshold and the loss integrands must keep within the clamp on a
    # whole sweep, a sparse one, a prior reaching past the clamp, and
    # thresholds where participation can be non-monotone.
    calls = 0
    real = thresholds._respond

    def checked(level, mu):
        nonlocal calls
        calls += 1
        assert BELIEF_FLOOR <= mu <= BELIEF_CEIL, mu
        return real(level, mu)

    monkeypatch.setattr(thresholds, "_respond", checked)
    monkeypatch.setattr(loss, "_respond", checked)
    for preset, step in (("fn-curves-062", 1), ("cardiovascular", 10)):
        cfg = load_config(preset_path(preset))
        sweep_alpha(cfg.alpha_grid[::step], cfg.instance, cfg.prior, cfg.weights, cfg.quadrature)
    wide = TruncatedNormalPrior(mean=0.5, sd=0.3, lo=1e-9, hi=1.0 - 1e-9)
    sweep_alpha([0.01, 0.1, 0.5], INST, wide, quad=QuadratureSpec(panels=100))
    rng = random.Random(607)
    for _ in range(600):
        inst = random_instance(rng, (0.6 + 1e-9, 0.95))
        participation_threshold(log_uniform_alpha(rng), inst)
    assert calls > 100_000


@pytest.mark.parametrize("end", ["floor", "ceil"])
def test_bracket_clamps_an_end_that_would_leave_the_belief_range(monkeypatch, end):
    # One admissible size, priced so that it breaks even a quarter bracket
    # inside a clamp belief: the bracket's end on that side would fall
    # outside the belief range, so _bracket must clamp it before asking.
    # Near the floor the baseline lies below it, so every belief is
    # effective; near the ceiling d*s_b = 0.499 keeps the pass chance
    # moderate.
    if end == "floor":
        alpha, mu_b, mu = 0.05, 5e-7, BELIEF_FLOOR + 2.0**-36
    else:
        alpha, mu_b, mu = std_normal_sf(0.998), 0.5, BELIEF_CEIL - 2.0**-36
    c0 = pass_probability(alpha, mu, 1, mu_b)
    inst = EconomicInstance(R=1.0, c0=c0, c=0.0, mu_b=mu_b, n_min=1, n_max=1)
    assert abs(thresholds._break_even(thresholds._level(alpha, inst), 1) - mu) < 2.0**-40
    asked = []
    for name in ("_respond", "_score"):

        def spy(level, belief, *size, real=getattr(thresholds, name)):
            asked.append(belief)
            return real(level, belief, *size)

        monkeypatch.setattr(thresholds, name, spy)
    th = participation_threshold(alpha, inst)
    assert th.status == "interior"
    assert abs(th.mu_tau - mu) < 2.0 * thresholds._BRACKET
    assert all(BELIEF_FLOOR <= belief <= BELIEF_CEIL for belief in asked)
    # Past _threshold's two clamp probes, the clamped end itself is asked.
    assert (BELIEF_FLOOR if end == "floor" else BELIEF_CEIL) in asked[2:]


@pytest.mark.parametrize("end", ["lo", "hi"])
def test_threshold_falls_back_to_bisection_when_an_end_fails(monkeypatch, end):
    # A kernel that answers the other way at one end of the evaluated
    # bracket leaves a wider bracket: the closing ask participates ("lo"),
    # or the witness fails at the participating end and the kernel, asked
    # there instead, abstains ("hi").  It is then bisected, and its ends
    # still hold under that kernel.
    alpha = 0.1
    th = participation_threshold(alpha, INST)
    flipped = th.mu_tau - th.epsilon if end == "lo" else th.mu_tau + th.epsilon
    real, real_score = thresholds._respond, thresholds._score
    calls, asked = 0, set()

    def kernel(level, mu):
        nonlocal calls
        calls += 1
        asked.add(mu)
        answer = real(level, mu)
        if mu != flipped:
            return answer
        return (0.0, 0, 0.0) if answer[1] else (1.0, INST.n_min, 1.0)

    def score(level, mu, n):  # no size pays at the flipped end
        u, p = real_score(level, mu, n)
        return (-1.0, p) if mu == flipped else (u, p)

    monkeypatch.setattr(thresholds, "_respond", kernel)
    monkeypatch.setattr(thresholds, "_score", score)
    level = thresholds._level(alpha, INST)
    assert bool(kernel(level, flipped)[1]) == (end == "lo")  # the end now answers the wrong way
    calls, asked = 0, set()
    got = thresholds.participation_threshold(alpha, INST)
    assert flipped in asked
    assert got.status == "interior" and got != th
    assert 0.0 < got.epsilon <= thresholds._BRACKET
    assert not kernel(level, got.mu_tau - got.epsilon)[1]
    assert kernel(level, got.mu_tau + got.epsilon)[1]
    assert calls > 4 + 20  # the bracket, then at least 20 bisection steps


def test_threshold_witness_pays_at_the_participating_end():
    # The best size at the participating end pays there, and not at the
    # abstaining end.
    level = thresholds._level(0.1, INST)
    th = participation_threshold(0.1, INST)
    b = th.mu_tau + th.epsilon
    n = thresholds._respond(level, b)[1]
    assert n and thresholds._score(level, b, n)[0] >= 0.0
    assert thresholds._score(level, th.mu_tau - th.epsilon, n)[0] < 0.0


def test_threshold_with_a_subnormal_cost_per_sample():
    # 2 * s0 * c underflows to zero at the ceiling belief, where the kernel
    # once divided by it.
    inst = EconomicInstance(R=1.0, c0=0.05, c=5e-324, mu_b=0.5, n_max=500)
    th = participation_threshold(0.05, inst)
    assert th.status == "interior"
    assert not best_response(0.05, th.mu_tau - th.epsilon, inst).participates
    assert best_response(0.05, th.mu_tau + th.epsilon, inst).participates


def test_critical_alpha_closed_form_frozen_values():
    assert abs(critical_alpha_closed_form(CARDIO) - 0.03964269662921348) < 1e-15
    assert abs(critical_alpha_closed_form(ONCO) - 0.1296272) < 1e-15
    assert abs(critical_alpha_closed_form(VACCINE) - 0.05000282167042889) < 1e-15


@pytest.mark.parametrize("inst", [CARDIO, ONCO, VACCINE, INST], ids=["cardio", "onco", "vaccine", "unit"])
def test_critical_alpha_search_matches_closed_form(inst):
    result = critical_alpha(inst)
    assert result.status == "interior"
    assert abs(result.alpha_hat - critical_alpha_closed_form(inst)) < 2e-6


def test_critical_alpha_reports_achieved_belief_gap():
    # At alpha_hat the marginal participant is the baseline belief itself.
    result = critical_alpha(CARDIO)
    achieved = abs(participation_threshold(result.alpha_hat, CARDIO).mu_tau - CARDIO.mu_b)
    assert achieved < 1e-7


def test_critical_alpha_at_floor_status():
    rich = EconomicInstance(R=1e11, c0=141.0, c=0.128, mu_b=0.5, n_min=1, n_max=100_000)
    result = critical_alpha(rich)
    assert result.status == "at_floor"
    assert result.alpha_hat == thresholds.DEFAULT_EPS


def test_critical_alpha_no_feasible_status():
    broke = EconomicInstance(R=1.0, c0=2.0, c=0.002, mu_b=0.5, n_min=1, n_max=500)
    result = critical_alpha(broke)
    assert result.status == "no_feasible_alpha"
    assert result.alpha_hat == 1.0 - thresholds.DEFAULT_EPS


def test_interior_threshold_consistent_with_scan_solver():
    # The fast and exhaustive solvers must induce the same participation
    # boundary: straddling beliefs agree on both sides.
    th = participation_threshold(0.05, INST)
    for mu0 in (th.mu_tau - 1e-4, th.mu_tau + 1e-4):
        fast = best_response(0.05, mu0, INST).participates
        slow = best_response_bruteforce(0.05, mu0, INST).participates
        assert fast == slow


def search_critical_alpha(inst, eps=thresholds.DEFAULT_EPS):
    """Critical level by bisection over ``alpha`` on ``mu_tau(alpha) <= mu_b``.

    Valid only while participation is monotone in belief (baselines up to
    about 0.6); above that it can land on an effective-side crossing and
    overshoot.  The inner threshold is exact to ``2**-34``, far tighter
    than ``eps``, so predicate noise cannot dominate.
    """
    mu_b = inst.mu_b

    def mu_tau(a):
        return participation_threshold(a, inst).mu_tau

    lo, hi = eps, 1.0 - eps
    if mu_tau(lo) <= mu_b:
        return thresholds.CriticalAlpha(lo, "at_floor")
    if mu_tau(hi) > mu_b:
        return thresholds.CriticalAlpha(hi, "no_feasible_alpha")
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        mt = mu_tau(mid)
        if mt <= mu_b:
            hi = mid
        else:
            lo = mid
        if hi - lo <= eps and abs(mt - mu_b) <= eps:
            break
        if hi - lo <= 4e-16 * max(hi, 1.0):
            break
    return thresholds.CriticalAlpha(0.5 * (lo + hi), "interior")


def oracle_quantile(p):
    """``Phi^{-1}(p)`` by bisection on ``erfc`` down to adjacent floats.

    It shares no code with the package's AS241.  Above one half it returns
    ``-Phi^{-1}(1 - p)``: ``1 - p`` is exact there, and ``Phi`` close to 1
    cannot resolve the tail.
    """
    if p > 0.5:
        return -oracle_quantile(1.0 - p)
    lo, hi = -40.0, 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if 0.5 * math.erfc(-mid / math.sqrt(2.0)) < p:
            lo = mid
        else:
            hi = mid


def test_oracle_quantile_agrees_with_package_quantile():
    # The levels the weak-belief scan is asked at: 0.99, 1 and 1.01 times a
    # critical level in [DEFAULT_EPS, 1 - DEFAULT_EPS], such as the clamps
    # and the two pinned by the tests below.  Near p = 1/2, where the
    # quantile nears 0, the erfc bisected resolves it only to about 1e-16,
    # an ulp of 1.
    rng = random.Random(361)
    eps = thresholds.DEFAULT_EPS
    levels = [eps, 1.0 - eps, 4.7301e-4, 0.74372, 0.5]
    for _ in range(2000):
        level = math.exp(rng.uniform(math.log(eps), math.log(0.5)))
        levels.append(level if rng.random() < 0.5 else 1.0 - level)
    for p in (f * level for level in levels for f in (0.99, 1.0, 1.01) if f * level < 1.0):
        q = std_normal_quantile(p)
        assert abs(oracle_quantile(p) - q) <= 8 * math.ulp(max(abs(q), 1.0)), p


def max_weak_utility(alpha, inst, points=256):
    """Best profit of any belief in ``[BELIEF_FLOOR, mu_b]`` at ``alpha``.

    A weak belief's best trial is ``n_min``.  The profit is scanned on a
    uniform belief grid and the best cell refined by golden-section search,
    with the test quantile ``d = -Phi^{-1}(alpha)`` taken from
    :func:`oracle_quantile`.
    """
    mu_b = inst.mu_b
    ds = -oracle_quantile(alpha) * math.sqrt(mu_b * (1.0 - mu_b))
    root_n = math.sqrt(inst.n_min)
    cost = inst.c0 + inst.c * inst.n_min

    def u(mu):
        v = (ds - (mu - mu_b) * root_n) / math.sqrt(mu * (1.0 - mu))
        return inst.R * 0.5 * math.erfc(v / math.sqrt(2.0)) - cost

    xs = [BELIEF_FLOOR + (mu_b - BELIEF_FLOOR) * i / points for i in range(points)] + [mu_b]
    values = [u(x) for x in xs]
    best = max(range(len(xs)), key=values.__getitem__)
    a, b = xs[max(best - 1, 0)], xs[min(best + 1, points)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        m1, m2 = b - inv_phi * (b - a), a + inv_phi * (b - a)
        if u(m1) < u(m2):
            a = m1
        else:
            b = m2
    return max(values[best], u(0.5 * (a + b)))


def weak_participates(alpha, inst):
    return max_weak_utility(alpha, inst) >= 0.0


def assert_brackets_weak_entry(inst, result):
    """No weak belief enters at 0.99 x alpha_hat, some do at 1.01 x."""
    if result.status == "at_floor":
        assert weak_participates(result.alpha_hat, inst), inst
    elif result.status == "no_feasible_alpha":
        assert not weak_participates(result.alpha_hat, inst), inst
    else:
        assert not weak_participates(0.99 * result.alpha_hat, inst), inst
        if 1.01 * result.alpha_hat < 1.0:
            assert weak_participates(1.01 * result.alpha_hat, inst), inst


def test_critical_alpha_interior_maximiser_above_0_6():
    # The first weak belief to enter is about 0.70, not the baseline: the
    # paper's (c0 + c*n_min)/R says 1.60e-3 and the search says 6.3e-4.
    inst = EconomicInstance(R=271.7, c0=3.56e-3, c=0.432, mu_b=0.838, n_min=1, n_max=100_000)
    result = critical_alpha(inst)
    assert result.status == "interior"
    assert abs(result.alpha_hat - 4.7301e-4) <= 1e-8
    assert_brackets_weak_entry(inst, result)


def test_critical_alpha_convex_branch_floor_enters_first():
    # k = (c0 + c*n_min)/R is about 0.93, so the maximand is convex and the
    # floor belief enters before the baseline does.
    inst = EconomicInstance(R=11.186388, c0=10.386046, c=0.0089012, mu_b=0.298067, n_min=1, n_max=500)
    result = critical_alpha(inst)
    assert result.status == "interior"
    assert abs(result.alpha_hat - 0.74372) <= 1e-5
    assert result.alpha_hat < critical_alpha_closed_form(inst)
    assert_brackets_weak_entry(inst, result)


def test_critical_alpha_formula_matches_the_peak_evaluation():
    # Where a weaker belief enters first, the closed form is the maximand
    # evaluated at its peak; the two agree to a few ulps, not just closely.
    rng = random.Random(20261019)
    interior = 0
    for _ in range(20_000):
        mu_b = rng.uniform(0.55, 0.999)
        n_min = rng.choice([1, 1, 2, 5, rng.randint(1, 400)])
        k = 10.0 ** rng.uniform(-6.0, math.log10(0.5))
        c = k * rng.choice([0.0, rng.random()]) / n_min
        inst = EconomicInstance(1.0, max(k - c * n_min, 0.0), c, mu_b, n_min, n_min + 100)
        result = critical_alpha(inst)
        if result.status != "interior":
            continue
        oracle = peak_critical_alpha(inst)
        assert result.alpha_hat == pytest.approx(oracle, rel=1e-13, abs=0.0), inst
        interior += oracle < 0.999 * k
    assert interior >= 5_000


def test_critical_alpha_free_trials_at_floor():
    free = EconomicInstance(R=1.0, c0=0.0, c=0.0, mu_b=0.5, n_min=1, n_max=500)
    assert critical_alpha(free) == thresholds.CriticalAlpha(thresholds.DEFAULT_EPS, "at_floor")


def test_critical_alpha_matches_weak_belief_scan_and_search():
    rng = random.Random(2025)
    concave_interior = convex_floor = searched = 0
    statuses = set()
    for _ in range(320):
        mu_b = rng.uniform(0.05, 0.95)
        n_min = rng.choice([1, 1, 1, 2, 10, 50])
        c0 = 10.0 ** rng.uniform(-4.0, 2.0)
        c = 10.0 ** rng.uniform(-6.0, 0.0)
        k = 10.0 ** rng.uniform(-6.5, 0.05)
        inst = EconomicInstance((c0 + c * n_min) / k, c0, c, mu_b, n_min, n_min + rng.randrange(100, 5000))
        result = critical_alpha(inst)
        statuses.add(result.status)
        assert_brackets_weak_entry(inst, result)
        if result.status == "interior" and result.alpha_hat < 0.99 * k:
            if k < 0.5:
                concave_interior += 1
            else:
                convex_floor += 1
        if mu_b <= 0.6:
            searched += 1
            search = search_critical_alpha(inst)
            assert search.status == result.status, inst
            assert abs(search.alpha_hat - result.alpha_hat) <= 2e-6, inst
    # Every branch of the formula and every status is exercised.
    assert statuses == {"interior", "at_floor", "no_feasible_alpha"}
    assert concave_interior >= 10 and convex_floor >= 3 and searched >= 150
