"""Applicant model: pass probability, utility, curvature, best response.

The first-order best-response solver is held to two oracles: the
exhaustive scan, and the forward-difference binary search it replaced
(kept below).  Curvature region boundaries are cross-checked against finite
second differences of the utility itself.  Point values are frozen from
independent closed-form evaluation (scipy.stats.norm) or from the scan.
A size's pass chance is scored by the kernel's own scorer
(``reference.normal_pass``), and measured against the exact binomial test
where the normal approximation is thin.
"""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom, norm

from trialgame import agent
from trialgame import (
    BELIEF_CEIL,
    BELIEF_FLOOR,
    BestResponse,
    DomainError,
    EconomicInstance,
    LossWeights,
    SearchRangeError,
    TruncatedNormalPrior,
    available_presets,
    best_response,
    best_response_bruteforce,
    critical_alpha,
    load_config,
    participation_threshold,
    preset_path,
    std_normal_quantile,
    utility,
)
from reference import (
    convex_window,
    count_kernel_math,
    curvature_regions,
    exact_binomial_pass,
    exact_critical_count,
    level_convex_window,
    normal_pass,
    record_row_calls,
    record_sweep_calls,
    utility_slope,
)

# One instance reused throughout: unit revenue, affordable trials.
INST = EconomicInstance(R=1.0, c0=0.05, c=0.002, mu_b=0.5, n_min=1, n_max=500)

# Frozen with scipy: norm.sf((ppf(0.95)*0.5 - 0.1*10) / sqrt(0.24)).
PASS_0_05_06_100 = 0.6414994872716355
# Frozen from the exhaustive scan over n in [1, 500] on INST.
BEST_N = 166
BEST_UTILITY = 0.4472444943225101
BEST_PASS = 0.8292444943225101


def _concave_argmax(u_of, a, b):
    """Largest-utility integer in [a, b] for a concave utility sequence.

    Binary search on the sign of the forward difference u(n+1) - u(n),
    which is non-increasing on a concave stretch.
    """
    if a >= b:
        return a
    if u_of(a + 1) - u_of(a) <= 0.0:
        return a
    if u_of(b) - u_of(b - 1) > 0.0:
        return b
    lo, hi = a, b - 1  # forward difference positive at lo, nonpositive at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if u_of(mid + 1) - u_of(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def best_response_binary_search(alpha, mu0, inst):
    """Region solver that binary-searches forward differences, as an oracle.

    Same curvature partition as ``best_response``, restated on the test side
    by :func:`reference.curvature_regions`, but each concave region is
    searched with :func:`_concave_argmax` instead of solving the first-order
    condition; the integers on either side of each region end are candidates
    too.

    Where ``c/R`` is near float resolution the forward differences are noise
    near the root, and the search can stop a few sizes short of the best:
    at alpha = 1.0077e-4, mu0 = 0.71060, ``R = 139.86``, ``c0 = 0.0907``,
    ``c = 2.44e-12``, ``mu_b = 0.65815`` and n in [13, 12,741] it returns
    8,597, where the kernel returns 8,601 with a utility an ulp higher.  So
    an ``==`` against this oracle is exact only away from that regime; there
    the exhaustive scan arbitrates.
    """
    d = -std_normal_quantile(alpha)
    mu_b = inst.mu_b
    n_min, n_max = inst.n_min, inst.n_max
    sigma0 = math.sqrt(mu0 * (1.0 - mu0))
    dmu = mu0 - mu_b
    ds = d * math.sqrt(mu_b * (1.0 - mu_b))

    def p_of(n):
        v = (ds - dmu * math.sqrt(n)) / sigma0
        return 0.5 * math.erfc(v / math.sqrt(2.0))

    def u_of(n):
        return inst.R * p_of(n) - (inst.c0 + inst.c * n)

    if dmu <= 0.0:
        candidates = [n_min]
    else:
        # Every curvature break within [n_min, n_max] ends a region, and the
        # regions' outer ends are n_min and n_max.
        candidates = {n_min, n_max}
        for region in curvature_regions(alpha, mu0, inst):
            a, b = math.ceil(region.n_lo), math.floor(region.n_hi)
            candidates.update((math.floor(region.n_lo), a, b, math.ceil(region.n_hi)))
            if region.shape == "concave" and b > a:
                candidates.add(_concave_argmax(u_of, a, b))
        candidates = sorted(candidates)
    best_n, best_u = 0, -math.inf
    for n in candidates:
        u = u_of(n)
        if u > best_u:
            best_n, best_u = n, u
    if best_u >= 0.0:
        return BestResponse(True, best_n, p_of(best_n), best_u)
    return BestResponse(False, 0, 0.0, 0.0)


def test_instance_validation_reports_every_problem():
    with pytest.raises(DomainError) as excinfo:
        EconomicInstance(R=-1.0, c0=-2.0, c=-0.5, mu_b=2.0, n_min=0, n_max=-5)
    message = str(excinfo.value)
    for fragment in ("R must be", "c0 must be", "c must be", "mu_b must", "n_min must"):
        assert fragment in message
    assert [p.split()[0] for p in excinfo.value.problems] == ["R", "c0", "c", "mu_b", "n_min", "n_max"]


def test_instance_rejects_sizes_that_are_not_integers():
    # One problem per size, and no range rule for a size that is no integer.
    # An infinite n_max used to reach the solvers and overflow there.
    base = dict(R=1.0, c0=0.05, c=0.002, mu_b=0.5)
    for n_min, n_max, problems in (
        (1.5, 500, ["n_min must be an integer, got 1.5"]),
        (1, math.inf, ["n_max must be an integer, got inf"]),
        (True, 500, ["n_min must be an integer, got True"]),
        (1, 500.0, ["n_max must be an integer, got 500.0"]),
        (0.5, 0, ["n_min must be an integer, got 0.5"]),
        (0, 1.5, ["n_min must be at least 1, got 0", "n_max must be an integer, got 1.5"]),
    ):
        with pytest.raises(DomainError) as excinfo:
            EconomicInstance(**base, n_min=n_min, n_max=n_max)
        assert excinfo.value.problems == problems


def test_records_reject_integers_too_large_for_a_float():
    # Such an integer is not finite as a float: each field reports it as one
    # problem instead of overflowing where it is first converted.
    huge = 10**400
    base = dict(R=1.0, c0=0.05, c=0.002, mu_b=0.5, n_min=1, n_max=500)
    for field, problem in (
        ("R", "R must be a positive finite number"),
        ("c0", "c0 must be a nonnegative finite number"),
        ("c", "c must be a nonnegative finite number"),
        ("n_min", "n_min must be an integer"),
        ("n_max", "n_max must be an integer"),
    ):
        with pytest.raises(DomainError) as excinfo:
            EconomicInstance(**dict(base, **{field: huge}))
        assert excinfo.value.problems == [f"{problem}, got {huge!r}"]
    with pytest.raises(DomainError, match="lambda_fp must be a nonnegative finite number"):
        LossWeights(lambda_fp=huge)
    with pytest.raises(DomainError, match="mean must be a finite number"):
        TruncatedNormalPrior(mean=huge, sd=0.1, lo=0.2, hi=0.8)


def test_instance_rejects_inverted_size_range():
    with pytest.raises(DomainError, match="n_max"):
        EconomicInstance(R=1.0, c0=0.0, c=0.0, mu_b=0.5, n_min=10, n_max=9)


def test_pass_probability_frozen_value():
    assert abs(normal_pass(0.05, 0.6, 100, 0.5) - PASS_0_05_06_100) < 1e-12


def test_pass_probability_at_baseline_equals_alpha():
    # An applicant whose belief sits exactly on the baseline faces a pass
    # chance of alpha at every trial size.
    for alpha in (0.01, 0.05, 0.2):
        for n in (1, 10, 100, 10_000):
            assert abs(normal_pass(alpha, 0.5, n, 0.5) - alpha) < 1e-9


def test_pass_probability_at_baseline_keeps_small_alpha_to_roundoff():
    # d = -quantile(alpha), not quantile(1 - alpha): 1 - alpha rounds, which
    # put the size at alpha = 1e-15 off by 8e-4 relative.  What remains is a
    # few ulps of d, magnified by d itself (about 8 at 1e-15) in the tail.
    rng = random.Random(20261020)
    alphas = [10.0**-k for k in range(1, 16)]
    alphas += [10.0 ** rng.uniform(-15.0, math.log10(0.9)) for _ in range(500)]
    for alpha in alphas:
        mu_b = rng.uniform(0.01, 0.99)
        n = rng.choice((1, 100, 12_345))
        assert normal_pass(alpha, mu_b, n, mu_b) == pytest.approx(alpha, rel=1e-13, abs=0.0)


@given(
    st.floats(min_value=1e-4, max_value=0.5),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    st.integers(min_value=0, max_value=5000),
    st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=300)
def test_pass_probability_within_unit_interval(alpha, mu0, n, mu_b):
    assert 0.0 <= normal_pass(alpha, mu0, n, mu_b) <= 1.0


@given(
    st.floats(min_value=1e-4, max_value=0.4),
    st.floats(min_value=1e-4, max_value=0.4),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    st.integers(min_value=1, max_value=2000),
    st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=300)
def test_pass_probability_monotone_in_alpha(alpha, bump, mu0, n, mu_b):
    wider = normal_pass(alpha + bump, mu0, n, mu_b)
    narrower = normal_pass(alpha, mu0, n, mu_b)
    assert wider + 1e-12 >= narrower


@given(
    st.floats(min_value=1e-4, max_value=0.5),
    st.floats(min_value=1e-6, max_value=0.64),
    st.floats(min_value=1e-4, max_value=0.65),
    st.integers(min_value=1, max_value=2000),
    st.floats(min_value=0.15, max_value=0.85),
)
@settings(max_examples=300)
def test_pass_probability_monotone_in_belief_below_065(alpha, mu_lo, mu_hi, n, mu_b):
    # Monotonicity in the belief holds throughout mu0 <= 0.65.  For much
    # higher beliefs combined with tiny alpha and small n the shrinking
    # Bernoulli variance can overpower the mean shift, so the range here
    # is deliberately capped.
    if mu_hi <= mu_lo:
        mu_lo, mu_hi = mu_hi, mu_lo
    higher = normal_pass(alpha, mu_hi, n, mu_b)
    lower = normal_pass(alpha, mu_lo, n, mu_b)
    assert higher + 1e-12 >= lower


@given(
    st.floats(min_value=1e-4, max_value=0.5),
    st.floats(min_value=0.55, max_value=0.9),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=1000),
)
@settings(max_examples=300)
def test_pass_probability_monotone_in_size_on_effective_side(alpha, mu0, n, extra):
    more = normal_pass(alpha, mu0, n + extra, 0.5)
    fewer = normal_pass(alpha, mu0, n, 0.5)
    assert more + 1e-12 >= fewer


@given(
    st.floats(min_value=1e-4, max_value=0.5),
    st.floats(min_value=0.1, max_value=0.45),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=1000),
)
@settings(max_examples=300)
def test_pass_probability_monotone_in_size_on_weak_side(alpha, mu0, n, extra):
    more = normal_pass(alpha, mu0, n + extra, 0.5)
    fewer = normal_pass(alpha, mu0, n, 0.5)
    assert more <= fewer + 1e-12


def test_exact_binomial_pass_matches_scipy():
    # Critical counts agree exactly and pass chances to lgamma's roundoff,
    # on a grid clear of ties such as P(X >= 3 | 0.5) = 0.5 at n = 5, where
    # the count turns on the last bit.
    for n in (1, 2, 5, 50, 100, 500, 2000):
        for alpha in (1e-4, 0.01, 0.05, 0.2, 0.45, 0.9):
            for mu_b in (0.07, 0.3, 0.55, 0.838):
                k = exact_critical_count(alpha, n, mu_b)
                assert k == next(j for j, tail in enumerate(binom.sf(range(-1, n + 1), n, mu_b)) if tail <= alpha)
                for mu0 in (0.01, 0.3, 0.5, 0.7, 0.99):
                    want = binom.sf(k - 1, n, mu0)
                    assert exact_binomial_pass(alpha, mu0, n, mu_b) == pytest.approx(want, rel=1e-10, abs=1e-300)


def test_normal_pass_against_the_exact_binomial_test():
    # Where the normal approximation is thin, as measured against the exact
    # size-alpha test.  Weak side: every preset has n_min = 1 and mu_b = 0.5,
    # and one sample below the baseline never clears the exact test, so its
    # pass chance is 0, while the normal one is positive at every grid level
    # below mu_b and every weak belief of the prior's support.
    for preset in available_presets():
        cfg = load_config(preset_path(preset))
        inst, lo = cfg.instance, cfg.prior.lo
        assert (inst.n_min, inst.mu_b) == (1, 0.5), preset
        for alpha in (a for a in cfg.alpha_grid if a < inst.mu_b):
            for mu0 in (lo, 0.5 * (lo + inst.mu_b), inst.mu_b):
                assert exact_binomial_pass(alpha, mu0, 1, inst.mu_b) == 0.0
                assert normal_pass(alpha, mu0, 1, inst.mu_b) > 0.0
    assert round(normal_pass(0.05, 0.45, 1, 0.5), 4) == 0.0397
    # Effective side, at the best size: the normal pass chance is the higher
    # one, by at most 1.1e-3 on cardiovascular but by up to 0.042 on
    # fn-curves-062, where n* = 29 gives 0.133 against 0.091.
    for preset, bound in (("cardiovascular", 1.1e-3), ("fn-curves-062", 0.042)):
        inst, gaps = load_config(preset_path(preset)).instance, []
        for alpha in (0.01, 0.05):
            for mu0 in (0.55, 0.58, 0.6, 0.62, 0.65, 0.68):
                br = best_response(alpha, mu0, inst)
                if br.participates:
                    gaps.append(br.pass_prob - exact_binomial_pass(alpha, mu0, br.n_star, inst.mu_b))
        assert len(gaps) >= 11 and 0.0 < min(gaps) and max(gaps) <= bound, (preset, gaps)
    inst = load_config(preset_path("fn-curves-062")).instance
    br = best_response(0.05, 0.55, inst)
    assert (br.n_star, round(br.pass_prob, 3), round(exact_binomial_pass(0.05, 0.55, 29, 0.5), 3)) == (29, 0.133, 0.091)
    # Criterion 6 takes its critical count from the normal quantile.  Against
    # the exact test's own count, the worst gap on its grid is 0.093, where
    # the normal count is 23 and the exact one 24.
    rates = [0.3, 0.4, 0.5, 0.6, 0.7]
    worst, worst_at = 0.0, None
    for n in (50, 100, 200, 500):
        for alpha in (0.01, 0.05, 0.2):
            for mu_b in rates:
                for mu0 in rates:
                    gap = abs(normal_pass(alpha, mu0, n, mu_b) - exact_binomial_pass(alpha, mu0, n, mu_b))
                    if gap > worst:
                        worst, worst_at = gap, (n, alpha, mu_b, mu0)
    assert round(worst, 3) == 0.093 and worst_at == (50, 0.01, 0.3, 0.5)
    normal_count = math.ceil(50 * 0.3 + norm.isf(0.01) * math.sqrt(50 * 0.3 * 0.7))
    assert (normal_count, exact_critical_count(0.01, 50, 0.3)) == (23, 24)


def test_utility_frozen_value_and_abstention():
    assert abs(utility(0.05, 0.6, 100, INST) - 0.3914994872716355) < 1e-12
    assert utility(0.05, 0.6, 0, INST) == 0.0


def test_utility_checks_level_and_belief_before_abstaining():
    # n = 0 earns 0 only for a valid level and belief, as best_response
    # requires of the same inputs.
    bad = ((5.0, 0.6), (math.nan, 0.6), (0.05, 0.0), (0.05, math.nan), (math.nan, math.nan))
    for alpha, mu0 in bad:
        with pytest.raises(DomainError):
            utility(alpha, mu0, 0, INST)
        with pytest.raises(DomainError):
            best_response(alpha, mu0, INST)


def test_utility_rejects_sizes_outside_admissible_range():
    with pytest.raises(DomainError):
        utility(0.05, 0.6, 501, INST)
    with pytest.raises(DomainError):
        utility(0.05, 0.6, 1, EconomicInstance(1.0, 0.0, 0.0, 0.5, n_min=5, n_max=10))
    # A size is an integer by the instance's rule: a fraction once scored,
    # and True scored as one sample.
    for n in (100.5, True, math.inf, 10**400):
        with pytest.raises(DomainError, match="sample count must be an integer"):
            utility(0.05, 0.6, n, INST)


def test_utility_slope_matches_forward_differences():
    # The discrete increment u(n+1) - u(n) equals the continuous slope at
    # the midpoint up to third-order curvature, far below 1e-6 here.
    for n in (50, 100, 200):
        increment = utility(0.05, 0.6, n + 1, INST) - utility(0.05, 0.6, n, INST)
        midpoint = utility_slope(0.05, 0.6, n + 0.5, INST)
        assert abs(increment - midpoint) < 1e-6


def test_curvature_regions_frozen_partition():
    # Frozen from the sign quadratic: breaks at n = 0.000172... and
    # n = 9.8606519...; only the upper one falls inside [1, 500].
    regions = curvature_regions(0.001, 0.99, INST)
    assert [r.shape for r in regions] == ["convex", "concave"]
    assert regions[0].n_lo == 1.0
    assert abs(regions[0].n_hi - 9.860651933216221) < 1e-9
    assert regions[1].n_hi == 500.0


def test_curvature_regions_single_concave_case():
    regions = curvature_regions(0.05, 0.6, INST)
    assert len(regions) == 1
    assert regions[0].shape == "concave"
    assert (regions[0].n_lo, regions[0].n_hi) == (1.0, 500.0)


def test_curvature_regions_tile_the_size_range():
    for alpha, mu0 in ((0.001, 0.99), (0.05, 0.6), (0.3, 0.52), (1e-4, 0.8)):
        regions = curvature_regions(alpha, mu0, INST)
        assert regions[0].n_lo == float(INST.n_min)
        assert regions[-1].n_hi == float(INST.n_max)
        for left, right in zip(regions, regions[1:]):
            assert left.n_hi == right.n_lo
            assert left.shape != right.shape


def test_curvature_regions_match_second_differences():
    # Second differences of the realised utility must agree in sign with
    # the claimed shape, probing well inside each region.
    def second_diff(n):
        return (
            utility(0.001, 0.99, n - 1, INST)
            + utility(0.001, 0.99, n + 1, INST)
            - 2.0 * utility(0.001, 0.99, n, INST)
        )

    for n in (3, 5, 8):  # inside the convex window [1, 9.86]
        assert second_diff(n) > 0.0
    for n in (11, 12, 13):  # concave stretch, before the pass chance saturates
        assert second_diff(n) < 0.0


def test_curvature_regions_degenerate_range_classified():
    single = EconomicInstance(1.0, 0.05, 0.002, 0.5, n_min=5, n_max=5)
    regions = curvature_regions(0.001, 0.99, single)
    assert len(regions) == 1
    assert regions[0].shape == "convex"  # 5 sits between the two breaks


def test_best_response_frozen_worked_instance():
    br = best_response(0.05, 0.6, INST)
    assert br == BestResponse(True, BEST_N, BEST_PASS, BEST_UTILITY)
    # Flanking sizes are strictly worse, pinning the argmax.
    assert utility(0.05, 0.6, BEST_N - 1, INST) < BEST_UTILITY
    assert utility(0.05, 0.6, BEST_N + 1, INST) < BEST_UTILITY


def test_best_response_zero_utility_still_participates():
    # Fixed cost tuned so the best utility is exactly 0.0 in floats.
    p1 = normal_pass(0.3, 0.5, 1, 0.5)
    boundary = EconomicInstance(R=1.0, c0=p1, c=0.0, mu_b=0.5, n_min=1, n_max=10)
    br = best_response(0.3, 0.5, boundary)
    assert br.participates
    assert br.n_star == 1
    assert br.utility == 0.0


def test_best_response_abstains_when_trials_cannot_pay():
    expensive = EconomicInstance(R=1.0, c0=2.0, c=0.002, mu_b=0.5, n_min=1, n_max=500)
    assert best_response(0.05, 0.69, expensive) == BestResponse(False, 0, 0.0, 0.0)


def test_best_response_weak_side_buys_minimum_or_nothing():
    for mu0 in (0.2, 0.4, 0.5):
        br = best_response(0.3, mu0, EconomicInstance(1.0, 0.01, 0.001, 0.5, 3, 500))
        assert br.n_star in (0, 3)


def test_best_response_flat_utility_resolves_to_smallest_size():
    # At the baseline belief with no per-sample cost every size earns the
    # same; the tie must resolve downward.
    flat = EconomicInstance(R=1.0, c0=0.01, c=0.0, mu_b=0.5, n_min=2, n_max=50)
    assert best_response(0.3, 0.5, flat).n_star == 2


def test_best_response_agrees_with_exhaustive_scan():
    # Each draw is checked as drawn and again with c = 0, where the utility
    # only rises and flattens once the pass chance rounds to 1: the first
    # size to reach the top must win the tie.
    rng = random.Random(20240817)
    for _ in range(60):
        fields = dict(
            R=10.0 ** rng.uniform(-1.0, 3.0),
            c0=10.0 ** rng.uniform(-4.0, 1.0),
            c=10.0 ** rng.uniform(-6.0, 0.0),
            mu_b=rng.uniform(0.05, 0.95),
            n_min=rng.randrange(1, 30),
            n_max=rng.randrange(40, 1500),
        )
        alpha = 10.0 ** rng.uniform(-4.0, math.log10(0.5))
        mu0 = rng.uniform(1e-6, 1.0 - 1e-6)
        for inst in (EconomicInstance(**fields), EconomicInstance(**{**fields, "c": 0.0})):
            fast = best_response(alpha, mu0, inst)
            slow = best_response_bruteforce(alpha, mu0, inst)
            assert fast.participates == slow.participates
            assert fast.n_star == slow.n_star
            assert fast.utility == slow.utility
            assert fast.pass_prob == slow.pass_prob
    # Pass chance 1.0 from n = 381 on; the whole plateau ties.
    free = EconomicInstance(R=130.17, c0=2.187, c=0.0, mu_b=0.7657, n_min=1, n_max=500)
    assert best_response(3.11e-5, 0.9475, free) == BestResponse(True, 381, 1.0, 130.17 - 2.187)


def test_best_response_near_scan_when_cost_is_at_float_resolution():
    # With c/R near the float resolution the utility is flat or noisy over
    # several sizes around the slope root, so the four scored sizes can miss
    # the scan's first maximum by a few samples.  The utility given up stays
    # within float noise, and it is always the utility of the size returned.
    rng = random.Random(1409)
    for _ in range(400):  # 4 of these miss the scan's n_star
        n_min = rng.randrange(1, 30)
        inst = EconomicInstance(
            R=10.0 ** rng.uniform(-1.0, 3.0),
            c0=10.0 ** rng.uniform(-4.0, 1.0),
            c=10.0 ** rng.uniform(-14.0, -9.0),
            mu_b=rng.uniform(0.05, 0.95),
            n_min=n_min,
            n_max=rng.randrange(40, 5000),
        )
        alpha = 10.0 ** rng.uniform(-4.0, math.log10(0.5))
        mu0 = rng.uniform(1e-6, 1.0 - 1e-6)
        fast = best_response(alpha, mu0, inst)
        scan = best_response_bruteforce(alpha, mu0, inst)
        assert fast.participates == scan.participates
        assert scan.utility - fast.utility <= 2.0 * math.ulp(inst.R)
        if fast.participates:
            assert fast.utility == utility(alpha, mu0, fast.n_star, inst)
    # Flat tops whose bisection probes a size above the top utility.
    for alpha, mu0, inst in (
        (
            0.0007417190520160559,
            0.7969085780710236,
            EconomicInstance(267.2026769023252, 0.22297513033451077, 3.960568443645264e-14,
                             0.7322312051010205, 12, 27997),
        ),
        (
            0.05069051425145473,
            0.7905330423398049,
            EconomicInstance(10.718378784627628, 9.11541926523247, 1.7613829159079663e-14,
                             0.7659689185576608, 11, 56872),
        ),
    ):
        br = best_response(alpha, mu0, inst)
        assert br.utility == utility(alpha, mu0, br.n_star, inst)


def test_kernel_validates_level_and_belief():
    # The level checks alpha and best_response checks the belief, once each;
    # the kernel trusts its callers.  With both bad, alpha is reported.
    level = agent._level(0.05, INST)
    assert agent._respond(level, 0.6) == (BEST_UTILITY, BEST_N, BEST_PASS)
    assert agent._respond(level, BELIEF_FLOOR) == (0.0, 0, 0.0)
    for mu0 in (0.0, 0.5 * BELIEF_FLOOR, BELIEF_CEIL + 1e-9, 1.0, math.nan):
        with pytest.raises(DomainError, match="belief"):
            best_response(0.05, mu0, INST)
    # A belief of 1.0 takes the level's path and 0.0, a weak one, the
    # one-size path; both report alpha with the level's message.
    for alpha in (0.0, 1.0, -0.1, 1.5, math.nan):
        with pytest.raises(DomainError, match="significance level"):
            agent._level(alpha, INST)
        for mu0 in (1.0, 0.0):
            with pytest.raises(DomainError, match="significance level"):
                best_response(alpha, mu0, INST)


# sha256 of the kernel's answers to the queries below, frozen from the
# solver before its candidate scan became a single pass over the pieces, and
# re-frozen when the normal quantile's upper half became a reflection of its
# lower half, and again when the quantile became the standard library's AS241
# and d became -Phi^{-1}(alpha); each moved only the last bits of d.  The
# digest was checked identical on CPython 3.10 to 3.13.
KERNEL_DIGEST = "b60355c012d4ca0d8c556b04e88edc354562146a89267d302f51e15d08d13666"


def test_kernel_output_bits_are_pinned():
    # 24,000 queries: c = 0 and c/R in [1e-14, 1e-1], n_max of 500, 100,000,
    # n_min and random, the clamp beliefs, the baseline itself and beliefs
    # just above it, with mu_b in (0.01, 0.99).  The public best_response,
    # which answers weak beliefs and single sizes without the kernel, must
    # give the kernel's record bit for bit.
    rng = random.Random(20261018)
    digest = hashlib.sha256()
    for i in range(4000):
        R = 10.0 ** rng.uniform(-1.0, 3.0)
        n_min = rng.randrange(1, 40)
        n_max = (500, 100_000, n_min, n_min + rng.randrange(1, 5000))[i % 4]
        c = 0.0 if i % 7 == 0 else R * 10.0 ** rng.uniform(-14.0, -1.0)
        inst = EconomicInstance(R=R, c0=R * 10.0 ** rng.uniform(-5.0, 0.0), c=c,
                                mu_b=rng.uniform(0.01, 0.99), n_min=n_min, n_max=n_max)
        alpha = 10.0 ** rng.uniform(-4.0, math.log10(0.5))
        level = agent._level(alpha, inst)
        near = inst.mu_b + 10.0 ** rng.uniform(-6.0, -0.5)
        for mu0 in (BELIEF_FLOOR, BELIEF_CEIL, inst.mu_b, min(near, BELIEF_CEIL),
                    rng.uniform(inst.mu_b, BELIEF_CEIL), rng.uniform(BELIEF_FLOOR, BELIEF_CEIL)):
            u, n_star, p = agent._respond(level, mu0)
            digest.update(repr((u, n_star, p)).encode())
            assert repr(best_response(alpha, mu0, inst)) == repr(BestResponse(n_star > 0, n_star, p, u))
    assert digest.hexdigest() == KERNEL_DIGEST


def test_best_response_matches_binary_search_oracle():
    rng = random.Random(7)
    interior = 0
    for _ in range(4000):
        n_min = rng.randrange(1, 30)
        inst = EconomicInstance(
            R=10.0 ** rng.uniform(-1.0, 3.0),
            c0=10.0 ** rng.uniform(-4.0, 1.0),
            c=10.0 ** rng.uniform(-6.0, 0.0),
            mu_b=rng.uniform(0.05, 0.95),
            n_min=n_min,
            n_max=n_min + int(10.0 ** rng.uniform(1.0, 6.0)),
        )
        alpha = 10.0 ** rng.uniform(-4.0, math.log10(0.5))
        mu0 = rng.uniform(1e-6, 1.0 - 1e-6)
        br = best_response(alpha, mu0, inst)
        assert br == best_response_binary_search(alpha, mu0, inst)
        if br.participates and inst.n_min < br.n_star < inst.n_max:
            # An interior optimum sits where the first-order condition holds.
            interior += 1
            assert utility_slope(alpha, mu0, br.n_star - 1, inst) > 0.0
            assert utility_slope(alpha, mu0, br.n_star + 1, inst) < 0.0
    assert interior > 500


# Winners below the last concave piece, where the kernel must walk on past
# it: (alpha, mu0, instance, scan's n_star).  The first three lie below the
# convex window.  In the last two the last piece's peak beats the convex
# window's top end, so a bound that charged the cost of the size it checks
# instead of the cost of n_min would wrongly stop the walk.
LOWER_WINNERS = (
    (0.027767957676450357, 0.7774454753073206,
     EconomicInstance(0.5880945190857969, 1.6960075823550137e-05, 0.0050842230525692785,
                      0.672673278373464, 2, 500), 2),
    (0.022226705703440788, 0.7088615733433111,
     EconomicInstance(0.7145170974497134, 0.00011131791239081727, 0.000218014629574481,
                      0.6896124061790038, 24, 5000), 27),
    (0.0070738190192071995, 0.4795982447860702,
     EconomicInstance(3077.2722524595765, 0.5322157873515762, 3.0635898412835445,
                      0.4415279759617699, 9, 5000), 9),
    (0.0031195296527814134, 0.3462798016294993,
     EconomicInstance(137.61574309677175, 0.16485649739069405, 1.2464502921435872,
                      0.2000937280483978, 7, 198), 7),
    (0.004401609096929933, 0.8078771665544525,
     EconomicInstance(12.573511859164466, 0.00022491470187460138, 0.002016550764515796,
                      0.7900242850455611, 6, 3987), 6),
)


def test_kernel_matches_ordered_walk_on_every_effective_draw():
    # The kernel walks the pieces from the top down and stops once one
    # pass-chance bound rules out every smaller size; the oracle scores its
    # candidates in increasing order.  Every effective draw is checked, so
    # each layout of the convex window is covered: ending inside the range,
    # reaching n_max, or absent.  One draw in four has c/R in [1e-14, 1e-9],
    # where the utility is noisy near the slope root and the forward
    # differences of the oracle can stop a few sizes short; only there may
    # the two differ, and the exhaustive scan arbitrates.
    rng = random.Random(2718)
    layouts = {"inside": 0, "reaches n_max": 0, "none": 0}
    arbitrated = 0
    for i in range(6000):
        R = 10.0 ** rng.uniform(-1.0, 3.0)
        n_min = rng.randrange(1, 30)
        inst = EconomicInstance(
            R=R,
            c0=R * 10.0 ** rng.uniform(-5.0, -1.0),
            c=R * 10.0 ** (rng.uniform(-14.0, -9.0) if i % 4 == 0 else rng.uniform(-6.0, 0.0)),
            mu_b=rng.uniform(0.05, 0.95),
            n_min=n_min,
            n_max=n_min + int(10.0 ** rng.uniform(1.0, 5.0)),
        )
        alpha = 10.0 ** rng.uniform(-4.0, math.log10(0.5))
        mu0 = rng.uniform(inst.mu_b, BELIEF_CEIL)
        shapes = [r.shape for r in curvature_regions(alpha, mu0, inst)]
        if "convex" not in shapes:
            layouts["none"] += 1
        elif shapes[-1] == "convex":
            layouts["reaches n_max"] += 1
        else:
            layouts["inside"] += 1
        got = agent._respond(agent._level(alpha, inst), mu0)
        br = best_response_binary_search(alpha, mu0, inst)
        if got != (br.utility, br.n_star, br.pass_prob):
            assert i % 4 == 0
            arbitrated += 1
            assert got[0] >= br.utility
            assert best_response_bruteforce(alpha, mu0, inst).utility - got[0] <= 2.0 * math.ulp(inst.R)
    assert layouts["inside"] > 2000 and layouts["reaches n_max"] > 500 and layouts["none"] > 3000
    assert arbitrated <= 2
    for alpha, mu0, inst, n_star in LOWER_WINNERS:
        br = best_response_bruteforce(alpha, mu0, inst)
        assert br.n_star == n_star < curvature_regions(alpha, mu0, inst)[-1].n_lo
        assert agent._respond(agent._level(alpha, inst), mu0) == (br.utility, br.n_star, br.pass_prob)


@given(
    st.floats(min_value=1e-3, max_value=0.5),
    st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=150, deadline=None)
def test_best_response_reports_consistent_numbers(alpha, mu0):
    br = best_response(alpha, mu0, INST)
    if br.participates:
        assert INST.n_min <= br.n_star <= INST.n_max
        assert br.utility == utility(alpha, mu0, br.n_star, INST)
        assert br.pass_prob == normal_pass(alpha, mu0, br.n_star, INST.mu_b)
        assert br.utility >= 0.0
    else:
        assert br == BestResponse(False, 0, 0.0, 0.0)


def test_bruteforce_refuses_unreasonable_ranges():
    huge = EconomicInstance(1.0, 0.05, 0.002, 0.5, 1, 2_000_000)
    with pytest.raises(SearchRangeError):
        best_response_bruteforce(0.05, 0.6, huge)
    # The region-based solver handles the same range fine.
    assert best_response(0.05, 0.6, huge).participates


def test_kernel_scores_its_answer_as_score_does():
    # _respond's walk and one-size branch repeat _score's expression inline,
    # while the threshold's witness, the flat-top probe and the oracles call
    # _score; the size the kernel returns must score the same bits both ways.
    rng = random.Random(19)
    answered = {"weak": 0, "effective": 0, "one size": 0, "flat top": 0}
    for i in range(3000):
        R = 10.0 ** rng.uniform(-1.0, 3.0)
        n_min = rng.randrange(1, 40)
        inst = EconomicInstance(
            R=R,
            c0=R * 10.0 ** rng.uniform(-5.0, 0.0),
            c=0.0 if i % 5 == 0 else R * 10.0 ** rng.uniform(-14.0, -1.0),
            mu_b=rng.uniform(0.01, 0.99),
            n_min=n_min,
            n_max=(n_min, 500, n_min + rng.randrange(1, 5000))[i % 3],
        )
        level = agent._level(10.0 ** rng.uniform(-6.0, math.log10(0.5)), inst)
        for mu0 in (rng.uniform(BELIEF_FLOOR, inst.mu_b), rng.uniform(inst.mu_b, BELIEF_CEIL),
                    BELIEF_CEIL):
            u, n, p = agent._respond(level, mu0)
            if not n:
                assert (u, p) == (0.0, 0.0)
                continue
            assert (u, p) == agent._score(level, mu0, n)
            if inst.n_min == inst.n_max:
                answered["one size"] += 1
            elif mu0 <= inst.mu_b:
                answered["weak"] += 1
            elif inst.c == 0.0:  # utility rises to a flat top, whose first size is probed
                answered["flat top"] += n < inst.n_max
            else:
                answered["effective"] += 1
    assert min(answered.values()) > 150, answered


def test_sizes_up_to_the_convex_window_pass_at_most_half_the_time():
    # The walk ends before the convex piece, leaving its top unscored, once
    # R/2 - (c0 + c*n_min) falls short of the best: every size up to the
    # window's top n2 has sqrt(n) <= d*s_b/dmu, so v >= 0 and p <= 1/2.
    rng = random.Random(2323)
    windows, most = 0, 0.0
    for _ in range(20000):
        mu_b = rng.uniform(0.01, 0.99)
        alpha = 10.0 ** rng.uniform(-12.0, math.log10(0.5))
        mu0 = rng.uniform(mu_b, BELIEF_CEIL)
        if mu0 == mu_b:
            continue
        n2 = convex_window(alpha, mu0, EconomicInstance(1.0, 0.0, 0.0, mu_b))[1]
        if n2 >= 1.0:
            windows += 1
            most = max(most, normal_pass(alpha, mu0, math.floor(n2), mu_b))
    assert windows > 15000
    assert 0.49 < most <= 0.5


def test_the_hint_checks_bound_on_the_window_top_holds_in_floats():
    # Until the hint check reads the convex window it bounds the window's
    # top n2 by t*t, t = ds/dmu.  In reals the top root (ds + sqrt(ds^2 -
    # 4*var0))/(2*dmu) is below ds/dmu; in floats sqrt(ds*ds) rounds to ds
    # and each step rounds monotonically, so agent._window's n2 never
    # exceeds t*t either.  Seeded draws check it, with beliefs down to one
    # ulp above mu_b and levels down to 1e-300, and against the reference
    # window.
    rng = random.Random(2424)
    windows = 0
    for i in range(20000):
        mu_b = rng.uniform(0.01, 0.99)
        alpha = 10.0 ** rng.uniform(-300.0 if i % 5 == 0 else -12.0, math.log10(0.5))
        mu0 = math.nextafter(mu_b, 1.0) if i % 7 == 0 else rng.uniform(mu_b, BELIEF_CEIL)
        if mu0 == mu_b:
            continue
        inst = EconomicInstance(1.0, 0.0, 0.0, mu_b)
        ds, dmu = agent._level(alpha, inst)[1], mu0 - mu_b
        n1, n2 = agent._window(ds, mu0 * (1.0 - mu0), dmu)
        t = ds / dmu
        assert n2 <= t * t, (alpha, mu0, mu_b)
        ref = convex_window(alpha, mu0, inst)
        assert n1 == pytest.approx(ref[0], rel=1e-9) and n2 == pytest.approx(ref[1], rel=1e-9)
        windows += n2 > 0.0
    assert windows > 15000, windows


def test_frozen_log_start_lies_at_or_above_the_slope_root():
    # Where the slope changes sign on a concave piece [a, b], the kernel's
    # Newton start (ds + s0*sqrt(2*h(sqrt(a)) + v(a)^2))/dmu has h = ln
    # sqrt(a) - ln t <= 0, so the root lies below it: the check h(sqrt(b))
    # >= 0 is needed only for a start at or past sqrt(b).  The root here is
    # bisected on the reference slope.
    rng = random.Random(2324)
    starts, inside = 0, 0
    for _ in range(3000):
        R = 10.0 ** rng.uniform(-1.0, 3.0)
        n_min = rng.randrange(1, 30)
        inst = EconomicInstance(R, R * 10.0 ** rng.uniform(-5.0, -1.0), R * 10.0 ** rng.uniform(-9.0, -1.0),
                                rng.uniform(0.05, 0.95), n_min, n_min + int(10.0 ** rng.uniform(1.0, 6.0)))
        alpha = 10.0 ** rng.uniform(-6.0, math.log10(0.9))
        mu0 = rng.uniform(inst.mu_b, BELIEF_CEIL)
        mu_b, ds = agent._level(alpha, inst)[:2]
        dmu, s0 = mu0 - mu_b, math.sqrt(mu0 * (1.0 - mu0))
        k = math.log(inst.R * dmu / (2.0 * s0 * inst.c)) - 0.5 * math.log(2.0 * math.pi)
        for region in curvature_regions(alpha, mu0, inst):
            a, b = math.ceil(region.n_lo), math.floor(region.n_hi)
            if region.shape != "concave" or not a < b:
                continue
            if not utility_slope(alpha, mu0, a, inst) > 0.0 > utility_slope(alpha, mu0, b, inst):
                continue
            v = (ds - dmu * math.sqrt(a)) / s0
            h = k - 0.5 * v * v - math.log(math.sqrt(a))
            if h <= 0.0:
                continue
            t = (ds + s0 * math.sqrt(2.0 * h + v * v)) / dmu
            lo, hi = float(a), float(b)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if utility_slope(alpha, mu0, mid, inst) > 0.0 else (lo, mid)
            assert t * t >= lo * (1.0 - 1e-9), (alpha, mu0, inst)
            starts += 1
            inside += t * t < b
    assert starts > 1500 and inside > 1400, (starts, inside)


def test_top_window_keeps_four_sizes_where_the_cost_is_at_float_resolution():
    # The top piece scores floor(root) + 1 down to floor(root) - 1 only where
    # c > 1e-12*R.  In the first query c/R = 1.05e-14: the utility near the
    # root moves by ulps of R, and a window without that guard returned
    # 4,434, a utility an ulp lower than the scan's.  Without the guard the
    # kernel digest still passes, but each of the six seeded queries after
    # it, c/R from 1.07e-15 to 1.14e-13, also misses the scan's size.
    for alpha, mu0, money, mu_b, n_min, n_star in (
        (5.88587676173611e-05, 0.5263075060460747,
         (161.75727154780222, 0.0012120450374618374, 1.7019021952162468e-12), 0.4450319811546379, 36, 4437),
        (0.0005038605408374344, 0.15514849171326534,
         (0.42126473032522493, 0.05843647446569222, 4.509184238122574e-16), 0.11982570432559812, 9, 10814),
        (0.004246014646902825, 0.7416307432150995,
         (3.328319629100849, 0.011307241659437927, 5.122015304630703e-15), 0.7183589511524537, 9, 33180),
        (0.0008484731513841789, 0.6045127391187144,
         (70.90037258574353, 0.3238082431563538, 1.9264317042075273e-13), 0.48232984485556324, 14, 1777),
        (0.0012411922873689911, 0.35404588896344313,
         (69.67815681197236, 19.79460906479276, 3.472077732913815e-13), 0.2626409956959867, 4, 2714),
        (0.008540805897504054, 0.8968322715309798,
         (49.50982936137433, 0.6067665223087394, 1.0537224172977536e-12), 0.8777173422904161, 7, 21523),
        (0.0006546410347337608, 0.2766297227626282,
         (2.072178044051347, 0.4093119998761513, 2.357717435484274e-13), 0.2558302543898161, 12, 41130),
    ):
        inst = EconomicInstance(*money, mu_b=mu_b, n_min=n_min, n_max=100_000)
        br = best_response(alpha, mu0, inst)
        assert br == best_response_bruteforce(alpha, mu0, inst), (alpha, mu0, inst)
        assert br.n_star == n_star


def test_kernel_reaches_erfc_through_its_math_module(monkeypatch):
    # perfbench/spans.py counts erfc by swapping agent's math module, so a
    # module-level alias of math.erfc would blind it.  A cardiovascular node
    # at alpha = 0.05 has no convex window at mu = 0.6 and scores the four
    # sizes 485 down to 482.  At mu = 0.9 it scores 25, 24 and 23: the top
    # piece's three sizes, and the one-half bound then ends the walk before
    # the convex window's top, 2.
    counted = count_kernel_math(monkeypatch)
    level = agent._level(0.05, load_config(preset_path("cardiovascular")).instance)
    for mu0, n_star, scored in ((0.6, 483, 4), (0.9, 24, 3)):
        counted.clear()
        assert agent._respond(level, mu0)[1] == n_star
        assert counted.erfc == scored


def test_size_hint_moves_no_answer(monkeypatch):
    """A size hint is only checked, and it moves no answer.

    The loss's effective-side integrand passes a size predicted from the two
    nodes before each.  On the first concave piece walked, the kernel scores
    the hint and the sizes next to it, and takes a size whose utility beats
    both neighbours' by more than the margin ``1e-12*R``.  Utility is concave
    in ``n`` on the piece, so that size is the piece's best as long as the
    margin is above twice the rounding error of a computed utility.  That
    error is about ``2**-53 * (R*(0.8*ds/s_0 + 10) + 2*(c0 + c*n))``, so the
    check takes only a size of nonnegative utility (whose cost is at most
    ``R``) and only where ``ds < 4000*s_0``.  Where the utility is flat at
    float resolution, sizes tie within ulps of ``R``, so none clears the
    margin.  A hint the check does not certify is dropped: Newton starts
    where it would without one, since where the utility is flat a Newton
    start at the hint can end a few sizes from the cold answer, even with
    ``c/R`` well above the float resolution, as on the pinned instances
    below.

    Hints are taken near the answer (``n* - 3`` to ``n* + 3``) and far from
    it, in every curvature piece and at the ends of each, at ``n_min`` and
    ``n_max``, with ``c = 0`` and ``c/R`` from 1e-14 to 0.1, on both sides of
    2e-10.  Copies of each instance put ``n*`` at ``n_max - 1``, at ``n_max``
    and at ``n_min``, the start of its piece, or raise ``c0`` so that ``c0 +
    c*n`` exceeds ``R``.  Seeded draws with beliefs just above ``mu_b`` and
    ``n_max`` up to 1e12 reach ``n*`` of 1e8 and more, where the utility is
    flat.  Each hinted answer must equal the unhinted one by ``repr``, and
    most near hints that the check can take must take no log at all (the
    belief's constant is taken only where Newton runs), so the check cannot
    silently stop firing.

    The hints above are clamped into ``[n_min, n_max]``; the loss sends its
    prediction unclamped, past ``n_max`` where ``n*`` reaches it.  So each
    draw also passes ``n_max + 1``, ``2*n_max``, ``10**18`` and, where
    ``n_min > 1``, ``n_min - 1``.  The check scores none of them, so each
    must give the cold answer with exactly the cold call's ``erfc`` and
    ``log`` counts.
    """
    counted = count_kernel_math(monkeypatch)
    rng = random.Random(2525)
    where = dict.fromkeys(("top concave", "convex", "lower concave", "no window", "window reaches n_max",
                           "piece end", "n_max", "far", "near", "c = 0", "c/R < 1e-12", "c/R <= 2e-10",
                           "c/R > 2e-10", "n* at n_max - 1", "n* at n_max", "n* at piece start",
                           "c0 + c*n above R", "outside the range"), 0)
    checkable = certified = 0

    def cold_answer(level, mu0):
        # The unhinted answer, which each hint outside the range must give
        # with the same erfc and log counts.
        counted.clear()
        cold = agent._respond(level, mu0)
        spent = counted.erfc, counted.log
        n_min, n_max = level[5:7]
        for hint in (n_max + 1, 2 * n_max, 10**18) + ((n_min - 1,) if n_min > 1 else ()):
            where["outside the range"] += 1
            counted.clear()
            assert repr(agent._respond(level, mu0, hint)) == repr(cold), (level, mu0, hint)
            assert (counted.erfc, counted.log) == spent, (level, mu0, hint)
        return cold

    def assert_hints_move_nothing(alpha, mu0, inst, hints, far, label=None, at=None):
        # label names the copies whose n* lands where they put it, at.
        nonlocal checkable, certified
        level = agent._level(alpha, inst)
        cold = cold_answer(level, mu0)
        n_star = cold[1]
        if n_star != at:
            label = None
        regions = curvature_regions(alpha, mu0, inst)
        top = regions[-1]
        # Where the check should certify n*: it lies strictly inside the top
        # concave piece, its utility is nonnegative and c/R > 2e-10, so the
        # utility is seldom flat near n*.
        takes = (n_star and top.shape == "concave" and inst.c > 2e-10 * inst.R
                 and max(inst.n_min, math.ceil(top.n_lo)) < n_star - 1 and n_star + 1 < inst.n_max)
        near = n_star or inst.n_min
        hints = hints + [(near + step, "near") for step in range(-3, 4)]
        if far:
            hints += [(inst.n_min, "piece end"), (inst.n_max, "n_max")]
            hints += [(near + step, "far") for step in (-1000, -50, -5, 5, 50, 1000)]
        for hint, kind in hints:
            hint = min(inst.n_max, max(inst.n_min, hint))
            for key in (kind, label):
                if key:
                    where[key] += 1
            where["c0 + c*n above R"] += inst.c0 + inst.c * hint > inst.R
            where["window reaches n_max"] += top.shape == "convex"
            where["c = 0"] += inst.c == 0.0
            where["c/R < 1e-12"] += 0.0 < inst.c < 1e-12 * inst.R
            where["c/R <= 2e-10" if inst.c <= 2e-10 * inst.R else "c/R > 2e-10"] += 1
            before = counted.log
            got = agent._respond(level, mu0, hint)
            assert repr(got) == repr(cold), (alpha, mu0, inst, hint)
            if takes and kind == "near" and abs(hint - n_star) <= 1:
                checkable += 1
                certified += counted.log == before
        return n_star

    for i in range(3000):
        R = 10.0 ** rng.uniform(-1.0, 3.0)
        n_min = rng.randrange(1, 40)
        c = 0.0 if i % 7 == 0 else R * 10.0 ** rng.uniform(-14.0, -1.0)
        inst = EconomicInstance(R=R, c0=R * 10.0 ** rng.uniform(-5.0, -0.5), c=c, mu_b=rng.uniform(0.01, 0.99),
                                n_min=n_min, n_max=(500, 100_000, n_min + rng.randrange(1, 5000))[i % 3])
        alpha = 10.0 ** rng.uniform(-6.0, math.log10(0.5))
        mu0 = rng.uniform(inst.mu_b, BELIEF_CEIL)
        regions = curvature_regions(alpha, mu0, inst)
        windowed = any(r.shape == "convex" for r in regions)
        hints = []
        for j, r in enumerate(regions):
            a, b = max(inst.n_min, math.ceil(r.n_lo)), min(inst.n_max, math.floor(r.n_hi))
            if a <= b:
                label = r.shape if r.shape == "convex" else (
                    "no window" if not windowed else "lower concave" if j == 0 else "top concave")
                hints += [(a, "piece end"), (b, "piece end"), (rng.randint(a, b), label), (rng.randint(a, b), label)]
        n_star = assert_hints_move_nothing(alpha, mu0, inst, hints, far=True)
        if inst.n_min < n_star < inst.n_max:
            for cut, label in (((inst.n_min, n_star + 1), "n* at n_max - 1"), ((inst.n_min, n_star), "n* at n_max"),
                               ((n_star, inst.n_max), "n* at piece start")):
                copy = EconomicInstance(R, inst.c0, c, inst.mu_b, *cut)
                assert_hints_move_nothing(alpha, mu0, copy, [], False, label, n_star)
            copy = EconomicInstance(R, max(0.0, R - 0.5 * c * n_star), c, inst.mu_b, inst.n_min, inst.n_max)
            assert_hints_move_nothing(alpha, mu0, copy, [], far=True)
    assert min(where.values()) > 400, where
    assert certified > 0.9 * checkable > 2000, (certified, checkable)
    # Here the top piece's best size, 470, earns 0.0072 and the check
    # certifies it, but 16, below the convex window, earns 0.018: after a
    # certified size the walk must go on unless nothing below its piece can
    # win.
    inst = EconomicInstance(R=1.0, c0=1.476746979323227e-05, c=0.0006801169213250879,
                            mu_b=0.133241297157076, n_min=9, n_max=7033)
    level, mu0 = agent._level(0.007841999458255748, inst), 0.1634667492176686
    for hint in range(465, 476):
        assert agent._respond(level, mu0, hint) == agent._respond(level, mu0) == (
            0.018248217682771187, 16, 0.029144855893765826)
    # Without the margin, hints within three of n* would end on n* + 1 to
    # n* + 3 here, where c/R is 8.7e-10 and n* is 1.6e8.
    inst = EconomicInstance(R=0.5747104154447117, c0=0.02263917368290015, c=5.002663492066002e-10,
                            mu_b=0.8813696766619366, n_min=31, n_max=10**12)
    level, mu0 = agent._level(4.441690523311791e-05, inst), 0.881522534252094
    cold = agent._respond(level, mu0)
    assert cold == (0.46075154553136644, 160_557_100, 0.9808627411672441)
    for hint in range(cold[1] - 3, cold[1] + 4):
        assert repr(agent._respond(level, mu0, hint)) == repr(cold), hint
    inst = EconomicInstance(R=77.55144833143405, c0=0.003397905466607099, c=3.0112937234540384e-10,
                            mu_b=0.9192287211871732, n_min=10, n_max=10**9)
    level, mu0 = agent._level(2.540338771752965e-05, inst), 0.919668482780297
    assert agent._respond(level, mu0, 5_512_679) == agent._respond(level, mu0) == (
        77.53939346466453, 27_345_155, 0.9999945515918766)
    # Flat near n* although c/R is 1.7e-9 and 2.1e-10: a solve with Newton
    # started at these hints ends on 266,352,294 and 847,021,978.
    for alpha, mu0, inst, n_star, hints in (
        (8.351628708547888e-05, 0.9614604955744647,
         EconomicInstance(150.1867739971878, 0.0015610475376755394, 2.488832013629723e-07,
                          0.9614009081985325, 8, 10**9), 266_352_297, (266_352_296,)),
        (0.0021008408996704285, 0.34955807539398076,
         EconomicInstance(7.1155738518410665, 0.0024093615083702977, 1.5196681375307726e-09,
                          0.3494815082334084, 13, 1414831115), 847_021_993, (847_021_990, 847_021_991, 847_021_992)),
    ):
        level = agent._level(alpha, inst)
        cold = agent._respond(level, mu0)
        assert cold[1] == n_star
        for hint in (*hints, *range(n_star - 3, n_star + 4)):
            assert repr(agent._respond(level, mu0, hint)) == repr(cold), hint
    rng, flat = random.Random(2929), 0
    for i in range(3000):
        R = 10.0 ** rng.uniform(-1.0, 3.0)
        c = 0.0 if i % 10 == 0 else R * 10.0 ** rng.uniform(-15.0, -4.0)
        mu_b = rng.uniform(0.01, 0.95)
        mu0 = min(BELIEF_CEIL, mu_b + 10.0 ** rng.uniform(-6.0, -0.5))
        n_min = rng.randrange(1, 40)
        inst = EconomicInstance(R, R * 10.0 ** rng.uniform(-5.0, -0.5), c, mu_b, n_min,
                                n_min + int(10.0 ** rng.uniform(1.0, 12.0)))
        level = agent._level(10.0 ** rng.uniform(-6.0, math.log10(0.5)), inst)
        cold = cold_answer(level, mu0)
        flat += cold[1] >= 10**8
        near = cold[1] or n_min
        for hint in (*range(near - 3, near + 4), near - 40, near + 40, near // 2, 2 * near):
            hint = min(inst.n_max, max(n_min, hint))
            assert repr(agent._respond(level, mu0, hint)) == repr(cold), (level, mu0, hint)
    assert flat > 150, flat


def test_each_exit_of_the_hint_check_answers_as_the_cold_call(monkeypatch):
    # A hint the kernel certifies, the size m, is the answer at once where
    # the first piece starts at n_min, or where it starts at n2 > n_min and
    # the one-half bound leaves no smaller size a chance: the kernel then
    # scores m, m + 1 and m - 1 and takes no log.  Otherwise the walk goes on
    # below the piece and scores the window's top, floor(n2), next, with no
    # log before it: here the top piece's best, 470, hands over to 16, below
    # the convex window.  Until the check reads the window it bounds n2 by
    # (ds/dmu)**2, so a hint between n2 and that bound, or at its ceiling,
    # is judged by the exact window before it is declined, and scored; both
    # hand over.  So does fn-curves-062's first row at its third node, whose
    # certified size, one under the hint, is the answer.  Each hinted answer
    # equals the cold one by repr, with the sizes scored, the erfc and the
    # log counts the kernel took when it computed the window first, and, on
    # a range under 400 sizes, the scan's.  Scored sizes are seen as the
    # integers agent's math module takes square roots of, and logs as None;
    # the hint is the first size scored.
    counted = count_kernel_math(monkeypatch)
    fn_curves = load_config(preset_path("fn-curves-062")).instance
    for exit_, alpha, mu0, inst, m, scored, spent in (
        ("n_min", 0.14189606498444077, 0.3055528776795813,
         EconomicInstance(R=0.307, c0=0.00016285162891299407, c=0.00021870641532930308,
                          mu_b=0.28836649681888804, n_min=14, n_max=79), 61, [61, 62, 60], (3, 0)),
        ("one-half bound", 0.0007145661995037167, 0.9907213344563665,
         EconomicInstance(R=32.916, c0=0.010340353542226326, c=0.00013239050923929933,
                          mu_b=0.717054719431603, n_min=19, n_max=393), 46, [46, 47, 45], (3, 0)),
        ("handoff", 0.007841999458255748, 0.1634667492176686,
         EconomicInstance(R=1.0, c0=1.476746979323227e-05, c=0.0006801169213250879,
                          mu_b=0.133241297157076, n_min=9, n_max=7033), 470, [470, 471, 469, 379], (9, 7)),
        ("between n2 and the bound", 0.022023604976142527, 0.8594179438493876,
         EconomicInstance(R=1.0, c0=2.2e-05, c=0.0035997088782005215, mu_b=0.788, n_min=1, n_max=301),
         130, [130, 131, 129, 78], (6, 6)),
        ("at the bound", 0.04239947629629871, 0.9158783369980272,
         EconomicInstance(R=1.0, c0=0.000134, c=0.006852260721715447, mu_b=0.838, n_min=8, n_max=308),
         67, [67, 68, 66, 36], (5, 0)),
        ("fn-curves-062 handoff", 0.0001, 0.6171230374088894, fn_curves, 353, [354, 355, 353, 352, 216], (6, 0)),
    ):
        level = agent._level(alpha, inst)
        cold, u = agent._respond(level, mu0), agent._score(level, mu0, m)[0]
        counted.clear()
        got = agent._respond(level, mu0, scored[0])
        events = counted.events
        assert repr(got) == repr(cold), exit_
        assert events[:len(scored)] == scored, exit_
        assert (counted.erfc, counted.log) == spent, exit_
        n2 = convex_window(alpha, mu0, inst)[1]
        half = inst.R / 2 - (inst.c0 + inst.c * inst.n_min) < u - 1e-12 * inst.R
        t = level[1] / (mu0 - inst.mu_b)
        bound = math.ceil(t * t)  # the kernel's bound on n2, until it reads the window
        if exit_ == "n_min":
            assert not inst.n_min < n2 < inst.n_max and not half and events == scored and got[1] == m
        elif exit_ == "one-half bound":
            assert inst.n_min < n2 < inst.n_max and half and events == scored and got[1] == m
        else:
            assert inst.n_min < n2 < inst.n_max and not half and scored[-1] == math.floor(n2), exit_
            if exit_ == "handoff":
                assert got[1] < n2
            elif exit_ == "between n2 and the bound":
                assert math.ceil(n2) < m < bound
            elif exit_ == "at the bound":
                assert m == bound
            else:
                assert got[1] == m == scored[0] - 1
        if inst.n_max - inst.n_min < 400:
            scan = best_response_bruteforce(alpha, mu0, inst)
            assert (scan.utility, scan.n_star, scan.pass_prob) == got, exit_


def test_the_hint_check_jumps_once_to_a_peak_six_sizes_cannot_reach(monkeypatch):
    # Near n*'s peak the loss's hints lag: on the cardiovascular row at
    # alpha_grid[200] (0.0096), the nodes after the two ends and the first
    # two interior nodes miss their sizes by 247 down to 4.  Each first walk
    # scores six sizes and the utility still rises, so the kernel jumps once
    # to the vertex of the parabola through the last three scores and walks
    # again.  Each node must then settle, with no log and more than six sizes
    # scored, and answer as the cold call by repr.  Scored sizes are seen as
    # the integers agent's math module takes square roots of, and logs as
    # None.
    cfg = load_config(preset_path("cardiovascular"))
    nodes = [call for call in record_row_calls(cfg, cfg.alpha_grid[200]) if call.node]
    counted = count_kernel_math(monkeypatch)
    misses = []
    for level, mu, hint, *_ in nodes[4:14]:
        cold = agent._respond(level, mu)
        counted.clear()
        assert repr(agent._respond(level, mu, hint)) == repr(cold), (mu, hint)
        assert counted.log == 0 and len(counted.sizes) > 6, (mu, hint, counted.events)
        misses.append(hint - cold[1])
    assert misses == [247, 143, 90, 59, 38, 26, 16, 12, 7, 4]


def test_the_stop_bound_never_settles_a_hint_that_the_half_bound_leaves(monkeypatch):
    # Where the hint's piece starts at n2 > n_min, the kernel returns a
    # certified size m on the one-half bound alone.  The stop bound at m - 1,
    # R*p(m - 1) - (c0 + c*n_min) short of u(m) by the margin, holds there
    # only where the one-half bound does: without it, m - 1 passes less than
    # half the time, and the pass chance's slope must fall threefold from
    # m - 1 to m + 1 (see _respond).  Seeded draws check it on every size
    # that beats both neighbours by the margin.
    rng = random.Random(31)
    settled = stop = 0
    for i in range(10_000):
        R = 10.0 ** rng.uniform(-1.0, 3.0)
        n_min = rng.choice([1, 1, 2, 3, rng.randrange(1, 40)])
        c = R * 10.0 ** rng.uniform(-14.0, -0.3)
        inst = EconomicInstance(R, R * 10.0 ** rng.uniform(-6.0, -0.1), c, rng.uniform(0.01, 0.99),
                                n_min, n_min + rng.choice([5, 30, 400, 100_000]))
        alpha = 10.0 ** rng.uniform(-8.0, math.log10(0.9))
        mu0 = rng.uniform(inst.mu_b, BELIEF_CEIL)
        level = agent._level(alpha, inst)
        m = agent._respond(level, mu0)[1]
        n2 = convex_window(alpha, mu0, inst)[1]
        if not (m and n_min < n2 and math.ceil(n2) < m - 1 and m + 1 < inst.n_max):
            continue
        (u_lo, p_lo), (u, _), (u_hi, _) = (agent._score(level, mu0, n) for n in (m - 1, m, m + 1))
        margin, cost_min = 1e-12 * R, inst.c0 + c * n_min
        if u >= 0.0 and u - margin > u_lo and u - margin > u_hi:
            settled += 1
            if R * p_lo - cost_min < u - margin:
                stop += 1
                assert R / 2 - cost_min < u - margin, (alpha, mu0, inst)
    assert settled > 1000 and stop > 10, (settled, stop)


def test_recorded_sweep_calls_pin_the_kernels_counts(monkeypatch):
    # Every kernel call of every 8th row of the cardiovascular and
    # fn-curves-062 sweeps and every 16th of vaccine's, recorded where loss
    # and thresholds make it.  The threshold's calls and the loss's two ends
    # pass no hint; the interior nodes pass n1*n1 // n0 from the sizes of the
    # two nodes before them, the first the lower end's size, which the kernel
    # checks before any Newton step.
    #
    # Each call is replayed with the hint it was given, counting erfc and log
    # through agent's math module.  Pinned per preset: calls, erfc, log,
    # calls that take no log, handoffs, and the sha256 of the answers'
    # reprs.  A hinted call that takes no log and scores a size at or below
    # the convex window's top had its hint certified and went on walking:
    # that handoff fires on cardiovascular and fn-curves-062.  The counts pin
    # cost, and move with the loss's hint rule and the kernel's check; the
    # digest pins answers, which neither moves.  The same corpus is replayed
    # with other hints by
    # test_loss.py::test_recorded_sweep_calls_answer_alike_with_any_hint.
    counted = count_kernel_math(monkeypatch)
    pins = {
        ("cardiovascular", 8): (20_290, 74_601, 2_792, 19_897, 444,
                                "4033a7de9bfa0e2fa3e8ea21345623b944a711c9734caa1503149addcaa3889e"),
        ("fn-curves-062", 8): (10_146, 38_912, 1_646, 9_803, 3_144,
                               "d55ea18eaa5d9121a3220da0dc1465454a10c77bf5ae9a2744e93b6bc6b643d4"),
        ("vaccine", 16): (10_104, 41_459, 1_402, 9_826, 0,
                          "6fbcca9777b7d800638eb6aee432843c0eaf2d09da12fd6761e48c6c9f261799"),
    }
    for (preset, stride), pinned in pins.items():
        erfc = log = no_log = handoffs = 0
        digest = hashlib.sha256()
        calls = record_sweep_calls(preset, stride)
        for level, mu, hint, answer in calls:
            counted.clear()
            replayed = repr(agent._respond(level, mu, hint))
            assert replayed == repr(answer), (level, mu, hint)
            digest.update(replayed.encode())
            erfc += counted.erfc
            log += counted.log
            no_log += not counted.log
            if hint and not counted.log:
                n2 = level_convex_window(level, mu)[1]
                handoffs += level[5] < n2 < level[6] and min(counted.sizes) <= n2
        assert (len(calls), erfc, log, no_log, handoffs, digest.hexdigest()) == pinned, preset


def test_a_hinted_call_computes_the_convex_window_only_where_it_reads_it(monkeypatch):
    # The kernel's hint check reads the convex window only to decline a
    # size that the bound (ds/dmu)**2 >= n2 does not clear, to ask whether
    # a certified size's piece starts at n_min, or to hand over; a failed
    # check's walk reads it too.  The square root of the window's
    # discriminant, ds*ds - 4*var0, shows where it is computed.  On the
    # cardiovascular row at alpha = 0.01, where every node has a window (at
    # alpha = 0.05 none has, as d*s_b < 2*s_0 there, so no root shows it),
    # 14 of the 399 hinted nodes compute it, where all 399 did when the
    # window was computed first.  A call without a hint runs the statements
    # it ran then: the row's nodes replayed without hints, and a seeded
    # stream of best responses drawn as perfbench's point-queries draws
    # them, take exactly the erfc and log counts and the square roots that
    # are not of a size that they took before.
    cfg = load_config(preset_path("cardiovascular"))
    nodes = [call for call in record_row_calls(cfg, 0.01) if call.node]
    counted = count_kernel_math(monkeypatch)
    hinted = [call for call in nodes if call.hint]
    windowed = 0
    for level, mu, hint, *_ in hinted:
        counted.clear()
        agent._respond(level, mu, hint)
        windowed += level[1] * level[1] - 4.0 * (mu * (1.0 - mu)) in counted.roots
    assert (len(nodes), len(hinted), windowed) == (401, 399, 14)
    counted.clear()
    for level, mu, *_ in nodes:
        agent._respond(level, mu)
    assert (counted.erfc, counted.log, len(counted.roots)) == (1_225, 2_071, 1_203)
    rng = random.Random(4242)
    counted.clear()
    for _ in range(3000):
        R = 10.0 ** rng.uniform(0.0, 4.0)
        inst = EconomicInstance(R, R * 10.0 ** rng.uniform(-4.0, -1.0), R * 10.0 ** rng.uniform(-7.0, -3.0),
                                rng.uniform(0.3, 0.9), 1, rng.choice((500, 100_000)))
        best_response(math.exp(rng.uniform(math.log(1e-4), math.log(0.9))), rng.uniform(0.01, 0.99), inst)
    assert (counted.erfc, counted.log, len(counted.roots)) == (5_731, 7_637, 7_985)


def test_money_values_at_the_float_limits_get_an_answer():
    # R * dmu or 2 * s0 * c below the normal floats once made the slope's
    # constant take log(0) or divide by zero.
    for inst in (
        EconomicInstance(R=5e-324, c0=0.0, c=1e-300, mu_b=0.5, n_max=500),
        EconomicInstance(R=1e-300, c0=0.0, c=1e300, mu_b=0.5, n_max=500),
        EconomicInstance(R=1.0, c0=0.05, c=5e-324, mu_b=0.5, n_max=500),
        EconomicInstance(R=5e-324, c0=0.0, c=5e-324, mu_b=0.5, n_max=500),
    ):
        for alpha in (0.05, 0.5):
            for mu0 in (0.6, 0.95, BELIEF_CEIL):
                assert best_response(alpha, mu0, inst) == best_response_bruteforce(alpha, mu0, inst)
    # With R = c = 5e-324 a size can earn exactly 0: a kernel that treated the
    # cost as zero (an infinite slope constant) would abstain there.
    inst = EconomicInstance(R=5e-324, c0=0.0, c=5e-324, mu_b=0.5, n_max=500)
    assert best_response(0.5, 0.95, inst) == BestResponse(True, 1, normal_pass(0.5, 0.95, 1, 0.5), 0.0)
    # A ratio above the largest float once made the constant infinite, and
    # the walk then took the top of a range of 10**305 sizes.
    small = EconomicInstance(R=1e10, c0=0.0, c=1e-300, mu_b=0.5, n_max=10**5)
    huge = EconomicInstance(R=1e10, c0=0.0, c=1e-300, mu_b=0.5, n_max=10**305)
    assert best_response(0.05, 0.6, huge) == best_response_bruteforce(0.05, 0.6, small)


def test_extreme_instances_answer_and_match_the_scan():
    # Money values from 1e-300 to 1e300 and the least subnormal, ranges of up
    # to 10**300 sizes, levels down to 5e-324.  Every query answers or raises
    # DomainError, and ranges of under 400 sizes match the exhaustive scan.
    rng = random.Random(4242)

    def money():
        return 5e-324 if rng.random() < 0.15 else 10.0 ** rng.uniform(-300.0, 300.0)

    scanned = 0
    for _ in range(400):
        n_min = rng.randrange(1, 50)
        span = rng.choice((rng.randrange(0, 400), int(10.0 ** rng.uniform(0.0, 300.0))))
        inst = EconomicInstance(money(), rng.choice((0.0, money())), rng.choice((0.0, money())),
                                rng.uniform(0.01, 0.99), n_min, n_min + span)
        alpha = rng.choice((5e-324, 10.0 ** rng.uniform(-323.0, -0.01)))
        mu0 = rng.uniform(BELIEF_FLOOR, BELIEF_CEIL)
        try:
            br = best_response(alpha, mu0, inst)
            participation_threshold(alpha, inst)
            critical_alpha(inst)
        except DomainError:
            continue
        if span < 400:
            scanned += 1
            assert br == best_response_bruteforce(alpha, mu0, inst)
    assert scanned > 150
