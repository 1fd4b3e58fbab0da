"""Applicant model: pass probability, utility, curvature, best response.

The first-order best-response solver is held to two oracles: the
exhaustive scan, and the forward-difference binary search it replaced
(kept below).  Curvature region boundaries are cross-checked against finite
second differences of the utility itself.  Point values are frozen from
independent closed-form evaluation (scipy.stats.norm) or from the scan.
"""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

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
    best_response,
    best_response_bruteforce,
    critical_alpha,
    participation_threshold,
    pass_probability,
    std_normal_quantile,
    utility,
)
from reference import curvature_regions, utility_slope

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
    assert abs(pass_probability(0.05, 0.6, 100, 0.5) - PASS_0_05_06_100) < 1e-12


def test_pass_probability_without_a_trial_is_zero():
    assert pass_probability(0.05, 0.6, 0, 0.5) == 0.0


def test_pass_probability_at_baseline_equals_alpha():
    # An applicant whose belief sits exactly on the baseline faces a pass
    # chance of alpha at every trial size.
    for alpha in (0.01, 0.05, 0.2):
        for n in (1, 10, 100, 10_000):
            assert abs(pass_probability(alpha, 0.5, n, 0.5) - alpha) < 1e-9


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
        assert pass_probability(alpha, mu_b, n, mu_b) == pytest.approx(alpha, rel=1e-13, abs=0.0)


def test_pass_probability_domain_checks():
    with pytest.raises(DomainError):
        pass_probability(1.0, 0.6, 10, 0.5)
    with pytest.raises(DomainError):
        pass_probability(0.05, 0.0, 10, 0.5)
    with pytest.raises(DomainError):
        pass_probability(0.05, 0.6, -1, 0.5)


def test_pass_probability_reports_a_bad_baseline_as_the_instance_does():
    # The level is built from an instance, so the baseline rule and its
    # wording are the instance's.
    for mu_b in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(DomainError, match="mu_b must lie strictly between 0 and 1") as info:
            pass_probability(0.05, 0.6, 10, mu_b)
        assert info.value.problems == [f"mu_b must lie strictly between 0 and 1, got {mu_b!r}"]


def test_pass_probability_rejects_a_sample_count_no_float_holds():
    # An infinite or NaN count, or an int too large for a float, names the
    # sample count instead of failing inside the normal tail.
    for n in (10**400, math.inf, math.nan):
        with pytest.raises(DomainError, match="sample count"):
            pass_probability(0.05, 0.6, n, 0.5)


@given(
    st.floats(min_value=1e-4, max_value=0.5),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    st.integers(min_value=0, max_value=5000),
    st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=300)
def test_pass_probability_within_unit_interval(alpha, mu0, n, mu_b):
    assert 0.0 <= pass_probability(alpha, mu0, n, mu_b) <= 1.0


@given(
    st.floats(min_value=1e-4, max_value=0.4),
    st.floats(min_value=1e-4, max_value=0.4),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    st.integers(min_value=1, max_value=2000),
    st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=300)
def test_pass_probability_monotone_in_alpha(alpha, bump, mu0, n, mu_b):
    wider = pass_probability(alpha + bump, mu0, n, mu_b)
    narrower = pass_probability(alpha, mu0, n, mu_b)
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
    higher = pass_probability(alpha, mu_hi, n, mu_b)
    lower = pass_probability(alpha, mu_lo, n, mu_b)
    assert higher + 1e-12 >= lower


@given(
    st.floats(min_value=1e-4, max_value=0.5),
    st.floats(min_value=0.55, max_value=0.9),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=1000),
)
@settings(max_examples=300)
def test_pass_probability_monotone_in_size_on_effective_side(alpha, mu0, n, extra):
    more = pass_probability(alpha, mu0, n + extra, 0.5)
    fewer = pass_probability(alpha, mu0, n, 0.5)
    assert more + 1e-12 >= fewer


@given(
    st.floats(min_value=1e-4, max_value=0.5),
    st.floats(min_value=0.1, max_value=0.45),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=1000),
)
@settings(max_examples=300)
def test_pass_probability_monotone_in_size_on_weak_side(alpha, mu0, n, extra):
    more = pass_probability(alpha, mu0, n + extra, 0.5)
    fewer = pass_probability(alpha, mu0, n, 0.5)
    assert more <= fewer + 1e-12


def test_utility_frozen_value_and_abstention():
    assert abs(utility(0.05, 0.6, 100, INST) - 0.3914994872716355) < 1e-12
    assert utility(0.05, 0.6, 0, INST) == 0.0


def test_utility_checks_level_and_belief_before_abstaining():
    # n = 0 earns 0 only for a valid level and belief, as pass_probability
    # and best_response require of the same inputs.
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
    p1 = pass_probability(0.3, 0.5, 1, 0.5)
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
    for alpha in (0.0, 1.0, -0.1, 1.5, math.nan):
        with pytest.raises(DomainError, match="significance level"):
            agent._level(alpha, INST)
        with pytest.raises(DomainError, match="significance level"):
            best_response(alpha, 1.0, INST)


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
    # just above it, with mu_b in (0.01, 0.99).
    rng = random.Random(20261018)
    digest = hashlib.sha256()
    for i in range(4000):
        R = 10.0 ** rng.uniform(-1.0, 3.0)
        n_min = rng.randrange(1, 40)
        n_max = (500, 100_000, n_min, n_min + rng.randrange(1, 5000))[i % 4]
        c = 0.0 if i % 7 == 0 else R * 10.0 ** rng.uniform(-14.0, -1.0)
        inst = EconomicInstance(R=R, c0=R * 10.0 ** rng.uniform(-5.0, 0.0), c=c,
                                mu_b=rng.uniform(0.01, 0.99), n_min=n_min, n_max=n_max)
        level = agent._level(10.0 ** rng.uniform(-4.0, math.log10(0.5)), inst)
        near = inst.mu_b + 10.0 ** rng.uniform(-6.0, -0.5)
        for mu0 in (BELIEF_FLOOR, BELIEF_CEIL, inst.mu_b, min(near, BELIEF_CEIL),
                    rng.uniform(inst.mu_b, BELIEF_CEIL), rng.uniform(BELIEF_FLOOR, BELIEF_CEIL)):
            digest.update(repr(agent._respond(level, mu0)).encode())
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
        assert br.pass_prob == pass_probability(alpha, mu0, br.n_star, INST.mu_b)
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
    assert best_response(0.5, 0.95, inst) == BestResponse(True, 1, pass_probability(0.5, 0.95, 1, 0.5), 0.0)
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
