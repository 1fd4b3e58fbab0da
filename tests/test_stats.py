"""Numerical foundations: normal tails, quantile, priors.

Reference values are frozen from independent implementations
(scipy.stats.norm, scipy.stats.truncnorm) or compared with them directly;
properties are exercised with hypothesis.  The quantile's output bits are
also pinned by a digest over seeded probabilities, and its pure-Python
fallback is held to the same bits.
"""

import dataclasses
import hashlib
import importlib.util
import math
import random
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special
from scipy import stats as sps

from trialgame import stats
from trialgame import (
    DomainError,
    TruncatedNormalPrior,
    std_normal_cdf,
    std_normal_quantile,
    std_normal_sf,
)

# Frozen with scipy.stats.norm: norm.cdf(1.6448536), norm.ppf(0.95).
CDF_AT_1_6448536 = 0.9499999972203426
QUANTILE_AT_0_95 = 1.6448536269514722


def test_cdf_frozen_values():
    assert std_normal_cdf(0.0) == 0.5
    assert abs(std_normal_cdf(1.6448536) - CDF_AT_1_6448536) < 1e-13
    assert abs(std_normal_cdf(-1.6448536) - (1.0 - CDF_AT_1_6448536)) < 1e-13


def test_sf_complements_cdf_without_cancellation():
    for z in (-8.0, -2.5, 0.0, 1.3, 4.0, 8.0):
        assert abs(std_normal_sf(z) - (1.0 - std_normal_cdf(z))) < 1e-15
        assert std_normal_sf(z) == std_normal_cdf(-z)
    # Deep tail keeps relative accuracy where 1 - cdf would be all roundoff.
    assert sps.norm.sf(37.0) == pytest.approx(std_normal_sf(37.0), rel=1e-12)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_normal_functions_reject_non_finite(bad):
    for fn in (std_normal_cdf, std_normal_sf):
        with pytest.raises(DomainError):
            fn(bad)


def test_normal_functions_reject_integers_too_large_for_a_float():
    for fn in (std_normal_cdf, std_normal_sf):
        for huge in (10**400, -(10**400)):
            with pytest.raises(DomainError):
                fn(huge)


def test_quantile_frozen_value():
    assert abs(std_normal_quantile(0.95) - QUANTILE_AT_0_95) < 1e-9


def _seeded_probabilities():
    """Both halves and both tails of (0, 1), down to 1e-300 and up to 1 - 1e-16.

    AS241 switches from its central rational (``|p - 1/2| <= 0.425``) to a
    rational in ``r = sqrt(-ln min(p, 1 - p))`` for ``r <= 5`` and to another
    beyond (``min(p, 1 - p) < exp(-25)``, about 1.4e-11); each piece is hit
    on both sides, and so are its branch points.
    """
    rng = random.Random(20261019)
    ps = []
    for i in range(20000):
        kind = i % 4
        if kind == 0:
            p = rng.random()
        elif kind == 1:
            p = 0.02425 * rng.random()
        elif kind == 2:
            p = 10.0 ** rng.uniform(-300.0, math.log10(0.02425))
        else:
            p = 1.0 - 10.0 ** rng.uniform(-16.0, math.log10(0.02425))
        if 0.0 < p < 1.0:
            ps.append(p)
    ps += [0.02425, 0.97575, 0.5, math.nextafter(0.5, 1.0), math.nextafter(0.02425, 0.0), 5e-324]
    ps += [0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)]
    assert sum(p < 0.02425 for p in ps) > 10000 and sum(p > 0.97575 for p in ps) > 5000
    assert sum(p > 0.5 for p in ps) > 7000
    for lower, upper in ((0.075, 0.5), (math.exp(-25.0), 0.075), (0.0, math.exp(-25.0))):
        assert sum(lower <= p < upper for p in ps) > 100
        assert sum(lower < 1.0 - p <= upper for p in ps) > 100
    return ps


# sha256 of repr(std_normal_quantile(p)) over the probabilities above.
# Re-frozen when the quantile became the standard library's AS241, replacing
# a rational approximation with a Newton step, which moves the last bits of
# most values.  Checked identical on CPython 3.10 to 3.13.
QUANTILE_DIGEST = "c8876be9ce278c12beba226413f8b6d568d5b25fb36f75d492e50f3e417f9380"


def test_quantile_output_bits_are_pinned():
    digest = hashlib.sha256()
    for p in _seeded_probabilities():
        digest.update(repr(std_normal_quantile(p)).encode())
    assert digest.hexdigest() == QUANTILE_DIGEST


def test_quantile_within_a_few_ulps_of_scipy():
    # scipy's ndtri is itself within about 2 ulps of a 50-digit reference;
    # AS241 reaches 6 against that reference.
    ps = _seeded_probabilities()
    for p, ref in zip(ps, special.ndtri(ps)):
        x = std_normal_quantile(p)
        assert abs(x - ref) <= 8 * math.ulp(max(abs(ref), 1.0)), p


def test_quantile_fallback_is_bit_identical(monkeypatch):
    # Without the C accelerator the quantile comes from the statistics
    # module's Python AS241.  Load a second copy of the module that way.
    assert isinstance(stats._normal_dist_inv_cdf, types.BuiltinFunctionType)
    monkeypatch.setitem(sys.modules, "_statistics", None)
    monkeypatch.delitem(sys.modules, "statistics")
    spec = importlib.util.spec_from_file_location("trialgame._stats_fallback", stats.__file__)
    fallback = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, fallback)
    spec.loader.exec_module(fallback)
    assert isinstance(fallback._normal_dist_inv_cdf, types.FunctionType)
    for p in _seeded_probabilities():
        assert repr(fallback.std_normal_quantile(p)) == repr(std_normal_quantile(p)), p


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, math.nan])
def test_quantile_rejects_closed_endpoints(p):
    with pytest.raises(DomainError):
        std_normal_quantile(p)


@given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
@settings(max_examples=300)
def test_quantile_roundtrip(p):
    assert abs(std_normal_cdf(std_normal_quantile(p)) - p) < 1e-9


@given(st.floats(min_value=1e-4, max_value=0.5))
@settings(max_examples=200)
def test_quantile_antisymmetric(p):
    # Limited to moderate tails: near p = 1 the float spacing of 1 - p
    # divided by the vanishing density caps the achievable symmetry.
    assert abs(std_normal_quantile(p) + std_normal_quantile(1.0 - p)) < 1e-10


def test_quantile_upper_tail_matches_scipy():
    # Above one half AS241 works from 1 - p, which is exact there, so it keeps
    # full relative accuracy out to p = 1 - 1e-12.
    for k in range(2, 13):
        p = 1.0 - 10.0**-k
        assert std_normal_quantile(p) == pytest.approx(sps.norm.ppf(p), rel=1e-13)


# Frozen with scipy.stats.truncnorm for mean 0.62, sd 0.04 on [0.4, 0.7].
PRIOR_CDF_AT_MEAN = 0.5116398651687935
PRIOR_PDF_AT_MEAN = 10.205739115341043
PRIOR_CDF_AT_HALF = 0.0013813039146160382


@pytest.fixture()
def prior():
    return TruncatedNormalPrior(mean=0.62, sd=0.04, lo=0.4, hi=0.7)


def test_prior_density_off_its_support(prior):
    # The density evaluates the normal expression itself: off the support it
    # is zero, whatever the number, and a NaN belief is still a domain error.
    for mu in (0.0, 0.4 - 1e-12, 0.7 + 1e-12, 1.0, math.inf, -math.inf, 10**400):
        assert prior.pdf(mu) == 0.0
    for method in (prior.pdf, prior.cdf):
        with pytest.raises(DomainError):
            method(math.nan)


def test_prior_frozen_values(prior):
    assert abs(prior.cdf(0.62) - PRIOR_CDF_AT_MEAN) < 1e-12
    assert abs(prior.pdf(0.62) - PRIOR_PDF_AT_MEAN) < 1e-10
    assert abs(prior.cdf(0.5) - PRIOR_CDF_AT_HALF) < 1e-14


def test_prior_support_and_clamping(prior):
    assert (prior.lo, prior.hi) == (0.4, 0.7)
    assert prior.cdf(0.39) == 0.0
    assert prior.cdf(0.4) == 0.0
    assert prior.cdf(0.7) == 1.0
    assert prior.cdf(0.75) == 1.0
    assert prior.pdf(0.39) == 0.0
    assert prior.pdf(0.71) == 0.0
    assert prior.pdf(0.55) > 0.0


def test_prior_mass_renormalises_to_one(prior):
    total, _ = integrate.quad(prior.pdf, 0.4, 0.7)
    assert abs(total - 1.0) < 1e-10


def test_prior_validation():
    with pytest.raises(DomainError):
        TruncatedNormalPrior(mean=0.62, sd=0.0, lo=0.4, hi=0.7)
    with pytest.raises(DomainError):
        TruncatedNormalPrior(mean=0.62, sd=0.04, lo=0.7, hi=0.4)
    with pytest.raises(DomainError):
        TruncatedNormalPrior(mean=0.62, sd=0.04, lo=0.0, hi=0.7)
    with pytest.raises(DomainError):
        TruncatedNormalPrior(mean=math.nan, sd=0.04, lo=0.4, hi=0.7)
    # Support so far into the tail that it carries no numerical mass.
    with pytest.raises(DomainError, match="support must carry probability mass"):
        TruncatedNormalPrior(mean=0.99, sd=1e-4, lo=0.01, hi=0.02)
    # A subnormal mass, 3e-323, left the density a scale of 0.0 (pdf divided
    # by zero) and quantised the CDF (1/3 at 0.7967); it counts as none.
    with pytest.raises(DomainError, match="support must carry probability mass"):
        TruncatedNormalPrior(mean=0.9042317154104523, sd=0.0027966647181192055,
                             lo=0.43148444649486345, hi=0.7967748006897861)
    # Every offending field is reported at once.
    with pytest.raises(DomainError) as excinfo:
        TruncatedNormalPrior(mean=math.inf, sd=0.0, lo=0.0, hi=1.5)
    assert [p.split()[0] for p in excinfo.value.problems] == ["mean", "sd", "lo", "hi"]


def test_prior_above_its_mean_keeps_its_digits():
    # Phi(hi) - Phi(lo) cancels near 1 where the support lies wholly above
    # the mean: the density of TN(0.3, 0.05) on [0.6, 0.9] integrated to
    # 1 - 5.6e-8, and TN(0.2, 0.05) on [0.7, 0.95], mass 7.6e-24, was
    # rejected as massless.  Each must match scipy and its mirror image.
    for mean, lo, hi in ((0.3, 0.6, 0.9), (0.2, 0.7, 0.95)):
        prior = TruncatedNormalPrior(mean, 0.05, lo, hi)
        mirror = TruncatedNormalPrior(1.0 - mean, 0.05, 1.0 - hi, 1.0 - lo)
        ref = sps.truncnorm((lo - mean) / 0.05, (hi - mean) / 0.05, loc=mean, scale=0.05)
        total = integrate.quad(prior.pdf, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200, points=[lo + 0.01])[0]
        assert abs(total - 1.0) < 1e-10, (mean, lo, hi, total)
        for i in range(21):
            mu = lo + (hi - lo) * i / 20
            assert prior.pdf(mu) == pytest.approx(float(ref.pdf(mu)), rel=1e-12)
            assert prior.cdf(mu) == pytest.approx(float(ref.cdf(mu)), abs=1e-14)
            assert prior.pdf(mu) == pytest.approx(mirror.pdf(1.0 - mu), rel=1e-12)
            assert prior.cdf(mu) == pytest.approx(1.0 - mirror.cdf(1.0 - mu), abs=1e-14)


def test_prior_normaliser_computed_once(prior, monkeypatch):
    # Bit-identical to renormalising on every call...
    low = std_normal_cdf((0.4 - 0.62) / 0.04)
    mass = std_normal_cdf((0.7 - 0.62) / 0.04) - low
    for mu in (0.41, 0.5, 0.62, 0.69):
        z = (mu - 0.62) / 0.04
        density = 1.0 / math.sqrt(2.0 * math.pi) * math.exp(-0.5 * z * z)
        assert prior.pdf(mu) == density / (0.04 * mass)
        assert prior.cdf(mu) == (std_normal_cdf(z) - low) / mass
    # ...but the normaliser is not recomputed: pdf takes no tail, and cdf
    # takes the tails at lo and mu, none at hi.
    calls = []
    for name, tail in (("std_normal_cdf", std_normal_cdf), ("std_normal_sf", std_normal_sf)):
        monkeypatch.setattr(stats, name, lambda z, name=name, tail=tail: calls.append((name, z)) or tail(z))
    prior.pdf(0.6)
    assert calls == []
    prior.cdf(0.6)
    z_lo, z_mu = (0.4 - 0.62) / 0.04, (0.6 - 0.62) / 0.04
    assert sorted(calls) == sorted([("std_normal_cdf", z_lo), ("std_normal_cdf", z_mu)])
    # The cache is invisible to the record's identity.
    twin = TruncatedNormalPrior(mean=0.62, sd=0.04, lo=0.4, hi=0.7)
    assert prior == twin and hash(prior) == hash(twin)
    assert prior != TruncatedNormalPrior(mean=0.62, sd=0.05, lo=0.4, hi=0.7)
    assert repr(prior) == "TruncatedNormalPrior(mean=0.62, sd=0.04, lo=0.4, hi=0.7)"
    assert [f.name for f in dataclasses.fields(prior)] == ["mean", "sd", "lo", "hi"]


@given(
    st.floats(min_value=0.35, max_value=0.75),
    st.floats(min_value=0.0, max_value=0.2),
)
@settings(max_examples=200)
def test_prior_cdf_monotone(lo_point, gap):
    prior = TruncatedNormalPrior(mean=0.62, sd=0.04, lo=0.4, hi=0.7)
    assert prior.cdf(lo_point + gap) + 1e-15 >= prior.cdf(lo_point)
    assert prior.pdf(lo_point) >= 0.0


def test_prior_matches_scipy_on_a_grid(prior):
    ref = sps.truncnorm((0.4 - 0.62) / 0.04, (0.7 - 0.62) / 0.04, loc=0.62, scale=0.04)
    for mu in (0.41, 0.45, 0.5, 0.55, 0.6, 0.65, 0.69):
        assert prior.cdf(mu) == pytest.approx(float(ref.cdf(mu)), abs=1e-12)
        assert prior.pdf(mu) == pytest.approx(float(ref.pdf(mu)), rel=1e-12)
