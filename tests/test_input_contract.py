"""The library's input contract: every public entry point returns a result or
raises a SecratesError, whatever numbers it is given.

Arguments are drawn from nan, inf, negative, zero, ordinary and huge values.
Huge is 1e100, so that a product of three inputs stays finite.  A bare
ValueError fails a test, and so does a RuntimeWarning, through the suite's
``error::RuntimeWarning`` filter.
"""

import math

from hypothesis import given, settings, strategies as st

from secrates import (ChannelTriple, GainDistribution, RatePolicy, SearchConfig, SystemParams,
                      c_min_closed_form, optimize_policy_packet, solve)
from secrates.adversary import CsiRegime
from secrates.ergodic import (ErgodicConfig, RegionConfig, dominance_region, rate_arq,
                              rate_nocsi, rate_upper_bound)
from secrates.errors import AlphaOutOfRange, InvalidInput, SecratesError

HUGE = 1e100
POSITIVE = [0.5, 1.0, 3.0, HUGE]
ANY = [math.nan, math.inf, -math.inf, -1.0, 0.0, *POSITIVE]
COUNTS = [-1, 0, 1, 8, 2.5, math.nan, math.inf]

value = st.sampled_from(ANY)
powers = st.builds(SystemParams, st.sampled_from([0.0, *POSITIVE]), st.sampled_from([0.0, *POSITIVE]))
gains = st.one_of(st.builds(GainDistribution.exponential, st.sampled_from(POSITIVE)),
                  st.builds(GainDistribution.deterministic, st.sampled_from([0.0, *POSITIVE])))
triples = st.builds(ChannelTriple, gains, gains, gains)
CONTRACT = settings(max_examples=100, deadline=None, derandomize=True)


def test_one_typed_error():
    # existing ``pytest.raises(ValueError)`` checks keep holding
    assert issubclass(InvalidInput, SecratesError) and issubclass(InvalidInput, ValueError)
    assert issubclass(AlphaOutOfRange, InvalidInput)


def attempt(make, *args, **kwargs):
    """``make(*args, **kwargs)``, or None when it raises a SecratesError."""
    try:
        return make(*args, **kwargs)
    except SecratesError:
        return None


@CONTRACT
@given(value, st.sampled_from(COUNTS))
def test_constructors(x, k):
    for make, args in [
        (SystemParams, (x, 1.0)), (SystemParams, (1.0, x)),
        (GainDistribution.exponential, (x,)), (GainDistribution.deterministic, (x,)),
        (GainDistribution.exponential(1.0).ppf, (x,)),
        (RatePolicy.constant, (x,)),
        (RatePolicy.tabulated, ([0.0, 1.0], [1.0, x])), (RatePolicy.tabulated, ([0.0, x], [1.0, 1.0])),
    ]:
        attempt(make, *args)
    for field in ("rate_tol", "r_cap", "mc_n", "seed", "n_knots"):
        attempt(SearchConfig, **{field: x})
        attempt(SearchConfig, **{field: k})
    h_z = GainDistribution.exponential(1.0)
    attempt(RegionConfig, SystemParams(1.0, 1.0), h_z, hz_quantile=x)
    attempt(RegionConfig, SystemParams(1.0, 1.0), h_z, hz_star=x)


@CONTRACT
@given(powers, triples, value, value, st.sampled_from(COUNTS), st.sampled_from(CsiRegime))
def test_delay_limited(sp, dist, r_s, rate, n_knots, regime):
    for policy in (attempt(RatePolicy.constant, rate),
                   attempt(RatePolicy.tabulated, [0.0, 1.0], [rate, 1.0])):
        if policy is not None:
            attempt(c_min_closed_form, regime, policy, r_s, sp, dist)
    attempt(optimize_policy_packet, r_s, sp, dist, 8)
    attempt(optimize_policy_packet, 0.5, sp, dist, n_knots)


@CONTRACT
@given(powers, st.builds(ChannelTriple, *[st.builds(GainDistribution.deterministic,
                                                    st.sampled_from([0.0, *POSITIVE]))] * 3),
       value, st.sampled_from(CsiRegime))
def test_solve(sp, dist, alpha, regime):
    # point-mass channels and a coarse tolerance keep each solve to a few evaluations
    attempt(solve, regime, sp, dist, alpha, SearchConfig(rate_tol=0.25, n_knots=8))


@CONTRACT
@given(powers, triples, value, value, st.lists(value, min_size=1, max_size=2),
       st.lists(value, min_size=1, max_size=2))
def test_ergodic(sp, dist, hz_star, hz_quantile, he, hm):
    cfg = attempt(ErgodicConfig, sp, dist, hz_star)
    if cfg is not None:
        for rate in (rate_nocsi, rate_upper_bound, rate_arq):
            attempt(rate, cfg)
    region = attempt(RegionConfig, sp, dist.h_z, hz_quantile=hz_quantile)
    if region is not None:
        attempt(dominance_region, sorted(he), sorted(hm), region)
