import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from secrates import ChannelTriple, GainDistribution, expect, sample
from secrates.errors import NonConvergence

from conftest import det_triple, exp_triple


def exp_integral_series(x: float, terms: int = 60) -> float:
    """E1(x) by its alternating power series; independent of scipy."""
    gamma = 0.5772156649015329
    total = -gamma - math.log(x)
    term_sign = 1.0
    fact = 1.0
    power = 1.0
    for k in range(1, terms + 1):
        fact *= k
        power *= x
        total += term_sign * power / (k * fact)
        term_sign = -term_sign
    return total


class TestSampling:
    def test_point_mass_triple(self):
        batch = sample(det_triple(1, 1, 1), seed=42, n=4)
        assert np.array_equal(np.column_stack(batch), np.ones((4, 3)))

    def test_sample_mean_clt(self):
        dist = ChannelTriple(
            GainDistribution.exponential(10.0),
            GainDistribution.exponential(1.0),
            GainDistribution.deterministic(1.0),
        )
        batch = sample(dist, seed=7, n=10**6)
        # sd of the mean is 10/1000; allow 3 sigma
        assert abs(batch.h_m.mean() - 10.0) < 3 * (10.0 / 10**3)
        assert abs(batch.h_e.mean() - 1.0) < 3 * (1.0 / 10**3)

    def test_determinism(self):
        dist = ChannelTriple(
            GainDistribution.exponential(2.0),
            GainDistribution.exponential(1.0),
            GainDistribution.exponential(0.5),
        )
        a = sample(dist, seed=123, n=5000)
        b = sample(dist, seed=123, n=5000)
        assert np.array_equal(np.column_stack(a), np.column_stack(b))
        c = sample(dist, seed=124, n=5000)
        assert not np.array_equal(np.column_stack(a), np.column_stack(c))

    def test_frozen_draws(self):
        # the stream itself, not just its reproducibility within one build
        batch = sample(exp_triple(10.0, 1.0, 1.0), seed=20240, n=5)
        assert list(zip(batch.h_m, batch.h_e, batch.h_z)) == [
            (37.997622040395704, 0.028401584386076952, 0.6663323972240761),
            (0.004169859874591064, 2.197464456281186, 1.551116426218004),
            (1.188918917057376, 0.9824888195189712, 0.0029821418426554396),
            (6.169044749001196, 0.035505685977158044, 0.3933452498542396),
            (2.7582396632869655, 0.5352704518418137, 0.18364898610663005),
        ]

    def test_components_independent(self):
        dist = ChannelTriple(
            GainDistribution.exponential(1.0),
            GainDistribution.exponential(1.0),
            GainDistribution.exponential(1.0),
        )
        batch = sample(dist, seed=3, n=200_000)
        corr = np.corrcoef(np.column_stack(batch).T)
        off_diag = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off_diag) < 0.01)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            sample(det_triple(1, 1, 1), seed=0, n=0)
        for seed, n in ((0, 2.5), (0, math.inf), (-1, 4), (1.5, 4)):
            with pytest.raises(ValueError):
                sample(det_triple(1, 1, 1), seed=seed, n=n)


class TestCdf:
    def test_exponential_at_zero(self):
        assert GainDistribution.exponential(1.0).cdf(0.0) == 0.0

    def test_exponential_median(self):
        assert GainDistribution.exponential(10.0).cdf(10 * math.log(2)) == pytest.approx(0.5)

    def test_point_mass_below_value(self):
        d = GainDistribution.deterministic(1.0)
        assert d.cdf(0.999) == 0.0
        assert d.cdf(1.0) == 1.0

    @given(st.floats(min_value=0.01, max_value=100), st.floats(min_value=-5, max_value=200),
           st.floats(min_value=0, max_value=50))
    def test_cdf_monotone_bounded(self, mean, x, dx):
        d = GainDistribution.exponential(mean)
        assert 0.0 <= d.cdf(x) <= d.cdf(x + abs(dx)) <= 1.0

    def test_ks_distance(self):
        for d in (GainDistribution.exponential(10.0),
                  GainDistribution.exponential(1.0),
                  GainDistribution.deterministic(1.0)):
            dist = ChannelTriple(d, d, d)
            x = sample(dist, seed=11, n=10**6).h_m
            n = x.size
            uniq, counts = np.unique(x, return_counts=True)
            ecdf = np.cumsum(counts) / n
            cdf_right = np.atleast_1d(d.cdf(uniq))
            atom = 1.0 if d.is_degenerate else 0.0
            cdf_left = cdf_right - np.where(uniq == d.param, atom, 0.0)
            ks = max(np.max(np.abs(ecdf - cdf_right)),
                     np.max(np.abs(np.concatenate([[0.0], ecdf[:-1]]) - cdf_left)))
            assert ks <= 0.002


class TestExpect:
    def test_mean_of_exponential(self):
        val, err = expect(GainDistribution.exponential(2.0), lambda x: x)
        assert val == pytest.approx(2.0, abs=1e-8)

    def test_log_capacity_vs_series_oracle(self):
        # E[log2(1+X)] for Exp(1) is e * E1(1) / ln 2
        oracle = math.e * exp_integral_series(1.0) / math.log(2)
        val, err = expect(GainDistribution.exponential(1.0), lambda x: np.log2(1 + x))
        assert val == pytest.approx(oracle, abs=1e-8)
        assert val == pytest.approx(0.860347, abs=1e-6)

    def test_constant_function(self):
        for d in (GainDistribution.exponential(3.0), GainDistribution.deterministic(2.0)):
            val, err = expect(d, lambda x: np.ones_like(np.asarray(x, float)))
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_point_mass_exact(self):
        val, err = expect(GainDistribution.deterministic(3.0), lambda x: x**2)
        assert (val, err) == (9.0, 0.0)

    @pytest.mark.parametrize("f", [
        lambda x: x,
        lambda x: np.log2(1 + x),
        lambda x: (x <= 1.3).astype(float),
    ])
    @pytest.mark.parametrize("mean", [0.5, 1.0, 10.0])
    def test_mc_quadrature_agree(self, f, mean):
        # the Monte Carlo reference draws from PCG64, not from the package's sampler
        d = GainDistribution.exponential(mean)
        vals = f(np.random.default_rng(5).exponential(mean, 400_000))
        v_mc, e_mc = vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)
        v_q, e_q = expect(d, f)
        assert abs(v_mc - v_q) < 3 * math.hypot(e_mc, e_q) + 1e-7

    def test_indicator_vs_closed_form(self):
        # P[X <= 1.3] for X ~ Exp(0.5) is 1 - e^{-2.6}
        val, err = expect(GainDistribution.exponential(0.5), lambda x: (x <= 1.3).astype(float))
        assert val == pytest.approx(-math.expm1(-2.6), abs=1e-8)

    def test_array_valued_matches_scalar(self):
        d = GainDistribution.exponential(2.0)
        scales = np.array([0.1, 1.0, 30.0])
        vals, err = expect(d, lambda x: np.log2(1 + scales * x))
        assert vals.shape == (3,)
        for a, v in zip(scales, vals):
            ref, _ = expect(d, lambda x: np.log2(1 + a * x))
            assert v == pytest.approx(ref, abs=2e-9)

    @pytest.mark.parametrize("mean", [1e-6, 1e-3, 1e3, 1e6])
    def test_scale_of_mean(self, mean):
        # the rule must not depend on the scale of the mean: a density that
        # underflows at every node would make E[1] read 0 with no error
        d = GainDistribution.exponential(mean)
        one, _ = expect(d, lambda x: np.ones_like(x))
        assert one == pytest.approx(1.0, abs=1e-9)
        first, err = expect(d, lambda x: x)
        assert first == pytest.approx(mean, rel=1e-9)
        assert err >= 1e-9
        # E[log2(1 + X)] = e^x E1(x) / ln 2 at x = 1/mean, by the series for
        # a small x and by the asymptotic series for a large one
        x = 1 / mean
        g = (math.exp(x) * exp_integral_series(x) if x < 1
             else sum((-1) ** k * math.factorial(k) / x ** (k + 1) for k in range(5)))
        val, _ = expect(d, lambda x: np.log2(1 + x))
        assert val == pytest.approx(g / math.log(2), abs=1e-9)

    def test_nonconvergence(self):
        d = GainDistribution.exponential(1.0)
        # a wildly oscillating integrand quad cannot resolve within its interval limit
        with pytest.raises(NonConvergence):
            expect(d, lambda x: np.sin(1e7 * x))


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            GainDistribution.exponential(0.0)
        with pytest.raises(ValueError):
            GainDistribution.deterministic(-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                GainDistribution.exponential(bad)
            with pytest.raises(ValueError):
                GainDistribution.deterministic(bad)
        with pytest.raises(ValueError):
            GainDistribution("weird", 1.0)
