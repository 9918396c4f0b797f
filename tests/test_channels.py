import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from secrates import ChannelTriple, GainDistribution, MonteCarlo, Quadrature, expect, sample
from secrates.errors import NonConvergence

from conftest import det_triple


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
        assert np.array_equal(batch.values, np.ones((4, 3)))

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
        assert np.array_equal(a.values, b.values)
        c = sample(dist, seed=124, n=5000)
        assert not np.array_equal(a.values, c.values)

    def test_components_independent(self):
        dist = ChannelTriple(
            GainDistribution.exponential(1.0),
            GainDistribution.exponential(1.0),
            GainDistribution.exponential(1.0),
        )
        batch = sample(dist, seed=3, n=200_000)
        corr = np.corrcoef(batch.values.T)
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
        val, err = expect(GainDistribution.exponential(2.0), lambda x: x, Quadrature(1e-9))
        assert val == pytest.approx(2.0, abs=1e-8)

    def test_log_capacity_vs_series_oracle(self):
        # E[log2(1+X)] for Exp(1) is e * E1(1) / ln 2
        oracle = math.e * exp_integral_series(1.0) / math.log(2)
        val, err = expect(GainDistribution.exponential(1.0),
                          lambda x: np.log2(1 + x), Quadrature(1e-9))
        assert val == pytest.approx(oracle, abs=1e-8)
        assert val == pytest.approx(0.860347, abs=1e-6)

    def test_constant_function(self):
        for d in (GainDistribution.exponential(3.0), GainDistribution.deterministic(2.0)):
            val, err = expect(d, lambda x: np.ones_like(np.asarray(x, float)), Quadrature(1e-10))
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_point_mass_exact(self):
        val, err = expect(GainDistribution.deterministic(3.0), lambda x: x**2, MonteCarlo(0, 10))
        assert (val, err) == (9.0, 0.0)

    @pytest.mark.parametrize("f", [
        lambda x: x,
        lambda x: np.log2(1 + x),
        lambda x: (x <= 1.3).astype(float),
    ])
    @pytest.mark.parametrize("mean", [0.5, 1.0, 10.0])
    def test_mc_quadrature_agree(self, f, mean):
        d = GainDistribution.exponential(mean)
        v_mc, e_mc = expect(d, f, MonteCarlo(5, 400_000))
        v_q, e_q = expect(d, f, Quadrature(1e-8))
        assert abs(v_mc - v_q) < 3 * math.hypot(e_mc, e_q) + 1e-7

    def test_indicator_vs_closed_form(self):
        # P[X <= 1.3] for X ~ Exp(0.5) is 1 - e^{-2.6}
        val, err = expect(GainDistribution.exponential(0.5),
                          lambda x: (x <= 1.3).astype(float), Quadrature(1e-8))
        assert val == pytest.approx(-math.expm1(-2.6), abs=1e-8)

    def test_array_valued_matches_scalar(self):
        d = GainDistribution.exponential(2.0)
        scales = np.array([0.1, 1.0, 30.0])
        vals, err = expect(d, lambda x: np.log2(1 + scales * x), Quadrature(1e-9))
        assert vals.shape == (3,)
        for a, v in zip(scales, vals):
            ref, _ = expect(d, lambda x: np.log2(1 + a * x), Quadrature(1e-9))
            assert v == pytest.approx(ref, abs=2e-9)

    @pytest.mark.parametrize("mean", [1e-6, 1e-3, 1e3, 1e6])
    def test_scale_of_mean(self, mean):
        # the rule must not depend on the scale of the mean: a density that
        # underflows at every node would make E[1] read 0 with no error
        d = GainDistribution.exponential(mean)
        one, _ = expect(d, lambda x: np.ones_like(x), Quadrature(1e-9))
        assert one == pytest.approx(1.0, abs=1e-9)
        first, err = expect(d, lambda x: x, Quadrature(1e-9))
        assert first == pytest.approx(mean, rel=1e-9)
        assert err >= 1e-9
        # E[log2(1 + X)] = e^x E1(x) / ln 2 at x = 1/mean, by the series for
        # a small x and by the asymptotic series for a large one
        x = 1 / mean
        g = (math.exp(x) * exp_integral_series(x) if x < 1
             else sum((-1) ** k * math.factorial(k) / x ** (k + 1) for k in range(5)))
        val, _ = expect(d, lambda x: np.log2(1 + x), Quadrature(1e-9))
        assert val == pytest.approx(g / math.log(2), abs=1e-9)

    def test_nonconvergence(self):
        d = GainDistribution.exponential(1.0)
        # a wildly oscillating integrand with a tolerance quad cannot meet
        with pytest.raises(NonConvergence):
            expect(d, lambda x: np.sin(1e7 * x), Quadrature(tol=1e-14, limit=3))


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
