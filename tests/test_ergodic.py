import itertools
import math

import numpy as np
import pytest
from scipy import optimize

from secrates import ChannelTriple, GainDistribution, MonteCarlo, SystemParams, channels, ergodic
from secrates.errors import InvalidInput
from secrates.ergodic import (
    ErgodicConfig,
    RegionConfig,
    dominance_region,
    rate_arq,
    rate_nocsi,
    rate_upper_bound,
    rates,
)

from conftest import det_triple, exp_triple


def pcg64_oracle_rates(sp, dist, hz_star, n=10**6, seed=1234):
    """Independent Monte Carlo oracle using a different generator family
    (PCG64) and direct exponential sampling, no shared code paths."""
    rng = np.random.default_rng(seed)
    h_m, h_e, h_z = (
        rng.exponential(d.param, n) if d.kind == "exponential" else np.full(n, d.param)
        for d in (dist.h_m, dist.h_e, dist.h_z)
    )
    if dist.h_z.kind == "exponential":
        p_ok = 1 - math.exp(-hz_star / dist.h_z.param)
    else:
        p_ok = float(hz_star >= dist.h_z.param)
    diff = np.log2(1 + sp.p * h_m / (1 + sp.p_j * h_z)) - np.log2(1 + sp.p * h_e)
    diff_pin = np.log2(1 + sp.p * h_m / (1 + sp.p_j * hz_star)) - np.log2(1 + sp.p * h_e)
    return {
        "nocsi": (max(diff.mean(), 0.0), diff.std(ddof=1) / math.sqrt(n)),
        "upper": (np.maximum(diff, 0).mean() * p_ok,
                  np.maximum(diff, 0).std(ddof=1) / math.sqrt(n) * p_ok),
        "arq": (np.maximum(diff_pin, 0).mean() * p_ok**2,
                np.maximum(diff_pin, 0).std(ddof=1) / math.sqrt(n) * p_ok**2),
    }


def mc_oracle_rates(sp, means, hz_star, n=10**6, seed=1234):
    return pcg64_oracle_rates(sp, exp_triple(*means), hz_star, n, seed)


class TestEdgeCases:
    def test_zero_transmit_power(self, paper_ergodic_setup):
        _, dist = paper_ergodic_setup
        cfg = ErgodicConfig(SystemParams(0.0, 1.0), dist, hz_star=1.0)
        out = rates(cfg)
        assert out.r_nocsi == 0.0
        assert out.r_upper == 0.0
        assert out.r_arq == 0.0

    def test_symmetric_links_unjammed(self):
        # identical main and eavesdropper laws with no jamming: the mean
        # capacity advantage is exactly zero, so the across-blocks rate is 0
        sp = SystemParams(1.0, 0.0)
        dist = exp_triple(2.0, 2.0, 1.0)
        cfg = ErgodicConfig(sp, dist, hz_star=1.0)
        val, err = rate_nocsi(cfg, MonteCarlo(3, 400_000))
        assert val <= 3 * err

    def test_deterministic_spot_value(self):
        # log2(1 + 3/2) - log2(1 + 1) = 0.3219280948873623
        sp = SystemParams(1.0, 1.0)
        cfg = ErgodicConfig(sp, det_triple(3.0, 1.0, 1.0), hz_star=2.0)
        for fn in (rate_nocsi, rate_upper_bound):
            val, err = fn(cfg)
            assert err == 0.0
            assert val == pytest.approx(math.log2(2.5) - 1.0, abs=1e-6)

    def test_arq_vanishes_for_huge_threshold(self, paper_ergodic_setup):
        sp, dist = paper_ergodic_setup
        cfg = ErgodicConfig(sp, dist, hz_star=1e6)
        val, _ = rate_arq(cfg)
        assert val < 1e-3

    def test_weak_jammer_link(self):
        # H_z ~ Exp(1e-6) is within p_j E[H_z] / ln 2 of no jamming at all
        sp = SystemParams(1.0, 1.0)
        h_m, h_e = GainDistribution.exponential(10.0), GainDistribution.exponential(1.0)
        weak, none = GainDistribution.exponential(1e-6), GainDistribution.deterministic(0.0)
        for fn in (rate_nocsi, rate_upper_bound):
            val, _ = fn(ErgodicConfig(sp, ChannelTriple(h_m, h_e, weak), hz_star=1.0))
            ref, _ = fn(ErgodicConfig(sp, ChannelTriple(h_m, h_e, none), hz_star=1.0))
            assert val == pytest.approx(ref, abs=2e-6)
        axes = ([0.5, 2.0], [1.0, 10.0])
        got = dominance_region(*axes, RegionConfig(sp, weak, hz_star=1.0))
        ref = dominance_region(*axes, RegionConfig(sp, none, hz_star=1.0))
        np.testing.assert_allclose(got.r_nocsi, ref.r_nocsi, atol=2e-6)
        np.testing.assert_allclose(got.r_upper, ref.r_upper, atol=2e-6)

    def test_negative_threshold_rejected(self, paper_ergodic_setup):
        sp, dist = paper_ergodic_setup
        with pytest.raises(ValueError):
            ErgodicConfig(sp, dist, hz_star=-1.0)

    def test_meaningless_threshold_rejected(self, paper_ergodic_setup):
        # a nan threshold used to give r_upper = 0 everywhere, and hz_quantile
        # 1.0 a clamped quantile of 36.7
        sp, dist = paper_ergodic_setup
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidInput, match="hz_star"):
                ErgodicConfig(sp, dist, hz_star=bad)
            with pytest.raises(InvalidInput, match="hz_star"):
                RegionConfig(sp, dist.h_z, hz_star=bad)
        for bad in (math.nan, 0.0, 1.0, None):
            with pytest.raises(InvalidInput, match="hz_quantile"):
                RegionConfig(sp, dist.h_z, hz_quantile=bad)
        with pytest.raises(InvalidInput, match="quantile"):
            dist.h_z.ppf(math.nan)


class TestAgainstIndependentOracle:
    def test_all_three_rates(self, paper_ergodic_setup):
        sp, dist = paper_ergodic_setup
        hz_star = dist.h_z.ppf(0.75)
        cfg = ErgodicConfig(sp, dist, hz_star)
        oracle = mc_oracle_rates(sp, (10.0, 1.0, 1.0), hz_star)
        for fn, key in ((rate_nocsi, "nocsi"), (rate_upper_bound, "upper"),
                        (rate_arq, "arq")):
            val, err = fn(cfg)
            ref, ref_err = oracle[key]
            assert abs(val - ref) < 3 * math.hypot(err, ref_err) + 1e-6, key

    @pytest.mark.parametrize("laws", list(itertools.product(("exp", "det"), repeat=3)),
                             ids="-".join)
    def test_law_combinations(self, laws):
        # exponential means or point-mass values 10, 1, 1 for H_m, H_e, H_z
        sp = SystemParams(1.0, 1.0)
        make = {"exp": GainDistribution.exponential, "det": GainDistribution.deterministic}
        dist = ChannelTriple(*(make[k](v) for k, v in zip(laws, (10.0, 1.0, 1.0))))
        hz_star = float(dist.h_z.ppf(0.75))
        oracle = pcg64_oracle_rates(sp, dist, hz_star)
        cfg = ErgodicConfig(sp, dist, hz_star)
        for fn, key in ((rate_nocsi, "nocsi"), (rate_upper_bound, "upper"),
                        (rate_arq, "arq")):
            val, err = fn(cfg)
            ref, ref_err = oracle[key]
            assert abs(val - ref) < 3 * math.hypot(err, ref_err) + 1e-6, key

    def test_paper_values_frozen(self, paper_ergodic_setup):
        sp, dist = paper_ergodic_setup
        cfg = ErgodicConfig(sp, dist, dist.h_z.ppf(0.75))
        assert rate_nocsi(cfg)[0] == pytest.approx(1.4131719801, abs=1e-9)
        assert rate_upper_bound(cfg)[0] == pytest.approx(1.1341860136, abs=1e-9)
        assert rate_arq(cfg)[0] == pytest.approx(0.6960138324, abs=1e-9)


class TestOrderings:
    def test_arq_below_upper_bound(self, paper_ergodic_setup):
        sp, dist = paper_ergodic_setup
        for q in (0.5, 0.75, 0.9):
            cfg = ErgodicConfig(sp, dist, dist.h_z.ppf(q))
            ru, eu = rate_upper_bound(cfg)
            ra, ea = rate_arq(cfg)
            assert ra <= ru + 3 * math.hypot(eu, ea)

    def test_upper_dominates_scaled_nocsi(self, paper_ergodic_setup):
        # E[max(diff,0)] >= max(E[diff],0), so the block-by-block bound
        # exceeds the across-blocks rate scaled by the same probability
        sp, dist = paper_ergodic_setup
        hz_star = dist.h_z.ppf(0.75)
        cfg = ErgodicConfig(sp, dist, hz_star)
        rn, en = rate_nocsi(cfg)
        ru, eu = rate_upper_bound(cfg)
        scale = dist.h_z.cdf(hz_star)
        assert ru >= rn * scale - 3 * math.hypot(en, eu)

    def test_nocsi_monotone_in_main_mean(self):
        sp = SystemParams(1.0, 1.0)
        vals = []
        for m in (2.0, 5.0, 10.0, 20.0):
            cfg = ErgodicConfig(sp, exp_triple(m, 1.0, 1.0), hz_star=1.0)
            vals.append(rate_nocsi(cfg, MonteCarlo(77, 400_000))[0])
        assert vals == sorted(vals)

    def test_upper_monotone_in_threshold(self, paper_ergodic_setup):
        sp, dist = paper_ergodic_setup
        vals = []
        for hz_star in (0.1, 0.5, 1.0, 3.0):
            cfg = ErgodicConfig(sp, dist, hz_star)
            vals.append(rate_upper_bound(cfg, MonteCarlo(78, 400_000))[0])
        assert vals == sorted(vals)


def scalar_gap(cfg, e_hm, e_he):
    """rate_nocsi - rate_upper_bound at one grid point, from scalar configs."""
    ecfg = ErgodicConfig(cfg.sp, exp_triple(e_hm, e_he, cfg.h_z.param), cfg.resolve_hz_star())
    return rate_nocsi(ecfg)[0] - rate_upper_bound(ecfg)[0]


class TestDominanceRegion:
    # the 20x20 grid of acceptance criterion 7
    CFG = RegionConfig(SystemParams(1.0, 1.0), GainDistribution.exponential(1.0),
                       hz_quantile=0.75)
    HE = np.geomspace(0.1, 2.0, 20)
    HM = np.geomspace(0.5, 200.0, 20)

    @staticmethod
    def count_expect(monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return channels.expect(*args, **kwargs)

        monkeypatch.setattr(ergodic, "expect", counted)
        return calls

    def test_grid_and_boundary(self):
        cfg = RegionConfig(
            SystemParams(1.0, 1.0), GainDistribution.exponential(1.0),
            hz_quantile=0.75,
        )
        he = np.array([0.5, 5.0])
        hm = np.array([0.2, 2.0, 20.0])
        res = dominance_region(he, hm, cfg)
        assert res.r_nocsi.shape == (2, 3)
        assert np.all(res.r_nocsi >= 0) and np.all(res.r_upper >= 0)
        assert len(res.boundary) == 2
        for bp in res.boundary:
            assert bp.status in ("ok", "no_crossing")
            if bp.status == "ok":
                assert hm[0] <= bp.e_hm <= hm[-1]

    def test_worker_count_invariance(self):
        # the region has no worker or seed setting: two runs agree bit for bit
        he = np.array([1.0, 3.0])
        hm = np.array([1.0, 10.0])
        outs = []
        for _ in range(2):
            cfg = RegionConfig(
                SystemParams(1.0, 1.0), GainDistribution.exponential(1.0),
                hz_quantile=0.75,
            )
            outs.append(dominance_region(he, hm, cfg))
        assert np.array_equal(outs[0].r_nocsi, outs[1].r_nocsi)
        assert np.array_equal(outs[0].r_upper, outs[1].r_upper)
        assert outs[0].boundary == outs[1].boundary

    def test_bad_axes_rejected(self):
        cfg = RegionConfig(SystemParams(1.0, 1.0), GainDistribution.exponential(1.0))
        with pytest.raises(ValueError):
            dominance_region([1.0, 0.5], [1.0, 2.0], cfg)
        with pytest.raises(ValueError):
            dominance_region([1.0, 2.0], [-1.0, 2.0], cfg)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                dominance_region([1.0, bad], [1.0, 2.0], cfg)
            with pytest.raises(ValueError):
                dominance_region([1.0, 2.0], [bad, 2.0], cfg)

    def test_boundary_brackets_the_scalar_tie(self):
        # every reported tie lies within half the stopping width of a sign
        # change of the gap, evaluated independently of the region's arrays
        res = dominance_region(self.HE, self.HM, self.CFG)
        half = 0.5e-3 * (self.HM[-1] - self.HM[0])
        ok = [bp for bp in res.boundary if bp.status == "ok"]
        assert ok
        for bp in ok:
            lo, hi = (scalar_gap(self.CFG, bp.e_hm + d, bp.e_he) for d in (-half, half))
            assert lo * hi <= 0, bp

    def test_bisection_starts_from_the_grid_cell(self, monkeypatch):
        # 1 grid quadrature + 4 bisection steps: each row bisects only its
        # sign-change cell, and the widest such cell needs 4 halvings
        calls = self.count_expect(monkeypatch)
        dominance_region(self.HE, self.HM, self.CFG)
        assert len(calls) == 5

    def test_narrow_grid_cell_takes_no_step(self, monkeypatch):
        # a sign-change cell already narrower than the stopping width: the
        # row reports the cell midpoint with the grid quadrature's error bar
        e_he = 1.0
        tie = optimize.brentq(lambda m: scalar_gap(self.CFG, m, e_he), 0.5, 200.0, xtol=1e-9)
        hm = np.array([0.5, tie - 0.01, tie + 0.01, 200.0])
        calls = self.count_expect(monkeypatch)
        res = dominance_region([e_he], hm, self.CFG)
        assert len(calls) == 1
        (bp,) = res.boundary
        assert bp.status == "ok"
        assert bp.e_hm == 0.5 * (hm[1] + hm[2])
        assert bp.gap_err == math.hypot(res.err_nocsi[0, 0], res.err_upper[0, 0])
