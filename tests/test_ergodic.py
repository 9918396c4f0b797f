import functools
import inspect
import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import optimize

from secrates import ChannelTriple, GainDistribution, SystemParams, channels, ergodic
from secrates.errors import InvalidInput
from secrates.ergodic import (
    ErgodicConfig,
    RegionConfig,
    dominance_region,
    rate_arq,
    rate_nocsi,
    rate_upper_bound,
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


def test_one_exact_path():
    # the rates have no sampled branch: each takes its config only, and the
    # module reaches no sampler
    for name in ("sample", "MonteCarlo", "rate_eve"):
        assert not hasattr(ergodic, name)
    for fn in (rate_nocsi, rate_upper_bound, rate_arq):
        assert list(inspect.signature(fn).parameters) == ["cfg"]


class TestEdgeCases:
    def test_zero_transmit_power(self, paper_ergodic_setup):
        _, dist = paper_ergodic_setup
        cfg = ErgodicConfig(SystemParams(0.0, 1.0), dist, hz_star=1.0)
        assert rate_nocsi(cfg)[0] == 0.0
        assert rate_upper_bound(cfg)[0] == 0.0
        assert rate_arq(cfg)[0] == 0.0

    def test_symmetric_links_unjammed(self):
        # identical main and eavesdropper laws with no jamming: the mean
        # capacity advantage is exactly zero, so the across-blocks rate is 0
        sp = SystemParams(1.0, 0.0)
        dist = exp_triple(2.0, 2.0, 1.0)
        cfg = ErgodicConfig(sp, dist, hz_star=1.0)
        val, _ = rate_nocsi(cfg)
        assert val == 0.0

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_gains_no_overflow(self):
        # the product jam * E[H_e] = 1e300 * 1e150 used to overflow
        sp = SystemParams(1.0, 1e150)
        dist = ChannelTriple(GainDistribution.deterministic(1.0), GainDistribution.exponential(1e150),
                             GainDistribution.exponential(1.0))
        val, err = rate_arq(ErgodicConfig(sp, dist, hz_star=1e150))
        assert val == pytest.approx(0.0, abs=1e-9) and err == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("h_e", [GainDistribution.exponential(1.0),
                                     GainDistribution.deterministic(1.0)])
    @pytest.mark.parametrize("h_m", [GainDistribution.exponential(10.0),
                                     GainDistribution.deterministic(10.0)])
    def test_jamming_product_past_double_range(self, h_m, h_e):
        # p_j z = 1e400 overflowed with a RuntimeWarning: at 1 + p_j z for a
        # point-mass H_m, at t / c_z = inf / inf for an exponential H_m and a
        # point-mass H_e.  It must act as the finite 1e300 does
        def rates(huge):
            cfg = ErgodicConfig(SystemParams(1.0, huge),
                                ChannelTriple(h_m, h_e, GainDistribution.deterministic(huge)), 1.0)
            return rate_nocsi(cfg), rate_upper_bound(cfg)

        for (v, err), (ref, ref_err) in zip(rates(1e200), rates(1e150)):
            assert abs(v - ref) <= err + ref_err

    def test_negative_threshold_rejected(self, paper_ergodic_setup):
        sp, dist = paper_ergodic_setup
        with pytest.raises(ValueError):
            ErgodicConfig(sp, dist, hz_star=-1.0)

    def test_meaningless_threshold_rejected(self, paper_ergodic_setup):
        # a nan threshold used to give r_upper = 0 everywhere; the CLI's
        # hz_quantile cases are in test_cli.py::test_bad_value_names_key
        sp, dist = paper_ergodic_setup
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidInput, match="hz_star"):
                ErgodicConfig(sp, dist, hz_star=bad)
            with pytest.raises(InvalidInput, match="hz_star"):
                RegionConfig(sp, dist.h_z, hz_star=bad)
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
            vals.append(rate_nocsi(cfg)[0])
        assert vals == sorted(vals)

    def test_upper_monotone_in_threshold(self, paper_ergodic_setup):
        sp, dist = paper_ergodic_setup
        vals = []
        for hz_star in (0.1, 0.5, 1.0, 3.0):
            cfg = ErgodicConfig(sp, dist, hz_star)
            vals.append(rate_upper_bound(cfg)[0])
        assert vals == sorted(vals)


def scalar_gap(cfg, e_hm, e_he):
    """rate_nocsi - rate_upper_bound at one grid point, from scalar configs."""
    ecfg = ErgodicConfig(cfg.sp, exp_triple(e_hm, e_he, cfg.h_z.param), cfg.hz_star)
    return rate_nocsi(ecfg)[0] - rate_upper_bound(ecfg)[0]


class TestDominanceRegion:
    # the 20x20 grid of acceptance criterion 7
    CFG = RegionConfig(SystemParams(1.0, 1.0), GainDistribution.exponential(1.0),
                       hz_star=GainDistribution.exponential(1.0).ppf(0.75))
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
            hz_star=GainDistribution.exponential(1.0).ppf(0.75),
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
                hz_star=GainDistribution.exponential(1.0).ppf(0.75),
            )
            outs.append(dominance_region(he, hm, cfg))
        assert np.array_equal(outs[0].r_nocsi, outs[1].r_nocsi)
        assert np.array_equal(outs[0].r_upper, outs[1].r_upper)
        assert outs[0].boundary == outs[1].boundary

    def test_bad_axes_rejected(self):
        cfg = RegionConfig(SystemParams(1.0, 1.0), GainDistribution.exponential(1.0), hz_star=1.0)
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

    def test_boundary_is_the_scalar_tie(self):
        # relative stopping rule: each reported tie is within 1e-9 of the scalar root
        res = dominance_region(self.HE, self.HM, self.CFG)
        ok = [bp for bp in res.boundary if bp.status == "ok"]
        assert ok
        for bp in ok:
            tie = optimize.brentq(lambda m: scalar_gap(self.CFG, m, bp.e_he), self.HM[0], self.HM[-1],
                                  xtol=1e-300, rtol=4 * np.finfo(float).eps)
            assert abs(bp.e_hm - tie) <= 1e-9 * tie, (bp, tie)

    def test_region_runs_no_quadrature(self, monkeypatch):
        # exponential H_m and H_z: the grid and every bisection step are closed forms
        calls = self.count_expect(monkeypatch)
        dominance_region(self.HE, self.HM, self.CFG)
        assert calls == []

    def test_illinois_rate_pair_calls(self, monkeypatch):
        # one call for the grid, one per Illinois step over all crossing rows and one for
        # gap_err at the reported ties; bisecting the rows to the same width takes 40
        calls = []

        def counted(*args):
            calls.append(1)
            return pair(*args)

        pair = ergodic._rate_pair
        monkeypatch.setattr(ergodic, "_rate_pair", counted)
        res = dominance_region(self.HE, self.HM, self.CFG)
        assert any(bp.status == "ok" for bp in res.boundary)
        assert len(calls) <= 15

    def test_first_cell_tie_reports_that_cell(self):
        # p = 0: every gap is exactly 0, so each row ties at its first grid point
        cfg = RegionConfig(SystemParams(0.0, 1.0), GainDistribution.exponential(1.0), hz_star=1.0)
        res = dominance_region([0.5, 2.0], [1.0, 10.0], cfg)
        assert [(bp.status, bp.e_hm, bp.gap_err) for bp in res.boundary] == [("ok", 1.0, 0.0)] * 2

    def test_narrow_grid_cell_brackets_the_tie(self, monkeypatch):
        # a sign-change cell 0.02 wide is bisected on to 1e-12 of the tie
        e_he = 1.0
        tie = optimize.brentq(lambda m: scalar_gap(self.CFG, m, e_he), 0.5, 200.0,
                              xtol=1e-300, rtol=4 * np.finfo(float).eps)
        hm = np.array([0.5, tie - 0.01, tie + 0.01, 200.0])
        calls = self.count_expect(monkeypatch)
        (bp,) = dominance_region([e_he], hm, self.CFG).boundary
        assert calls == []
        assert bp.status == "ok"
        assert abs(bp.e_hm - tie) <= 1e-12 * tie


@functools.lru_cache(maxsize=None)
@mp.workdps(40)
def mp_expect(p, p_j, m, z, e_law=None, e=None):
    """E[A], or E[(A - B)^+] given the law of H_e, for H_m ~ Exp(m) and
    H_z ~ Exp(z), at 40 digits.

    Given H_z = z u, with c = (1 + p_j z u)/(p m), E[A] ln 2 is g(c) and
    E[(A - B)^+] ln 2 is g(c) - g(c + 1/(p e)) or e^{-c p e} g(c (1 + p e)).
    mpmath's quadrature integrates these over u ~ Exp(1), so neither the
    partial fractions nor the series near p_j z = p m is used.
    """
    p, p_j, m, z = map(mp.mpf, (p, p_j, m, z))
    if p == 0:
        return mp.mpf(0)

    def g(x):
        return mp.exp(x) * mp.e1(x)

    def c(u):
        return (1 + p_j * z * u) / (p * m)

    if e_law is None:
        f = lambda u: g(c(u))
    elif e_law == "exp":
        f = lambda u: g(c(u)) - g(c(u) + 1 / (p * e))
    else:
        f = lambda u: mp.exp(-c(u) * p * e) * g(c(u) * (1 + p * e))
    # the integrand varies on a log scale in u above p_j z u = 1: split there
    b = p_j * z
    pts = [mp.mpf(0), mp.mpf(1)]
    if b > 0:
        pts += [mp.mpf(10) ** k / b for k in range(0, int(mp.log10(100 * b)) + 1, 16)
                if mp.mpf(10) ** k < 100 * b]
    pts = sorted(set(pts)) + [mp.inf]
    h = lambda u: mp.exp(-u) * f(u)
    # quad stops at an absolute error of 10^-dps: scaling the integrand by a
    # rough first estimate makes that error relative
    with mp.workdps(15):
        scale = abs(mp.quad(h, pts)) or 1
    return scale * mp.quad(lambda u: h(u) / scale, pts) / mp.log(2)


@mp.workdps(40)
def mp_rates(sp, m, e_law, e, z, hz_star):
    """(rate_nocsi, rate_upper_bound) at 40 digits, as ``mp_expect``."""
    if sp.p == 0:
        return mp.mpf(0), mp.mpf(0)
    s_b = mp.mpf(sp.p) * mp.mpf(e)
    mean_b = (mp.exp(1 / s_b) * mp.e1(1 / s_b) if e_law == "exp" else mp.log1p(s_b)) / mp.log(2)
    nocsi = max(mp_expect(sp.p, sp.p_j, m, z) - mean_b, 0)
    law = (e_law, e) if e else ()  # a point mass at 0 makes B = 0
    return nocsi, mp_expect(sp.p, sp.p_j, m, z, *law) * -mp.expm1(-mp.mpf(hz_star) / z)


# E[H_m] around E[H_z] = 1, so that kappa = p_j E[H_z]/(p E[H_m]) = 1/E[H_m] sweeps
# |1 - kappa| over 1e-16 ... 1e-2 on both sides of 1, and 1 exactly
KAPPA_MASSES = sorted({np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
                       *(1.0 + s * d for d in (1e-12, 1e-8, 1e-5, 1e-4, 1e-3, 1e-2) for s in (1, -1))})


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestClosedFormAccuracy:
    """Closed-form rates against 40-digit references: the reported error bar
    covers the measured error."""

    HZ_STAR = 1.0

    def check(self, sp, m, h_e, z, e_law):
        dist = ChannelTriple(GainDistribution.exponential(m), h_e, GainDistribution.exponential(z))
        cfg = ErgodicConfig(sp, dist, self.HZ_STAR)
        refs = mp_rates(sp, m, e_law, h_e.param, z, self.HZ_STAR)
        for (got, err), ref in zip((rate_nocsi(cfg), rate_upper_bound(cfg)), refs):
            assert abs(got - ref) <= err <= 1.25e-9, (got, float(ref), err)

    @pytest.mark.parametrize("m", KAPPA_MASSES)
    def test_kappa_sweep(self, m):
        sp = SystemParams(1.0, 1.0)
        # a point mass at 0 makes B = 0, so rate_nocsi is E[A] itself
        self.check(sp, m, GainDistribution.deterministic(0.0), 1.0, "det")
        self.check(sp, m, GainDistribution.deterministic(2.0), 1.0, "det")
        self.check(sp, m, GainDistribution.exponential(1.0), 1.0, "exp")

    def test_region_rates(self):
        # the region's grid takes the same closed forms, as arrays, across kappa = 1
        res = dominance_region([1.0], KAPPA_MASSES, RegionConfig(
            SystemParams(1.0, 1.0), GainDistribution.exponential(1.0), hz_star=self.HZ_STAR))
        for k, m in enumerate(KAPPA_MASSES):
            nocsi, upper = mp_rates(SystemParams(1.0, 1.0), m, "exp", 1.0, 1.0, self.HZ_STAR)
            assert abs(res.r_nocsi[0, k] - nocsi) <= res.err_nocsi[0, k]
            assert abs(res.r_upper[0, k] - upper) <= res.err_upper[0, k]

    @pytest.mark.parametrize("p, p_j, m, e, z", [
        (0.0, 1.0, 10.0, 1.0, 1.0),      # no signal: every rate is 0
        (0.0, 0.0, 1.0, 1.0, 1.0),
        (1.0, 0.0, 10.0, 1.0, 1.0),      # no jamming: kappa = 0
        (1.0, 1.0, 1e150, 1e150, 1e150),  # kappa = 1 at huge gains
        (1.0, 1e150, 1.0, 1.0, 1.0),     # kappa = 1e150
        (1.0, 1.0, 1e150, 1.0, 1.0),     # kappa = 1e-150
    ])
    def test_edge_gains(self, p, p_j, m, e, z):
        sp = SystemParams(p, p_j)
        for h_e, law in ((GainDistribution.exponential(e), "exp"),
                         (GainDistribution.deterministic(e), "det")):
            self.check(sp, m, h_e, z, law)
