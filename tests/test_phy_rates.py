import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from secrates import GainDistribution, SystemParams
from secrates.errors import InvalidRates
from secrates.phy_rates import (
    cell_mass,
    jam_threshold,
    rate_eve,
    rate_main_clear,
    rate_main_jammed,
    secrecy_factor,
    success_indicator,
)

gains = st.floats(min_value=0.0, max_value=1e4)
powers = st.floats(min_value=0.0, max_value=100.0)


class TestRates:
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_powers_rejected(self, bad):
        with pytest.raises(ValueError):
            SystemParams(bad, 1.0)
        with pytest.raises(ValueError):
            SystemParams(1.0, bad)

    def test_zero_gain(self):
        sp = SystemParams(1.0, 1.0)
        assert rate_main_jammed(sp, 0.0, 1.0) == 0.0
        assert rate_main_clear(sp, 0.0) == 0.0
        assert rate_eve(sp, 0.0) == 0.0

    def test_values(self):
        sp = SystemParams(1.0, 1.0)
        assert rate_main_jammed(sp, 3.0, 1.0) == pytest.approx(math.log2(2.5))
        assert rate_main_clear(sp, 3.0) == pytest.approx(2.0)
        assert rate_eve(sp, 1.0) == pytest.approx(1.0)

    def test_no_jamming_reduces_to_clear(self):
        sp = SystemParams(2.0, 0.0)
        h = np.array([0.1, 1.0, 7.0])
        assert np.allclose(rate_main_jammed(sp, h, 5.0), rate_main_clear(sp, h))

    def test_eve_monotone(self):
        sp = SystemParams(1.0, 0.0)
        vals = [rate_eve(sp, h) for h in (0.5, 1.0, 2.0)]
        assert vals == sorted(vals)

    @given(gains, gains, powers, powers)
    def test_jammed_never_exceeds_clear(self, h_m, h_z, p, p_j):
        sp = SystemParams(p, p_j)
        assert rate_main_jammed(sp, h_m, h_z) <= rate_main_clear(sp, h_m) + 1e-12

    @given(gains, st.floats(min_value=0.0, max_value=1e3), powers)
    def test_nonnegative_and_monotone_in_own_gain(self, h, dh, p):
        sp = SystemParams(p, 1.0)
        assert 0.0 <= rate_main_clear(sp, h) <= rate_main_clear(sp, h + dh)
        assert 0.0 <= rate_eve(sp, h) <= rate_eve(sp, h + dh)
        assert 0.0 <= rate_main_jammed(sp, h, 1.0) <= rate_main_jammed(sp, h + dh, 1.0)


class TestIndicators:
    sp = SystemParams(1.0, 1.0)

    def test_jamming_success(self):
        assert success_indicator(self.sp, 3.0, 0.0, 1.0, rate_r=1.3, r_s=1.0, jamming=True)

    def test_zero_eve_gain_success(self):
        assert success_indicator(self.sp, 3.0, 0.0, 1.0, rate_r=1.5, r_s=1.0, jamming=False)

    def test_boundary_secrecy_failure(self):
        # rate_r == r_s leaves no margin; any positive h_e breaks secrecy
        assert not success_indicator(self.sp, 100.0, 0.5, 0.0, rate_r=1.0, r_s=1.0, jamming=False)

    def test_invalid_rates(self):
        with pytest.raises(InvalidRates):
            success_indicator(self.sp, 1.0, 1.0, 1.0, rate_r=0.5, r_s=1.0, jamming=False)

    def test_jamming_branch_ignores_h_e(self):
        for h_e in (0.0, 1.0, 50.0):
            assert success_indicator(self.sp, 3.0, h_e, 1.0, 1.3, 0.5, jamming=True)

    def test_eaves_branch_ignores_h_z(self):
        for h_z in (0.0, 1.0, 50.0):
            assert success_indicator(self.sp, 3.0, 0.1, h_z, 1.0, 0.5, jamming=False)

    def test_vectorized_mixed_decisions(self):
        h_m = np.array([3.0, 3.0])
        h_e = np.array([0.0, 10.0])
        h_z = np.array([1.0, 1.0])
        jam = np.array([True, False])
        out = success_indicator(self.sp, h_m, h_e, h_z, np.array([1.3, 1.3]), 0.5, jam)
        assert out.tolist() == [True, False]

    def test_tie_counts_as_success(self):
        assert success_indicator(self.sp, 3.0, 0.0, 1.0, rate_r=math.log2(2.5), r_s=0.0, jamming=True)


class TestOneSurvivalRule:
    sp = SystemParams(1.0, 1.0)

    def test_point_mass_cell_decided_by_capacity(self):
        # inverting the jammed capacity at 1.7 overshoots 1.7 by one ulp;
        # the point mass carries the rate its own capacity defines
        r = rate_main_jammed(self.sp, 1.7, 1.0)
        assert jam_threshold(r, self.sp, 1.0) > 1.7
        assert cell_mass(GainDistribution.deterministic(1.7), 0.0, np.inf, r, self.sp, 1.0) == 1.0

    def test_clear_link_is_zero_jamming_gain(self):
        h = np.array([0.0, 0.3, 1.7, 41.0])
        assert np.array_equal(rate_main_jammed(self.sp, h, 0.0), rate_main_clear(self.sp, h))

    def test_point_mass_secrecy_factor_at_tie(self):
        # the margin 3 - r_s is the eavesdropper's capacity log2(3.9); the
        # inverted threshold 2^(3 - r_s) - 1 fell below 2.9 and lost the tie
        r_s = 3.0 - math.log2(3.9)
        assert secrecy_factor(3.0, r_s, self.sp, GainDistribution.deterministic(2.9)) == 1.0

    def test_zero_power_secrecy_factor(self):
        sp = SystemParams(0.0, 1.0)
        out = secrecy_factor(np.array([0.4, 0.5, 0.6]), 0.5, sp, GainDistribution.exponential(1.0))
        assert out.tolist() == [0.0, 1.0, 1.0]

    def test_capacities_written_once(self):
        # every survival test goes through this module's capacities
        paths = sorted((Path(__file__).resolve().parents[1] / "src" / "secrates").glob("*.py"))
        assert len(paths) > 1
        for path in paths:
            text = path.read_text(encoding="utf-8")
            if path.name != "phy_rates.py":
                assert "log2(1.0 + sp.p" not in text, path.name
            assert "_prob_interval_geq" not in text, path.name
