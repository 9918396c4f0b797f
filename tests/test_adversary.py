import math
from fractions import Fraction

import numpy as np
import pytest

from secrates import adversary
from secrates import ChannelTriple, GainDistribution, MonteCarlo, RatePolicy, SystemParams
from secrates.adversary import (
    CsiRegime,
    JammingRule,
    best_response,
    best_response_nocsi,
    best_response_packet,
    best_response_pilot,
    pilot_payoffs,
)
from secrates.delay_limited import (
    c_min_closed_form,
    evaluate_constraint,
    optimize_policy_packet,
)
from secrates.errors import InvalidInput, InvalidRates

from conftest import det_triple


class TestNoCsiBestResponse:
    def test_zero_margin_jams_only_at_zero(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        rule = best_response_nocsi(RatePolicy.constant(1.0), 1.0, sp, dist)
        assert rule.decide(0.0, 0.0, 0.0)
        assert not rule.decide(0.0, 1e-9, 0.0)

    def test_threshold(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        rule = best_response_nocsi(RatePolicy.constant(2.0), 1.0, sp, dist)
        # jam iff h_e <= 2^1 - 1 = 1
        assert rule.decide(0.0, 1.0, 0.0)
        assert not rule.decide(0.0, 1.001, 0.0)

    def test_zero_power_jams_everywhere(self, paper_delay_setup):
        _, dist = paper_delay_setup
        sp = SystemParams(0.0, 1.0)
        rule = best_response_nocsi(RatePolicy.constant(1.0), 0.5, sp, dist)
        assert rule.decide(0.0, 1e9, 0.0)

    def test_invalid_rates(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        with pytest.raises(InvalidRates):
            best_response_nocsi(RatePolicy.constant(1.0), 1.5, sp, dist)


class TestPacketBestResponse:
    def test_overshooting_policy_jams_everywhere(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        # rate above the clear capacity: connection outage under eavesdropping
        policy = RatePolicy.tabulated([0.0, 1.0, 5.0], [2.0, 3.0, 9.0])
        rule = best_response_packet(policy, 0.1, sp, dist)
        for h_m, h_e in [(0.5, 100.0), (3.0, 50.0), (80.0, 7.0)]:
            assert rule.decide(h_m, h_e, 0.0)

    def test_first_set_threshold(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        rule = best_response_packet(RatePolicy.constant(1.5), 0.5, sp, dist)
        h_m = 2.0  # log2(3) > 1.5, no connection-outage set
        assert rule.decide(h_m, 1.0, 0.0)  # 2^1 - 1 = 1, inclusive
        assert not rule.decide(h_m, 1.001, 0.0)

    def test_eavesdrops_outside_both_sets(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        rule = best_response_packet(RatePolicy.constant(1.5), 0.5, sp, dist)
        assert not rule.decide(50.0, 10.0, 0.0)

    def test_clear_capacity_tie_is_no_outage(self):
        # log2(1 + 3) = 2 carries R = 2, so eavesdropping (which breaks
        # secrecy) beats jamming, which the unjammed link h_z = 0 survives
        sp, dist = SystemParams(1.0, 1.0), det_triple(3.0, 5.0, 0.0)
        policy = RatePolicy.constant(2.0)
        rule = best_response_packet(policy, 0.1, sp, dist)
        assert not rule.decide(3.0, 5.0, 0.0)
        rep = evaluate_constraint(CsiRegime.PACKET_FEEDBACK, policy, 0.1, sp, dist, rule)
        closed = c_min_closed_form(CsiRegime.PACKET_FEEDBACK, policy, 0.1, sp, dist)
        assert rep.c_min == closed == 0.0


class TestPilotGridCells:
    """The one nearest-point rule of the pilot grids: ``searchsorted`` on the cell edges."""

    @staticmethod
    def brute_force(g, x):
        return np.argmin(np.abs(x[:, None] - g[None, :]), axis=1)  # a tie takes the lower point

    @pytest.mark.parametrize("link", [GainDistribution.exponential(1.0),
                                      GainDistribution.deterministic(0.7)])
    def test_edges_pick_the_nearest_point(self, link):
        (g, top), _ = adversary._pilot_grids(ChannelTriple(link, link, link))
        x = np.concatenate([np.random.default_rng(4).exponential(1.0, 10_000), g, [0.0]])
        assert np.array_equal(np.searchsorted(top, x), self.brute_force(g, x))

    def test_float_midpoints_go_to_the_lower_point(self):
        link = GainDistribution.exponential(1.0)
        (g, top), _ = adversary._pilot_grids(ChannelTriple(link, link, link))
        mid, i = (g[1:] + g[:-1]) / 2.0, np.arange(g.size - 1)
        assert np.array_equal(np.searchsorted(top, mid), i)
        for side, j in ((-np.inf, i), (np.inf, i + 1)):  # the doubles either side
            x = np.nextafter(mid, side)
            assert np.array_equal(np.searchsorted(top, x), j)
            assert np.array_equal(self.brute_force(g, x), j)
        # where the float midpoint is the exact one it is a tie, and the lower point wins
        tie = np.array([2 * Fraction(m) == Fraction(a) + Fraction(b)
                        for m, a, b in zip(mid, g[:-1], g[1:])])
        assert tie.any() and np.array_equal(self.brute_force(g, mid[tie]), i[tie])


class TestPilotBestResponse:
    def test_point_mass_main_gain_reduction(self):
        # degenerate H_m: payoffs are 0/1 and the comparison is boolean
        sp = SystemParams(1.0, 1.0)
        dist = ChannelTriple(
            GainDistribution.deterministic(3.0),
            GainDistribution.exponential(1.0),
            GainDistribution.deterministic(1.0),
        )
        policy = RatePolicy.constant(1.5)  # above jammed cap log2(2.5), below clear cap 2
        rule = best_response_pilot(policy, 0.2, sp, dist)
        # jamming causes outage (payoff 0): jam whenever eavesdropping might fail
        assert rule.decide(0.0, 5.0, 1.0)

    def test_huge_jamming_gain_limit(self):
        sp = SystemParams(1.0, 1.0)
        dist = ChannelTriple(
            GainDistribution.exponential(10.0),
            GainDistribution.exponential(1.0),
            GainDistribution.deterministic(1e6),
        )
        policy = RatePolicy.tabulated([0.0, 2.0], [0.5, 1.0])
        jam, eaves = pilot_payoffs(policy, 0.2, sp, dist,
                                   np.array([0.01]), np.array([1e6]))
        # all rates positive: jamming with enormous gain defeats every block
        assert jam[0] < 1e-6
        assert rule_jams_everywhere(policy, sp, dist)

    def test_grid_rule_matches_brute_force_mc(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        r_s = 0.2
        policy, _ = optimize_policy_packet(r_s, sp, dist, n_knots=128)
        rule = best_response_pilot(policy, r_s, sp, dist)

        # independent oracle: MC payoffs from a different generator family
        rng = np.random.default_rng(998877)
        h_m = rng.exponential(10.0, size=10**5)
        rates = policy.rate_at(h_m)
        he_grid = -np.log1p(-(np.arange(50) + 0.5) / 50)  # quantiles of Exp(1)
        hz_grid = np.full(50, 1.0)
        jam_mc = np.array([
            np.mean(np.log2(1 + sp.p * h_m / (1 + sp.p_j * hz)) >= rates)
            for hz in hz_grid
        ])
        eaves_mc = np.array([
            np.mean((np.log2(1 + sp.p * he) <= rates - r_s)
                    & (np.log2(1 + sp.p * h_m) >= rates))
            for he in he_grid
        ])
        se = 3.0 / math.sqrt(10**5)  # generous bound on payoff stderr
        mismatches = 0
        for i, he in enumerate(he_grid):
            for j, hz in enumerate(hz_grid):
                oracle_jam = jam_mc[j] <= eaves_mc[i]
                if abs(jam_mc[j] - eaves_mc[i]) <= 3 * se:
                    continue  # near-tie cells are decided by noise
                if bool(rule.decide(0.0, he, hz)) != bool(oracle_jam):
                    mismatches += 1
        assert mismatches == 0


def rule_jams_everywhere(policy, sp, dist, n_probe=64):
    rule = best_response_pilot(policy, 0.2, sp, dist)
    he = dist.h_e.ppf((np.arange(n_probe) + 0.5) / n_probe)
    return bool(np.all(rule.decide(np.zeros(n_probe), he, np.full(n_probe, dist.h_z.param))))


class TestMeasurability:
    def test_rules_ignore_unobserved_gains(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        policy, _ = optimize_policy_packet(0.3, sp, dist, n_knots=64)
        rules = {
            CsiRegime.NO_CSI: best_response_nocsi(RatePolicy.constant(1.2), 0.3, sp, dist),
            CsiRegime.PACKET_FEEDBACK: best_response_packet(policy, 0.3, sp, dist),
            CsiRegime.PILOT_FEEDBACK: best_response_pilot(policy, 0.3, sp, dist),
        }
        rng = np.random.default_rng(5)
        probes = rng.exponential(1.0, size=(200, 3))
        for regime, rule in rules.items():
            base = rule.decide(probes[:, 0], probes[:, 1], probes[:, 2])
            for unseen in {"h_m", "h_e", "h_z"} - regime.adversary_observables:
                perturbed = probes.copy()
                col = {"h_m": 0, "h_e": 1, "h_z": 2}[unseen]
                perturbed[:, col] = rng.exponential(5.0, size=200)
                out = rule.decide(perturbed[:, 0], perturbed[:, 1], perturbed[:, 2])
                assert np.array_equal(base, out), (regime, unseen)


class TestDecideChecksGains:
    @pytest.mark.parametrize("regime", list(CsiRegime))
    def test_bad_gain_named(self, regime, paper_delay_setup):
        # a nan h_e or h_z made the pilot rule index past its grid (IndexError), and the
        # other rules answered eavesdrop; every gain is checked, observed or not
        sp, dist = paper_delay_setup
        rule = best_response(regime, RatePolicy.constant(1.2), 0.3, sp, dist)
        for i, name in enumerate(("h_m", "h_e", "h_z")):
            for bad in (math.nan, math.inf, -1.0):
                gains = [0.0, 1.0, 1.0]
                gains[i] = bad
                with pytest.raises(InvalidInput, match=name):
                    rule.decide(*gains)
                gains[i] = np.array([1.0, bad])
                with pytest.raises(InvalidInput, match=name):
                    rule.decide(*gains)
        assert rule.decide(0.0, 1.0, 1.0) in (True, False)


def _random_rule(regime: CsiRegime, rng) -> JammingRule:
    """A random interval-membership rule over the regime's observables."""
    obs = sorted(regime.adversary_observables)
    cuts = {name: np.sort(rng.exponential(2.0, size=2)) for name in obs}
    flip = {name: rng.random() < 0.5 for name in obs}

    def decide(h_m, h_e, h_z):
        vals = {"h_m": h_m, "h_e": h_e, "h_z": h_z}
        out = np.ones(np.shape(h_m), dtype=bool)
        for name in obs:
            inside = (vals[name] >= cuts[name][0]) & (vals[name] <= cuts[name][1])
            out &= inside ^ flip[name]
        return out

    return JammingRule(regime, decide)


class TestPointwiseOptimality:
    @pytest.mark.parametrize("regime", list(CsiRegime))
    def test_best_response_minimizes_constraint(self, regime, paper_delay_setup):
        sp, dist = paper_delay_setup
        r_s = 0.4
        if regime is CsiRegime.NO_CSI:
            policy = RatePolicy.constant(1.4)
            best = best_response_nocsi(policy, r_s, sp, dist)
        else:
            policy, _ = optimize_policy_packet(r_s, sp, dist, n_knots=64)
            best = (best_response_packet if regime is CsiRegime.PACKET_FEEDBACK
                    else best_response_pilot)(policy, r_s, sp, dist)
        mc = MonteCarlo(seed=31, n=200_000)
        c_best = evaluate_constraint(regime, policy, r_s, sp, dist, best, mc)
        rng = np.random.default_rng(17)
        for _ in range(20):
            alt = _random_rule(regime, rng)
            c_alt = evaluate_constraint(regime, policy, r_s, sp, dist, alt, mc)
            slack = 3 * math.hypot(c_best.std_err, c_alt.std_err)
            assert c_best.c_min <= c_alt.c_min + slack


class TestPacketClosedFormAgreement:
    def test_best_response_attains_closed_form(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        r_s = 0.3
        policy, _ = optimize_policy_packet(r_s, sp, dist, n_knots=128)
        rule = best_response_packet(policy, r_s, sp, dist)
        rep = evaluate_constraint(CsiRegime.PACKET_FEEDBACK, policy, r_s, sp, dist,
                                  rule, MonteCarlo(8, 10**6))
        closed = c_min_closed_form(CsiRegime.PACKET_FEEDBACK, policy, r_s, sp, dist)
        assert abs(rep.c_min - closed) < 3 * rep.std_err + 1e-9


class TestDegenerateReduction:
    def test_all_deterministic_pilot_rule(self):
        sp = SystemParams(1.0, 1.0)
        dist = det_triple(3.0, 0.0, 1.0)
        policy = RatePolicy.constant(1.3)
        rule = best_response_pilot(policy, 1.0, sp, dist)
        # jamming fails (1.3219 >= 1.3) and eavesdropping fails too
        # (0 <= 0.3 and 2 >= 1.3): both payoffs are 1, tie goes to jamming
        assert rule.decide(3.0, 0.0, 1.0)
