import math
import signal

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq

from secrates import ChannelTriple, GainDistribution, MonteCarlo, RatePolicy, SystemParams
from secrates import adversary, channels, delay_limited
from secrates.adversary import CsiRegime, JammingRule, best_response, best_response_pilot
from secrates.delay_limited import (
    SearchConfig,
    _assert_monotone,
    _best_constant_nocsi,
    _cell_jam_mass,
    _flip,
    _pilot_batch,
    _pilot_family,
    c_min_closed_form,
    evaluate_constraint,
    evaluate_constraint_full_duplex,
    optimize_policy_packet,
    optimize_policy_pilot,
    solve,
)
from secrates.errors import (
    AlphaOutOfRange, InvalidInput, InvalidRates, NonMonotone, PolicyRegimeMismatch,
    UnsupportedRegime,
)

from conftest import det_triple


E, D = GainDistribution.exponential, GainDistribution.deterministic


def always_jam(regime=CsiRegime.NO_CSI):
    return JammingRule(regime, lambda h_m, h_e, h_z: np.ones(np.shape(h_m), dtype=bool))


class TestEvaluateConstraint:
    def test_deterministic_success(self):
        # jammed capacity log2(2.5) carries rate 1.0 exactly
        sp = SystemParams(1.0, 1.0)
        rep = evaluate_constraint(
            CsiRegime.NO_CSI, RatePolicy.constant(1.0), 0.5, sp,
            det_triple(3.0, 0.0, 1.0), always_jam(),
        )
        assert (rep.c_min, rep.std_err) == (1.0, 0.0)

    def test_deterministic_failure(self):
        sp = SystemParams(1.0, 1.0)
        rep = evaluate_constraint(
            CsiRegime.NO_CSI, RatePolicy.constant(5.0), 0.5, sp,
            det_triple(3.0, 0.0, 1.0), always_jam(),
        )
        assert rep.c_min == 0.0

    def test_feasibility_flag(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        rule = best_response(CsiRegime.NO_CSI, RatePolicy.constant(1.0), 0.5, sp, dist)
        rep = evaluate_constraint(
            CsiRegime.NO_CSI, RatePolicy.constant(1.0), 0.5, sp, dist, rule,
            MonteCarlo(2, 100_000),
        )
        assert rep.c_min >= 0.2
        assert 0.0 < rep.std_err < 0.01

    def test_regime_mismatch(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        with pytest.raises(PolicyRegimeMismatch):
            evaluate_constraint(
                CsiRegime.NO_CSI, RatePolicy.tabulated([0.0, 1.0], [0.5, 1.0]),
                0.1, sp, dist, always_jam(),
            )
        with pytest.raises(PolicyRegimeMismatch):
            evaluate_constraint(
                CsiRegime.PACKET_FEEDBACK, RatePolicy.constant(1.0),
                0.1, sp, dist, always_jam(CsiRegime.NO_CSI),
            )


class TestClosedForm:
    def test_frozen_reference_value(self, paper_delay_setup):
        # hand value: (1 - exp(-(2^0.5 - 1))) * exp(-(2^1 - 1)*2 / 10)
        sp, dist = paper_delay_setup
        c = c_min_closed_form(CsiRegime.NO_CSI, RatePolicy.constant(1.0), 0.5, sp, dist)
        hand = (1.0 - math.exp(-(2**0.5 - 1.0))) * math.exp(-0.2)
        assert c == pytest.approx(hand, abs=1e-15)
        assert c == pytest.approx(0.27766451019320415, abs=1e-12)

    def test_one_knot_table_is_constant(self, paper_delay_setup):
        # wherever its one knot sits; no-CSI used to reject such a table
        sp, dist = paper_delay_setup
        table, const = RatePolicy.tabulated([2.0], [1.0]), RatePolicy.constant(1.0)
        h_m = np.array([0.0, 1.0, 2.0, 50.0])
        assert table.is_constant and np.array_equal(table.rate_at(h_m), const.rate_at(h_m))
        for r_s in (0.0, 0.5, 1.0):
            c_table, c_const = (c_min_closed_form(CsiRegime.NO_CSI, policy, r_s, sp, dist)
                                for policy in (table, const))
            assert abs(c_table - c_const) <= 1e-15

    @pytest.mark.parametrize("regime", [CsiRegime.NO_CSI, CsiRegime.PACKET_FEEDBACK])
    def test_matches_monte_carlo(self, regime, paper_delay_setup):
        sp, dist = paper_delay_setup
        r_s = 0.5
        if regime is CsiRegime.NO_CSI:
            policy = RatePolicy.constant(1.0)
        else:
            policy, _ = optimize_policy_packet(r_s, sp, dist, n_knots=128)
        rule = best_response(regime, policy, r_s, sp, dist)
        rep = evaluate_constraint(regime, policy, r_s, sp, dist, rule, MonteCarlo(6, 10**6))
        closed = c_min_closed_form(regime, policy, r_s, sp, dist)
        assert abs(rep.c_min - closed) < 3 * rep.std_err + 1e-9

    def test_pilot_has_no_closed_form(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        with pytest.raises(UnsupportedRegime):
            c_min_closed_form(CsiRegime.PILOT_FEEDBACK, RatePolicy.constant(1.0),
                              0.1, sp, dist)

    @pytest.mark.parametrize("r_s", [-1.0, math.nan, math.inf])
    def test_meaningless_secrecy_rate_rejected(self, r_s, paper_delay_setup):
        # a negative, nan or infinite secrecy rate has no constraint value to give
        sp, dist = paper_delay_setup
        with pytest.raises(InvalidRates):
            c_min_closed_form(CsiRegime.NO_CSI, RatePolicy.constant(1.0), r_s, sp, dist)
        with pytest.raises(InvalidRates):
            optimize_policy_packet(r_s, sp, dist, 16)

    def test_bounded_in_unit_interval(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        rng = np.random.default_rng(42)
        for _ in range(25):
            r_s = float(rng.uniform(0.0, 2.0))
            knots_h = np.sort(rng.exponential(5.0, size=4))
            knots_r = r_s + rng.exponential(1.0, size=4)
            policy = RatePolicy.tabulated(knots_h, knots_r)
            c = c_min_closed_form(CsiRegime.PACKET_FEEDBACK, policy, r_s, sp, dist)
            assert 0.0 <= c <= 1.0

    def test_fading_jammer_link_quadrature_path(self, paper_ergodic_setup):
        sp, dist = paper_ergodic_setup
        policy = RatePolicy.constant(1.0)
        closed = c_min_closed_form(CsiRegime.NO_CSI, policy, 0.3, sp, dist)
        rule = best_response(CsiRegime.NO_CSI, policy, 0.3, sp, dist)
        rep = evaluate_constraint(CsiRegime.NO_CSI, policy, 0.3, sp, dist, rule,
                                  MonteCarlo(9, 400_000))
        assert abs(rep.c_min - closed) < 3 * rep.std_err + 1e-9


def quad_jam_mass(lo, hi, r, sp, dist, z_max=math.inf):
    """Reference for the cell jam mass: the defining event integrated over
    H_z in [0, z_max) by adaptive quadrature, split where the jam threshold
    c*(1 + p_j*z) crosses a cell edge or the point mass of H_m."""
    c = (2.0 ** r - 1.0) / sp.p

    def mass(z):  # P[H_m in [lo, hi), H_m >= c*(1 + p_j*z)]
        t = c * (1.0 + sp.p_j * z)
        if dist.h_m.is_degenerate:
            v = dist.h_m.param
            return float(lo <= v < hi and v >= t)
        mu = dist.h_m.param
        return max(math.exp(-max(lo, t) / mu) - math.exp(-hi / mu), 0.0)

    if dist.h_z.is_degenerate:
        return mass(dist.h_z.param) if dist.h_z.param < z_max else 0.0
    mu_z = dist.h_z.param
    cuts = [0.0, z_max]
    if c > 0 and sp.p_j > 0:
        edges = (lo, hi, dist.h_m.param) if dist.h_m.is_degenerate else (lo, hi)
        cuts += [(x / c - 1.0) / sp.p_j for x in edges if 0 < (x / c - 1.0) / sp.p_j < z_max]
    cuts = sorted(cuts)
    return sum(
        integrate.quad(lambda z: mass(z) * math.exp(-z / mu_z) / mu_z, a, b,
                       epsabs=1e-13, epsrel=1e-12, limit=200)[0]
        for a, b in zip(cuts[:-1], cuts[1:]) if b > a
    )


MAIN_LAWS = {"exp": GainDistribution.exponential(10.0), "det": GainDistribution.deterministic(3.0)}
JAM_LAWS = {"exp": GainDistribution.exponential(1.0), "exp10": GainDistribution.exponential(10.0),
            "det": GainDistribution.deterministic(2.0)}
# (lo, hi, r): r = 0, lo = 0, hi = inf, and a wide last cell whose jam
# threshold crosses lo far out in the H_z tail
JAM_CELLS = [(0.0, 2.0, 0.7), (1.5, 6.0, 1.1), (0.0, np.inf, 1.0), (2.5, 4.0, 0.0),
             (0.0, np.inf, 0.0), (8.6, np.inf, 1.04), (3.0, 3.5, 0.3), (4.0, np.inf, 2.0)]
# H_z upper limits: the full axis, one inside the H_z mass, and the point
# mass of the "det" jamming law, which "H_z < z_max" leaves out
Z_MAX = [np.inf, 0.7, 2.0]


class TestCellJamMassOracle:
    @pytest.mark.parametrize("h_m", sorted(MAIN_LAWS))
    @pytest.mark.parametrize("h_z", sorted(JAM_LAWS))
    @pytest.mark.parametrize("p, p_j", [(1.0, 1.0), (1.0, 0.0), (2.0, 0.5)])
    def test_matches_quadrature(self, h_m, h_z, p, p_j):
        sp = SystemParams(p, p_j)
        dist = ChannelTriple(MAIN_LAWS[h_m], GainDistribution.exponential(1.0), JAM_LAWS[h_z])
        for lo, hi, r in JAM_CELLS:
            for z_max in Z_MAX:
                ref = quad_jam_mass(lo, hi, r, sp, dist, z_max)
                assert float(_cell_jam_mass(lo, hi, r, sp, dist, z_max)) == pytest.approx(ref, abs=1e-9)
        lo, hi, r = (np.array(x)[:, None] for x in zip(*JAM_CELLS))
        cells = _cell_jam_mass(lo, hi, r, sp, dist, np.array(Z_MAX))  # cells x z_max
        refs = [[quad_jam_mass(*cell, sp, dist, z_max) for z_max in Z_MAX] for cell in JAM_CELLS]
        np.testing.assert_allclose(cells, refs, rtol=0, atol=1e-9)
        # the full axis is the default, bit for bit
        assert np.array_equal(cells[:, 0], _cell_jam_mass(lo[:, 0], hi[:, 0], r[:, 0], sp, dist))

    def test_frozen_fading_jammer_packet_value(self, paper_ergodic_setup):
        # recorded with the earlier per-cell adaptive-quadrature implementation
        sp, dist = paper_ergodic_setup
        policy, _ = optimize_policy_packet(0.78, sp, dist, n_knots=64)
        c = c_min_closed_form(CsiRegime.PACKET_FEEDBACK, policy, 0.78, sp, dist)
        assert c == pytest.approx(0.5016122775837583, abs=1e-9)


class TestFullDuplexIdentity:
    def test_matches_packet_closed_form(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        rng = np.random.default_rng(7)
        for i in range(5):
            r_s = float(rng.uniform(0.0, 1.0))
            knots_h = np.sort(rng.exponential(5.0, size=3))
            knots_r = r_s + rng.exponential(0.8, size=3)
            policy = RatePolicy.tabulated(knots_h, knots_r)
            rep = evaluate_constraint_full_duplex(policy, r_s, sp, dist,
                                                  MonteCarlo(100 + i, 400_000))
            closed = c_min_closed_form(CsiRegime.PACKET_FEEDBACK, policy, r_s, sp, dist)
            assert abs(rep.c_min - closed) < 3 * rep.std_err + 1e-9

    @pytest.mark.parametrize("gains, expected", [
        ((3.0, 0.0, 1.0), (1.0, 0.0)),
        ((1.0, 1.0, 1.0), (0.0, 0.0)),
    ])
    def test_point_mass_triple_is_one_realization(self, monkeypatch, gains, expected):
        draws = []
        monkeypatch.setattr(delay_limited, "sample", lambda *args: draws.append(args))
        policy = RatePolicy.tabulated([0.0, 2.0], [0.5, 1.0])
        rep = evaluate_constraint_full_duplex(policy, 0.2, SystemParams(1.0, 1.0),
                                              det_triple(*gains), MonteCarlo(0, 1000))
        assert (rep.c_min, rep.std_err) == expected and draws == []


class TestPointMassTies:
    """A point mass is decided by the capacity comparison a draw is, so on
    all-point-mass triples each closed form equals the one-draw oracle exactly."""

    SP = SystemParams(1.0, 1.0)

    def test_packet_matches_full_duplex(self):
        # the rate rides the jammed capacity at h_m, a tie by construction
        def mismatch(h_m):
            dist = det_triple(h_m, 0.5, 1.0)
            policy, c = optimize_policy_packet(0.1, self.SP, dist, n_knots=8)
            return c != evaluate_constraint_full_duplex(policy, 0.1, self.SP, dist).c_min

        assert [h for h in np.linspace(0.05, 20.0, 400) if mismatch(h)] == []

    def test_nocsi_eavesdropper_tie_matches_oracle(self):
        def mismatch(h_e):
            dist, policy = det_triple(20.0, h_e, 1.0), RatePolicy.constant(3.0)
            r_s = 3.0 - math.log2(1.0 + h_e)  # R - r_s is the eavesdropper's capacity
            rule = best_response(CsiRegime.NO_CSI, policy, r_s, self.SP, dist)
            oracle = evaluate_constraint(CsiRegime.NO_CSI, policy, r_s, self.SP, dist, rule)
            return c_min_closed_form(CsiRegime.NO_CSI, policy, r_s, self.SP, dist) != oracle.c_min

        assert [h for h in np.linspace(0.05, 6.9, 400) if mismatch(h)] == []

    def test_point_mass_main_gain_keeps_regime_ordering(self):
        # the jammed capacity at 1.7, inverted to a gain, overshoots 1.7 by
        # one ulp; the packet cell used to lose its whole mass
        dist = ChannelTriple(D(1.7), E(1.0), D(1.0))
        cfg = SearchConfig(rate_tol=1e-4)
        packet = solve(CsiRegime.PACKET_FEEDBACK, self.SP, dist, 0.3, cfg)
        nocsi = solve(CsiRegime.NO_CSI, self.SP, dist, 0.3, cfg)
        assert packet.report.feasible and packet.r_s_star >= nocsi.r_s_star > 0.4

    def test_eavesdropper_point_mass_tie_is_jammed(self):
        # at the tie eavesdropping would succeed, so the adversary jams:
        # C = P[log2(1 + H_m/2) >= 3] = P[H_m >= 14] = e^-1.4
        dist, policy = ChannelTriple(E(10.0), D(2.9), D(1.0)), RatePolicy.constant(3.0)
        r_s = 3.0 - math.log2(3.9)
        closed = c_min_closed_form(CsiRegime.NO_CSI, policy, r_s, self.SP, dist)
        assert closed == pytest.approx(math.exp(-1.4), abs=1e-12)
        rule = best_response(CsiRegime.NO_CSI, policy, r_s, self.SP, dist)
        rep = evaluate_constraint(CsiRegime.NO_CSI, policy, r_s, self.SP, dist, rule,
                                  MonteCarlo(3, 400_000))
        assert abs(rep.c_min - closed) <= 3 * rep.std_err


class TestPacketPolicy:
    def test_degenerate_zero_main_gain(self, paper_delay_setup):
        sp, _ = paper_delay_setup
        dist = det_triple(0.0, 0.0, 1.0)
        policy, c = optimize_policy_packet(0.7, sp, dist)
        assert policy.is_constant and policy.knots_r.tolist() == [0.7]
        assert c == 0.0  # zero main gain cannot carry a positive rate

    def test_beats_best_constant(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        for r_s in (0.0, 0.5, 1.0):
            _, c_const = _best_constant_nocsi(r_s, sp, dist)
            _, c_packet = optimize_policy_packet(r_s, sp, dist, n_knots=256)
            assert c_packet >= c_const - 1e-9

    def test_rates_at_least_secrecy_rate(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        policy, _ = optimize_policy_packet(1.2, sp, dist, n_knots=64)
        assert np.all(policy.knots_r >= 1.2)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, math.nan, math.inf])
    def test_knot_count_validation(self, bad, paper_delay_setup):
        with pytest.raises(InvalidInput, match="n_knots"):
            optimize_policy_packet(0.5, *paper_delay_setup, n_knots=bad)

    def test_more_knots_never_hurt(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        _, c64 = optimize_policy_packet(0.5, sp, dist, n_knots=64)
        _, c256 = optimize_policy_packet(0.5, sp, dist, n_knots=256)
        assert c256 >= c64 - 1e-6


class TestPilotPolicy:
    def test_lower_bounded_by_packet_value(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        cfg = SearchConfig(mc_n=200_000)
        for r_s in (0.5, 1.5):
            _, c_packet = optimize_policy_packet(r_s, sp, dist, cfg.n_knots)
            _, c_pilot, se = optimize_policy_pilot(r_s, sp, dist, cfg)
            assert c_pilot >= c_packet - 3 * se

    def test_solve_reports_the_policy_search_value(self, paper_delay_setup):
        # solve draws the same batches as a direct call at its solution
        sp, dist = paper_delay_setup
        cfg = SearchConfig(rate_tol=1e-2, mc_n=20_000)
        sol = solve(CsiRegime.PILOT_FEEDBACK, sp, dist, 0.5, cfg)
        _, c, se = optimize_policy_pilot(sol.r_s_star, sp, dist, cfg)
        assert (sol.report.c_min, sol.report.std_err) == (c, se)

    @pytest.mark.parametrize("alpha, frozen", [
        (0.1, (3.197265625, 0.10015, 0.0021227338210430434)),
        (0.5, (1.3525390625, 0.5001, 0.003535533835222059)),
    ])
    def test_frozen_solve(self, alpha, frozen, paper_delay_setup):
        # recorded once the search scored its candidates exactly, with no search batch
        sp, dist = paper_delay_setup
        sol = solve(CsiRegime.PILOT_FEEDBACK, sp, dist, alpha,
                    SearchConfig(mc_n=20_000, rate_tol=1e-3))
        assert (sol.r_s_star, sol.report.c_min, sol.report.std_err) == frozen

    def test_frozen_fading_jammer_solve(self, paper_ergodic_setup):
        # a fading jamming link: 200 x 200 payoff-grid groups; recorded before
        # the search scored its candidates per r_s
        sp, dist = paper_ergodic_setup
        sol = solve(CsiRegime.PILOT_FEEDBACK, sp, dist, 0.5,
                    SearchConfig(mc_n=20_000, rate_tol=1e-3))
        assert (sol.r_s_star, sol.report.c_min, sol.report.std_err) == (
            0.796875, 0.5, 0.0035355339059327377)

    @pytest.mark.parametrize("dist, n_draws", [
        (ChannelTriple(E(10.0), E(1.0), D(1.0)), 1),  # the final batch; the search draws none
        (det_triple(3.0, 0.5, 1.0), 0),  # a point-mass triple is one exact realization
    ])
    def test_sweep_draws_each_batch_once(self, monkeypatch, dist, n_draws):
        sp = SystemParams(1.0, 1.0)
        draws = []

        def counting_sample(*args):
            draws.append(args)
            return channels.sample(*args)

        monkeypatch.setattr(delay_limited, "sample", counting_sample)
        _pilot_batch.cache_clear()
        cfg = SearchConfig(mc_n=20_000, rate_tol=1e-2)
        for alpha in (0.1, 0.5, 0.9):
            solve(CsiRegime.PILOT_FEEDBACK, sp, dist, alpha, cfg)
        assert len(draws) == n_draws

    def test_solve_computes_no_grid_payoffs(self, monkeypatch, paper_delay_setup):
        # the final scoring reuses the search's decision table: no payoffs are recomputed
        calls, payoffs = [], adversary.pilot_payoffs

        def counting_payoffs(*args):
            calls.append(args)
            return payoffs(*args)

        monkeypatch.setattr(adversary, "pilot_payoffs", counting_payoffs)
        sp, dist = paper_delay_setup
        solve(CsiRegime.PILOT_FEEDBACK, sp, dist, 0.5, SearchConfig(mc_n=20_000, rate_tol=1e-2))
        assert calls == []


def decision_table(rule, dist):
    """A pilot rule's jam decisions at every pair of payoff-grid points (h_z x h_e)."""
    (he_grid, _), (hz_grid, _) = adversary._pilot_grids(dist)
    return rule.decide(0.0, he_grid[None, :], hz_grid[:, None])


class TestPilotBatchMatchesOracle:
    """The cached pilot scorer against evaluate_constraint + best_response_pilot."""

    SEED, N, N_KNOTS = 5, 20_000, 64

    def fast(self, policy, r_s, sp, dist):
        jam = decision_table(best_response_pilot(policy, r_s, sp, dist), dist)
        return _pilot_batch(sp, dist, self.SEED, self.N, self.N_KNOTS)(policy.knots_r, jam, r_s)

    def oracle(self, policy, r_s, sp, dist):
        rule = best_response_pilot(policy, r_s, sp, dist)
        rep = evaluate_constraint(CsiRegime.PILOT_FEEDBACK, policy, r_s, sp, dist, rule,
                                  MonteCarlo(seed=self.SEED, n=self.N))
        return rep.c_min, rep.std_err

    def both(self, *args):
        return self.fast(*args), self.oracle(*args)

    @pytest.mark.parametrize("h_z", [D(1.0), E(1.0)])
    @pytest.mark.parametrize("frac", [0.0, 0.37, 1.0])
    def test_candidates(self, frac, h_z):
        sp, dist, r_s = SystemParams(1.0, 1.0), ChannelTriple(E(10.0), E(1.0), h_z), 0.8
        base, _ = optimize_policy_packet(r_s, sp, dist, self.N_KNOTS)
        r = base.knots_r.copy()
        k = round(frac * r.size)
        r[:k] = np.maximum(np.log2(1.0 + sp.p * base.knots_h[:k]), r_s)
        fast, oracle = self.both(RatePolicy.tabulated(base.knots_h, r), r_s, sp, dist)
        assert fast == oracle and 0.0 < fast[0] < 1.0

    @pytest.mark.parametrize("dist", [
        ChannelTriple(D(3.0), E(1.0), D(1.0)),
        ChannelTriple(D(3.0), E(1.0), E(1.0)),
        det_triple(3.0, 0.5, 1.0),  # exact single realization
        det_triple(3.0, 2.0, 1.0),
    ])
    def test_constant_policy_point_mass_main_gain(self, dist):
        fast, oracle = self.both(RatePolicy.constant(1.5), 0.2, SystemParams(1.0, 1.0), dist)
        assert fast == oracle

    def test_invalid_rates_raised_by_both(self, paper_delay_setup):
        # every rate below r_s: eavesdropping always wins and the rule is violated
        sp, dist = paper_delay_setup
        base, _ = optimize_policy_packet(0.8, sp, dist, self.N_KNOTS)
        policy = RatePolicy.tabulated(base.knots_h, np.full(base.knots_h.size, 0.1))
        for scorer in (self.fast, self.oracle):
            with pytest.raises(InvalidRates):
                scorer(policy, 0.8, sp, dist)


class TestExactPilotScore:
    """The exact search score of a candidate, the packet policy with its first
    k knots on the clear capacity, against evaluate_constraint +
    best_response_pilot, at k across the whole range."""

    N_KNOTS = 64

    def scores(self, sp, dist, r_s, n):
        """(k, exact, oracle report) at five k from 0 to the knot count."""
        base, _ = optimize_policy_packet(r_s, sp, dist, self.N_KNOTS)
        clear_r = np.maximum(np.log2(1.0 + sp.p * base.knots_h), r_s)
        score = _pilot_family(base, clear_r, r_s, sp, dist)
        for k in sorted({round(f * base.knots_h.size) for f in (0.0, 0.25, 0.5, 0.75, 1.0)}):
            policy = _flip(base, clear_r, k)
            rule = best_response_pilot(policy, r_s, sp, dist)
            yield k, score(k)[0], evaluate_constraint(CsiRegime.PILOT_FEEDBACK, policy, r_s, sp,
                                                      dist, rule, MonteCarlo(seed=7, n=n))

    @pytest.mark.parametrize("dist, r_s", [
        (ChannelTriple(E(10.0), E(1.0), D(1.0)), 0.8),
        (ChannelTriple(E(10.0), E(1.0), E(1.0)), 0.8),
        (ChannelTriple(D(3.0), E(1.0), E(1.0)), 0.2),
        (ChannelTriple(E(10.0), D(0.5), E(1.0)), 0.8),
    ], ids=["hz-point-mass", "hz-exp", "hm-point-mass", "he-point-mass"])
    def test_within_three_sigma(self, dist, r_s):
        values = []
        for k, exact, rep in self.scores(SystemParams(1.0, 1.0), dist, r_s, 10**6):
            assert abs(exact - rep.c_min) <= 3 * rep.std_err, k
            values.append(exact)
        assert len(set(values)) > 1  # the candidates differ

    @pytest.mark.parametrize("gains", [(3.0, 0.5, 1.0), (3.0, 2.0, 1.0), (1.0, 0.0, 0.5)])
    def test_point_mass_triple_is_exact(self, gains):
        # one realization: the exact score is the oracle's, bit for bit
        for k, exact, rep in self.scores(SystemParams(1.0, 1.0), det_triple(*gains), 0.2, 1):
            assert (exact, rep.std_err) == (rep.c_min, 0.0), k

    @pytest.mark.parametrize("h_z", [D(1.0), E(1.0)])
    def test_decision_table_is_the_rule_at_grid_points(self, h_z):
        # the table the final scoring reuses is best_response_pilot's rule, bit for bit
        sp, dist, r_s = SystemParams(1.0, 1.0), ChannelTriple(E(10.0), E(1.0), h_z), 0.8
        base, _ = optimize_policy_packet(r_s, sp, dist, self.N_KNOTS)
        clear_r = np.maximum(np.log2(1.0 + sp.p * base.knots_h), r_s)
        score = _pilot_family(base, clear_r, r_s, sp, dist)
        tables = []
        for k in range(base.knots_h.size + 1):
            rule = best_response_pilot(_flip(base, clear_r, k), r_s, sp, dist)
            _, jam = score(k)
            assert np.array_equal(jam, decision_table(rule, dist)), k
            tables.append(jam.tobytes())
        assert len(set(tables)) > 1  # the candidates' rules differ


class TestSolve:
    def test_alpha_validation(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(AlphaOutOfRange):
                solve(CsiRegime.NO_CSI, sp, dist, bad)

    def test_rate_tol_validation(self, paper_delay_setup):
        # the bisection runs while its bracket exceeds rate_tol: forever at
        # 0 or below, not at all at nan
        sp, dist = paper_delay_setup
        for bad in (math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="rate_tol"):
                solve(CsiRegime.NO_CSI, sp, dist, 0.5, SearchConfig(rate_tol=bad))

    @pytest.mark.parametrize("regime", [CsiRegime.NO_CSI, CsiRegime.PACKET_FEEDBACK])
    def test_rate_tol_below_float_spacing(self, regime, paper_delay_setup):
        # once lo and hi are adjacent doubles their midpoint is one of them, so
        # a bracket wider than rate_tol never shrank and the search never ended
        def timeout(signum, frame):
            raise TimeoutError("solve did not return")

        sp, dist = paper_delay_setup
        ref = solve(regime, sp, dist, 0.5, SearchConfig(rate_tol=1e-12))
        old = signal.signal(signal.SIGALRM, timeout)
        try:
            for tol in (1e-17, 1e-300):
                signal.alarm(60)
                sol = solve(regime, sp, dist, 0.5, SearchConfig(rate_tol=tol))
                signal.alarm(0)
                assert sol.report.feasible is True
                assert sol.r_s_star == pytest.approx(ref.r_s_star, abs=1e-9)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("h_z", [D(1.0), E(1.0)])
    def test_nocsi_code_rate_past_64_bits(self, h_z):
        # log2(1 + p h) passes 64 bits near p = 1e19; the code-rate search
        # stopped at r_s + 64 bits, so at p = 1e30 it found no feasible rate
        cfg = SearchConfig(rate_tol=1e-3)
        r_s = [solve(CsiRegime.NO_CSI, SystemParams(p, 1.0), ChannelTriple(E(10.0), E(1.0), h_z),
                     0.5, cfg).r_s_star for p in (1e15, 1e30)]
        assert r_s[0] > 0.0
        assert r_s[1] == pytest.approx(r_s[0], abs=2 * cfg.rate_tol)

    @pytest.mark.parametrize("field, bad", [
        ("rate_tol", math.inf), ("n_knots", 2.5), ("n_knots", 0), ("seed", -1), ("seed", 1.5),
        ("mc_n", 0), ("mc_n", 1e6),
    ])
    def test_search_config_validation(self, field, bad):
        # seed -1 and mc_n 0 failed inside numpy
        with pytest.raises(InvalidInput, match=field):
            SearchConfig(**{field: bad})

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_jamming_gain_no_overflow(self):
        # the pilot jam threshold's SNR times 1 + p_j h_z = 1e300 used to overflow.
        # A rate the jammed link carries (1e-150 bits) is eavesdropped at 1 bit,
        # so even r_s = 0 fails
        sp = SystemParams(1.0, 1e150)
        sol = solve(CsiRegime.PILOT_FEEDBACK, sp, det_triple(1e150, 1.0, 1e150), 0.5,
                    SearchConfig(rate_tol=0.25, n_knots=8))
        assert sol.r_s_star == 0.0 and sol.report.feasible is False

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_jamming_product_past_double_range(self):
        # p_j h_z = 1e400 overflows to inf.  A zero rate still needs no main
        # gain (its threshold was 0 * inf = nan), so 1e200 acts as 1e150 does
        def outcome(huge):
            sp, dist = SystemParams(1.0, huge), det_triple(1.0, 0.0, huge)
            closed = [c_min_closed_form(regime, RatePolicy.constant(0.0), 0.0, sp, dist)
                      for regime in (CsiRegime.NO_CSI, CsiRegime.PACKET_FEEDBACK)]
            sols = [solve(regime, sp, dist, 0.5, SearchConfig(rate_tol=0.25, n_knots=8))
                    for regime in CsiRegime]
            return closed, [(s.r_s_star, s.report.c_min, s.report.std_err, s.report.feasible)
                            for s in sols]

        assert outcome(1e200) == outcome(1e150)
        assert outcome(1e150)[0] == [1.0, 1.0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("h_m", [E(1e200), D(1e200)])
    @pytest.mark.parametrize("h_z", [D(1.0), E(1.0)])
    def test_capacity_overflow_names_its_inputs(self, h_m, h_z):
        # p * h_m = 1e400 has no finite capacity; it used to fail on knots_r
        with pytest.raises(InvalidInput, match="p and H_m"):
            solve(CsiRegime.PACKET_FEEDBACK, SystemParams(1e200, 1.0),
                  ChannelTriple(h_m, E(1.0), h_z), 0.5, SearchConfig(n_knots=8))

    def test_deterministic_channels_exact_rate(self):
        # h_m=3, h_e=0, h_z=1: every block succeeds iff the rate fits the
        # jammed capacity log2(2.5); maximal secrecy rate equals it
        sp = SystemParams(1.0, 1.0)
        dist = det_triple(3.0, 0.0, 1.0)
        sol = solve(CsiRegime.PACKET_FEEDBACK, sp, dist, alpha=1.0)
        assert sol.r_s_star == pytest.approx(math.log2(2.5), abs=2e-4)
        assert sol.report.feasible is True

    def test_infeasible_alpha(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        sol = solve(CsiRegime.NO_CSI, sp, dist, alpha=0.95)
        assert sol.r_s_star == 0.0
        assert sol.report.feasible is False
        assert sol.report.c_min < 0.95

    def test_nonincreasing_in_alpha(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        rates = [solve(CsiRegime.NO_CSI, sp, dist, a).r_s_star
                 for a in (0.2, 0.4, 0.6)]
        assert rates[0] >= rates[1] >= rates[2]
        assert rates[0] > 0.0

    def test_increasing_history_is_not_monotone(self):
        with pytest.raises(NonMonotone):
            _assert_monotone([(0.0, 0.6, 0.0), (0.5, 0.7, 0.0), (1.0, 0.4, 0.0)])
        _assert_monotone([(0.0, 0.7, 0.0), (0.5, 0.6, 0.0), (1.0, 0.6, 0.0)])

    def test_solution_is_feasible_and_tight(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        alpha = 0.5
        sol = solve(CsiRegime.PACKET_FEEDBACK, sp, dist, alpha)
        assert sol.report.c_min >= alpha
        # a rate bump beyond the search tolerance must break feasibility
        _, c_above = optimize_policy_packet(sol.r_s_star + 5e-4, sp, dist)
        assert c_above < alpha


def regime_evaluator(regime, sp, dist, n_knots):
    """C(r_s) as solve evaluates it for a closed-form regime, at the regime's optimal policy."""
    if regime is CsiRegime.NO_CSI:
        return lambda r: _best_constant_nocsi(r, sp, dist)[1]
    return lambda r: optimize_policy_packet(r, sp, dist, n_knots)[1]


@pytest.fixture
def evaluations(monkeypatch):
    """The number of constraint evaluations solve has made so far, per regime."""
    count = {CsiRegime.NO_CSI: 0, CsiRegime.PACKET_FEEDBACK: 0}
    for regime, name in ((CsiRegime.NO_CSI, "_best_constant_nocsi"),
                         (CsiRegime.PACKET_FEEDBACK, "optimize_policy_packet")):
        def counted(*args, _regime=regime, _f=getattr(delay_limited, name)):
            count[_regime] += 1
            return _f(*args)
        monkeypatch.setattr(delay_limited, name, counted)
    return count


CLOSED_REGIMES = [CsiRegime.NO_CSI, CsiRegime.PACKET_FEEDBACK]


class TestExactRoot:
    """No-CSI and packet C(r_s) are exact, so solve returns sup{r_s : C(r_s) >= alpha}
    to 1e-12 relative, not a bisection point up to rate_tol below it."""

    @pytest.mark.parametrize("regime", CLOSED_REGIMES)
    @pytest.mark.parametrize("h_z", [D(1.0), E(1.0)])
    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    def test_matches_an_independent_root(self, regime, h_z, alpha):
        sp, dist = SystemParams(1.0, 1.0), ChannelTriple(E(10.0), E(1.0), h_z)
        cfg = SearchConfig(n_knots=64)
        sol = solve(regime, sp, dist, alpha, cfg)
        c = regime_evaluator(regime, sp, dist, cfg.n_knots)
        root = brentq(lambda r: c(r) - alpha, 0.0, 8.0, xtol=1e-12)
        assert sol.report.feasible is True
        assert sol.r_s_star == pytest.approx(root, abs=1e-10)

    @pytest.mark.parametrize("regime", CLOSED_REGIMES)
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    def test_step_shaped_constraint(self, regime, alpha, evaluations):
        # with every link a point mass C is a step function, whose flat pieces leave a
        # regula falsi step next to the end it keeps: the search must still end quickly
        sol = solve(regime, SystemParams(1.0, 1.0), det_triple(10.0, 1.0, 1.0), alpha)
        assert sol.report.feasible is True
        assert evaluations[regime] <= 50
        if regime is CsiRegime.PACKET_FEEDBACK:
            # the jump: a rate of log2(1 + 10/2) leaves log2(6) - log2(2) for secrecy
            assert sol.r_s_star == pytest.approx(math.log2(3.0), abs=1e-12)

    @pytest.mark.parametrize("regime, n_knots", [(CsiRegime.NO_CSI, 256),
                                                 (CsiRegime.PACKET_FEEDBACK, 64)])
    def test_fading_jammer_evaluation_count(self, regime, n_knots, paper_ergodic_setup,
                                            evaluations):
        # a bisection to rate_tol 1e-3 takes 12 evaluations per solve here
        sp, dist = paper_ergodic_setup
        sol = solve(regime, sp, dist, 0.5, SearchConfig(rate_tol=1e-3, n_knots=n_knots))
        assert sol.report.feasible is True
        assert evaluations[regime] <= 9
