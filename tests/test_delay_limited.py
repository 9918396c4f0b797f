import math

import numpy as np
import pytest
from scipy import integrate

from secrates import ChannelTriple, GainDistribution, MonteCarlo, RatePolicy, SystemParams
from secrates import channels, delay_limited
from secrates.adversary import CsiRegime, JammingRule, best_response, best_response_pilot
from secrates.delay_limited import (
    SearchConfig,
    _assert_monotone,
    _best_constant_nocsi,
    _cell_jam_mass,
    _pilot_batch,
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
            MonteCarlo(2, 100_000), alpha=0.2,
        )
        assert rep.feasible is True
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


def quad_jam_mass(lo, hi, r, sp, dist):
    """Reference for the cell jam mass: the defining event integrated over
    H_z by adaptive quadrature, split where the jam threshold
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
        return mass(dist.h_z.param)
    mu_z = dist.h_z.param
    cuts = [0.0, math.inf]
    if c > 0 and sp.p_j > 0:
        edges = (lo, hi, dist.h_m.param) if dist.h_m.is_degenerate else (lo, hi)
        cuts += [(x / c - 1.0) / sp.p_j for x in edges if 0 < (x / c - 1.0) / sp.p_j < math.inf]
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


class TestCellJamMassOracle:
    @pytest.mark.parametrize("h_m", sorted(MAIN_LAWS))
    @pytest.mark.parametrize("h_z", sorted(JAM_LAWS))
    @pytest.mark.parametrize("p, p_j", [(1.0, 1.0), (1.0, 0.0), (2.0, 0.5)])
    def test_matches_quadrature(self, h_m, h_z, p, p_j):
        sp = SystemParams(p, p_j)
        dist = ChannelTriple(MAIN_LAWS[h_m], GainDistribution.exponential(1.0), JAM_LAWS[h_z])
        for lo, hi, r in JAM_CELLS:
            ref = quad_jam_mass(lo, hi, r, sp, dist)
            assert float(_cell_jam_mass(lo, hi, r, sp, dist)) == pytest.approx(ref, abs=1e-9)
        lo, hi, r = map(np.array, zip(*JAM_CELLS))
        cells = _cell_jam_mass(lo, hi, r, sp, dist)
        refs = [quad_jam_mass(*cell, sp, dist) for cell in JAM_CELLS]
        np.testing.assert_allclose(cells, refs, rtol=0, atol=1e-9)

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


class TestPacketPolicy:
    def test_degenerate_zero_main_gain(self, paper_delay_setup):
        sp, _ = paper_delay_setup
        dist = det_triple(0.0, 0.0, 1.0)
        policy, c = optimize_policy_packet(0.7, sp, dist)
        assert policy.is_constant and policy.rate == 0.7
        assert c == 0.0  # zero main gain cannot carry a positive rate

    def test_beats_best_constant(self, paper_delay_setup):
        sp, dist = paper_delay_setup
        for r_s in (0.0, 0.5, 1.0):
            _, c_const = _best_constant_nocsi(r_s, sp, dist, r_cap=64.0)
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
        (0.1, (3.1943359375, 0.1002, 0.0021232046533483295)),
        (0.5, (1.3505859375, 0.50015, 0.003535533746833708)),
    ])
    def test_frozen_solve(self, alpha, frozen, paper_delay_setup):
        # recorded before the pilot batches were cached; reuse changes no bit
        sp, dist = paper_delay_setup
        sol = solve(CsiRegime.PILOT_FEEDBACK, sp, dist, alpha,
                    SearchConfig(mc_n=20_000, rate_tol=1e-3))
        assert (sol.r_s_star, sol.report.c_min, sol.report.std_err) == frozen

    @pytest.mark.parametrize("dist, n_draws", [
        (ChannelTriple(E(10.0), E(1.0), D(1.0)), 2),
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


class TestPilotBatchMatchesOracle:
    """The cached pilot scorer against evaluate_constraint + best_response_pilot."""

    SEED, N, N_KNOTS = 5, 20_000, 64

    def fast(self, policy, r_s, sp, dist):
        return _pilot_batch(sp, dist, self.SEED, self.N, self.N_KNOTS)(policy, r_s)

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

    @pytest.mark.parametrize("field, bad", [
        ("r_cap", math.nan), ("r_cap", -1.0), ("r_cap", math.inf), ("rate_tol", math.inf),
        ("n_knots", 2.5), ("n_knots", 0), ("seed", -1), ("seed", 1.5), ("mc_n", 0),
        ("mc_n", 1e6),
    ])
    def test_search_config_validation(self, field, bad):
        # r_cap nan or -1 used to report r_s* = 0 as feasible; seed -1 and
        # mc_n 0 failed inside numpy
        with pytest.raises(InvalidInput, match=field):
            SearchConfig(**{field: bad})

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
