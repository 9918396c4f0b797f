"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL
line; the whole module is the go/no-go check for the package.
"""

import json
import math
import time

import numpy as np
import pytest
import yaml

from secrates import (
    ChannelTriple,
    GainDistribution,
    MonteCarlo,
    RatePolicy,
    SystemParams,
    sample,
)
from secrates.adversary import CsiRegime, best_response, best_response_pilot
from secrates.cli import EXIT_OK, main
from secrates.delay_limited import (
    SearchConfig,
    c_min_closed_form,
    evaluate_constraint,
    evaluate_constraint_full_duplex,
    optimize_policy_pilot,
    solve,
)
from secrates.ergodic import (
    ErgodicConfig,
    RegionConfig,
    dominance_region,
    rate_arq,
    rate_nocsi,
    rate_upper_bound,
)

SP = SystemParams(1.0, 1.0)
DELAY_DIST = ChannelTriple(
    GainDistribution.exponential(10.0),
    GainDistribution.exponential(1.0),
    GainDistribution.deterministic(1.0),
)
ERGODIC_DIST = ChannelTriple(
    GainDistribution.exponential(10.0),
    GainDistribution.exponential(1.0),
    GainDistribution.exponential(1.0),
)


def report(num: int, name: str, ok: bool) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def random_policy(rng, r_s):
    knots_h = np.sort(rng.exponential(5.0, size=3))
    return RatePolicy.tabulated(knots_h, r_s + rng.exponential(0.8, size=3))


def test_criterion_1_regime_ordering_and_monotonicity():
    t0 = time.monotonic()
    cfg = SearchConfig(mc_n=10**6)
    alphas = [round(0.1 * k, 1) for k in range(1, 10)]
    rows = {}
    for regime in (CsiRegime.NO_CSI, CsiRegime.PACKET_FEEDBACK, CsiRegime.PILOT_FEEDBACK):
        rows[regime] = [solve(regime, SP, DELAY_DIST, a, cfg) for a in alphas]
    elapsed = time.monotonic() - t0

    ok = True
    for i, alpha in enumerate(alphas):
        nocsi = rows[CsiRegime.NO_CSI][i]
        packet = rows[CsiRegime.PACKET_FEEDBACK][i]
        pilot = rows[CsiRegime.PILOT_FEEDBACK][i]
        ok &= nocsi.r_s_star <= packet.r_s_star + 2 * cfg.rate_tol
        if pilot.r_s_star < packet.r_s_star - 2 * cfg.rate_tol:
            # compare in constraint space: the pilot value at the packet
            # solution must stay feasible within Monte Carlo noise
            _, c, se = optimize_policy_pilot(packet.r_s_star, SP, DELAY_DIST, cfg)
            ok &= c >= alpha - 3 * se
    for regime, slack in ((CsiRegime.NO_CSI, 2e-4), (CsiRegime.PACKET_FEEDBACK, 2e-4),
                          (CsiRegime.PILOT_FEEDBACK, 1e-2)):
        r = [s.r_s_star for s in rows[regime]]
        ok &= all(a >= b - slack for a, b in zip(r[:-1], r[1:]))
    ok &= elapsed < 600.0
    report(1, f"regime ordering over alpha (elapsed {elapsed:.0f}s)", ok)


def test_criterion_2_monte_carlo_matches_closed_form():
    ok = True
    seed = 0
    for rate in np.linspace(0.5, 2.5, 5):
        for frac in np.linspace(0.1, 0.9, 5):
            r_s = float(frac * rate)
            policy = RatePolicy.constant(float(rate))
            for regime in (CsiRegime.NO_CSI, CsiRegime.PACKET_FEEDBACK):
                rule = best_response(regime, policy, r_s, SP, DELAY_DIST)
                rep = evaluate_constraint(regime, policy, r_s, SP, DELAY_DIST,
                                          rule, MonteCarlo(seed, 10**6))
                seed += 1
                closed = c_min_closed_form(regime, policy, r_s, SP, DELAY_DIST)
                ok &= abs(rep.c_min - closed) < 3 * rep.std_err + 1e-9
    hand = c_min_closed_form(CsiRegime.NO_CSI, RatePolicy.constant(1.0), 0.5, SP, DELAY_DIST)
    ok &= round(hand, 4) == round(0.27766451019320415, 4)
    report(2, "constraint Monte Carlo vs closed form on 5x5 grid", ok)


def test_criterion_3_simultaneous_conditions_identity():
    rng = np.random.default_rng(301)
    ok = True
    for i in range(10):
        r_s = float(rng.uniform(0.0, 1.2))
        policy = random_policy(rng, r_s)
        rep = evaluate_constraint_full_duplex(policy, r_s, SP, DELAY_DIST,
                                              MonteCarlo(500 + i, 400_000))
        closed = c_min_closed_form(CsiRegime.PACKET_FEEDBACK, policy, r_s, SP, DELAY_DIST)
        ok &= abs(rep.c_min - closed) < 3 * rep.std_err + 1e-9
    report(3, "simultaneous-conditions bound equals packet closed form", ok)


def test_criterion_4_pilot_dominates_packet_value():
    rng = np.random.default_rng(401)
    ok = True
    for i in range(10):
        r_s = float(rng.uniform(0.0, 1.2))
        policy = random_policy(rng, r_s)
        rule = best_response_pilot(policy, r_s, SP, DELAY_DIST)
        rep = evaluate_constraint(CsiRegime.PILOT_FEEDBACK, policy, r_s, SP,
                                  DELAY_DIST, rule, MonteCarlo(600 + i, 400_000))
        closed = c_min_closed_form(CsiRegime.PACKET_FEEDBACK, policy, r_s, SP, DELAY_DIST)
        ok &= rep.c_min >= closed - 3 * rep.std_err
    report(4, "pilot constraint lower-bounded by packet closed form", ok)


def test_criterion_5_ergodic_rates_vs_independent_oracle():
    n = 10**7
    hz_star = ERGODIC_DIST.h_z.ppf(0.75)
    cfg = ErgodicConfig(SP, ERGODIC_DIST, hz_star)

    rng = np.random.default_rng(505)  # PCG64: independent of the Philox path
    h_m = rng.exponential(10.0, n)
    h_e = rng.exponential(1.0, n)
    h_z = rng.exponential(1.0, n)
    diff = np.log2(1 + h_m / (1 + h_z)) - np.log2(1 + h_e)
    diff_pin = np.log2(1 + h_m / (1 + hz_star)) - np.log2(1 + h_e)
    p_ok = 1 - math.exp(-hz_star)
    oracle = {
        "nocsi": (max(diff.mean(), 0.0), diff.std(ddof=1) / math.sqrt(n)),
        "upper": (np.maximum(diff, 0).mean() * p_ok,
                  np.maximum(diff, 0).std(ddof=1) / math.sqrt(n) * p_ok),
        "arq": (np.maximum(diff_pin, 0).mean() * p_ok**2,
                np.maximum(diff_pin, 0).std(ddof=1) / math.sqrt(n) * p_ok**2),
    }
    del h_m, h_e, h_z, diff, diff_pin

    ok = True
    for fn, key in ((rate_nocsi, "nocsi"), (rate_upper_bound, "upper"),
                    (rate_arq, "arq")):
        val, err = fn(cfg)
        ref, ref_err = oracle[key]
        ok &= abs(val - ref) < 3 * math.hypot(err, ref_err) + 1e-6

    spot_cfg = ErgodicConfig(
        SP,
        ChannelTriple(GainDistribution.deterministic(3.0),
                      GainDistribution.deterministic(1.0),
                      GainDistribution.deterministic(1.0)),
        hz_star=2.0,
    )
    spot, _ = rate_nocsi(spot_cfg)
    ok &= abs(spot - 0.321928) < 1e-6
    report(5, "ergodic rates vs independent oracle at n=1e7", ok)


def test_criterion_6_arq_never_exceeds_upper_bound():
    rng = np.random.default_rng(606)
    ok = True
    for i in range(50):
        sp = SystemParams(float(rng.uniform(0.1, 10)), float(rng.uniform(0.1, 10)))
        dist = ChannelTriple(*[
            GainDistribution.exponential(float(rng.uniform(0.1, 20.0)))
            for _ in range(3)
        ])
        q = float(rng.choice([0.5, 0.75, 0.9]))
        cfg = ErgodicConfig(sp, dist, dist.h_z.ppf(q))
        ru, eu = rate_upper_bound(cfg)
        ra, ea = rate_arq(cfg)
        ok &= ra <= ru + 3 * math.hypot(eu, ea)
    report(6, "retransmission rate below block-by-block bound (50 draws)", ok)


def test_criterion_7_dominance_region_shape():
    t0 = time.monotonic()
    cfg = RegionConfig(SP, GainDistribution.exponential(1.0), GainDistribution.exponential(1.0).ppf(0.75))
    he = np.geomspace(0.1, 2.0, 20)
    hm = np.geomspace(0.5, 200.0, 20)
    res = dominance_region(he, hm, cfg)
    elapsed = time.monotonic() - t0

    gap = res.r_nocsi - res.r_upper
    noise = 3 * np.hypot(res.err_nocsi, res.err_upper)
    confident = np.abs(gap) > noise

    # encoding across blocks must win wherever the main link dominates
    ratio = hm[None, :] / he[:, None]
    strong = (ratio >= 100.0) & confident
    ok = bool(strong.any()) and bool(np.all(gap[strong] > 0))

    # connected boundary: along each column of increasing E[H_m] the
    # confident sign pattern changes at most once
    for i in range(he.size):
        signs = np.sign(gap[i][confident[i]])
        flips = int(np.count_nonzero(np.diff(signs)))
        ok &= flips <= 1
    ok &= any(b.status == "ok" for b in res.boundary)
    ok &= elapsed < 900.0
    report(7, f"dominance region 20x20 grid (elapsed {elapsed:.0f}s)", ok)


def test_criterion_8_reproducibility(tmp_path):
    config = {
        "scenario": "ergodic-region",
        "samples": 20_000,
        "seed": 808,
        "grid": {
            "he": {"start": 0.5, "stop": 2.0, "num": 2},
            "hm": {"start": 1.0, "stop": 20.0, "num": 3},
        },
        "channels": {
            "h_m": {"kind": "exponential", "mean": 10.0},
            "h_e": {"kind": "exponential", "mean": 1.0},
            "h_z": {"kind": "exponential", "mean": 1.0},
        },
    }
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")

    out1 = tmp_path / "run1"
    code1 = main(["--config", str(cfg_path), "--out-dir", str(out1)])

    out2 = tmp_path / "run2"
    code2 = main(["--rerun", str(out1 / "manifest.json"), "--out-dir", str(out2)])

    ok = code1 == EXIT_OK and code2 == EXIT_OK
    for name in ("ergodic_grid.csv", "ergodic_boundary.csv"):
        ok &= (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    ok &= manifest["config"]["seed"] == 808
    report(8, "manifest rerun byte-identical", ok)


def test_criterion_9_property_suites():
    ok = True

    # distribution check: KS distance of sampled gains below 0.002
    d = GainDistribution.exponential(10.0)
    x = np.sort(sample(ChannelTriple(d, d, d), seed=909, n=10**6).h_m)
    n = x.size
    cdf = d.cdf(x)
    ks = max(np.max(np.abs(np.arange(1, n + 1) / n - cdf)),
             np.max(np.abs(np.arange(n) / n - cdf)))
    ok &= ks <= 0.002

    # measurability: rules never react to gains outside their observables
    policy = RatePolicy.constant(1.2)
    rng = np.random.default_rng(910)
    probes = rng.exponential(1.0, size=(100, 3))
    for regime in CsiRegime:
        rule = best_response(regime, policy, 0.3, SP, DELAY_DIST)
        base = rule.decide(probes[:, 0], probes[:, 1], probes[:, 2])
        for col, name in enumerate(("h_m", "h_e", "h_z")):
            if name in regime.adversary_observables:
                continue
            pert = probes.copy()
            pert[:, col] = rng.exponential(5.0, size=100)
            ok &= bool(np.array_equal(base, rule.decide(pert[:, 0], pert[:, 1], pert[:, 2])))

    # pointwise optimality: best response beats 20 random rules
    from test_adversary import _random_rule
    mc = MonteCarlo(seed=911, n=100_000)
    rule = best_response(CsiRegime.PACKET_FEEDBACK, policy, 0.3, SP, DELAY_DIST)
    c_best = evaluate_constraint(CsiRegime.PACKET_FEEDBACK, policy, 0.3, SP,
                                 DELAY_DIST, rule, mc)
    for _ in range(20):
        alt = _random_rule(CsiRegime.PACKET_FEEDBACK, rng)
        c_alt = evaluate_constraint(CsiRegime.PACKET_FEEDBACK, policy, 0.3, SP,
                                    DELAY_DIST, alt, mc)
        ok &= c_best.c_min <= c_alt.c_min + 3 * math.hypot(c_best.std_err, c_alt.std_err)

    # monotonicity ladder: ergodic rate grows with the main-link mean
    vals = []
    for m in (2.0, 5.0, 10.0, 20.0):
        dist = ChannelTriple(GainDistribution.exponential(m),
                             GainDistribution.exponential(1.0),
                             GainDistribution.exponential(1.0))
        cfg = ErgodicConfig(SP, dist, hz_star=1.0)
        vals.append(rate_nocsi(cfg)[0])
    ok &= vals == sorted(vals)

    report(9, "property suites (KS, measurability, optimality, monotonicity)", ok)
