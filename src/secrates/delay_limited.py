"""Outage-constrained maximin secrecy-rate solver for the delay-limited case.

The long-run fraction of blocks that survive both connection and secrecy
outage, evaluated at the adversary's best response, must stay above a
threshold ``alpha``.  The transmitter maximizes the secrecy rate subject
to that constraint; the constraint value shrinks as the secrecy rate
grows (holding the optimized policy class fixed), so the outer search is
a bisection.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from . import adversary as adv
from .adversary import CsiRegime, JammingRule
from .channels import ChannelTriple, GainDistribution, MonteCarlo, SampleBatch, sample, substream
from .errors import (AlphaOutOfRange, InvalidRates, NonMonotone, PolicyRegimeMismatch,
                     UnsupportedRegime, require)
from .phy_rates import (SystemParams, rate_eve, rate_main_clear, rate_main_jammed,
                        success_given_capacities, success_indicator)
from .policies import RatePolicy, cell_index

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class FeasibilityReport:
    """Constraint value with its Monte Carlo error bar."""

    c_min: float
    std_err: float
    feasible: bool | None
    regime: CsiRegime


@dataclass(frozen=True)
class SecrecySolution:
    r_s_star: float
    policy: RatePolicy
    report: FeasibilityReport


@dataclass(frozen=True)
class SearchConfig:
    rate_tol: float = 1e-4
    mc_n: int = 1_000_000
    seed: int = 20240
    n_knots: int = 256
    r_cap: float = 64.0

    def __post_init__(self):
        require(0 < self.rate_tol < np.inf, "rate_tol", "finite and > 0")
        require(0 < self.r_cap < np.inf, "r_cap", "finite and > 0")
        for arg, least in (("mc_n", 1), ("seed", 0), ("n_knots", 1)):
            value = getattr(self, arg)
            require(isinstance(value, numbers.Integral) and value >= least, arg,
                    f"an integer >= {least}")


def _check_regime(regime: CsiRegime, policy: RatePolicy, rule: JammingRule | None = None):
    if rule is not None and rule.regime is not regime:
        raise PolicyRegimeMismatch(f"rule built for {rule.regime}, evaluated as {regime}")
    if regime is CsiRegime.NO_CSI and not policy.is_constant:
        raise PolicyRegimeMismatch("no-CSI transmission uses a constant rate")


def evaluate_constraint(
    regime: CsiRegime,
    policy: RatePolicy,
    r_s: float,
    sp: SystemParams,
    dist: ChannelTriple,
    rule: JammingRule,
    method: MonteCarlo | None = None,
    alpha: float | None = None,
) -> FeasibilityReport:
    """Estimate the success-fraction constraint under a given jamming rule.

    Fully deterministic channel triples are evaluated exactly (a single
    realization, no sampling); otherwise the estimate is a seeded Monte
    Carlo average with a binomial standard error.
    """
    _check_regime(regime, policy, rule)
    if dist.is_degenerate:
        h_m, h_e, h_z = (d.param for d in dist.components())
        jam = rule.decide(h_m, h_e, h_z)
        ok = success_indicator(sp, h_m, h_e, h_z, policy.rate_at(h_m), r_s, jam)
        c, se = float(ok), 0.0
    else:
        method = method or MonteCarlo(seed=0)
        batch = sample(dist, method.seed, method.n)
        jam = rule.decide(batch.h_m, batch.h_e, batch.h_z)
        ok = success_indicator(
            sp, batch.h_m, batch.h_e, batch.h_z, policy.rate_at(batch.h_m), r_s, jam
        )
        c = float(np.mean(ok))
        se = float(np.sqrt(max(c * (1.0 - c), 0.0) / method.n))
    feasible = None if alpha is None else c >= alpha
    return FeasibilityReport(c_min=c, std_err=se, feasible=feasible, regime=regime)


def evaluate_constraint_full_duplex(
    policy: RatePolicy,
    r_s: float,
    sp: SystemParams,
    dist: ChannelTriple,
    method: MonteCarlo | None = None,
) -> FeasibilityReport:
    """Success fraction when jamming and eavesdropping bind simultaneously.

    This is the bounding device behind the pilot-vs-packet comparison: a
    block succeeds only if the jammed main capacity carries the code rate
    *and* the eavesdropper stays below the rate margin.  The result must
    coincide with the packet-feedback closed form.
    """
    method = method or MonteCarlo(seed=0)
    batch = sample(dist, method.seed, method.n)
    r = policy.rate_at(batch.h_m)
    ok = (rate_main_jammed(sp, batch.h_m, batch.h_z) >= r) & (
        np.log2(1.0 + sp.p * batch.h_e) <= r - r_s
    )
    c = float(np.mean(ok))
    se = float(np.sqrt(max(c * (1.0 - c), 0.0) / method.n))
    return FeasibilityReport(c_min=c, std_err=se, feasible=None,
                             regime=CsiRegime.PACKET_FEEDBACK)


def _check_secrecy_rate(r_s: float) -> None:
    if not (np.isfinite(r_s) and r_s >= 0):
        raise InvalidRates(f"secrecy rate must be finite and nonnegative, got {r_s!r}")


def _secrecy_factor(r, r_s: float, sp: SystemParams, dist_e: GainDistribution):
    """P[log2(1 + p*H_e) <= r - r_s]; vectorized over r."""
    if sp.p == 0:
        return np.where(r >= r_s, 1.0, 0.0)
    with np.errstate(over="ignore"):  # a margin past 1024 bits admits every h_e
        return dist_e.cdf((2.0 ** (r - r_s) - 1.0) / sp.p)


def _cell_jam_mass(lo, hi, r, sp: SystemParams, dist: ChannelTriple):
    """P[H_m in [lo, hi) and jammed main capacity >= r], joint over H_z.

    Closed form, broadcast over cells.  A jammed block survives iff
    H_m >= c*(1 + p_j*H_z), c = (2^r - 1)/p.  For a fading jamming link the
    H_z axis splits where that threshold crosses lo (z_lo) and hi (z_hi):
    below z_lo the whole cell survives, above z_hi none of it, and between
    them an exponential H_m tail integrates against the H_z density.
    """
    if dist.h_z.is_degenerate or sp.p_j == 0 or sp.p == 0:
        return adv._prob_interval_geq(dist.h_m, lo, hi, adv._jam_threshold(r, sp, dist.h_z.param))
    lo, hi, c = np.broadcast_arrays(lo, hi, adv._jam_threshold(r, sp))
    if not (c < np.inf).all():  # no finite h_m carries these rates: no mass
        dead = c == np.inf
        return np.where(dead, 0.0, _cell_jam_mass(lo, hi, np.where(dead, 0.0, r), sp, dist))
    crossing = lambda x: np.maximum(  # a zero threshold never crosses
        (np.divide(x, c, out=np.full(c.shape, np.inf), where=c > 0) - 1.0) / sp.p_j, 0.0)
    if dist.h_m.is_degenerate:
        return adv._prob_interval_geq(dist.h_m, lo, hi, 0.0) * dist.h_z.cdf(crossing(dist.h_m.param))
    z_lo, z_hi = crossing(lo), crossing(hi)
    mu_m, mu_z = dist.h_m.param, dist.h_z.param
    S_m, F_z = dist.h_m.tail_geq, dist.h_z.cdf
    k = 1.0 / mu_z + c * sp.p_j / mu_m
    mass = ((S_m(lo) - S_m(hi)) * F_z(z_lo)
            + np.exp(-c / mu_m) * (np.exp(-k * z_lo) - np.exp(-k * z_hi)) / (mu_z * k)
            - S_m(hi) * (F_z(z_hi) - F_z(z_lo)))
    return np.maximum(mass, 0.0)


def c_min_closed_form(
    regime: CsiRegime,
    policy: RatePolicy,
    r_s: float,
    sp: SystemParams,
    dist: ChannelTriple,
) -> float:
    """Constraint value at the adversary's best response, in closed form.

    The best-responding adversary reduces the constraint to the single
    probability P[r_s + log2(1+p*H_e) <= R(H_m) <= jammed main capacity].
    With independent gains and a piecewise-constant policy this is a sum
    of per-cell products of marginal probabilities, each elementary for
    exponential or point-mass gains (see :func:`_cell_jam_mass` for a
    fading jamming link).
    """
    if regime is CsiRegime.PILOT_FEEDBACK:
        raise UnsupportedRegime("no closed form for pilot feedback")
    _check_regime(regime, policy)
    _check_secrecy_rate(r_s)
    lo, hi, r = policy.cells()
    cells = _secrecy_factor(r, r_s, sp, dist.h_e) * _cell_jam_mass(lo, hi, r, sp, dist)
    return float(np.clip(np.sum(cells), 0.0, 1.0))


def _golden_max(f, lo, hi, tol: float = 1e-6):
    """Golden-section maximization of unimodal functions on [lo, hi].

    Elementwise: ``f`` maps an array of points to their values, one objective
    per element, and each element stops at its own ``b - a <= tol``, visiting
    the points its scalar search would.
    """
    a, b = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while np.any(live := b - a > tol):
        up = live & (f1 < f2)
        down = live & ~(f1 < f2)
        a, x1, f1 = np.where(up, x1, a), np.where(up, x2, x1), np.where(up, f2, f1)
        b, x2, f2 = np.where(down, x2, b), np.where(down, x1, x2), np.where(down, f1, f2)
        x = np.where(up, a + _GOLDEN * (b - a), b - _GOLDEN * (b - a))
        fx = f(x)
        x2, f2 = np.where(up, x, x2), np.where(up, fx, f2)
        x1, f1 = np.where(down, x, x1), np.where(down, fx, f1)
    return np.where(f1 >= f2, x1, x2)[()], np.maximum(f1, f2)[()]


def _grid_then_golden(f, lo, hi, n_grid: int = 48, tol: float = 1e-6):
    """Coarse-grid scan followed by golden-section refinement, elementwise.

    ``f`` is evaluated on an (n_grid, ...) array of points at once; see
    :func:`_golden_max` for the refinement.
    """
    grid = np.linspace(lo, hi, n_grid)
    vals = f(grid)
    k = np.argmax(vals, axis=0)[None]
    at = lambda arr, i: np.take_along_axis(arr, i, axis=0)[0]
    x_grid, v_grid = at(grid, k), at(vals, k)
    x, v = _golden_max(f, at(grid, np.maximum(k - 1, 0)), at(grid, np.minimum(k + 1, n_grid - 1)), tol)
    keep = v_grid >= v
    return np.where(keep, x_grid, x)[()], np.where(keep, v_grid, v)[()]


def _packet_knots(d: GainDistribution, n_knots: int) -> tuple[np.ndarray, np.ndarray]:
    """Quantile-spaced knots in H_m and their cell midpoints; one point if degenerate."""
    if d.is_degenerate:
        return np.array([d.param]), np.array([d.param])
    return d.ppf(np.arange(n_knots) / n_knots), d.ppf((np.arange(n_knots) + 0.5) / n_knots)


def optimize_policy_packet(
    r_s: float,
    sp: SystemParams,
    dist: ChannelTriple,
    n_knots: int = 256,
) -> tuple[RatePolicy, float]:
    """Per-state rate policy maximizing the packet-feedback constraint.

    The constraint is a separate expectation over the main gain, so the
    optimal rate is found knot by knot: maximize
    ``P[H_e <= (2^(r-r_s)-1)/p] * P[1 + p_j*H_z <= p*h_m/(2^r - 1)]``
    over ``r`` in ``[r_s, log2(1 + p*h_m)]`` at the cell's quantile
    midpoint ``h_m``.  One elementwise grid-then-golden search covers all
    knots at once.  Knots are quantile-spaced in H_m so resolution follows
    probability mass.
    """
    _check_secrecy_rate(r_s)
    require(isinstance(n_knots, numbers.Integral) and n_knots >= 1, "n_knots", "an integer >= 1")
    knots_h, reps = _packet_knots(dist.h_m, n_knots)
    if dist.h_z.is_degenerate or sp.p_j == 0:
        # The jamming factor is a step in r.  Pin the rate to the jammed
        # capacity at the cell's LEFT edge: a higher rate (e.g. at the
        # cell midpoint) would fail every realization below it and
        # forfeit that mass for a vanishing rate gain.
        rates = np.maximum(r_s, rate_main_jammed(sp, knots_h, dist.h_z.param))
    else:
        cap = rate_main_clear(sp, reps)
        live = (reps > 0) & (cap > r_s)

        def g(r):
            with np.errstate(divide="ignore"):  # r = 0 survives any jamming gain
                conn = dist.h_z.cdf((sp.p * reps[live] / (2.0 ** r - 1.0) - 1.0) / sp.p_j)
            return _secrecy_factor(r, r_s, sp, dist.h_e) * conn

        rates = np.full(reps.shape, float(r_s))
        rates[live], _ = _grid_then_golden(g, r_s, cap[live])
    policy = (RatePolicy.constant(rates[0]) if dist.h_m.is_degenerate
              else RatePolicy.tabulated(knots_h, rates))
    return policy, c_min_closed_form(CsiRegime.PACKET_FEEDBACK, policy, r_s, sp, dist)


def optimize_policy_pilot(
    r_s: float,
    sp: SystemParams,
    dist: ChannelTriple,
    cfg: "SearchConfig",
) -> tuple[RatePolicy, float, float]:
    """Rate policy for the pilot regime; returns (policy, c_min, std_err).

    The pilot adversary cannot see h_m, so the transmitter can gamble:
    cells whose rate rides the clear (unjammed) capacity gain secrecy
    margin but are lost whenever the adversary jams.  Starting from the
    packet-optimal policy (whose constraint the pilot value can never
    fall below), the fraction of low-gain cells flipped to the clear
    capacity is tuned by a 1-D search against the re-computed pilot best
    response on common random numbers: the search batch is keyed by
    ``substream(seed, 1)`` and the returned value's by ``substream(seed, 2)``.
    Each batch is drawn and indexed once (:func:`_pilot_batch`) and reused
    across candidates, bisection steps and alphas.
    """
    base, _ = optimize_policy_packet(r_s, sp, dist, cfg.n_knots)
    knots_h, _ = _packet_knots(dist.h_m, cfg.n_knots)  # the knots of base and of the batches
    knots_r = np.array([base.rate]) if base.is_constant else base.knots_r
    clear_lo = np.maximum(np.log2(1.0 + sp.p * knots_h), r_s)
    n = knots_r.size

    def candidate(frac: float) -> RatePolicy:
        r = knots_r.copy()
        k = int(round(frac * n))
        if k:
            r[:k] = clear_lo[:k]
        if n == 1:
            return RatePolicy.constant(float(r[0]))
        return RatePolicy.tabulated(knots_h, r)

    draw = lambda key, size: _pilot_batch(sp, dist, substream(cfg.seed, key), size, cfg.n_knots)
    search = draw(1, max(cfg.mc_n // 5, 10_000))
    c_min = np.vectorize(lambda f: search(candidate(f), r_s)[0], otypes=[float])
    f_star, _ = _grid_then_golden(c_min, 0.0, 1.0, n_grid=11, tol=0.02)
    policy = candidate(f_star)
    return policy, *draw(2, cfg.mc_n)(policy, r_s)


@functools.lru_cache(maxsize=2)  # the search batch and the final batch
def _pilot_batch(sp: SystemParams, dist: ChannelTriple, seed: int, n: int, n_knots: int):
    """Draw one pilot batch and index it once (packet-knot cell of h_m, nearest
    payoff-grid points of h_e and h_z, the three capacities).  Returns
    ``value(policy, r_s)``: the ``(c_min, std_err)`` of :func:`evaluate_constraint`
    under :func:`~secrates.adversary.best_response_pilot` for a policy on those knots
    (constant if H_m is a point mass; a point-mass triple is one realization)."""
    b = (SampleBatch(seed, 1, np.array([[d.param for d in dist.components()]]))
         if dist.is_degenerate else sample(dist, seed, n))
    he_grid, hz_grid = adv._pilot_grids(dist)
    knots_h, _ = _packet_knots(dist.h_m, n_knots)
    compact = lambda i, grid: i.astype(np.min_scalar_type(grid.size - 1))
    cell = compact(cell_index(knots_h, b.h_m), knots_h)
    ie = compact(adv._nearest_index(he_grid, b.h_e), he_grid)
    iz = compact(adv._nearest_index(hz_grid, b.h_z), hz_grid)
    caps = rate_main_jammed(sp, b.h_m, b.h_z), rate_eve(sp, b.h_e), rate_main_clear(sp, b.h_m)
    n = b.n  # the closure keeps the indices and capacities, not the draws

    def value(policy: RatePolicy, r_s: float) -> tuple[float, float]:
        jam_pay, eaves_pay = adv.pilot_payoffs(policy, r_s, sp, dist, he_grid, hz_grid)
        rates = np.atleast_1d(policy.rate) if policy.is_constant else policy.knots_r
        ok = success_given_capacities(*caps, rates[cell], r_s, jam_pay[iz] <= eaves_pay[ie])
        c = float(np.mean(ok))
        return c, float(np.sqrt(max(c * (1.0 - c), 0.0) / n))

    return value


def _best_constant_nocsi(
    r_s: float, sp: SystemParams, dist: ChannelTriple, r_cap: float
) -> tuple[RatePolicy, float]:
    """Maximize the no-CSI closed form over the constant code rate."""

    def g(r):
        # c_min_closed_form of RatePolicy.constant(r), for an array of r
        mass = _cell_jam_mass(0.0, np.inf, r, sp, dist)
        return np.clip(_secrecy_factor(r, r_s, sp, dist.h_e) * mass, 0.0, 1.0)

    # shrink the search window to where a successful jammed block is possible
    hi = r_s + 1.0
    while hi < r_s + r_cap and _cell_jam_mass(0.0, np.inf, hi, sp, dist) > 1e-9:
        hi = r_s + 2.0 * (hi - r_s)
    r_star, c = _grid_then_golden(g, r_s, hi, n_grid=96)
    return RatePolicy.constant(r_star), float(c)


def solve(
    regime: CsiRegime,
    sp: SystemParams,
    dist: ChannelTriple,
    alpha: float,
    cfg: SearchConfig | None = None,
) -> SecrecySolution:
    """Maximal secrecy rate whose best-response constraint stays >= alpha.

    No-CSI and packet feedback use their closed forms; pilot feedback
    evaluates the packet-optimal policy family against the pilot
    best-response adversary by Monte Carlo (a lower bound on the pilot
    optimum, realizing the feasible-set inclusion behind the regime
    ordering).  Common random numbers are reused across bisection points.
    """
    cfg = cfg or SearchConfig()
    if not (0.0 < alpha <= 1.0):
        raise AlphaOutOfRange("alpha must lie in (0, 1]")

    def cmin(r_s: float) -> tuple[float, float, RatePolicy]:
        if regime is CsiRegime.NO_CSI:
            policy, c = _best_constant_nocsi(r_s, sp, dist, cfg.r_cap)
            return c, 0.0, policy
        if regime is CsiRegime.PACKET_FEEDBACK:
            policy, c = optimize_policy_packet(r_s, sp, dist, cfg.n_knots)
            return c, 0.0, policy
        policy, c, se = optimize_policy_pilot(r_s, sp, dist, cfg)
        return c, se, policy

    history: list[tuple[float, float, float]] = []

    def feasible_at(r_s: float) -> tuple[bool, float, float, RatePolicy]:
        c, se, policy = cmin(r_s)
        history.append((r_s, c, se))
        return c >= alpha, c, se, policy

    ok0, c0, se0, policy0 = feasible_at(0.0)
    if not ok0:
        report = FeasibilityReport(c0, se0, False, regime)
        return SecrecySolution(0.0, policy0, report)

    lo, lo_state = 0.0, (c0, se0, policy0)
    hi = 1.0
    while hi <= cfg.r_cap:
        ok, c, se, policy = feasible_at(hi)
        if not ok:
            break
        lo, lo_state = hi, (c, se, policy)
        hi *= 2.0
    else:
        hi = cfg.r_cap  # feasible everywhere we are willing to search

    while hi - lo > cfg.rate_tol:
        mid = 0.5 * (lo + hi)
        ok, c, se, policy = feasible_at(mid)
        if ok:
            lo, lo_state = mid, (c, se, policy)
        else:
            hi = mid

    _assert_monotone(history)
    c, se, policy = lo_state
    report = FeasibilityReport(c, se, True, regime)
    return SecrecySolution(lo, policy, report)


def _assert_monotone(history: list[tuple[float, float, float]]):
    """The constraint value must be nonincreasing in the secrecy rate."""
    pts = sorted(history)
    for (r0, c0, s0), (r1, c1, s1) in zip(pts[:-1], pts[1:]):
        slack = 6.0 * np.hypot(s0, s1) + 1e-6
        if c1 > c0 + slack:
            raise NonMonotone(
                f"constraint not monotone in r_s: C({r0:.6g})={c0:.6g} < "
                f"C({r1:.6g})={c1:.6g}"
            )
