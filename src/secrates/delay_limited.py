"""Outage-constrained maximin secrecy-rate solver for the delay-limited case.

The long-run fraction of blocks that survive both connection and secrecy
outage, evaluated at the adversary's best response, must stay above a
threshold ``alpha``.  The transmitter maximizes the secrecy rate subject
to that constraint; the constraint value shrinks as the secrecy rate
grows (holding the optimized policy class fixed), so the answer is the
right end of a bracketed root search: Illinois regula falsi where the
constraint is exact, bisection where it is a Monte Carlo estimate.
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
from .phy_rates import (SystemParams, cell_mass, jam_threshold, rate_eve, rate_main_clear,
                        rate_main_jammed, secrecy_factor, success_indicator, survival)
from .policies import RatePolicy, cell_index

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_R_CAP = 64.0  # the largest secrecy rate searched, in bits


@dataclass(frozen=True)
class FeasibilityReport:
    """Constraint value with its Monte Carlo error bar."""

    c_min: float
    std_err: float
    feasible: bool | None  # c_min >= alpha for a solve; None from evaluate_constraint


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

    def __post_init__(self):
        require(0 < self.rate_tol < np.inf, "rate_tol", "finite and > 0")
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
) -> FeasibilityReport:
    """Estimate the success-fraction constraint under a given jamming rule.

    The estimate averages the success indicators over :func:`_draws`, with a
    binomial standard error (zero for a point-mass triple's one realization).
    """
    _check_regime(regime, policy, rule)
    b = _draws(dist, method)
    ok = success_indicator(sp, *b, policy.rate_at(b.h_m), r_s, rule.decide(*b))
    return FeasibilityReport(*_binomial(np.count_nonzero(ok), ok.size), feasible=None)


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
    b = _draws(dist, method)
    r = policy.rate_at(b.h_m)
    ok = (rate_main_jammed(sp, b.h_m, b.h_z) >= r) & (rate_eve(sp, b.h_e) <= r - r_s)
    return FeasibilityReport(*_binomial(np.count_nonzero(ok), ok.size), feasible=None)


def _draws(dist: ChannelTriple, method: MonteCarlo | None) -> SampleBatch:
    """The gains a Monte Carlo estimate averages over: a point-mass triple's
    one exact realization, else ``method``'s batch (default seed 0)."""
    if dist.is_degenerate:
        return SampleBatch(*(np.array([d.param]) for d in dist.components()))
    method = method or MonteCarlo(seed=0)
    return sample(dist, method.seed, method.n)


def _binomial(count, n: int) -> tuple[float, float]:
    """Fraction of ``count`` successes in ``n`` blocks and its binomial standard error."""
    c = float(count / n)
    return c, float(np.sqrt(max(c * (1.0 - c), 0.0) / n))


def _check_secrecy_rate(r_s: float) -> None:
    if not (np.isfinite(r_s) and r_s >= 0):
        raise InvalidRates(f"secrecy rate must be finite and nonnegative, got {r_s!r}")


def _cell_jam_mass(lo, hi, r, sp: SystemParams, dist: ChannelTriple, z_max=np.inf):
    """P[H_m in [lo, hi), H_z < z_max and jammed main capacity >= r].

    Closed form, broadcast over cells and ``z_max``.  A jammed block survives iff
    H_m >= c*(1 + p_j*H_z), c = (2^r - 1)/p.  For a fading jamming link the H_z axis
    splits where that threshold crosses lo (z_lo) and hi (z_hi), each clipped at z_max:
    below z_lo the whole cell survives, above z_hi none of it, and between them an
    exponential H_m tail integrates against the H_z density.
    """
    if dist.h_z.is_degenerate or sp.p_j == 0 or sp.p == 0:  # one threshold for every H_z
        below = dist.h_z.param < z_max if dist.h_z.is_degenerate else dist.h_z.cdf(z_max)
        return cell_mass(dist.h_m, lo, hi, r, sp, dist.h_z.param) * below
    lo, hi, c = np.broadcast_arrays(lo, hi, jam_threshold(r, sp))
    if not (c < np.inf).all():  # no finite h_m carries these rates: no mass
        dead = c == np.inf
        return np.where(dead, 0.0, _cell_jam_mass(lo, hi, np.where(dead, 0.0, r), sp, dist, z_max))
    crossing = lambda x: np.minimum(np.maximum(  # a zero threshold never crosses
        (np.divide(x, c, out=np.full(c.shape, np.inf), where=c > 0) - 1.0) / sp.p_j, 0.0), z_max)
    if dist.h_m.is_degenerate:
        return cell_mass(dist.h_m, lo, hi, 0.0, sp) * dist.h_z.cdf(crossing(dist.h_m.param))
    z_lo, z_hi = crossing(lo), crossing(hi)
    mu_m, mu_z = dist.h_m.param, dist.h_z.param
    S_m = lambda x: np.exp(-np.maximum(x, 0.0) / mu_m)  # P[H_m >= x]
    F_z = dist.h_z.cdf
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
    cells = secrecy_factor(r, r_s, sp, dist.h_e) * _cell_jam_mass(lo, hi, r, sp, dist)
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
    cap = rate_main_clear(sp, reps)
    require(cap[-1] < np.inf, "p and H_m", "small enough that log2(1 + p*h_m) is finite")
    if dist.h_z.is_degenerate or sp.p_j == 0:
        # The jamming factor is a step in r.  Pin the rate to the jammed
        # capacity at the cell's LEFT edge: a higher rate (e.g. at the
        # cell midpoint) would fail every realization below it and
        # forfeit that mass for a vanishing rate gain.
        rates = np.maximum(r_s, rate_main_jammed(sp, knots_h, dist.h_z.param))
    else:
        live = (reps > 0) & (cap > r_s)

        def g(r):
            with np.errstate(divide="ignore"):  # r = 0 survives any jamming gain
                conn = dist.h_z.cdf((sp.p * reps[live] / (2.0 ** r - 1.0) - 1.0) / sp.p_j)
            return secrecy_factor(r, r_s, sp, dist.h_e) * conn

        rates = np.full(reps.shape, float(r_s))
        rates[live], _ = _grid_then_golden(g, r_s, cap[live])
    policy = RatePolicy.tabulated(knots_h, rates)
    return policy, c_min_closed_form(CsiRegime.PACKET_FEEDBACK, policy, r_s, sp, dist)


def optimize_policy_pilot(
    r_s: float,
    sp: SystemParams,
    dist: ChannelTriple,
    cfg: "SearchConfig",
) -> tuple[RatePolicy, float, float]:
    """Rate policy for the pilot regime; returns (policy, c_min, std_err).

    The pilot adversary cannot see h_m, so the transmitter can gamble: cells whose
    rate rides the clear (unjammed) capacity gain secrecy margin but are lost whenever
    the adversary jams.  Starting from the packet-optimal policy (whose constraint the
    pilot value can never fall below), the fraction of low-gain cells flipped to the
    clear capacity is tuned by a 1-D search that scores each candidate exactly against
    the pilot best response (:func:`_pilot_family`).  The chosen policy, with the jam
    decision table its exact score built, is scored on one Monte Carlo batch keyed by
    ``substream(seed, 2)``, drawn and indexed once (:func:`_pilot_batch`) and reused
    across r_s and alphas.
    """
    # the batch is drawn before the search tables exist, so their peaks do not stack
    batch = _pilot_batch(sp, dist, substream(cfg.seed, 2), cfg.mc_n, cfg.n_knots)
    base, _ = optimize_policy_packet(r_s, sp, dist, cfg.n_knots)  # on the batch's knots
    clear_lo = np.maximum(rate_main_clear(sp, base.knots_h), r_s)
    k_of = lambda frac: int(round(frac * clear_lo.size))
    score = _pilot_family(base, clear_lo, r_s, sp, dist)
    c_min = np.vectorize(lambda f: score(k_of(f))[0], otypes=[float])
    f_star, _ = _grid_then_golden(c_min, 0.0, 1.0, n_grid=11, tol=0.02)
    _, jam = score(k := k_of(f_star))
    del score, c_min  # free the search tables before the final scoring
    policy = _flip(base, clear_lo, k)
    return policy, *batch(policy.knots_r, jam, r_s)


def _flip(base: RatePolicy, clear_r: np.ndarray, k: int) -> RatePolicy:
    """``base`` with the rates of its first k knots taken from ``clear_r``."""
    return RatePolicy.tabulated(base.knots_h, np.concatenate([clear_r[:k], base.knots_r[k:]]))


def _pilot_family(base: RatePolicy, clear_r: np.ndarray, r_s: float, sp: SystemParams,
                  dist: ChannelTriple):
    """The exact scorer ``k -> (C, jam)`` of ``_flip(base, clear_r, k)`` under
    :func:`~secrates.adversary.best_response_pilot`: C is the mean of its batch score and
    ``jam`` that rule's decision table (H_z cell x H_e cell).  The adversary acts on the
    nearest (h_e, h_z) payoff-grid points and the gains are independent, so C sums over
    pairs of nearest-point cells: a jammed pair survives with its H_z cell's jam mass, an
    eavesdropped one with the clear mass times its H_e cell's mass below the secrecy
    margin.  A candidate's first k knots take the clear option's rows."""
    (he_grid, e_top), (hz_grid, z_top) = adv._pilot_grids(dist)
    mass = lambda F: np.diff(F, axis=-1, prepend=0.0)  # per cell, from F at the upper edges
    p_e, p_z = mass(F_e := dist.h_e.cdf(e_top)), mass(dist.h_z.cdf(z_top))

    def tables(rates):
        policy = RatePolicy.tabulated(base.knots_h, rates)
        lo, hi, r = (x[:, None] for x in policy.cells())
        jam_ok = mass(_cell_jam_mass(lo, hi, r, sp, dist, z_top))
        eaves_ok = cell_mass(dist.h_m, lo, hi, r, sp) * mass(
            np.minimum(F_e, secrecy_factor(r, r_s, sp, dist.h_e)))
        return *adv.pilot_payoff_tables(policy, r_s, sp, dist, he_grid, hz_grid), jam_ok, eaves_ok

    options = tables(base.knots_r), tables(clear_r)
    gap = options[0][0].shape[0] - base.knots_h.size  # a cell below the first knot

    def score(k: int) -> tuple[float, np.ndarray]:
        m = k + gap if k else 0  # rows on the clear option
        jam_pay, eaves_pay, jam_ok, eaves_ok = (np.concatenate([c[:m], b[m:]]).sum(axis=0)
                                                for b, c in zip(*options))
        jam = jam_pay[:, None] <= eaves_pay
        return float(np.where(jam, jam_ok[:, None] * p_e, p_z[:, None] * eaves_ok).sum()), jam

    return score


def _compact(index: np.ndarray, size: int) -> np.ndarray:
    return index.astype(np.min_scalar_type(size - 1))  # the least dtype indexing size entries


@functools.lru_cache(maxsize=1)
def _pilot_batch(sp: SystemParams, dist: ChannelTriple, seed: int, n: int, n_knots: int):
    knots_h, _ = _packet_knots(dist.h_m, n_knots)
    return _PilotBatch(sp, dist, _draws(dist, MonteCarlo(seed, n)), knots_h)


class _PilotBatch:
    """A pilot batch indexed once: per draw the packet-knot cell of h_m, the nearest-point
    cells of h_e and h_z and the three capacities, not the draws.  ``batch(rates, jam, r_s)``
    is :func:`evaluate_constraint`'s ``(c_min, std_err)`` for the policy of ``rates`` on those
    knots under the pilot rule whose decision table (H_z cell x H_e cell) is ``jam``."""

    def __init__(self, sp: SystemParams, dist: ChannelTriple, b: SampleBatch, knots_h):
        (_, e_top), (_, z_top) = adv._pilot_grids(dist)
        self.cell = _compact(cell_index(knots_h, b.h_m), knots_h.size)
        self.ie, self.iz = (_compact(np.searchsorted(top, x), top.size)
                            for top, x in ((e_top, b.h_e), (z_top, b.h_z)))
        self.caps = rate_main_jammed(sp, b.h_m, b.h_z), rate_eve(sp, b.h_e), rate_main_clear(sp, b.h_m)

    def __call__(self, rates: np.ndarray, jam: np.ndarray, r_s: float) -> tuple[float, float]:
        jammed = jam[self.iz, self.ie]
        ok = np.where(jammed, *survival(*self.caps, rates[self.cell], r_s, ~jammed))
        return _binomial(np.count_nonzero(ok), ok.size)


def _best_constant_nocsi(
    r_s: float, sp: SystemParams, dist: ChannelTriple
) -> tuple[RatePolicy, float]:
    """Maximize the no-CSI closed form over the constant code rate, on a
    window [r_s, hi] widened until a jammed block carries rate hi with mass
    at most 1e-9: at the latest once 2^hi overflows and the mass is 0."""

    def g(r):
        # c_min_closed_form of RatePolicy.constant(r), for an array of r
        mass = _cell_jam_mass(0.0, np.inf, r, sp, dist)
        return np.clip(secrecy_factor(r, r_s, sp, dist.h_e) * mass, 0.0, 1.0)

    hi = r_s + 1.0
    while _cell_jam_mass(0.0, np.inf, hi, sp, dist) > 1e-9:
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

    No-CSI and packet feedback use their closed forms.  Pilot feedback searches
    a family built on the packet-optimal policy exactly against the pilot
    best-response adversary, and reports the chosen policy's value by Monte Carlo
    (a lower bound on the pilot optimum, realizing the feasible-set inclusion
    behind the regime ordering), on one batch reused across bisection points.

    Doubling r_s brackets the answer, C(lo) >= alpha > C(hi).  For the exact
    regimes an Illinois regula falsi step on C - alpha (Dowell & Jarratt 1971)
    narrows it to 1e-12 relative, so the answer is sup{r_s : C(r_s) >= alpha}, the
    jump itself where a point-mass link makes C a step function; a step that lands
    on a flat piece of C is followed by a midpoint.  The pilot bisects to
    ``cfg.rate_tol``.  Each r_s visited is evaluated once; the answer is the record
    of the largest feasible one, lo.
    """
    cfg = cfg or SearchConfig()
    if not (0.0 < alpha <= 1.0):
        raise AlphaOutOfRange("alpha must lie in (0, 1]")
    evaluate = {  # r_s -> (policy, c_min, std_err)
        CsiRegime.NO_CSI: lambda r: (*_best_constant_nocsi(r, sp, dist), 0.0),
        CsiRegime.PACKET_FEEDBACK: lambda r: (*optimize_policy_packet(r, sp, dist, cfg.n_knots), 0.0),
        CsiRegime.PILOT_FEEDBACK: lambda r: optimize_policy_pilot(r, sp, dist, cfg),
    }[regime]
    history: dict[float, tuple[RatePolicy, float, float]] = {}

    def feasible(r_s: float) -> bool:
        history[r_s] = evaluate(r_s)
        return history[r_s][1] >= alpha

    lo, hi = 0.0, 1.0
    if feasible(lo):
        while hi <= _R_CAP and feasible(hi):
            lo, hi = hi, 2.0 * hi
        hi = min(hi, _R_CAP)  # past _R_CAP only if feasible everywhere we search
        exact = regime is not CsiRegime.PILOT_FEEDBACK  # else C is a Monte Carlo estimate
        w = {r: c - alpha for r, (_, c, _) in history.items()}  # C - alpha, Illinois-halved
        bisect, last = not exact, None
        # a width below the float spacing ends once no double lies between lo and hi
        while (hi - lo > (1e-12 * max(lo, 1.0) if exact else cfg.rate_tol)
               and lo < (mid := 0.5 * (lo + hi)) < hi):
            x = mid if bisect else lo + w[lo] * (hi - lo) / (w[lo] - w[hi])  # regula falsi
            x = x if lo < x < hi else mid
            up = feasible(x)
            old, kept = (lo, hi) if up else (hi, lo)
            bisect = not exact or history[x][1] == history[old][1]  # a flat piece of C
            w[x] = history[x][1] - alpha
            if up is last:  # the same end replaced twice in a row
                w[kept] /= 2.0
            lo, hi, last = (x, hi, up) if up else (lo, x, up)
    _assert_monotone([(r, c, se) for r, (_, c, se) in history.items()])
    policy, c, se = history[lo]
    return SecrecySolution(lo, policy, FeasibilityReport(c, se, c >= alpha))


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
