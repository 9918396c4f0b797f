"""Ergodic-scenario secrecy rates and the encoding-strategy dominance region.

Three quantities: the rate achieved by encoding one message across all
blocks with no CSI, the upper bound on any block-by-block scheme with a
jamming-gain design threshold, and the rate of the plain ARQ variant of
block-by-block encoding.  The dominance region marks, over a grid of
mean channel gains, where encoding across blocks beats the block-by-block
upper bound.

All rest on A = log2(1 + k H_m), k = p/(1 + p_j H_z), and B = log2(1 + p H_e).
Let g(x) = e^x E1(x), m and e the exponential means or point-mass values of
H_m and H_e, s_b = p e and c_b = 1/s_b.  E[B] is g(c_b)/ln 2 or log2(1 + s_b).

Exponential H_m: every rate is elementary.  Let c_z = 1/(p_j E[H_z]) and
z0 = 0 for an exponential H_z, or c_z = inf and z0 its value for a point
mass; s_a = p m/(1 + p_j z0), c_a = 1/s_a and t = c_a s_b.  With k = x/y and
  D(x, y) = int_0^inf e^{-xs} ds/((1 + s)(1 + k s)) = (g(x) - g(y))/(1 - k)
(partial fractions and Gradshteyn & Ryzhik 3.352.4), E[A] = D(c_a, c_z)/ln 2,
and E[(A - B)^+] ln 2 is D(c_a, c_z) - D(c_a + c_b, c_z (1 + s_a/s_b)) for an
exponential H_e and e^{-t} D(c_a + t, c_z + t)/(1 + t/c_z) for a point mass.
The error bar bounds the rounding error of these formulas.

Point-mass H_m: given H_z, with s_a = k m, E[A] = log2(1 + s_a) and
E[(A - B)^+] is log2(1 + s_a) - (g(c_b) - e^{-c_b s_a} g(c_b (1 + s_a)))/ln 2
for an exponential H_e, (log2(1 + s_a) - log2(1 + s_b))^+ for a point mass.
So a rate is one quadrature over an exponential H_z, with E[B] taken
outside the integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import EXPONENTIAL, ChannelTriple, GainDistribution, expect
from .errors import require
from .phy_rates import SystemParams, rate_main_jammed

_LN2 = math.log(2.0)
# Relative rounding bound on one g value or one computed argument: exp and
# exp1 are each good to a few ulp and an argument carries a few roundings.
_TAU = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class ErgodicConfig:
    sp: SystemParams
    dist: ChannelTriple
    hz_star: float  # block-by-block encoding threshold on the jamming gain

    def __post_init__(self):
        require(0 <= self.hz_star < np.inf, "hz_star", "finite and >= 0")


def _g(x):
    """e^x E1(x), so that E[log2(1 + a X)] = g(1/a)/ln 2 for X ~ Exp(1).

    Past x = 700, where e^x overflows, the asymptotic series
    sum_{k <= 8} (-1)^k k!/x^{k+1} (relative error below 1e-20); g(inf) = 0.
    """
    from scipy import special  # imported here: importing the package loads no scipy module

    x = np.asarray(x, dtype=float)
    big = x > 700.0
    xs = np.where(big, 1.0, x)
    out = np.exp(xs) * special.exp1(xs)
    if big.any():
        r = 1.0 / np.where(big, x, 1.0)
        out = np.where(big, r * np.polyval([40320, -5040, 720, -120, 24, -6, 2, -1, 1], r), out)
    return out


def _d(x, y):
    """(D(x, y), a bound on its rounding error), D as in the module docstring.

    D(x, inf) = g(x) and D(inf, y) = 0.  Near k = x/y = 1 the partial
    fractions cancel, so where |1 - k| max(x, 64) < 1, D is the Taylor series
    of g(y) = g(x/k) about x, in eps = 1/k - 1:
      D = (y/x) sum_{j >= 1} T_j (-eps)^(j - 1),  T_0 = g(x),  T_j = (1 - x T_(j-1))/j,
    from g' = g - 1/x.  There 0 <= T_j <= 1/j, |eps| < 1/63 and x|eps| < 64/63,
    so the recursion grows a rounding error by at most e^{64/63}.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    kappa = np.divide(x, y, out=np.zeros(x.shape), where=y < np.inf)
    near = np.abs(1.0 - kappa) * np.maximum(x, 64.0) < 1.0
    gx, gy = _g(x), _g(y)
    den = np.where(near, 1.0, 1.0 - kappa)
    d = (gx - gy) / den
    err = _TAU * (gx + gy + np.abs(d)) / np.abs(den)
    if near.any():
        xs = np.where(near, x, 0.0)
        eps = np.where(near, y / np.where(near, x, 1.0) - 1.0, 0.0)
        t, total, power = gx, 0.0, 1.0
        for j in range(1, 10):  # the tail is below 63^-9/10 < 1e-17
            t = (1.0 - xs * t) / j
            total, power = total + power * t, -power * eps
        d, err = np.where(near, (1.0 + eps) * total, d), np.where(near, 8 * _TAU, err)
    return d, err


def _exp_main_moments(sp: SystemParams, m, e_kind: str, e, h_z: GainDistribution):
    """(E[A], E[(A - B)^+], their error bounds) for an exponential H_m, by the
    module's closed forms; ``m`` and ``e`` may be arrays that broadcast."""
    z_exp = h_z.kind == EXPONENTIAL
    jam, b = (1.0, sp.p_j * h_z.param) if z_exp else (1.0 + sp.p_j * h_z.param, 0.0)
    with np.errstate(divide="ignore"):  # p = 0 or b = 0: c is inf and g(inf) = 0
        c_a, c_b, c_z = (1.0 / np.asarray(v, dtype=float) for v in (sp.p * m / jam, sp.p * e, b))
    d_a, err_a = _d(c_a, c_z)
    # s_a/s_b and t = c_a s_b are written without p, so p = 0 gives no inf * 0
    if e_kind == EXPONENTIAL:
        d_b, err_b = _d(c_a + c_b, c_z * (1.0 + m / jam / e))
        pos, err_pos = d_a - d_b, err_a + err_b + _TAU * (d_a + d_b)
    else:
        t = np.minimum(jam * e / m, 1e300)  # e^-t is 0 past 746: the cap only keeps inf * 0 out
        w = np.exp(-t) / (1.0 + t / c_z)
        d_b, err_b = _d(c_a + t, c_z + t)
        pos, err_pos = w * d_b, w * (err_b + _TAU * (1.0 + t) * d_b)
    return d_a / _LN2, pos / _LN2, err_a / _LN2, err_pos / _LN2


def _gap_moments(sp: SystemParams, m, e_kind: str, e, z, mean_b):
    """(E[A], E[(A - B)^+]) given H_z = z for a point-mass H_m, by the module's
    closed forms.  ``m``, ``e``, ``mean_b`` = E[B] and ``z`` broadcast."""
    with np.errstate(over="ignore"):  # p_j z past 1.8e308: A = 0, as rate_main_jammed takes it
        jam = 1.0 + sp.p_j * np.asarray(z, dtype=float)
    mean_a = rate_main_jammed(sp, m, z)
    if e_kind == EXPONENTIAL:
        with np.errstate(divide="ignore"):  # p = 0: c_b is inf and g(inf) = 0
            c_b = 1.0 / np.asarray(sp.p * e, dtype=float)
        cs = m / jam / e  # c_b s_a without p, so p = 0 gives no inf * 0
        pos = mean_a - mean_b + np.exp(-cs) * _g(c_b + cs) / _LN2
    else:
        pos = np.maximum(mean_a - mean_b, 0.0)
    return np.broadcast_arrays(mean_a, pos)


def _rate_pair(sp: SystemParams, laws: tuple, h_z: GainDistribution, scale):
    """(max(E[A - B], 0), E[(A - B)^+] scale, err of the first, err of the second).

    ``laws`` is (kind of H_m, its param, kind of H_e, its param); the params
    may be arrays that broadcast.
    """
    s_b = sp.p * np.asarray(laws[3], dtype=float)
    with np.errstate(divide="ignore"):
        mean_b = _g(1.0 / s_b) / _LN2 if laws[2] == EXPONENTIAL else np.log2(1.0 + s_b)
    if laws[0] == EXPONENTIAL:
        mean_a, pos, err_a, err_pos = _exp_main_moments(sp, *laws[1:], h_z)
        err_a = err_a + _TAU * mean_b
    else:
        (mean_a, pos), err_a = expect(h_z, lambda z: np.stack(_gap_moments(sp, *laws[1:], z, mean_b)))
        err_pos = err_a
    return np.maximum(mean_a - mean_b, 0.0), pos * scale, err_a, err_pos * scale


def _laws(dist: ChannelTriple) -> tuple:
    return (dist.h_m.kind, dist.h_m.param, dist.h_e.kind, dist.h_e.param)


def rate_nocsi(cfg: ErgodicConfig) -> tuple[float, float]:
    """Rate of encoding across blocks with no CSI: max(E[A - B], 0), the
    positive part of the mean capacity advantage over the always-jamming /
    eavesdropping mix.

    For an exponential H_m, the module's closed form with a bound on its
    rounding error as error bar; for a point-mass H_m, the closed form
    given H_z, taken at a point-mass H_z (error bar 0) or by one quadrature
    over an exponential H_z (error bar the quadrature tolerance).
    """
    value, _, err, _ = _rate_pair(cfg.sp, _laws(cfg.dist), cfg.dist.h_z, 1.0)
    return float(value), float(err)


def rate_upper_bound(cfg: ErgodicConfig) -> tuple[float, float]:
    """Upper bound for any block-by-block scheme with threshold hz_star:
    E[(A - B)^+] P[H_z <= hz_star].

    Evaluated as ``rate_nocsi`` is.
    """
    h_z = cfg.dist.h_z
    _, value, _, err = _rate_pair(cfg.sp, _laws(cfg.dist), h_z, h_z.cdf(cfg.hz_star))
    return float(value), float(err)


def rate_arq(cfg: ErgodicConfig) -> tuple[float, float]:
    """Rate of the plain ARQ block-by-block scheme: the jamming gain in
    the expectation is pinned at hz_star and the probability factor is
    squared (one feedback round per retransmission).

    The closed form E[(A - B)^+ | H_z = hz_star], with a bound on its
    rounding error as error bar (zero for a point-mass H_m).
    """
    pinned = GainDistribution.deterministic(cfg.hz_star)
    scale = cfg.dist.h_z.cdf(cfg.hz_star) ** 2
    _, value, _, err = _rate_pair(cfg.sp, _laws(cfg.dist), pinned, scale)
    return float(value), float(err)


@dataclass(frozen=True)
class BoundaryPoint:
    e_he: float
    e_hm: float | None
    status: str  # "ok" | "no_crossing"
    gap_err: float


@dataclass(frozen=True)
class RegionConfig:
    sp: SystemParams
    h_z: GainDistribution
    hz_star: float  # block-by-block encoding threshold on the jamming gain

    def __post_init__(self):
        require(0 <= self.hz_star < np.inf, "hz_star", "finite and >= 0")


@dataclass(frozen=True)
class RegionResult:
    he_means: np.ndarray
    hm_means: np.ndarray
    r_nocsi: np.ndarray  # shape (len(he), len(hm))
    r_upper: np.ndarray
    err_nocsi: np.ndarray
    err_upper: np.ndarray
    boundary: list[BoundaryPoint]


def dominance_region(he_means, hm_means, cfg: RegionConfig) -> RegionResult:
    """Rate grid for exponential H_m and H_e plus, per E[H_e] row, the
    E[H_m] where the two encoding strategies tie.

    Every rate is the module's closed form with its rounding bound, so no
    quadrature runs.  Each row whose rate gap changes sign is bisected from
    its first sign-change grid cell, all live rows at once; a row drops out
    once its bracket is narrower than 1e-12 of its lower end, and reports
    the bracket midpoint with the error bar of the gap at the last step.
    """
    he_means = np.asarray(he_means, dtype=float)
    hm_means = np.asarray(hm_means, dtype=float)
    for arg, axis in (("he_means", he_means), ("hm_means", hm_means)):
        require(axis.ndim == 1 and axis.size > 0 and np.all((axis > 0) & (axis < np.inf))
                and np.all(np.diff(axis) > 0), arg, "a nonempty 1-D array, finite, positive "
                "and strictly increasing")
    scale = float(cfg.h_z.cdf(cfg.hz_star))

    def rates_at(e_hm, e_he):
        return _rate_pair(cfg.sp, (EXPONENTIAL, e_hm, EXPONENTIAL, e_he), cfg.h_z, scale)

    rn, ru, en, eu = rates_at(hm_means[None, :], he_means[:, None])
    gap = rn - ru
    rows = np.flatnonzero((gap[:, 0] * gap[:, -1] <= 0) & (hm_means.size >= 2))
    gap_lo = gap[rows, 0]
    crossed = gap[rows] * gap_lo[:, None] <= 0
    crossed[:, 0] = False
    j = np.argmax(crossed, axis=1)  # first cell [hm[j - 1], hm[j]] with a sign change
    lo, hi = hm_means[j - 1], hm_means[j]
    gap_err = np.hypot(en, eu)[rows, j]
    while (live := np.flatnonzero(hi - lo > 1e-12 * lo)).size:
        mid = 0.5 * (lo[live] + hi[live])
        a, b, ea, eb = rates_at(mid, he_means[rows[live]])
        gap_err[live] = np.hypot(ea, eb)
        below = (a - b) * gap_lo[live] <= 0
        hi[live] = np.where(below, mid, hi[live])
        lo[live] = np.where(below, lo[live], mid)

    boundary = [BoundaryPoint(float(e_he), None, "no_crossing", 0.0) for e_he in he_means]
    for i, e_hm, err in zip(rows, 0.5 * (lo + hi), gap_err):
        boundary[i] = BoundaryPoint(float(he_means[i]), float(e_hm), "ok", float(err))
    en, eu = np.full(rn.shape, en), np.full(rn.shape, eu)
    return RegionResult(he_means, hm_means, rn, ru, en, eu, boundary)
