"""Ergodic-scenario secrecy rates and the encoding-strategy dominance region.

Three quantities: the rate achieved by encoding one message across all
blocks with no CSI, the upper bound on any block-by-block scheme with a
jamming-gain design threshold, and the rate of the plain ARQ variant of
block-by-block encoding.  The dominance region marks, over a grid of
mean channel gains, where encoding across blocks beats the block-by-block
upper bound.

All rest on A = log2(1 + k H_m), k = p/(1 + p_j H_z), and B = log2(1 + p H_e).
Let g(x) = e^x E1(x), s_a = k m, s_b = p e, c_a = 1/s_a and c_b = 1/s_b,
where m and e are the exponential means or point-mass values of H_m and
H_e.  Given H_z, E[A] is g(c_a)/ln 2 for an exponential H_m and
log2(1 + s_a) for a point mass (likewise E[B]), and E[(A - B)^+], the
integral over t >= 0 of P(B <= t) P(A > t), is for the (H_m, H_e) laws
  Exp/Exp: (g(c_a) - g(c_a + c_b))/ln 2,
  Det/Exp: log2(1 + s_a) - (g(c_b) - e^{-c_b s_a} g(c_b (1 + s_a)))/ln 2,
  Exp/Det: e^{-c_a s_b} g(c_a (1 + s_b))/ln 2,
  Det/Det: (log2(1 + s_a) - log2(1 + s_b))^+.
So a rate is one quadrature over H_z, or none when H_z is a point mass.
E[B] does not depend on H_z, so it is taken outside the integral: the
quadrature integrates E[A] and E[(A - B)^+] and E[B] is subtracted after.
``method=MonteCarlo(...)`` instead averages one sampled batch, an oracle
for the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .channels import (
    EXPONENTIAL,
    ChannelTriple,
    GainDistribution,
    MonteCarlo,
    expect,
    sample,
)
from .errors import require
from .phy_rates import SystemParams, rate_eve, rate_main_jammed

_LN2 = math.log(2.0)


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
    1/x - 1/x^2 + 2/x^3 - 6/x^4 (relative error below 1e-10); g(inf) = 0.
    """
    x = np.asarray(x, dtype=float)
    big = x > 700.0
    xs = np.where(big, 1.0, x)
    r = 1.0 / np.where(big, x, 1.0)
    return np.where(big, r * (1.0 - r * (1.0 - 2.0 * r * (1.0 - 3.0 * r))),
                    np.exp(xs) * special.exp1(xs))


def _gap_moments(sp: SystemParams, m_kind: str, m, e_kind: str, e, z, mean_b):
    """(E[A], E[(A - B)^+]) given H_z = z by the module's closed forms.

    ``m``, ``e``, ``mean_b`` = E[B] and ``z`` broadcast against each other.
    """
    jam = 1.0 + sp.p_j * np.asarray(z, dtype=float)
    s_a = sp.p * m / jam
    with np.errstate(divide="ignore"):  # p = 0: c is infinite and g(inf) = 0
        c_a, c_b = 1.0 / s_a, 1.0 / np.asarray(sp.p * e, dtype=float)
    exp_m, exp_e = m_kind == EXPONENTIAL, e_kind == EXPONENTIAL
    mean_a = _g(c_a) / _LN2 if exp_m else np.log2(1.0 + s_a)
    # c_b s_a and c_a s_b are written without p, so p = 0 gives no inf * 0
    if exp_m and exp_e:
        pos = mean_a - _g(c_a + c_b) / _LN2
    elif exp_e:
        cs = m / jam / e
        pos = mean_a - mean_b + np.exp(-cs) * _g(c_b + cs) / _LN2
    elif exp_m:
        cs = jam * e / m
        pos = np.exp(-cs) * _g(c_a + cs) / _LN2
    else:
        pos = np.maximum(mean_a - mean_b, 0.0)
    return np.broadcast_arrays(mean_a, pos)


def _rate_pair(sp: SystemParams, laws: tuple, h_z: GainDistribution, scale, method=None):
    """(max(E[A - B], 0), E[(A - B)^+] scale, err of the first, err of the second).

    ``laws`` is (kind of H_m, its param, kind of H_e, its param); the params
    may be arrays that broadcast, except under ``MonteCarlo``.
    """
    if isinstance(method, MonteCarlo):
        dist = ChannelTriple(GainDistribution(*laws[:2]), GainDistribution(*laws[2:]), h_z)
        b = sample(dist, method.seed, method.n)
        diff = rate_main_jammed(sp, b.h_m, b.h_z) - rate_eve(sp, b.h_e)
        vals = np.stack([diff, np.maximum(diff, 0.0)])
        moments, errs = vals.mean(axis=1), vals.std(ddof=1, axis=1) / np.sqrt(method.n)
    else:
        s_b = sp.p * np.asarray(laws[3], dtype=float)
        with np.errstate(divide="ignore"):
            mean_b = _g(1.0 / s_b) / _LN2 if laws[2] == EXPONENTIAL else np.log2(1.0 + s_b)
        (mean_a, pos), err = expect(h_z, lambda z: np.stack(_gap_moments(sp, *laws, z, mean_b)))
        moments, errs = (mean_a - mean_b, pos), (err, err)
    return np.maximum(moments[0], 0.0), moments[1] * scale, errs[0], errs[1] * scale


def _laws(dist: ChannelTriple) -> tuple:
    return (dist.h_m.kind, dist.h_m.param, dist.h_e.kind, dist.h_e.param)


def rate_nocsi(
    cfg: ErgodicConfig,
    method: MonteCarlo | None = None,
) -> tuple[float, float]:
    """Rate of encoding across blocks with no CSI: max(E[A - B], 0), the
    positive part of the mean capacity advantage over the always-jamming /
    eavesdropping mix.

    By default one quadrature over H_z of the closed form given H_z, with
    the quadrature tolerance as error bar.
    """
    value, _, err, _ = _rate_pair(cfg.sp, _laws(cfg.dist), cfg.dist.h_z, 1.0, method)
    return float(value), float(err)


def rate_upper_bound(
    cfg: ErgodicConfig,
    method: MonteCarlo | None = None,
) -> tuple[float, float]:
    """Upper bound for any block-by-block scheme with threshold hz_star:
    E[(A - B)^+] P[H_z <= hz_star].

    Evaluated as ``rate_nocsi`` is.
    """
    h_z = cfg.dist.h_z
    _, value, _, err = _rate_pair(cfg.sp, _laws(cfg.dist), h_z, h_z.cdf(cfg.hz_star), method)
    return float(value), float(err)


def rate_arq(
    cfg: ErgodicConfig,
    method: MonteCarlo | None = None,
) -> tuple[float, float]:
    """Rate of the plain ARQ block-by-block scheme: the jamming gain in
    the expectation is pinned at hz_star and the probability factor is
    squared (one feedback round per retransmission).

    By default the closed form E[(A - B)^+ | H_z = hz_star], exact, with
    a zero error bar.
    """
    pinned = GainDistribution.deterministic(cfg.hz_star)
    scale = cfg.dist.h_z.cdf(cfg.hz_star) ** 2
    _, value, _, err = _rate_pair(cfg.sp, _laws(cfg.dist), pinned, scale, method)
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

    The grid is one array-valued quadrature over H_z.  Each row whose rate
    gap changes sign is then bisected from its first sign-change grid cell
    down to 1e-3 of the E[H_m] axis range, all live rows at once, one
    quadrature per step; a row drops out once its bracket is that narrow.
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
    gap_err = np.full(rows.size, float(np.hypot(en, eu)))
    while (live := np.flatnonzero(hi - lo > 1e-3 * (hm_means[-1] - hm_means[0]))).size:
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
