"""Instantaneous link capacities and per-block outage predicates.

All rates are in bits per channel use (log base 2).  Noise variance is
normalized to one, so the transmit power ``p`` and jamming power ``p_j``
act as SNR-like quantities.  Outage comparisons are non-strict: ties
count as success.  Ties have zero probability under continuous fading
but point-mass channels hit them, so every outage test is made here, on
capacities: a point mass is decided as a Monte Carlo draw is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import GainDistribution
from .errors import InvalidRates, require


@dataclass(frozen=True)
class SystemParams:
    """Transmit and jamming powers, linear and noise-normalized."""

    p: float
    p_j: float

    def __post_init__(self):
        require(0 <= self.p < np.inf, "p", "finite and >= 0")
        require(0 <= self.p_j < np.inf, "p_j", "finite and >= 0")


def rate_main_jammed(sp: SystemParams, h_m, h_z):
    """Main-channel capacity while the adversary jams with power p_j."""
    with np.errstate(over="ignore"):  # a product past 1.8e308: no capacity, or an infinite one
        return np.log2(1.0 + sp.p * np.asarray(h_m, float)
                       / (1.0 + sp.p_j * np.asarray(h_z, float)))


def rate_main_clear(sp: SystemParams, h_m):
    """Main-channel capacity without jamming: the jammed one at h_z = 0, bit for bit."""
    return rate_main_jammed(sp, h_m, 0.0)


def rate_eve(sp: SystemParams, h_e):
    """Eavesdropper-channel capacity: the clear capacity of its own gain."""
    return rate_main_clear(sp, h_e)


def success_indicator(sp: SystemParams, h_m, h_e, h_z, rate_r, r_s, jamming):
    """Per-block success indicator given the adversary's state.

    Under jamming the block succeeds iff the jammed main capacity reaches
    the code rate.  Under eavesdropping it succeeds iff the eavesdropper
    capacity stays below the rate margin ``rate_r - r_s`` and the clear
    main capacity reaches the code rate.  Vectorized over gains; ``jamming``
    is a boolean scalar or array aligned with the gains.

    Raises :class:`InvalidRates` if any eavesdropped block has
    ``r_s > rate_r``: the secrecy condition can then never hold, which is
    a policy bug rather than an outage.
    """
    jamming = np.asarray(jamming, bool)
    caps = rate_main_jammed(sp, h_m, h_z), rate_eve(sp, h_e), rate_main_clear(sp, h_m)
    out = np.where(jamming, *survival(*caps, rate_r, r_s, ~jamming))
    return out if out.ndim else bool(out)


def survival(cap_jam, cap_eve, cap_clear, rate_r, r_s, eavesdropped=True):
    """(ok_if_jammed, ok_if_eavesdropped): the success of each block under either
    action, given its jammed main, eavesdropper and clear main capacities.

    Raises :class:`InvalidRates` on a negative rate, or if a block that may be
    eavesdropped (``eavesdropped``: a boolean mask, or every block) has ``r_s > rate_r``.
    """
    rate_r = np.asarray(rate_r, float)
    if np.any(np.asarray(r_s, float) < 0) or np.any(rate_r < 0):
        raise InvalidRates("rates must be nonnegative")
    if np.any(eavesdropped & (np.asarray(r_s, float) > rate_r)):
        raise InvalidRates("secrecy rate exceeds code rate on an eavesdropped block")
    return cap_jam >= rate_r, (cap_eve <= rate_r - r_s) & (cap_clear >= rate_r)


def jam_threshold(r, sp: SystemParams, h_z=0.0) -> np.ndarray:
    """Least h_m whose main capacity under jamming gain h_z (0: unjammed)
    carries rate r; broadcasts over r and h_z.  A zero rate needs no gain, at any scale.
    For a continuous law only: :func:`cell_mass` decides a point mass by its capacity."""
    with np.errstate(over="ignore"):  # past 1024 bits, or a huge scale: no finite h_m carries r
        scale = 1.0 + sp.p_j * np.asarray(h_z, dtype=float)
        snr_thr = 2.0 ** np.asarray(r, dtype=float) - 1.0
        if sp.p == 0:  # zero power carries only the zero rate
            return np.where(snr_thr > 0, np.inf * scale, 0.0)
        return snr_thr * np.where(snr_thr > 0, scale, 1.0) / sp.p  # no 0 * inf


def cell_mass(dist_m: GainDistribution, lo, hi, r, sp: SystemParams, h_z=0.0):
    """P[H_m in [lo, hi) and rate_main_jammed(H_m, h_z) >= r]; h_z = 0 is the
    clear link.  Broadcasts over lo, hi, r and h_z."""
    if dist_m.is_degenerate:
        v = dist_m.param
        return np.where((lo <= v) & (v < hi) & (rate_main_jammed(sp, v, h_z) >= r), 1.0, 0.0)
    thr = jam_threshold(r, sp, h_z)
    return np.maximum(dist_m.cdf(hi) - dist_m.cdf(np.maximum(lo, thr)), 0.0)


def secrecy_factor(r, r_s: float, sp: SystemParams, dist_e: GainDistribution):
    """P[rate_eve(H_e) <= r - r_s]; vectorized over r."""
    if dist_e.is_degenerate or sp.p == 0:  # at p = 0 every gain has rate 0
        return np.where(rate_eve(sp, dist_e.param) <= r - r_s, 1.0, 0.0)
    with np.errstate(over="ignore"):  # a margin past 1024 bits admits every h_e
        return dist_e.cdf((2.0 ** (r - r_s) - 1.0) / sp.p)
