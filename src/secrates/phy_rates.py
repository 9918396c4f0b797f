"""Instantaneous link capacities and per-block outage predicates.

All rates are in bits per channel use (log base 2).  Noise variance is
normalized to one, so the transmit power ``p`` and jamming power ``p_j``
act as SNR-like quantities.  Outage comparisons are non-strict: ties
count as success.  These events have zero probability under continuous
fading but deterministic test channels hit them, so the convention is
fixed here once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidRates, require


@dataclass(frozen=True)
class SystemParams:
    """Transmit and jamming powers, linear and noise-normalized."""

    p: float
    p_j: float

    def __post_init__(self):
        require(0 <= self.p < np.inf, "p", "finite and >= 0")
        require(0 <= self.p_j < np.inf, "p_j", "finite and >= 0")


@dataclass(frozen=True)
class BlockRealization:
    """Instantaneous power gains of the three links in one fading block."""

    h_m: float
    h_e: float
    h_z: float


def rate_main_jammed(sp: SystemParams, h_m, h_z):
    """Main-channel capacity while the adversary jams with power p_j."""
    return np.log2(1.0 + sp.p * np.asarray(h_m, float) / (1.0 + sp.p_j * np.asarray(h_z, float)))


def rate_main_clear(sp: SystemParams, h_m):
    """Main-channel capacity without jamming."""
    return np.log2(1.0 + sp.p * np.asarray(h_m, float))


def rate_eve(sp: SystemParams, h_e):
    """Eavesdropper-channel capacity."""
    return np.log2(1.0 + sp.p * np.asarray(h_e, float))


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
    out = success_given_capacities(rate_main_jammed(sp, h_m, h_z), rate_eve(sp, h_e),
                                   rate_main_clear(sp, h_m), rate_r, r_s, jamming)
    return out if out.ndim else bool(out)


def success_given_capacities(cap_jam, cap_eve, cap_clear, rate_r, r_s, jamming) -> np.ndarray:
    """:func:`success_indicator` given the jammed main, eavesdropper and
    clear main capacities of each block; raises the same :class:`InvalidRates`."""
    rate_r = np.asarray(rate_r, float)
    jamming = np.asarray(jamming, bool)
    if np.any(np.asarray(r_s, float) < 0) or np.any(rate_r < 0):
        raise InvalidRates("rates must be nonnegative")
    if np.any(~jamming & (np.asarray(r_s, float) > rate_r)):
        raise InvalidRates("secrecy rate exceeds code rate on an eavesdropped block")
    return np.where(jamming, cap_jam >= rate_r,
                    (cap_eve <= rate_r - r_s) & (cap_clear >= rate_r))


def indicators(r: BlockRealization, sp: SystemParams, rate_r, r_s, jamming: bool) -> bool:
    """Single-block convenience wrapper around :func:`success_indicator`."""
    return bool(success_indicator(sp, r.h_m, r.h_e, r.h_z, rate_r, r_s, jamming))
