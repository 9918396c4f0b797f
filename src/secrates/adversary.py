"""CSI regimes and the adversary's constraint-minimizing jam/eavesdrop rules.

The adversary observes different gain subsets per regime and, in each
block, either jams or eavesdrops.  Best responses are pure threshold /
set-membership rules; the pilot-feedback rule compares exact conditional
success probabilities over the (unobserved) main gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .channels import ChannelTriple, GainDistribution
from .errors import InvalidRates, PolicyRegimeMismatch
from .phy_rates import SystemParams, rate_main_clear
from .policies import RatePolicy


class CsiRegime(Enum):
    NO_CSI = "no_csi"
    PACKET_FEEDBACK = "packet_feedback"
    PILOT_FEEDBACK = "pilot_feedback"

    @property
    def adversary_observables(self) -> frozenset[str]:
        return {
            CsiRegime.NO_CSI: frozenset({"h_e"}),
            CsiRegime.PACKET_FEEDBACK: frozenset({"h_e", "h_m"}),
            CsiRegime.PILOT_FEEDBACK: frozenset({"h_e", "h_z"}),
        }[self]

    @property
    def transmitter_observables(self) -> frozenset[str]:
        return frozenset() if self is CsiRegime.NO_CSI else frozenset({"h_m"})


@dataclass(frozen=True)
class JammingRule:
    """Deterministic jam/eavesdrop decision over the regime's observables.

    ``decide`` is vectorized over gain arrays and returns a boolean array,
    True meaning Jam.  By construction the decision function closes only
    over the observables of its regime; gains outside that set are
    accepted but ignored.
    """

    regime: CsiRegime
    _decide: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

    def decide(self, h_m, h_e, h_z):
        h_m, h_e, h_z = np.broadcast_arrays(
            np.asarray(h_m, float), np.asarray(h_e, float), np.asarray(h_z, float)
        )
        out = np.asarray(self._decide(h_m, h_e, h_z))
        return out if out.ndim else bool(out)


def best_response_nocsi(
    policy: RatePolicy, r_s: float, sp: SystemParams, dist: ChannelTriple
) -> JammingRule:
    """Best response when the adversary sees only h_e.

    Jam exactly when eavesdropping would be secrecy-successful for the
    transmitter anyway, i.e. on ``{h_e : log2(1+p*h_e) <= R - r_s}``.
    """
    if not policy.is_constant:
        raise PolicyRegimeMismatch("no-CSI transmission uses a constant rate")
    if r_s > policy.rate:
        raise InvalidRates("secrecy rate exceeds the constant code rate")
    if sp.p > 0:
        threshold = (2.0 ** (policy.rate - r_s) - 1.0) / sp.p
    else:
        threshold = np.inf  # eavesdropper rate is identically zero

    def decide(h_m, h_e, h_z):
        return h_e <= threshold

    return JammingRule(CsiRegime.NO_CSI, decide)


def best_response_packet(
    policy: RatePolicy, r_s: float, sp: SystemParams, dist: ChannelTriple
) -> JammingRule:
    """Best response when the adversary sees (h_m, h_e).

    Jam on the union of the blocks where eavesdropping cannot break
    secrecy (``log2(1+p*h_e) <= R(h_m) - r_s``) and the blocks already in
    connection outage even without jamming (``log2(1+p*h_m) <= R(h_m)``).
    """

    def decide(h_m, h_e, h_z):
        r = policy.rate_at(h_m)
        eve_rate = np.log2(1.0 + sp.p * h_e)
        return (eve_rate <= r - r_s) | (rate_main_clear(sp, h_m) <= r)

    return JammingRule(CsiRegime.PACKET_FEEDBACK, decide)


def _prob_interval_geq(dist_m: GainDistribution, lo, hi, thr) -> float | np.ndarray:
    """P[H_m in [lo, hi) and H_m >= thr]; broadcasts over lo, hi and thr."""
    lo, hi, thr = (np.asarray(x, dtype=float) for x in (lo, hi, thr))
    if dist_m.is_degenerate:
        v = dist_m.param
        out = np.where((lo <= v) & (v < hi) & (v >= thr), 1.0, 0.0)
    else:
        out = np.maximum(dist_m.cdf(hi) - dist_m.cdf(np.maximum(lo, thr)), 0.0)
    return out if out.ndim else float(out)


def _jam_threshold(r, sp: SystemParams, h_z=0.0) -> np.ndarray:
    """Least h_m whose main capacity under jamming gain h_z (0: unjammed)
    carries rate r; broadcasts over r and h_z."""
    snr_thr = 2.0 ** np.asarray(r, dtype=float) - 1.0
    scale = 1.0 + sp.p_j * np.asarray(h_z, dtype=float)
    if sp.p == 0:  # zero power carries only the zero rate
        return np.where(snr_thr > 0, np.inf, 0.0) * scale
    return snr_thr * scale / sp.p


def pilot_payoffs(
    policy: RatePolicy,
    r_s: float,
    sp: SystemParams,
    dist: ChannelTriple,
    h_e: np.ndarray,
    h_z: np.ndarray,
):
    """Conditional success probabilities over H_m for each adversary action.

    Returns ``(jam, eaves)`` where ``jam[i]`` is
    ``P[rate_main_jammed(H_m, h_z[i]) >= R(H_m)]`` and ``eaves[j]`` is
    ``P[rate_eve(h_e[j]) <= R(H_m) - r_s and rate_main_clear(H_m) >= R(H_m)]``.
    Exact via the marginal CDF of H_m (gains are independent, and the
    policy is piecewise-constant, so each cell contributes a closed-form
    probability mass); evaluated as one (cells x points) array per action.
    """
    h_e = np.atleast_1d(np.asarray(h_e, float))
    h_z = np.atleast_1d(np.asarray(h_z, float))
    lo, hi, r = np.array(list(policy.intervals())).T[:, :, None]
    jam = _prob_interval_geq(dist.h_m, lo, hi, _jam_threshold(r, sp, h_z)).sum(axis=0)
    # eavesdropping branch: the connection threshold does not involve h_z
    mass_conn = _prob_interval_geq(dist.h_m, lo, hi, _jam_threshold(r, sp))
    eve_ok = np.log2(1.0 + sp.p * h_e) <= r - r_s
    eaves = np.where(eve_ok, mass_conn, 0.0).sum(axis=0)
    return jam, eaves


def _quantile_axis(d: GainDistribution, size: int) -> np.ndarray:
    """Grid over one observable, quantile-mapped; a single point if degenerate."""
    if d.is_degenerate:
        return np.array([d.param])
    return d.ppf((np.arange(size) + 0.5) / size)


def _nearest_index(grid: np.ndarray, x: np.ndarray) -> np.ndarray:
    i = np.clip(np.searchsorted(grid, x), 1, grid.size - 1) if grid.size > 1 else \
        np.zeros(x.shape, dtype=int)
    if grid.size > 1:
        left_closer = (x - grid[i - 1]) <= (grid[i] - x)
        i = np.where(left_closer, i - 1, i)
    return i


def best_response_pilot(
    policy: RatePolicy,
    r_s: float,
    sp: SystemParams,
    dist: ChannelTriple,
    grid_size: int = 200,
) -> JammingRule:
    """Best response when the adversary sees (h_e, h_z).

    For each observed pair the adversary picks the action with the smaller
    conditional success probability over the unobserved H_m; ties break
    toward jamming.  Payoffs are precomputed on quantile-mapped grids of
    the two observables (each collapsing to a point for non-fading links)
    and looked up by nearest neighbor, since the rule is evaluated inside
    optimizer and Monte Carlo loops.
    """
    he_grid = _quantile_axis(dist.h_e, grid_size)
    hz_grid = _quantile_axis(dist.h_z, grid_size)
    jam_pay, eaves_pay = pilot_payoffs(policy, r_s, sp, dist, he_grid, hz_grid)

    def decide(h_m, h_e, h_z):
        ie = _nearest_index(he_grid, h_e)
        iz = _nearest_index(hz_grid, h_z)
        return jam_pay[iz] <= eaves_pay[ie]

    return JammingRule(CsiRegime.PILOT_FEEDBACK, decide)


def best_response(
    regime: CsiRegime,
    policy: RatePolicy,
    r_s: float,
    sp: SystemParams,
    dist: ChannelTriple,
    **kwargs,
) -> JammingRule:
    """Dispatch to the regime's best-response constructor."""
    if regime is CsiRegime.NO_CSI:
        return best_response_nocsi(policy, r_s, sp, dist)
    if regime is CsiRegime.PACKET_FEEDBACK:
        return best_response_packet(policy, r_s, sp, dist)
    return best_response_pilot(policy, r_s, sp, dist, **kwargs)
