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

from .channels import ChannelTriple
from .errors import InvalidRates, PolicyRegimeMismatch, require
from .phy_rates import SystemParams, cell_mass, rate_eve, rate_main_clear
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


@dataclass(frozen=True)
class JammingRule:
    """Deterministic jam/eavesdrop decision over the regime's observables.

    ``decide`` is vectorized over gain arrays and returns a boolean array,
    True meaning Jam.  By construction the decision function closes only
    over the observables of its regime; gains outside that set are
    ignored.  Each gain must be finite and >= 0, else ``InvalidInput``
    names it.
    """

    regime: CsiRegime
    _decide: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

    def decide(self, h_m, h_e, h_z):
        gains = np.broadcast_arrays(*(np.asarray(h, float) for h in (h_m, h_e, h_z)))
        for name, h in zip(("h_m", "h_e", "h_z"), gains):
            require(np.all((h >= 0) & (h < np.inf)), name, "finite and >= 0")
        out = np.asarray(self._decide(*gains))
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
    rate = float(policy.knots_r[0])
    if r_s > rate:
        raise InvalidRates("secrecy rate exceeds the constant code rate")

    def decide(h_m, h_e, h_z):
        return rate_eve(sp, h_e) <= rate - r_s

    return JammingRule(CsiRegime.NO_CSI, decide)


def best_response_packet(
    policy: RatePolicy, r_s: float, sp: SystemParams, dist: ChannelTriple
) -> JammingRule:
    """Best response when the adversary sees (h_m, h_e).

    Jam on the union of the blocks where eavesdropping cannot break
    secrecy (``log2(1+p*h_e) <= R(h_m) - r_s``) and the blocks already in
    connection outage even without jamming (``log2(1+p*h_m) < R(h_m)``).
    """

    def decide(h_m, h_e, h_z):
        r = policy.rate_at(h_m)
        return (rate_eve(sp, h_e) <= r - r_s) | (rate_main_clear(sp, h_m) < r)

    return JammingRule(CsiRegime.PACKET_FEEDBACK, decide)


def pilot_payoff_tables(policy: RatePolicy, r_s: float, sp: SystemParams, dist: ChannelTriple,
                        h_e: np.ndarray, h_z: np.ndarray):
    """Per-cell terms of :func:`pilot_payoffs`: ``(jam, eaves)``, one
    (cells x points) array per action, whose column sums are the payoffs."""
    h_e = np.atleast_1d(np.asarray(h_e, float))
    h_z = np.atleast_1d(np.asarray(h_z, float))
    lo, hi, r = (x[:, None] for x in policy.cells())
    jam = cell_mass(dist.h_m, lo, hi, r, sp, h_z)
    # eavesdropping branch: the clear link, whatever h_z
    eve_ok = rate_eve(sp, h_e) <= r - r_s
    return jam, np.where(eve_ok, cell_mass(dist.h_m, lo, hi, r, sp), 0.0)


def pilot_payoffs(policy: RatePolicy, r_s: float, sp: SystemParams, dist: ChannelTriple,
                  h_e: np.ndarray, h_z: np.ndarray):
    """Conditional success probabilities over H_m for each adversary action.

    Returns ``(jam, eaves)`` where ``jam[i]`` is
    ``P[rate_main_jammed(H_m, h_z[i]) >= R(H_m)]`` and ``eaves[j]`` is
    ``P[rate_eve(h_e[j]) <= R(H_m) - r_s and rate_main_clear(H_m) >= R(H_m)]``.
    Exact via the marginal CDF of H_m (gains are independent, and the
    policy is piecewise-constant, so each cell contributes a closed-form
    probability mass): the column sums of :func:`pilot_payoff_tables`.
    """
    return tuple(t.sum(axis=0) for t in pilot_payoff_tables(policy, r_s, sp, dist, h_e, h_z))


def _pilot_grids(dist: ChannelTriple) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The pilot payoff grid of each observed link, (h_e, h_z): its 200 quantile-mapped
    points (one for a non-fading link) and the upper edges of their nearest-point cells.
    ``np.searchsorted(edges, x)`` is the point nearest x, a tie going to the lower one."""
    grids = (np.array([d.param]) if d.is_degenerate else d.ppf((np.arange(200) + 0.5) / 200)
             for d in (dist.h_e, dist.h_z))
    return tuple((g, np.append((g[1:] + g[:-1]) / 2.0, np.inf)) for g in grids)


def best_response_pilot(
    policy: RatePolicy,
    r_s: float,
    sp: SystemParams,
    dist: ChannelTriple,
) -> JammingRule:
    """Best response when the adversary sees (h_e, h_z).

    For each observed pair the adversary picks the action with the smaller
    conditional success probability over the unobserved H_m; ties break
    toward jamming.  Payoffs are precomputed on quantile-mapped grids of the
    two observables (each collapsing to a point for non-fading links), and an
    observation takes its nearest grid point's (:func:`_pilot_grids`), since
    the rule is evaluated inside optimizer and Monte Carlo loops.
    """
    (he_grid, he_top), (hz_grid, hz_top) = _pilot_grids(dist)
    jam_pay, eaves_pay = pilot_payoffs(policy, r_s, sp, dist, he_grid, hz_grid)

    def decide(h_m, h_e, h_z):
        return jam_pay[np.searchsorted(hz_top, h_z)] <= eaves_pay[np.searchsorted(he_top, h_e)]

    return JammingRule(CsiRegime.PILOT_FEEDBACK, decide)


def best_response(
    regime: CsiRegime,
    policy: RatePolicy,
    r_s: float,
    sp: SystemParams,
    dist: ChannelTriple,
) -> JammingRule:
    """Dispatch to the regime's best-response constructor."""
    if regime is CsiRegime.NO_CSI:
        return best_response_nocsi(policy, r_s, sp, dist)
    if regime is CsiRegime.PACKET_FEEDBACK:
        return best_response_packet(policy, r_s, sp, dist)
    return best_response_pilot(policy, r_s, sp, dist)
