"""Fading-gain distributions: seeded sampling, CDFs, and expectations.

Only two marginal laws are supported, an exponential law (Rayleigh power
gain) and a point mass (non-fading link).  The three links of the wiretap
setup are mutually independent, so a joint draw is three independent
inverse-CDF transforms of one counter-based uniform stream.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidInput, NonConvergence, require

EXPONENTIAL = "exponential"
DETERMINISTIC = "deterministic"
_QUAD_TOL = 1e-9  # absolute tolerance of expect's quadrature


@dataclass(frozen=True)
class GainDistribution:
    """Marginal law of one channel power gain (linear units)."""

    kind: str
    param: float  # mean of the exponential law, or the point-mass value

    def __post_init__(self):
        if self.kind == EXPONENTIAL:
            require(0 < self.param < np.inf, "exponential mean", "finite and > 0")
        elif self.kind == DETERMINISTIC:
            require(0 <= self.param < np.inf, "deterministic gain", "finite and >= 0")
        else:
            raise InvalidInput(f"unknown distribution kind {self.kind!r}")

    @classmethod
    def exponential(cls, mean: float) -> "GainDistribution":
        return cls(EXPONENTIAL, float(mean))

    @classmethod
    def deterministic(cls, value: float) -> "GainDistribution":
        return cls(DETERMINISTIC, float(value))

    @property
    def is_degenerate(self) -> bool:
        return self.kind == DETERMINISTIC

    def cdf(self, x):
        """P[H <= x]; right-continuous."""
        x = np.asarray(x, dtype=float)
        if self.kind == EXPONENTIAL:
            out = np.where(x >= 0, -np.expm1(-np.maximum(x, 0.0) / self.param), 0.0)
        else:
            out = np.where(x >= self.param, 1.0, 0.0)
        return out if out.ndim else float(out)

    def ppf(self, q):
        """Quantile function (generalized inverse of the CDF)."""
        q = np.asarray(q, dtype=float)
        require(np.all((q >= 0) & (q <= 1)), "quantile level q", "in [0, 1]")
        if self.kind == EXPONENTIAL:
            out = -self.param * np.log1p(-np.minimum(q, 1.0 - 1e-16))
        else:
            out = np.full_like(q, self.param)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class ChannelTriple:
    """Joint law of the three independent power gains."""

    h_m: GainDistribution
    h_e: GainDistribution
    h_z: GainDistribution

    @property
    def is_degenerate(self) -> bool:
        return self.h_m.is_degenerate and self.h_e.is_degenerate and self.h_z.is_degenerate

    def components(self) -> tuple[GainDistribution, GainDistribution, GainDistribution]:
        return (self.h_m, self.h_e, self.h_z)


class SampleBatch(NamedTuple):
    """A reproducible batch of n i.i.d. gain triples, one array of n per link."""

    h_m: np.ndarray
    h_e: np.ndarray
    h_z: np.ndarray


def substream(seed: int, *key: int) -> int:
    """Derive a child seed deterministically from (seed, key)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def _generator(seed: int) -> np.random.Generator:
    # Philox is counter-based: the stream is a pure function of the key,
    # so draws cannot be reordered by parallel evaluation.
    return np.random.Generator(np.random.Philox(key=int(seed)))


def sample(dist: ChannelTriple, seed: int, n: int) -> SampleBatch:
    """Draw n i.i.d. gain triples ``(h_m, h_e, h_z)``, each link's ``ppf`` of its own
    row of n Philox uniforms; bit-identical for identical inputs.  The uniforms are
    below 1 in steps of 2**-53, so ``ppf``'s clamp at the largest double below 1
    never acts."""
    require(isinstance(seed, numbers.Integral) and seed >= 0, "seed", "an integer >= 0")
    require(isinstance(n, numbers.Integral) and n >= 1, "n", "an integer >= 1")
    u = _generator(seed).random((3, n))
    return SampleBatch(*(d.ppf(q) for d, q in zip(dist.components(), u)))


@dataclass(frozen=True)
class MonteCarlo:
    """Estimate by averaging ``n`` draws of :func:`sample` keyed by ``seed``."""

    seed: int
    n: int = 1_000_000


def expect(
    dist: GainDistribution,
    f: Callable[[np.ndarray], np.ndarray],
) -> tuple[float | np.ndarray, float]:
    """E[f(H)] by adaptive quadrature; returns (value, error_estimate).

    ``f`` may be array-valued: it is called with one scalar gain at a time
    and the value has the shape of its result.  The error estimate is the
    tolerance met by every element: 1e-9, or 1e-12 of the largest element
    when that is larger.  For a point mass the value is exact and the error
    is zero.
    """
    if dist.is_degenerate:
        out = np.asarray(f(np.asarray(dist.param)), dtype=float)
        return (out if out.ndim else float(out)), 0.0

    from scipy import integrate  # imported here: a run with no quadrature skips its cost

    # Integrate over u = x/mu against e^{-u}, so that the rule does not
    # depend on the scale of the mean.
    mu = dist.param
    value, abserr, info = integrate.quad_vec(
        lambda u: np.asarray(f(np.asarray(mu * u)), dtype=float) * np.exp(-u),
        0.0, np.inf, epsabs=_QUAD_TOL, epsrel=1e-12, norm="max",
        limit=400, full_output=True,
    )
    value = np.asarray(value, dtype=float)
    bound = max(_QUAD_TOL, 1e-12 * float(np.max(np.abs(value))))
    if info.status != 0 or abserr > bound:
        raise NonConvergence(
            f"quadrature error {abserr:.3g} exceeds tolerance {bound:.3g}"
        )
    return (value if value.ndim else float(value)), bound
