"""Channel-encoding rate policies: piecewise-constant in h_m."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import require


@dataclass(frozen=True)
class RatePolicy:
    """Code-rate rule R(h_m), a table of knots.

    Piecewise-constant, left-closed on sorted knot positions: the rate for
    ``h_m`` in ``[knots_h[k], knots_h[k+1])`` is ``knots_r[k]``; below the
    first knot the first rate applies, at or above the last knot the last.
    A constant policy is the table of one knot.
    """

    knots_h: np.ndarray = field(repr=False)
    knots_r: np.ndarray = field(repr=False)

    @classmethod
    def constant(cls, rate: float) -> "RatePolicy":
        require(0 <= rate < np.inf, "rate", "finite and >= 0")
        return cls.tabulated([0.0], [rate])

    @classmethod
    def tabulated(cls, knots_h, knots_r) -> "RatePolicy":
        h = np.asarray(knots_h, dtype=float)
        r = np.asarray(knots_r, dtype=float)
        require(h.ndim == 1 and h.shape == r.shape and h.size > 0, "knots_h and knots_r",
                "nonempty 1-D arrays of equal length")
        require(np.all(np.isfinite(h)) and np.all(np.diff(h) > 0), "knots_h",
                "finite and strictly increasing")
        require(np.all((r >= 0) & (r < np.inf)), "knots_r", "finite and >= 0")
        return cls(h, r)

    @property
    def is_constant(self) -> bool:
        return self.knots_h.size == 1

    def rate_at(self, h_m):
        """Evaluate R(h_m), vectorized."""
        out = self.knots_r[cell_index(self.knots_h, np.asarray(h_m, dtype=float))]
        return out if out.ndim else float(out)

    def cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lo, hi, rate) arrays of the cells [lo, hi) covering [0, inf)."""
        gap = self.knots_h[0] > 0  # the first rate also covers [0, knots_h[0])
        edges = np.concatenate([[0.0] if gap else [], self.knots_h, [np.inf]])
        rates = np.concatenate([self.knots_r[:1], self.knots_r]) if gap else self.knots_r
        return edges[:-1], edges[1:], rates


def cell_index(knots_h: np.ndarray, h_m) -> np.ndarray:
    """Index of the left-closed knot cell holding each h_m (0 below the first knot)."""
    return np.clip(np.searchsorted(knots_h, h_m, side="right") - 1, 0, knots_h.size - 1)
