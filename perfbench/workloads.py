"""The benchmark's three workloads: inputs made from a seed, one timed
pass through a public entry point, and checks of every output against
references that do not depend on the seed.

All use the paper setup p = p_j = 1.  Each pass is a closed loop: one
caller makes one call, waits for it, then makes the next.

* ``delay-sweep``: ``cli.main`` on a delay-limited sweep.  The Monte
  Carlo pilot path dominates, and it is the only workload that reuses
  sample batches (across bisection steps and across alpha).
* ``fading-jammer``: two library ``solve`` calls with a fading jamming
  link.  It draws no samples; the time goes to per-cell quadrature and
  per-knot rate searches.
* ``ergodic-region``: ``cli.main`` on the 20x20 dominance region of
  acceptance criterion 7.  No ``delay_limited`` code runs, and every
  sample batch is distinct.

An operation is one (alpha, regime) solve or one grid cell.  It fails
if it raises or if an output it produced fails a check.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml
from scipy import integrate, special

from secrates import cli
from secrates import delay_limited as dl
from secrates.adversary import CsiRegime
from secrates.channels import ChannelTriple, GainDistribution
from secrates.phy_rates import SystemParams

POWER = {"p": 1.0, "p_j": 1.0}
SP = SystemParams(1.0, 1.0)


def _exp(mean: float) -> dict:
    return {"kind": "exponential", "mean": mean}


@dataclass
class Outcome:
    """Result of checking one pass."""

    ops: list[str]
    failed: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    err_bar: float = 0.0  # largest error bar on any reported number
    output: bytes = b""  # output bytes, compared between traced and untraced passes

    def fail(self, ops, why: str) -> None:
        self.failed.update(ops)
        self.problems.append(why)


def _read_csv(path: Path) -> tuple[bytes, list[dict]]:
    raw = path.read_bytes()
    return raw, list(csv.DictReader(io.StringIO(raw.decode("utf-8"))))


class _CliWorkload:
    """Base of the workloads that run ``cli.main`` on a generated config file."""

    def __init__(self, seed: int, smoke: bool, work_dir: Path):
        self.config = self.make_config(seed, smoke)
        self.ops = self.make_ops(self.config)
        self.config_path = work_dir / "config.yaml"
        # JSON is valid YAML
        self.config_path.write_text(json.dumps(self.config, indent=1), encoding="utf-8")
        # config resolution through the program's public surface: parse the
        # command line and load the config file
        self.argv = ["--config", str(self.config_path)]
        args = cli.build_parser().parse_args(self.argv)
        yaml.safe_load(args.config.read_text(encoding="utf-8"))

    def run(self, out_dir: Path):
        return cli.main(self.argv + ["--out-dir", str(out_dir)])


# -- delay-sweep ---------------------------------------------------------------

# Closed-form regimes at rate_tol = 1e-4 (the program's 256-knot packet policy).
_CLOSED = {0.1: (2.41864, 2.95251), 0.5: (0.36053, 1.29358)}
# Pilot feedback: (r_s, dC/dr_s).  r_s is the mean of two solves at
# mc_n = 2e6 (seeds 90001, 90002); the slope is a central difference of
# C over r_s +- 0.05 at mc_n = 2e6.  The reference's own standard error,
# about 1e-3 in r_s, is under a twentieth of the band at 2e5 samples.
_PILOT = {0.1: (3.19162, -0.1345), 0.5: (1.35745, -0.2628)}
_PILOT_K = 5.0  # band half-width in standard errors of r_s


class DelaySweep(_CliWorkload):
    name = "delay-sweep"
    regimes = ("nocsi", "packet", "pilot")

    @staticmethod
    def make_config(seed: int, smoke: bool) -> dict:
        return {
            "scenario": "delay-limited-sweep",
            "alphas": [0.5] if smoke else [0.1, 0.5, 0.9],
            "channels": {"h_m": _exp(10.0), "h_e": _exp(1.0),
                         "h_z": {"kind": "deterministic", "value": 1.0}},
            "power": POWER,
            "seed": seed,
            "samples": 10_000 if smoke else 200_000,
            "rate_tol": 1e-4,
        }

    @classmethod
    def make_ops(cls, config: dict) -> list[str]:
        return [f"{a}/{r}" for a in config["alphas"] for r in cls.regimes]

    def check(self, result, out_dir: Path) -> Outcome:
        alphas = self.config["alphas"]
        tol = self.config["rate_tol"]
        out = Outcome(list(self.ops), err_bar=tol)
        if result != cli.EXIT_OK:
            out.fail(out.ops, f"exit code {result!r}")
            return out
        out.output, rows = _read_csv(out_dir / "delay_limited_sweep.csv")
        if [float(r["alpha"]) for r in rows] != alphas:
            out.fail(out.ops, "rows do not match the configured alphas")
            return out
        for row in rows:
            a = float(row["alpha"])
            op = {r: f"{a}/{r}" for r in self.regimes}
            rs = {r: float(row[f"r_s_{r}"]) for r in self.regimes}
            se = {r: float(row[f"c_stderr_{r}"]) for r in self.regimes}
            infeasible = {r: row[f"infeasible_{r}"] == "1" for r in self.regimes}
            out.err_bar = max(out.err_bar, *se.values())
            if a >= 0.9:
                for r in self.regimes:
                    if not infeasible[r] or rs[r] != 0.0:
                        out.fail([op[r]], f"alpha={a} {r}: expected infeasible")
                continue
            for r in self.regimes:
                if infeasible[r]:
                    out.fail([op[r]], f"alpha={a} {r}: flagged infeasible")
            for r, ref in zip(("nocsi", "packet"), _CLOSED[a]):
                if abs(rs[r] - ref) > 2 * tol:
                    out.fail([op[r]], f"alpha={a} {r}: r_s={rs[r]} vs closed form {ref}")
            ref, slope = _PILOT[a]
            band = 2 * tol + _PILOT_K * se["pilot"] / abs(slope)
            if not abs(rs["pilot"] - ref) <= band:
                out.fail([op["pilot"]],
                         f"alpha={a} pilot: r_s={rs['pilot']} outside {ref} +- {band:.3g}")
            if rs["nocsi"] > rs["packet"] + 2 * tol:
                out.fail([op["packet"]], f"alpha={a}: no-CSI above packet")
            if rs["packet"] > rs["pilot"] + 2 * tol:
                out.fail([op["pilot"]], f"alpha={a}: packet above pilot")
        return out


# -- fading-jammer -------------------------------------------------------------

_FJ_ALPHA = 0.5
_FJ_TOL = 1e-3
# r_s references at rate_tol = 1e-3; packet depends on the knot count.
_FJ_REF = {"nocsi": 0.41602, "packet": {64: 0.78613, 16: 0.78125}}


class FadingJammer:
    name = "fading-jammer"

    def __init__(self, seed: int, smoke: bool, work_dir: Path):
        self.n_knots = 16 if smoke else 64
        self.dist = ChannelTriple(GainDistribution.exponential(10.0),
                                  GainDistribution.exponential(1.0),
                                  GainDistribution.exponential(1.0))
        self.calls = (
            ("nocsi", CsiRegime.NO_CSI, dl.SearchConfig(rate_tol=_FJ_TOL, seed=seed)),
            ("packet", CsiRegime.PACKET_FEEDBACK,
             dl.SearchConfig(rate_tol=_FJ_TOL, n_knots=self.n_knots, seed=seed)),
        )
        self.ops = [op for op, _, _ in self.calls]

    def run(self, out_dir: Path):
        results = {}
        for op, regime, cfg in self.calls:
            try:
                results[op] = dl.solve(regime, SP, self.dist, _FJ_ALPHA, cfg)
            except Exception as exc:  # a raising solve is a failed operation
                results[op] = exc
        return results

    def check(self, results, out_dir: Path) -> Outcome:
        out = Outcome(list(self.ops), err_bar=_FJ_TOL)
        refs = {"nocsi": _FJ_REF["nocsi"], "packet": _FJ_REF["packet"][self.n_knots]}
        for op, sol in results.items():
            if isinstance(sol, Exception):
                out.fail([op], f"{op}: raised {sol!r}")
                continue
            out.output += repr((op, sol.r_s_star, sol.report.c_min,
                                sol.report.std_err)).encode()
            out.err_bar = max(out.err_bar, sol.report.std_err)
            if abs(sol.r_s_star - refs[op]) > 2 * _FJ_TOL:
                out.fail([op], f"{op}: r_s={sol.r_s_star} vs {refs[op]}")
            if not (sol.report.feasible and sol.report.c_min >= _FJ_ALPHA):
                out.fail([op], f"{op}: c_min={sol.report.c_min} below alpha")
        return out


# -- ergodic-region ------------------------------------------------------------

_SPOT_K = 4.0  # spot cells must lie within this many reported standard errors


def _mean_log2_1p(a):
    """E[log2(1 + a X)] for X ~ Exp(1): e^{1/a} E1(1/a) / ln 2."""
    x = 1.0 / a
    if x > 500.0:  # e^x E1(x) = 1/(x + 1) to O(x^-3); avoids overflow
        return 1.0 / (x + 1.0) / math.log(2.0)
    return math.exp(x) * special.exp1(x) / math.log(2.0)


def ergodic_reference(e_he: float, e_hm: float, hz_mean: float, hz_star: float):
    """(r_nocsi, r_upper) by quadrature, independent of the program.

    r_nocsi = E_z[E log2(1 + H_m/(1 + z))] - E log2(1 + H_e), with the
    inner means in closed form.  For r_upper, E[(A - B)^+] equals
    the integral over t >= 0 of P(B <= t) P(A > t) for independent A, B.
    """
    p, pj = SP.p, SP.p_j

    def over_z(f):
        val, _ = integrate.quad(lambda z: math.exp(-z / hz_mean) / hz_mean * f(z),
                                0.0, math.inf, epsabs=1e-11, epsrel=1e-10, limit=200)
        return val

    nocsi = over_z(lambda z: _mean_log2_1p(p * e_hm / (1.0 + pj * z))) \
        - _mean_log2_1p(p * e_he)

    def pos_part(z):
        def integrand(t):
            if t > 64.0:  # integrand below e^-1e16 for E[H_m] up to 1e3
                return 0.0
            s = 2.0 ** t - 1.0
            return -math.expm1(-s / (p * e_he)) * math.exp(-s * (1.0 + pj * z) / (p * e_hm))
        val, _ = integrate.quad(integrand, 0.0, math.inf, epsabs=1e-12, epsrel=1e-10,
                                limit=200)
        return val

    upper = over_z(pos_part) * -math.expm1(-hz_star / hz_mean)
    return max(nocsi, 0.0), upper


class ErgodicRegion(_CliWorkload):
    name = "ergodic-region"

    @staticmethod
    def make_config(seed: int, smoke: bool) -> dict:
        n = 3 if smoke else 20
        return {
            "scenario": "ergodic-region",
            "grid": {"he": {"start": 0.1, "stop": 2.0, "num": n},
                     "hm": {"start": 0.5, "stop": 200.0, "num": n}},
            "channels": {"h_m": _exp(10.0), "h_e": _exp(1.0), "h_z": _exp(1.0)},
            "power": POWER,
            "seed": seed,
            "samples": 10_000 if smoke else 100_000,
            "hz_quantile": 0.75,
        }

    _refs: dict | None = None

    @staticmethod
    def make_ops(config: dict) -> list[str]:
        n, m = config["grid"]["he"]["num"], config["grid"]["hm"]["num"]
        return [f"{i},{j}" for i in range(n) for j in range(m)]

    def spot_references(self, he: np.ndarray, hm: np.ndarray) -> dict:
        """Quadrature references at three cells, computed once per process."""
        if self._refs is None:
            n, m = he.size, hm.size
            hz_mean = self.config["channels"]["h_z"]["mean"]
            hz_star = -hz_mean * math.log1p(-self.config["hz_quantile"])
            self._refs = {
                (i, j): ergodic_reference(he[i], hm[j], hz_mean, hz_star)
                for i, j in ((0, m - 1), (n // 2, m // 2), (n - 1, 0))
            }
        return self._refs

    def check(self, result, out_dir: Path) -> Outcome:
        g = self.config["grid"]
        he = np.geomspace(g["he"]["start"], g["he"]["stop"], g["he"]["num"])
        hm = np.geomspace(g["hm"]["start"], g["hm"]["stop"], g["hm"]["num"])
        cell = [[f"{i},{j}" for j in range(hm.size)] for i in range(he.size)]
        out = Outcome(list(self.ops))
        if result != cli.EXIT_OK:
            out.fail(out.ops, f"exit code {result!r}")
            return out
        grid_raw, rows = _read_csv(out_dir / "ergodic_grid.csv")
        bnd_raw, bnd = _read_csv(out_dir / "ergodic_boundary.csv")
        out.output = grid_raw + bnd_raw
        if len(rows) != len(out.ops) or len(bnd) != he.size:
            out.fail(out.ops, "grid or boundary has the wrong number of rows")
            return out
        col = {k: np.array([float(r[k]) for r in rows]).reshape(he.size, hm.size)
               for k in ("r_nocsi", "r_upper", "err_nocsi", "err_upper")}
        out.err_bar = max(float(col["err_nocsi"].max()), float(col["err_upper"].max()),
                          max(float(b["gap_err"]) for b in bnd))

        # criterion 7: across-blocks wins wherever the main link dominates,
        # and along each E[H_e] row the confident sign changes at most once
        gap = col["r_nocsi"] - col["r_upper"]
        confident = np.abs(gap) > 3 * np.hypot(col["err_nocsi"], col["err_upper"])
        strong = (hm[None, :] / he[:, None] >= 100.0) & confident
        if not strong.any():
            out.fail(out.ops, "no confident cell with E[H_m]/E[H_e] >= 100")
        for i, j in zip(*np.nonzero(strong & (gap <= 0))):
            out.fail([cell[i][j]], f"cell {i},{j}: block-by-block wins a strong cell")
        for i in range(he.size):
            signs = np.sign(gap[i][confident[i]])
            if np.count_nonzero(np.diff(signs)) > 1:
                out.fail(cell[i], f"row {i}: dominance boundary not connected")
        if not any(b["status"] == "ok" for b in bnd):
            out.fail(out.ops, "no boundary point with status=ok")

        for (i, j), refs in self.spot_references(he, hm).items():
            for key, ref in zip(("nocsi", "upper"), refs):
                got, err = col[f"r_{key}"][i, j], col[f"err_{key}"][i, j]
                if not abs(got - ref) <= _SPOT_K * err:
                    out.fail([cell[i][j]], f"cell {i},{j} r_{key}={got} vs quadrature "
                                           f"{ref:.6g} (err {err:.3g})")
        return out


WORKLOADS = {w.name: w for w in (DelaySweep, FadingJammer, ErgodicRegion)}
