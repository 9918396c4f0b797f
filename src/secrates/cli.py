"""Config-driven experiment runner producing plot-ready CSVs and manifests.

Scenarios: the delay-limited secrecy-rate sweep over the outage threshold,
the ergodic dominance-region grid, and single-point evaluations for
debugging.  Every CSV is accompanied by a JSON manifest embedding the
fully resolved configuration; re-running from a manifest reproduces the
CSV byte for byte.
"""

from __future__ import annotations

import argparse
import json
import numbers
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .adversary import CsiRegime
from .channels import ChannelTriple, GainDistribution
from .delay_limited import SearchConfig, c_min_closed_form, solve
from .ergodic import ErgodicConfig, RegionConfig, dominance_region, rate_arq, rate_nocsi, rate_upper_bound
from .errors import ConfigError, NonConvergence, NonMonotone, SecratesError, UnsupportedRegime
from .phy_rates import SystemParams
from .policies import RatePolicy

SCENARIOS = ("delay-limited-sweep", "ergodic-region", "point-eval")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_INFEASIBLE = 4


def _number(v) -> float:
    """``v`` as a float; YAML's true and false are ints in Python, but not numbers."""
    if isinstance(v, bool):
        raise ValueError(f"expected a number, got {v!r}")
    return float(v)


def _integer(v) -> int:
    """``v`` as an int; a float or numeric string must be integral (1.0e6, not 1.9)."""
    if isinstance(v, numbers.Integral) and not isinstance(v, bool):
        return int(v)
    x = _number(v)
    if not x.is_integer():
        raise ValueError(f"expected an integer, got {v!r}")
    return int(x)


_FINITE_NONNEG = (lambda v: 0.0 <= v < np.inf, "finite and >= 0")
# Each scalar key: (coercion, range test, the range in words, default or None if
# required).  The top-level scalars, each value of ``alphas``, and ``point.args``.
_KEYS = {
    "seed": (_integer, lambda v: v >= 0, ">= 0", 20240),
    # a pilot solve peaks at about 60 bytes per draw: 10**8 draws take several GB
    "samples": (_integer, lambda v: 1 <= v <= 10**8, "from 1 to 10**8", 1_000_000),
    "rate_tol": (_number, lambda v: 0.0 < v < np.inf, "finite and > 0", 1e-4),
    "hz_star": (_number, *_FINITE_NONNEG, None),
    "hz_quantile": (_number, lambda v: 0.0 < v < 1.0, "in (0, 1)", 0.75),
    "alpha": (_number, lambda v: 0.0 < v <= 1.0, "in (0, 1]", None),
    "R": (_number, *_FINITE_NONNEG, None),
    "r_s": (_number, *_FINITE_NONNEG, None),
    "x": (_number, lambda v: not np.isnan(v), "a number", None),
    "channel": (str, lambda v: v in ("h_m", "h_e", "h_z"), "h_m, h_e or h_z", "h_e"),
    "regime": (CsiRegime, lambda v: True, "no_csi, packet_feedback or pilot_feedback", "no_csi"),
}
_DEFAULT_CHANNELS = {
    "h_m": {"kind": "exponential", "mean": 10.0},
    "h_e": {"kind": "exponential", "mean": 1.0},
    "h_z": {"kind": "deterministic", "value": 1.0},
}


def _cell(v) -> str:
    """A string as is, None empty, a bool 1 or 0, else the float's shortest round-trip decimal."""
    if isinstance(v, str):
        return v
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    return repr(float(v))


def _write_csv(path: Path, columns: dict) -> None:
    """The ``columns`` (arrays or lists, flattened row-major) side by side, in dict order."""
    rows = zip(*(np.ravel(col).tolist() for col in columns.values()))
    lines = [",".join(columns)] + [",".join(map(_cell, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _build(where: str, make, *args):
    """``make(*args)``, or a ConfigError naming ``where`` (InvalidInput is a ValueError)."""
    try:
        return make(*args)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _value(key: str, section: dict, where: str | None = None):
    """``section[key]`` read through its ``_KEYS`` entry; errors name ``where`` (or ``key``)."""
    coerce, ok, rule, default = _KEYS[key]
    where = where or key
    if key not in section and default is None:
        raise ConfigError(f"{where}: missing")
    value = _build(where, coerce, section.get(key, default))
    if not ok(value):
        raise ConfigError(f"{where}: must be {rule}, got {value!r}")
    return value


def _known(section: dict, keys: tuple[str, ...], where: str) -> None:
    """Refuse a key of ``section`` outside ``keys``, naming its path ``where`` + key."""
    for key in section:
        if key not in keys:
            raise ConfigError(f"{where}{key}: unknown key; expected one of {', '.join(keys)}")


def _parse_gain(channels, name: str) -> GainDistribution:
    where = f"channels.{name}"
    section = channels.get(name) if isinstance(channels, dict) else None
    kind = section.get("kind") if isinstance(section, dict) else None
    if kind not in ("exponential", "deterministic"):
        raise ConfigError(f"{where}: expected a mapping whose kind is exponential or deterministic")
    param = "mean" if kind == "exponential" else "value"
    return _build(where, lambda: GainDistribution(kind, _number(section[param])))


def _axis(section, where: str) -> dict:
    """A finite, positive, increasing axis as the manifest records it, its spacing filled in."""
    start, stop, num = _build(f"{where} (start/stop/num)", lambda: (
        _number(section["start"]), _number(section["stop"]), _integer(section["num"])))
    if not (num >= 1 and 0 < start <= stop < np.inf and (num == 1 or stop > start)):
        raise ConfigError(f"{where}: axis must be finite, positive and increasing")
    _known(section, ("start", "stop", "num", "spacing"), f"{where}.")
    spacing = section.get("spacing", "log")
    if spacing not in ("log", "linear"):
        raise ConfigError(f"{where}.spacing: expected log or linear, got {spacing!r}")
    return {"start": start, "stop": stop, "num": num, "spacing": spacing}


@dataclass(frozen=True)
class Experiment:
    """A resolved config, as the manifest records it, and the library objects built from it."""

    config: dict
    sp: SystemParams
    dist: ChannelTriple
    search: SearchConfig | None = None  # delay-limited-sweep and a point-eval solve
    hz_star: float | None = None  # the H_z threshold; ergodic-region and point-eval
    axes: tuple[np.ndarray, np.ndarray] | None = None  # (E[H_e], E[H_m]); ergodic-region


def _resolve(config: dict) -> Experiment:
    """Validate the config, fill in defaults and build the library objects."""
    scenario = config.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario: expected one of {SCENARIOS}, got {scenario!r}")
    _known(config, ("scenario", "alphas", "channels", "power", "grid", "point", "seed",
                    "samples", "rate_tol", "hz_star", "hz_quantile"), "")
    out = {
        "scenario": scenario,
        "channels": config.get("channels", _DEFAULT_CHANNELS),
        "power": config.get("power", {"p": 1.0, "p_j": 1.0}),
    }
    def search_config() -> SearchConfig:
        # solve() reads seed, samples and rate_tol only for a pilot solve's batch and bisection
        out.update({key: _value(key, config) for key in ("seed", "samples", "rate_tol")})
        return SearchConfig(rate_tol=out["rate_tol"], mc_n=out["samples"], seed=out["seed"])

    dist = ChannelTriple(*(_parse_gain(out["channels"], name) for name in ("h_m", "h_e", "h_z")))
    sp = _build("power", lambda: SystemParams(_number(out["power"]["p"]), _number(out["power"]["p_j"])))

    if scenario == "delay-limited-sweep":
        alphas = config.get("alphas")
        if not isinstance(alphas, list) or not alphas:
            raise ConfigError("alphas: a non-empty list is required for the sweep")
        out["alphas"] = sorted(_value("alpha", {"alpha": a}, "alphas") for a in alphas)
        return Experiment(out, sp, dist, search_config())
    axes, solver = None, None
    if scenario == "ergodic-region":
        grid = config.get("grid")
        if not isinstance(grid, dict) or "he" not in grid or "hm" not in grid:
            raise ConfigError("grid: he and hm axes are required for ergodic-region")
        out["grid"] = {name: _axis(grid[name], f"grid.{name}") for name in ("he", "hm")}
        he, hm = out["grid"].values()
        if he["num"] * hm["num"] > 10**6:  # each region array holds a float per cell
            raise ConfigError(f"grid.he.num x grid.hm.num: must be at most 10**6 cells, "
                              f"got {he['num']} x {hm['num']}")
        axes = tuple((np.geomspace if axis["spacing"] == "log" else np.linspace)(
            axis["start"], axis["stop"], axis["num"]) for axis in (he, hm))
    else:
        point = config.get("point")
        if not isinstance(point, dict) or "op" not in point:
            raise ConfigError("point: a mapping with an 'op' key is required")
        out["point"] = point
        args = point.get("args") or {}
        if not isinstance(args, dict):
            raise ConfigError("point.args: expected a mapping")
        _known(args, ("alpha", "R", "r_s", "x", "channel", "regime"), "point.args.")
        if point["op"] == "solve":
            pilot = _value("regime", args, "point.args.regime") is CsiRegime.PILOT_FEEDBACK
            solver = search_config() if pilot else SearchConfig()
    if "hz_star" in config:
        out["hz_star"] = hz_star = _value("hz_star", config)
    else:
        q = _value("hz_quantile", config)
        if "hz_quantile" in config or scenario == "ergodic-region":
            out["hz_quantile"] = q
        hz_star = float(dist.h_z.ppf(q))
    if scenario == "ergodic-region" and (dist.h_m.is_degenerate or dist.h_e.is_degenerate):
        raise ConfigError("channels.h_m, channels.h_e: ergodic-region needs both exponential")
    return Experiment(out, sp, dist, solver, hz_star, axes)


def _write_manifest(out_dir: Path, resolved: dict, outputs: list[str], wall_clock: float) -> None:
    manifest = {
        "tool": "secrates",
        "version": __version__,
        "config": resolved,
        "outputs": outputs,
        "wall_clock_s": wall_clock,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def run_delay_limited_sweep(exp: Experiment) -> tuple[int, dict]:
    """The exit code and ``{csv name: columns}``; every alpha's solves come before the next's."""
    rows = [[solve(regime, exp.sp, exp.dist, alpha, exp.search) for regime in CsiRegime]
            for alpha in exp.config["alphas"]]
    columns = {"alpha": exp.config["alphas"]}
    for field, get in (("r_s", lambda s: s.r_s_star), ("c_stderr", lambda s: s.report.std_err),
                       ("infeasible", lambda s: not s.report.feasible)):
        for name, sols in zip(("nocsi", "packet", "pilot"), zip(*rows)):
            columns[f"{field}_{name}"] = [get(sol) for sol in sols]
    code = EXIT_INFEASIBLE if all(not s.report.feasible for row in rows for s in row) else EXIT_OK
    return code, {"delay_limited_sweep.csv": columns}


def run_ergodic_region(exp: Experiment) -> tuple[int, dict]:
    region = dominance_region(*exp.axes, RegionConfig(exp.sp, exp.dist.h_z, exp.hz_star))
    e_he, e_hm = np.meshgrid(region.he_means, region.hm_means, indexing="ij")
    gap = region.r_nocsi - region.r_upper
    grid = {"e_he": e_he, "e_hm": e_hm, "r_nocsi": region.r_nocsi, "r_upper": region.r_upper,
            "err_nocsi": region.err_nocsi, "err_upper": region.err_upper,
            "winner": np.select([gap > 0, gap < 0], ["across_blocks", "block_by_block"], "tie")}
    bnd = region.boundary
    boundary = {"e_he": [b.e_he for b in bnd], "e_hm_boundary": [b.e_hm for b in bnd],
                "status": [b.status for b in bnd], "gap_err": [b.gap_err for b in bnd]}
    return EXIT_OK, {"ergodic_grid.csv": grid, "ergodic_boundary.csv": boundary}


def run_point_eval(exp: Experiment) -> tuple[int, dict]:
    point = exp.config["point"]
    op = point["op"]
    args = point.get("args") or {}

    if op == "cdf":
        which = _value("channel", args, "point.args.channel")
        value = getattr(exp.dist, which).cdf(_value("x", args, "point.args.x"))
        print(f"cdf[{which}]({args['x']}) = {value!r}")
    elif op in ("rate_nocsi", "rate_upper_bound", "rate_arq"):
        fn = {"rate_nocsi": rate_nocsi, "rate_upper_bound": rate_upper_bound,
              "rate_arq": rate_arq}[op]
        value, err = fn(ErgodicConfig(exp.sp, exp.dist, exp.hz_star))
        print(f"{op} = {value!r} +- {err!r}")
    elif op == "c_min_closed_form":
        reg = _value("regime", args, "point.args.regime")
        rate, r_s = (_value(key, args, f"point.args.{key}") for key in ("R", "r_s"))
        try:
            value = c_min_closed_form(reg, RatePolicy.constant(rate), r_s, exp.sp, exp.dist)
        except UnsupportedRegime as exc:
            raise ConfigError(f"point.args.regime: {exc}") from exc
        print(f"c_min_closed_form[{reg.value}](R={args['R']}, r_s={args['r_s']}) = {value!r}")
    elif op == "solve":
        reg = _value("regime", args, "point.args.regime")
        sol = solve(reg, exp.sp, exp.dist, _value("alpha", args, "point.args.alpha"), exp.search)
        print(
            f"solve[{reg.value}](alpha={args['alpha']}) = {sol.r_s_star!r} "
            f"(C={sol.report.c_min!r} +- {sol.report.std_err!r}, "
            f"feasible={sol.report.feasible})"
        )
    else:
        raise ConfigError(f"point.op: unknown operation {op!r}")
    return EXIT_OK, {}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="secrates",
        description="Secrecy-rate experiments for the hybrid-adversary wiretap channel",
    )
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=Path, help="YAML experiment config")
    source.add_argument("--rerun", type=Path, help="re-run from a manifest.json")
    p.add_argument("--out-dir", type=Path, default=Path("."))
    return p


def _load_config(args) -> dict:
    """The mapping in the ``--config`` file, or the config a ``--rerun`` manifest records."""
    if args.rerun is not None:
        try:
            manifest = json.loads(args.rerun.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # a JSON or UTF-8 decode error is a ValueError
            raise ConfigError(f"--rerun: {exc}") from exc
        if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
            raise ConfigError("--rerun: manifest has no 'config' mapping")
        return manifest["config"]
    try:
        config = yaml.safe_load(args.config.read_text(encoding="utf-8")) or {}
    except (OSError, ValueError, yaml.YAMLError) as exc:
        raise ConfigError(f"--config: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("--config: expected a mapping")
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        exp = _resolve(_load_config(args))
        try:
            args.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # e.g. the path names an existing file
            raise ConfigError(f"--out-dir: {exc}") from exc
        runner = {
            "delay-limited-sweep": run_delay_limited_sweep,
            "ergodic-region": run_ergodic_region,
            "point-eval": run_point_eval,
        }[exp.config["scenario"]]
        t0 = time.monotonic()
        code, tables = runner(exp)
        for name, columns in tables.items():
            _write_csv(args.out_dir / name, columns)
        if tables:
            _write_manifest(args.out_dir, exp.config, list(tables), time.monotonic() - t0)
            print("wrote " + " and ".join(str(args.out_dir / name) for name in tables))
        return code
    except (NonConvergence, NonMonotone) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except SecratesError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"config error: out of memory; lower samples: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
