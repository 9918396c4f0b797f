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
import sys
import time
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

_REGIMES = {
    "no_csi": CsiRegime.NO_CSI,
    "packet_feedback": CsiRegime.PACKET_FEEDBACK,
    "pilot_feedback": CsiRegime.PILOT_FEEDBACK,
}


def _fmt(x) -> str:
    """Shortest round-trip decimal; locale-independent."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _parse_gain(section, where: str) -> GainDistribution:
    if not isinstance(section, dict) or "kind" not in section:
        raise ConfigError(f"{where}: expected a mapping with a 'kind' key")
    kind = section["kind"]
    try:
        if kind == "exponential":
            return GainDistribution.exponential(float(section["mean"]))
        if kind == "deterministic":
            return GainDistribution.deterministic(float(section["value"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown kind {kind!r}")


def _parse_axis(section, where: str) -> np.ndarray:
    try:
        start, stop, num = float(section["start"]), float(section["stop"]), int(section["num"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: expected start/stop/num ({exc})") from exc
    if num < 1 or start <= 0 or stop < start or (num > 1 and stop == start):
        raise ConfigError(f"{where}: axis must be positive and increasing")
    if section.get("spacing", "log") == "log":
        return np.geomspace(start, stop, num)
    return np.linspace(start, stop, num)


def _coerce(kind, value, where: str):
    """``kind(value)``, or a ConfigError naming the key."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _resolve(config: dict) -> dict:
    """Validate and fill defaults; returns the manifest-ready config."""
    if not isinstance(config, dict):
        raise ConfigError("top level: expected a mapping")
    scenario = config.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario: expected one of {SCENARIOS}, got {scenario!r}")

    out = {
        "scenario": scenario,
        "channels": config.get(
            "channels",
            {
                "h_m": {"kind": "exponential", "mean": 10.0},
                "h_e": {"kind": "exponential", "mean": 1.0},
                "h_z": {"kind": "deterministic", "value": 1.0},
            },
        ),
        "power": config.get("power", {"p": 1.0, "p_j": 1.0}),
        "seed": _coerce(int, config.get("seed", 20240), "seed"),
        "samples": _coerce(int, config.get("samples", 1_000_000), "samples"),
        "rate_tol": _coerce(float, config.get("rate_tol", 1e-4), "rate_tol"),
    }
    # validate eagerly so errors name the offending key
    for name in ("h_m", "h_e", "h_z"):
        if name not in out["channels"]:
            raise ConfigError(f"channels.{name}: missing")
        _parse_gain(out["channels"][name], f"channels.{name}")
    try:
        SystemParams(float(out["power"]["p"]), float(out["power"]["p_j"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"power: {exc}") from exc
    if out["samples"] < 1:
        raise ConfigError("samples: must be >= 1")

    if scenario == "delay-limited-sweep":
        alphas = config.get("alphas")
        if not alphas:
            raise ConfigError("alphas: a non-empty list is required for the sweep")
        alphas = _coerce(lambda v: [float(a) for a in v], alphas, "alphas")
        if any(not (0.0 < a <= 1.0) for a in alphas):
            raise ConfigError("alphas: every value must lie in (0, 1]")
        out["alphas"] = sorted(alphas)
    elif scenario == "ergodic-region":
        grid = config.get("grid")
        if not isinstance(grid, dict) or "he" not in grid or "hm" not in grid:
            raise ConfigError("grid: he and hm axes are required for ergodic-region")
        _parse_axis(grid["he"], "grid.he")
        _parse_axis(grid["hm"], "grid.hm")
        out["grid"] = grid
    else:
        point = config.get("point")
        if not isinstance(point, dict) or "op" not in point:
            raise ConfigError("point: a mapping with an 'op' key is required")
        out["point"] = point
    if scenario != "delay-limited-sweep":
        if "hz_star" in config:
            out["hz_star"] = _coerce(float, config["hz_star"], "hz_star")
            if not out["hz_star"] >= 0.0:
                raise ConfigError("hz_star: must be >= 0")
        elif "hz_quantile" in config or scenario == "ergodic-region":
            out["hz_quantile"] = _coerce(float, config.get("hz_quantile", 0.75), "hz_quantile")
            if not 0.0 < out["hz_quantile"] < 1.0:
                raise ConfigError("hz_quantile: must lie in (0, 1)")
    return out


def _channels(resolved) -> ChannelTriple:
    c = resolved["channels"]
    return ChannelTriple(
        _parse_gain(c["h_m"], "channels.h_m"),
        _parse_gain(c["h_e"], "channels.h_e"),
        _parse_gain(c["h_z"], "channels.h_z"),
    )


def _sp(resolved) -> SystemParams:
    return SystemParams(float(resolved["power"]["p"]), float(resolved["power"]["p_j"]))


def _hz_star(resolved, dist_z: GainDistribution) -> float:
    if "hz_star" in resolved:
        return float(resolved["hz_star"])
    return float(dist_z.ppf(resolved.get("hz_quantile", 0.75)))


def _write_manifest(out_dir: Path, resolved: dict, outputs: list[str],
                    results: dict, wall_clock: float) -> Path:
    manifest = {
        "tool": "secrates",
        "version": __version__,
        "config": resolved,
        "seed": resolved["seed"],
        "outputs": outputs,
        "results": results,
        "wall_clock_s": wall_clock,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def run_delay_limited_sweep(resolved: dict, out_dir: Path) -> int:
    dist = _channels(resolved)
    sp = _sp(resolved)
    cfg = SearchConfig(
        rate_tol=resolved["rate_tol"], mc_n=resolved["samples"], seed=resolved["seed"]
    )
    t0 = time.monotonic()
    rows = []
    results = {}
    any_feasible = False
    for alpha in resolved["alphas"]:
        row = [alpha]
        errs = []
        flags = []
        for regime in (CsiRegime.NO_CSI, CsiRegime.PACKET_FEEDBACK, CsiRegime.PILOT_FEEDBACK):
            sol = solve(regime, sp, dist, alpha, cfg)
            row.append(sol.r_s_star)
            errs.append(sol.report.std_err)
            flags.append(not sol.report.feasible)
            any_feasible = any_feasible or sol.report.feasible
        rows.append(row + errs + flags)
        results[f"alpha_{alpha:g}"] = {"stderr_pilot": errs[2]}
    header = [
        "alpha", "r_s_nocsi", "r_s_packet", "r_s_pilot",
        "c_stderr_nocsi", "c_stderr_packet", "c_stderr_pilot",
        "infeasible_nocsi", "infeasible_packet", "infeasible_pilot",
    ]
    csv_path = out_dir / "delay_limited_sweep.csv"
    _write_csv(csv_path, header, rows)
    _write_manifest(out_dir, resolved, [csv_path.name], results, time.monotonic() - t0)
    print(f"wrote {csv_path}")
    return EXIT_OK if any_feasible else EXIT_INFEASIBLE


def run_ergodic_region(resolved: dict, out_dir: Path) -> int:
    dist = _channels(resolved)
    sp = _sp(resolved)
    he = _parse_axis(resolved["grid"]["he"], "grid.he")
    hm = _parse_axis(resolved["grid"]["hm"], "grid.hm")
    rcfg = RegionConfig(
        sp=sp,
        h_z=dist.h_z,
        hz_quantile=resolved.get("hz_quantile"),
        hz_star=resolved.get("hz_star"),
    )
    t0 = time.monotonic()
    region = dominance_region(he, hm, rcfg)

    grid_rows = []
    for i, e_he in enumerate(region.he_means):
        for j, e_hm in enumerate(region.hm_means):
            winner = (
                "across_blocks"
                if region.r_nocsi[i, j] > region.r_upper[i, j]
                else "block_by_block"
            )
            grid_rows.append(
                [e_he, e_hm, region.r_nocsi[i, j], region.r_upper[i, j],
                 region.err_nocsi[i, j], region.err_upper[i, j], winner]
            )
    grid_path = out_dir / "ergodic_grid.csv"
    _write_csv(
        grid_path,
        ["e_he", "e_hm", "r_nocsi", "r_upper", "err_nocsi", "err_upper", "winner"],
        grid_rows,
    )

    boundary_rows = [
        [b.e_he, b.e_hm, b.status, b.gap_err] for b in region.boundary
    ]
    boundary_path = out_dir / "ergodic_boundary.csv"
    _write_csv(boundary_path, ["e_he", "e_hm_boundary", "status", "gap_err"], boundary_rows)

    n_ok = sum(1 for b in region.boundary if b.status == "ok")
    _write_manifest(
        out_dir, resolved, [grid_path.name, boundary_path.name],
        {"boundary_points": n_ok}, time.monotonic() - t0,
    )
    print(f"wrote {grid_path} and {boundary_path}")
    return EXIT_OK


def run_point_eval(resolved: dict, out_dir: Path) -> int:
    dist = _channels(resolved)
    sp = _sp(resolved)
    point = resolved["point"]
    op = point["op"]
    args = point.get("args", {}) or {}
    if not isinstance(args, dict):
        raise ConfigError("point.args: expected a mapping")

    def arg(key: str) -> float:
        if key not in args:
            raise ConfigError(f"point.args.{key}: missing")
        return _coerce(float, args[key], f"point.args.{key}")

    def regime() -> CsiRegime:
        out = _REGIMES.get(args.get("regime", "no_csi"))
        if out is None:
            raise ConfigError(f"point.args.regime: unknown regime {args.get('regime')!r}")
        return out

    if op == "cdf":
        which = args.get("channel", "h_e")
        if which not in ("h_m", "h_e", "h_z"):
            raise ConfigError(f"point.args.channel: unknown channel {which!r}")
        value = getattr(dist, which).cdf(arg("x"))
        print(f"cdf[{which}]({args['x']}) = {value!r}")
    elif op in ("rate_nocsi", "rate_upper_bound", "rate_arq"):
        cfg = ErgodicConfig(sp, dist, _hz_star(resolved, dist.h_z))
        fn = {"rate_nocsi": rate_nocsi, "rate_upper_bound": rate_upper_bound,
              "rate_arq": rate_arq}[op]
        value, err = fn(cfg)
        print(f"{op} = {value!r} +- {err!r}")
    elif op == "c_min_closed_form":
        reg = regime()
        rate = arg("R")
        if not rate >= 0.0:
            raise ConfigError("point.args.R: must be >= 0")
        policy = RatePolicy.constant(rate)
        try:
            value = c_min_closed_form(reg, policy, arg("r_s"), sp, dist)
        except UnsupportedRegime as exc:
            raise ConfigError(f"point.args.regime: {exc}") from exc
        print(f"c_min_closed_form[{reg.value}](R={args['R']}, r_s={args['r_s']}) = {value!r}")
    elif op == "solve":
        reg = regime()
        cfg = SearchConfig(rate_tol=resolved["rate_tol"], mc_n=resolved["samples"],
                           seed=resolved["seed"])
        sol = solve(reg, sp, dist, arg("alpha"), cfg)
        print(
            f"solve[{reg.value}](alpha={args['alpha']}) = {sol.r_s_star!r} "
            f"(C={sol.report.c_min!r} +- {sol.report.std_err!r}, "
            f"feasible={sol.report.feasible})"
        )
    else:
        raise ConfigError(f"point.op: unknown operation {op!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="secrates",
        description="Secrecy-rate experiments for the hybrid-adversary wiretap channel",
    )
    p.add_argument("--config", type=Path, help="YAML experiment config")
    p.add_argument("--rerun", type=Path, help="re-run from a manifest.json")
    p.add_argument("--scenario", choices=SCENARIOS)
    p.add_argument("--out-dir", type=Path, default=Path("."))
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--alpha", action="append", type=float,
                   help="outage threshold; repeatable, overrides config alphas")
    p.add_argument("--grid-he", help="E[H_e] axis as start:stop:num")
    p.add_argument("--grid-hm", help="E[H_m] axis as start:stop:num")
    p.add_argument("--hz-quantile", type=float)
    return p


def _axis_from_flag(flag: str, where: str) -> dict:
    parts = flag.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{where}: expected start:stop:num")
    return {"start": float(parts[0]), "stop": float(parts[1]), "num": int(parts[2])}


def _load_config(args) -> dict:
    if args.rerun is not None:
        try:
            manifest = json.loads(args.rerun.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"--rerun: {exc}") from exc
        if "config" not in manifest:
            raise ConfigError("--rerun: manifest has no 'config' section")
        return manifest["config"]

    config = {}
    if args.config is not None:
        try:
            config = yaml.safe_load(args.config.read_text(encoding="utf-8")) or {}
        except (OSError, yaml.YAMLError) as exc:
            raise ConfigError(f"--config: {exc}") from exc
    if args.scenario:
        config["scenario"] = args.scenario
    if args.seed is not None:
        config["seed"] = args.seed
    if args.samples is not None:
        config["samples"] = args.samples
    if args.alpha:
        config["alphas"] = args.alpha
    if args.hz_quantile is not None:
        config["hz_quantile"] = args.hz_quantile
    if args.grid_he or args.grid_hm:
        grid = dict(config.get("grid") or {})
        if args.grid_he:
            grid["he"] = _axis_from_flag(args.grid_he, "--grid-he")
        if args.grid_hm:
            grid["hm"] = _axis_from_flag(args.grid_hm, "--grid-hm")
        config["grid"] = grid
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolved = _resolve(_load_config(args))
        out_dir = args.out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        runner = {
            "delay-limited-sweep": run_delay_limited_sweep,
            "ergodic-region": run_ergodic_region,
            "point-eval": run_point_eval,
        }[resolved["scenario"]]
        return runner(resolved, out_dir)
    except (NonConvergence, NonMonotone) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except SecratesError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
