"""Benchmark of secrates, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from anywhere inside a checkout; it measures the package under
``src/`` of the checkout it lives in.  The workloads, metrics and units
are declared in ``BENCHMARK.json`` at the root.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  The line
before it carries the details: per-pass timings, set-up samples, the
environment and any failed check.  The exit code is 0 only when every
output check passed.

``--smoke`` runs every workload at tiny sizes and asserts that the
benchmark itself works; see ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_RUNS = 3  # cold set-ups per run: the worker's own plus SETUP_RUNS - 1 probes
WORKER_TIMEOUT_S = 120  # with the probes, a hung run still ends within 180 s
PROBE_TIMEOUT_S = 15


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "secrates" / "__init__.py").is_file():
        raise BenchError(f"no secrates package under {ROOT / 'src'}")
    try:
        return json.loads(spec_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {spec_path}: {exc}") from exc


def child_env() -> dict:
    """Environment of every child: the checkout's package, pinned threads.

    One region worker and one BLAS thread: on a small shared machine a
    second thread made pass times spread wider, and ``cpu_s`` still shows
    a change that adds threads by other means.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["SECRATES_MAX_WORKERS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list[str], timeout: float) -> dict:
    """Run the worker to completion and parse its last output line."""
    cmd = [sys.executable, str(WORKER), *args]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout}s: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise BenchError(f"worker printed no result: {lines[-1][:200]!r}") from exc


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, details line)."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        raise BenchError(f"unknown workload {workload!r}; expected one of {names}")
    work = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", workload, "--seed", str(seed), "--work-dir", str(work)]
    if smoke:
        common.append("--smoke")

    setups = [_worker(common + ["--setup-only"], PROBE_TIMEOUT_S)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    rep = _worker(common + ["--seconds", str(seconds), "--trace", str(trace)],
                  WORKER_TIMEOUT_S)
    setups.append(rep["setup_s"])
    passes = rep["passes"]
    walls = [p["wall_s"] for p in passes]

    if trace == 0:
        values = {
            "wall_s": statistics.median(walls),
            "wall_s_max": max(walls),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rep["peak_rss_mb"],
            "err_bar_max": max(p["err_bar"] for p in passes),
        }
        declared = spec["end_to_end"]
    else:
        values = rep["layers"]
        declared = spec["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = sorted({msg for p in passes for msg in p["problems"]})
    if trace == 1 and not rep["restored"]:
        problems.append("traced functions were not restored")
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    details = {
        "workload": workload, "seed": seed, "trace": trace, "smoke": smoke,
        "passes": len(passes), "wall_s": walls, "cpu_s": [p["cpu_s"] for p in passes],
        "setup_s": setups, "fail_frac": failed / attempted, "problems": problems,
        "outputs_identical": rep.get("outputs_identical"), "restored": rep.get("restored"),
        "env": rep["env"],
    }
    return result, details


def smoke() -> int:
    """Run every workload at tiny sizes and check the benchmark's own contract."""
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    bad = []
    for w in spec["workloads"]:
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            tag = f"{w['name']} seed={seed} trace={trace}"
            n_bad = len(bad)
            # run() raises when a declared metric was not measured
            result, details = run(w["name"], seed, 1.0, trace, smoke=True)
            for name, m in result["metrics"].items():
                if m["unit"] != units[name]:
                    bad.append(f"{tag}: {name} has unit {m['unit']}")
                if m["unit"] == "count" and not isinstance(m["value"], int):
                    bad.append(f"{tag}: count {name} is not an integer")
            if not result["correct"]:
                bad.append(f"{tag}: output checks failed: {details['problems']}")
            if trace and not details["restored"]:
                bad.append(f"{tag}: traced functions were not restored")
            if trace and not details["outputs_identical"]:
                bad.append(f"{tag}: outputs differ between traced and untraced passes")
            print(f"{tag}: {'ok' if len(bad) == n_bad else 'FAILED'}", flush=True)
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="secrates benchmark")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=20240)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="self-test at tiny sizes")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if not args.workload:
            ap.error("--workload is required")
        result, details = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
