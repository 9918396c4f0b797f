"""One benchmark process: cold import, then timed passes of one workload.

``run.py`` starts this in a fresh interpreter, so the measured set-up is
a cold ``import secrates`` plus config resolution and the peak resident
memory belongs to this workload alone.  It prints one JSON object as the
last line of its standard output.

    python3 perfbench/worker.py --workload W --seed N --seconds S \\
        --trace 0|1 --work-dir DIR [--smoke] [--setup-only]

With ``--trace 0`` it runs untraced passes for ``--seconds`` seconds
(at least two).  With ``--trace 1`` it runs one untraced pass and then
one traced pass, whose output bytes must equal the untraced ones.
"""

import time

_T0 = time.perf_counter()  # before any package import: set-up starts here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

def run_pass(wl, out_dir: Path) -> tuple[dict, bytes]:
    """Time one pass of the workload, then check its outputs untimed."""
    import workloads

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        result = wl.run(out_dir)
    except Exception as exc:  # the program raised: every operation failed
        result = exc
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    try:
        outcome = wl.check(result, out_dir)
    except Exception as exc:  # unreadable output: every operation failed
        outcome = workloads.Outcome(list(wl.ops))
        outcome.fail(wl.ops, f"output check raised {exc!r}")
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "attempted": len(outcome.ops),
        "failed": len(outcome.failed),
        "err_bar": outcome.err_bar,
        "problems": outcome.problems,
    }, outcome.output


def layer_metrics(stats: dict) -> dict:
    """Flatten tracer stats to ``<layer>.<function>.<stat>`` metrics."""
    return {f"{layer}.{key}": val for layer, st in stats.items() for key, val in st.items()}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k == "SECRATES_MAX_WORKERS" or k.endswith("_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    args.work_dir.mkdir(parents=True, exist_ok=True)

    import workloads  # imports secrates: part of the measured set-up

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, args.work_dir)
    setup_s = time.perf_counter() - _T0
    report = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    passes = []
    if args.trace == 0:
        start = time.perf_counter()
        while len(passes) < 2 or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(wl, args.work_dir / f"pass{len(passes)}")[0])
    else:
        from tracer import Tracer

        plain, plain_output = run_pass(wl, args.work_dir / "untraced")
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_output = run_pass(wl, args.work_dir / "traced")
        finally:
            tracer.restore()
        report["restored"] = tracer.restored()
        report["outputs_identical"] = plain_output == traced_output
        if not report["outputs_identical"]:
            traced["failed"] = traced["attempted"]
            traced["problems"].append("traced outputs differ from untraced outputs")
        tracer.write_spans(args.work_dir / "spans.jsonl")
        report["layers"] = layer_metrics(tracer.stats())
        report["layers"]["bench.trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
        passes = [plain, traced]

    report["passes"] = passes
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["env"] = environment()
    sys.stdout.flush()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
