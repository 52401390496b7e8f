"""Benchmark of csdpp: three closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload tracker-wide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Workloads (inputs generated here from --seed; see workloads.py):

  tracker-wide   dpp-pbc then dpp-pbt, hamming, d=100 K=100 M=25
  costed-narrow  cs-dpp-pbc/f1 then cs-dpp-pbt/rank, d=50 K=200 M=4, 5% positives
  grid-sparse    `csdpp run`: 7 algorithms x {hamming, f1} x 2 repeats, --limit 100,
                 on 4000 sparse rows, d=500 K=20, 2 workers

--trace 0 measures the end-to-end metrics with nothing wrapped; --trace 1
wraps each layer's entry points in spans and reports the per-layer split and
the tracing overhead.  BLAS is pinned to one thread per process.

Output: one `name value unit` line per metric, a `detail` line with the input,
prediction and artifact digests, the failed checks and the environment, and
last one JSON object {"correct", "attempted", "failed", "metrics"}.  --workload
all runs each workload in its own process, so one failure keeps the others'
numbers.  Exit code 2 when the csdpp sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("tracker-wide", "costed-narrow", "grid-sparse")
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def environment(workers: int) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError, AttributeError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import importlib.util

        numba = importlib.util.find_spec("numba") is not None
    except ValueError:
        numba = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "pool_workers": workers,
        "cpu_model": cpu,
        "numba": numba,
    }


def run_one(args: argparse.Namespace) -> int:
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("CSDPP_WORKERS", None)
    if not os.path.isfile(os.path.join(SRC, "csdpp", "__init__.py")):
        print(f"error: csdpp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import csdpp

    if os.path.dirname(os.path.abspath(csdpp.__file__)) != os.path.join(SRC, "csdpp"):
        print(f"error: imported csdpp from {csdpp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    # Two pool workers with one BLAS thread each, never more than nproc.
    workers = max(1, min(2, len(os.sched_getaffinity(0))))
    scratch = os.path.join(HERE, "out", f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        if args.workload == "grid-sparse":
            out = workloads.run_grid(csdpp, args.seed, args.seconds, bool(args.trace), scratch, workers)
        else:
            out = workloads.run_stream(csdpp, args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed_frac = out.failed / max(out.attempted, 1)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in out.metrics.items():
        print(f"{name:<36} {value:<14.6g} {unit}")
    print(f"{'failed_frac':<36} {failed_frac:<14.6g} frac ({out.failed}/{out.attempted})")
    detail = dict(out.detail, failed_frac=failed_frac, problems=out.problems[:20],
                  environment=environment(workers))
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out.metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; a crash costs only that workload's
    numbers, and the exit code is 1 when any workload gave no result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    crashed = False
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None:
            print(f"workload {workload} failed with exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
            combined["correct"] = False
            combined["attempted"] += 1
            combined["failed"] += 1
            crashed = True
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 1 if crashed else 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        _parser().error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
