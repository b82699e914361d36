"""Benchmark catprep's scan, prepare and tomo commands end to end.

    python3 bench/run.py --workload prepare_table1 --seed 3 --seconds 20 --trace 0

Runs each selected workload in its own fresh interpreter (bench/worker.py),
one after another, and prints every metric with its unit. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones:

    setup_s      median over fresh interpreters of the time to import
                 catprep.cli and load the workload's configs
    run_s        median wall time of one pass through catprep.cli.main,
                 output files included, after a warm-up pass
    peak_rss_mb  peak resident memory of the workload's process
    fidelity     the workload's headline fidelity, from the written files

With --trace 1 they are the per-layer metrics of a separate traced run.
Set-up and runs are single-threaded: BLAS is held to one thread. Uses the
standard library only; numpy is imported by the worker.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".bench_out"
SETUP_PROBES = 4  # set-up-only interpreters per run; the worker adds one more sample
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "fidelity": "F"}


def layer_unit(name: str) -> str:
    if name.endswith("_calls") or name.endswith("_iterations"):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms_per_iteration"):
        return "ms"
    return "s"


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def _worker(run_dir: Path, workload: str, seed: int, extra: list[str], timeout: float):
    """Start one fresh interpreter; returns (seconds until its set-up ended, its JSON)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--run-dir", str(run_dir),
           "--workload", workload, "--seed", str(seed), *extra]
    env = {**os.environ, **SINGLE_THREAD}
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker did not finish within {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    doc = json.loads(lines[-1])
    return doc["ready"] - start, doc


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    run_dir = OUT_ROOT / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "configs").mkdir(parents=True)
    try:
        for name, doc in workloads.configs(workload, seed).items():
            (run_dir / "configs" / name).write_text(json.dumps(doc, indent=1))
        setup = []
        if not trace:
            for _ in range(SETUP_PROBES):
                setup.append(_worker(run_dir, workload, seed, ["--setup-only"], SETUP_TIMEOUT_S)[0])
        ready_s, doc = _worker(run_dir, workload, seed,
                               ["--seconds", str(seconds), "--trace", str(trace)], WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()  # only once no other run is using it
    setup.append(ready_s)

    if trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in doc["layers"].items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(doc["pass_s"]),
            "peak_rss_mb": doc["peak_rss_mb"],
            "fidelity": doc["fidelity"],
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    return {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
        "failures": doc["failures"],
        "samples": {"setup_s": setup, "pass_s": doc.get("pass_s", [])},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="pass time to accrue per workload (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append each workload's result as one JSON line here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "catprep" / "cli.py").is_file():
        print(f"bench: no catprep source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    selected = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in selected:
            results[workload] = result = run_workload(workload, args.seed, args.seconds, args.trace)
            for line in result["failures"]:
                print(f"FAILED {workload}: {line}", file=sys.stderr)
            print(f"{workload} (seed {args.seed}, {result['attempted']} operations, "
                  f"{result['failed']} failed)")
            for name, m in result["metrics"].items():
                print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
            if args.record:
                with open(args.record, "a") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": args.seed,
                                         "seconds": args.seconds, "trace": args.trace,
                                         **result}) + "\n")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()}
    rows = list(results.values())
    print(json.dumps({
        "correct": all(r["correct"] for r in rows),
        "attempted": sum(r["attempted"] for r in rows),
        "failed": sum(r["failed"] for r in rows),
        "metrics": metrics,
    }))
    return 0 if all(r["correct"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
