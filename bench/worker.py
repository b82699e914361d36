"""One workload in one fresh interpreter, started by run.py.

Set-up ends when catprep.cli is imported and the workload's configs are
loaded; the worker prints that moment on the monotonic clock, which run.py
shares. With --setup-only it stops there. Otherwise it runs a warm-up pass,
then timed passes through catprep.cli.main until --seconds of pass time
have accrued. Every pass writes into a new, empty directory; its outputs are
checked after the pass, outside the timing, and then deleted. With
--trace 1 each timed pass is paired with a traced pass on the same inputs.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads

MIN_PASSES = 2
MAX_FAILURE_LINES = 20


def _load(root: Path, run_dir: Path):
    """Import catprep.cli from the checkout's own source tree and load configs."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    from catprep import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"catprep was imported from {cli.__file__}, not from {src}")
    docs = {p.name: cli.load_config(p) for p in sorted((run_dir / "configs").glob("*.json"))}
    return cli, docs


class Runner:
    """Runs passes of one workload and tallies checked operations."""

    def __init__(self, cli, workload: str, seed: int, run_dir: Path, docs: dict):
        import checks  # numpy and scipy: imported after set-up has been timed

        self.checks = checks
        self.cli = cli
        self.workload = workload
        self.run_dir = run_dir
        self.docs = docs
        sub = workloads.SUBCOMMAND[workload]
        self.plan = []
        for label, config, cli_seed in workloads.invocations(workload, seed):
            argv = [sub, "--config", str(run_dir / "configs" / config)]
            if cli_seed is not None:
                argv += ["--seed", str(cli_seed)]
            self.plan.append((label, config, cli_seed, argv))
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.fidelities: list[float] = []
        self.iterations = 0  # MLE iterations of the last pass checked
        self._passes = 0

    def run_pass(self) -> tuple[Path, list[int], float]:
        out = self.run_dir / f"pass{self._passes:04d}"
        self._passes += 1
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            codes = [self.cli.main(argv + ["--out", str(out / label)])
                     for label, _, _, argv in self.plan]
            elapsed = time.perf_counter() - start
        return out, codes, elapsed

    def check_pass(self, out: Path, codes: list[int], keep_fidelity: bool) -> None:
        """Check every invocation of a finished pass, then delete its outputs."""
        self.iterations = 0
        for (label, config, cli_seed, _), code in zip(self.plan, codes):
            self.attempted += 1
            if code != 0:
                problems = [f"catprep exited with code {code}"]
            else:
                problems, fid = self.checks.check(self.workload, out / label,
                                                  self.docs[config], cli_seed)
                if keep_fidelity:
                    self.fidelities.append(fid)
                report = out / label / "report.json"
                if report.exists():
                    with open(report) as fh:
                        self.iterations += json.load(fh)["iterations"]
            if problems:
                self.failed += 1
                self.failures += [f"{out.name}/{label}: {p}" for p in problems]
        shutil.rmtree(out)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_plain(runner: Runner, seconds: float) -> dict:
    """Warm-up pass, then timed passes. Peak memory is read after the first
    timed pass, before any check has allocated memory of its own."""
    warm = runner.run_pass()
    first = runner.run_pass()
    peak = _peak_rss_mb()
    times = [first[2]]
    runner.check_pass(*warm[:2], keep_fidelity=False)
    runner.check_pass(*first[:2], keep_fidelity=True)
    while sum(times) < seconds or len(times) < MIN_PASSES:
        out, codes, elapsed = runner.run_pass()
        times.append(elapsed)
        runner.check_pass(out, codes, keep_fidelity=True)
    return {"pass_s": times, "peak_rss_mb": peak, "fidelity": statistics.fmean(runner.fidelities)}


def run_traced(runner: Runner, seconds: float, workload: str) -> dict:
    """Untraced and traced passes on the same inputs, in pairs whose order
    alternates, so the difference between them is the tracing overhead."""
    import spans

    out, codes, _ = runner.run_pass()
    runner.check_pass(out, codes, keep_fidelity=False)
    tracer = spans.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    per_pass: list[dict] = []
    totals: dict[str, dict] = {}
    while sum(plain) + sum(traced) < seconds or len(traced) < MIN_PASSES:
        for with_spans in (False, True) if len(plain) % 2 == 0 else (True, False):
            if not with_spans:
                out, codes, elapsed = runner.run_pass()
                plain.append(elapsed)
                runner.check_pass(out, codes, keep_fidelity=False)
                continue
            tracer.install()
            try:
                out, codes, elapsed = runner.run_pass()
            finally:
                tracer.remove()
            traced.append(elapsed)
            summary = spans.summarize(tracer.take())
            runner.check_pass(out, codes, keep_fidelity=False)
            per_pass.append(spans.layer_metrics(summary, workloads.grid_points(workload),
                                                workloads.scan_points(workload), runner.iterations))
            for name, entry in summary.items():
                into = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                for key in into:
                    into[key] += entry[key]

    layers = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    layers["bench.run_untraced_s"] = statistics.median(plain)
    layers["bench.run_traced_s"] = statistics.median(traced)
    layers["bench.trace_overhead_s"] = statistics.median(t - p for t, p in zip(traced, plain))
    n = len(traced)
    print(f"spans per traced pass, {n} passes:", file=sys.stderr)
    for name, entry in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:42s} calls {entry['calls'] / n:9.0f}  total {entry['total_s'] / n:9.4f} s"
              f"  self {entry['self_s'] / n:9.4f} s", file=sys.stderr)
    return {"layers": layers}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout holding src/catprep")
    parser.add_argument("--run-dir", required=True, help="holds configs/; passes write here")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli, docs = _load(Path(args.root), Path(args.run_dir))
    ready = time.perf_counter()
    result: dict = {"ready": ready}
    if not args.setup_only:
        runner = Runner(cli, args.workload, args.seed, Path(args.run_dir), docs)
        if args.trace:
            result.update(run_traced(runner, args.seconds, args.workload))
        else:
            result.update(run_plain(runner, args.seconds))
        result.update(attempted=runner.attempted, failed=runner.failed,
                      failures=runner.failures[:MAX_FAILURE_LINES])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
