"""Compare two sets of benchmark runs, workload by workload and metric by metric.

    python3 bench/compare.py bench/results/base.jsonl bench/results/change.jsonl

Each file holds the JSON lines that ``run.py --record`` appends, one per
workload run. For every workload and metric found in both files it prints
each side's median and quartiles over its runs, and the ratio of the
medians with the base (the first file) named. End-to-end metrics are judged
against their bound in BENCHMARK.json:

    unresolved  a side's spread (quartile distance over median) exceeds the
                bound, and not every run of the second side beats every run
                of the first
    better      the spread exceeds the bound, but every run of the second
                side beats every run of the first
    worse       the second median is worse than the first by more than the bound
    ok          otherwise

Per-layer metrics have no bound and get no verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path) -> dict[tuple[str, str], list[float]]:
    """Values by (workload, metric) over the runs in one results file."""
    values: dict[tuple[str, str], list[float]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                run = json.loads(line)
                for name, metric in run["metrics"].items():
                    values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list[float], change: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0  # after this, lower reads better
    b = [sign * v for v in base]
    c = [sign * v for v in change]
    if max(spread(base), spread(change)) > bound:
        return "better" if max(c) < min(b) else "unresolved"
    worse_by = statistics.median(c) - statistics.median(b)
    return "worse" if worse_by > bound * abs(statistics.median(base)) else "ok"


def compare(base: dict, change: dict, spec: dict) -> list[str]:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines = [f"{'workload':15s} {'metric':38s} {'base median [q1, q3]':>34s} "
             f"{'change median [q1, q3]':>34s} {'ratio':>8s}  verdict"]
    for key in sorted(base.keys() & change.keys()):
        workload, name = key
        a, b = base[key], change[key]
        qa, qb = quartiles(a), quartiles(b)
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        judged = bounds.get(name)
        tag = verdict(a, b, judged["bound"], judged["better"]) if judged else ""
        lines.append(
            f"{workload:15s} {name:38s} {qa[1]:12.6g} [{qa[0]:9.4g}, {qa[2]:9.4g}] "
            f"{qb[1]:12.6g} [{qb[0]:9.4g}, {qb[2]:9.4g}] {ratio:8.4f}  {tag}"
            + (f" (bound {judged['bound']:g}, n={len(a)}/{len(b)})" if judged else ""))
    lines.append("ratio = change median / base median; base = the first file")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="results file of the base (parent) runs")
    parser.add_argument("change", help="results file of the runs to compare with it")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    lines = compare(load_runs(args.base), load_runs(args.change), spec)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
