"""BENCHMARK.json names exactly the metrics and workloads the code produces."""

import json
from pathlib import Path

import run
import spans
import workloads

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_and_end_to_end_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.UNITS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_per_layer_metrics():
    produced = list(spans.layer_metrics({}, 0, 0, 0)) + [
        "bench.run_untraced_s", "bench.run_traced_s", "bench.trace_overhead_s"]
    assert [m["name"] for m in SPEC["per_layer"]] == produced
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in SPEC["per_layer"])
