"""Self-time arithmetic on synthetic span trees, and the tracer on a fake package."""

import sys
import types

import pytest

import spans
import workloads
from compare import verdict


def test_self_time_subtracts_direct_children():
    tree = [
        ["cli.main", 0.0, 10.0, -1],
        ["homodyne.condition", 1.0, 4.0, 0],
        ["channels.loss_on_mode_a", 2.0, 3.0, 1],
        ["cli.write_json", 5.0, 7.0, 0],
    ]
    out = spans.summarize(tree)
    assert out["cli.main"]["self_s"] == pytest.approx(10 - 3 - 2)
    assert out["homodyne.condition"]["self_s"] == pytest.approx(2.0)
    assert out["channels.loss_on_mode_a"]["self_s"] == pytest.approx(1.0)
    assert out["cli.write_json"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}
    metrics = spans.layer_metrics(out, grid_points=0, scan_points=0, mle_iterations=0)
    # everything under cli that no library span covers: 10 - 3 (condition)
    assert metrics["cli.self_s"] == pytest.approx(7.0)
    assert metrics["homodyne.condition_calls"] == 1
    assert metrics["wigner.grid_points_per_s"] == 0.0


def test_overlapping_children_are_counted_once_and_clipped():
    tree = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 5.0, 0],
        ["b", 4.0, 6.0, 0],
        ["b", 9.0, 12.0, 0],  # runs past its parent: only 9..10 is covered
    ]
    assert spans.summarize(tree)["a"]["self_s"] == pytest.approx(10 - 5 - 1)


def test_reentrant_name_counts_its_outermost_span_only():
    tree = [
        ["f", 0.0, 4.0, -1],
        ["f", 1.0, 2.0, 0],
        ["f", 5.0, 6.0, -1],
    ]
    out = spans.summarize(tree)
    assert out["f"]["calls"] == 3
    assert out["f"]["total_s"] == pytest.approx(5.0)
    assert out["f"]["self_s"] == pytest.approx(5.0)


def test_rates_and_per_iteration_cost():
    summary = {
        "wigner.wigner_grid": {"calls": 6, "total_s": 2.0, "self_s": 2.0},
        "rsp.fidelity_vs_q": {"calls": 1, "total_s": 3.0, "self_s": 1.0},
        "rsp.fidelity_vs_delta": {"calls": 1, "total_s": 1.0, "self_s": 0.5},
        "tomography.mle_reconstruct": {"calls": 2, "total_s": 3.0, "self_s": 2.0},
    }
    m = spans.layer_metrics(summary, grid_points=1000, scan_points=400, mle_iterations=500)
    assert m["wigner.grid_points_per_s"] == pytest.approx(500.0)
    assert m["rsp.scan_points_per_s"] == pytest.approx(100.0)
    assert m["tomography.mle_ms_per_iteration"] == pytest.approx(4.0)
    assert m["rsp.fidelity_vs_q_self_s"] == 1.0


@pytest.fixture
def fake_package():
    """fakepkg.homodyne defines condition; fakepkg.rsp imports it by name."""
    pkg = types.ModuleType("fakepkg")
    homodyne = types.ModuleType("fakepkg.homodyne")
    rsp = types.ModuleType("fakepkg.rsp")

    def condition(q):
        return q * 2

    def fidelity_vs_q(grid):
        return [rsp.condition(q) for q in grid]

    homodyne.condition = condition
    rsp.condition = condition
    rsp.fidelity_vs_q = fidelity_vs_q
    mods = {"fakepkg": pkg, "fakepkg.homodyne": homodyne, "fakepkg.rsp": rsp}
    sys.modules.update(mods)
    yield homodyne, rsp, condition
    for name in mods:
        del sys.modules[name]


def test_tracer_wraps_every_binding_site_and_restores(fake_package):
    homodyne, rsp, condition = fake_package
    tracer = spans.Tracer(package="fakepkg", clock=iter(range(100)).__next__)
    assert tracer.install() == ["homodyne.condition", "rsp.fidelity_vs_q"]
    assert rsp.condition is homodyne.condition is not condition
    assert rsp.fidelity_vs_q([1, 2]) == [2, 4]
    taken = tracer.take()
    tracer.remove()
    assert rsp.condition is condition and homodyne.condition is condition
    assert [s[0] for s in taken] == ["rsp.fidelity_vs_q", "homodyne.condition", "homodyne.condition"]
    assert [s[3] for s in taken] == [-1, 0, 0]
    out = spans.summarize(taken)
    assert out["rsp.fidelity_vs_q"] == {"calls": 1, "total_s": 5, "self_s": 3}
    assert tracer.spans == []


def test_workload_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.configs(workload, 7) == workloads.configs(workload, 7)
        assert workloads.invocations(workload, 7) == workloads.invocations(workload, 7)
    assert workloads.configs("scan_dense", 7) != workloads.configs("scan_dense", 8)
    assert workloads.configs("prepare_table1", 7) != workloads.configs("prepare_table1", 8)
    assert workloads.tomo_seeds(7) != workloads.tomo_seeds(8)
    assert len(set(workloads.tomo_seeds(7))) == len(workloads.invocations("tomo_lossy", 7)) == 10


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert verdict(base, [1.05, 1.04, 1.06, 1.05, 1.05], 0.10, "lower") == "ok"
    assert verdict(base, [1.20, 1.21, 1.19, 1.20, 1.22], 0.10, "lower") == "worse"
    assert verdict(base, [1.20, 1.21, 1.19, 1.20, 1.22], 0.10, "higher") == "ok"
    noisy = [0.5, 1.0, 1.5, 2.0, 2.5]
    assert verdict(base, noisy, 0.10, "lower") == "unresolved"
    assert verdict(noisy, [0.1, 0.12, 0.2, 0.3, 0.4], 0.10, "lower") == "better"
