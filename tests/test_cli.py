import contextlib
import dataclasses
import importlib
import io
import itertools
import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import catprep
from catprep import tomography
from catprep.cli import (
    _READERS,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_OUTPUT,
    ConfigError,
    _parse_grid,
    main,
    write_json,
    write_scan_csv,
)
from catprep.homodyne import WINDOW_MAX, Conditioning
from catprep.rsp import TABLE1, TargetSpec, fidelity_vs_q
from catprep.states import ResourceParams, cat, hybrid_entangled
from catprep.tomography import TomoConfig
from catprep.wigner import write_grid_csv
from oracles import read_grid_csv, wigner_series


NAN = float("nan")  # json writes NaN, and Python's json reads it back
DIM_400_DIGITS = 10**399  # a float cannot hold it, nor can a 64-bit integer


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(args):
    return main([str(a) for a in args])


def refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.fixture(autouse=True)
def cli_json_outputs_parse(tmp_path):
    """Every JSON file a test leaves below an output directory parses as strict
    JSON; the configs in tmp_path itself are inputs and may hold NaN."""
    yield
    for path in tmp_path.rglob("*.json"):
        if path.parent != tmp_path:
            json.loads(path.read_text(), parse_constant=refuse_constant)


def test_write_json_format(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"b": 0.1, "a": [1, 2.5, None, True], "c": {"z": "text", "y": 1e-17}}
    write_json(doc, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {
        "a": [1, 2.5, None, True],
        "b": 0.1,
        "c": {"y": 1e-17, "z": "text"},
    }
    # keys serialized in sorted order
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert '"b": 0.1,' in text  # the shortest text that reads back as the same float


def float_bits(value) -> bytes:
    return struct.pack("<d", value)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
       .filter(math.isfinite))
@example(0.0)
@example(-0.0)
@example(1.0)
@example(2.0**53)
@example(5e-324)
@example(np.float64(0.5))
def test_write_json_floats_read_back_as_the_same_float(tmp_path_factory, value):
    path = tmp_path_factory.mktemp("json") / "doc.json"
    write_json({"x": value, "xs": [value, 7], "n": 2**53}, path)
    doc = json.loads(path.read_text())
    for got in (doc["x"], doc["xs"][0]):
        assert type(got) is float
        assert float_bits(got) == float_bits(value)  # the sign of zero too
    assert type(doc["xs"][1]) is int and type(doc["n"]) is int and doc["n"] == 2**53


@pytest.mark.parametrize("value", [float("-inf"), float("inf"), NAN, np.float64("-inf")])
def test_write_json_refuses_non_finite_numbers(tmp_path, value):
    # json.loads reads no inf or nan, so the writer refuses them, and leaves no file
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError, match="non-finite"):
        write_json({"x": value}, path)
    assert not any(tmp_path.iterdir())


def test_parse_grid_variants():
    assert np.allclose(_parse_grid([0.0, 0.5, 1.0], "g"), [0.0, 0.5, 1.0])
    assert np.allclose(
        _parse_grid({"start": 0.0, "stop": 1.0, "num": 3}, "g"), [0.0, 0.5, 1.0]
    )
    with pytest.raises(ConfigError):
        _parse_grid("0,1,2", "g")
    with pytest.raises(ConfigError):
        _parse_grid([], "g")
    with pytest.raises(ConfigError):
        _parse_grid([1.0, 0.5], "g")
    with pytest.raises(ConfigError):
        _parse_grid({"start": 0.0}, "g")


SCAN_DOC = {
    "dim": 25,
    "q_grid_snu": {"start": -1.0, "stop": 1.0, "num": 5},
    "targets": [{"kind": "cat_minus"}, {"kind": "coherent_plus"}],
    "eta_grid": {"start": 0.8, "stop": 1.0, "num": 3},
    "eta_scan": [{"q_center_snu": 0.0, "target": {"kind": "cat_minus"}}],
    "delta_grid_snu": {"start": 0.0, "stop": 0.4, "num": 3},
}


def test_scan_outputs(tmp_path, capsys):
    eta_scan = SCAN_DOC["eta_scan"] + [{"q_center_snu": 1.14, "target": {"kind": "coherent_plus"}}]
    cfg = write_config(tmp_path, "scan.json", {**SCAN_DOC, "eta_scan": eta_scan})
    out = tmp_path / "out"
    assert run(["scan", "--config", cfg, "--out", out]) == EXIT_OK
    columns = {}
    for name, rows in (("fig1c.csv", 5 * 2), ("fig1d.csv", 2 * 3), ("fig1e.csv", 3)):
        lines = (out / name).read_text().strip().splitlines()
        assert lines[0] == "param,target,fidelity"
        assert len(lines) == rows + 1
        params, targets, fids = zip(*(line.split(",") for line in lines[1:]))
        columns[name] = [float(p) for p in params], list(targets), [float(f) for f in fids]
    captured = capsys.readouterr()
    assert "wrote fig1c.csv (10 rows)" in captured.out
    # fig1c is param-major, with the targets in config order at each q
    qs = np.linspace(-1.0, 1.0, 5)
    params, targets, fids = columns["fig1c.csv"]
    assert params == [q for q in qs for _ in range(2)]
    assert targets == ["cat_minus", "coherent_plus"] * 5
    resource = hybrid_entangled(ResourceParams(), dim_b=SCAN_DOC["dim"])
    specs = [TargetSpec("cat_minus"), TargetSpec("coherent_plus")]
    assert fids == fidelity_vs_q(resource, 0.0, qs, specs).ravel().tolist()
    # fig1d holds one block of the eta grid per eta_scan entry, in config order
    params, targets, _ = columns["fig1d.csv"]
    assert params == np.linspace(0.8, 1.0, 3).tolist() * 2
    assert targets == ["cat_minus"] * 3 + ["coherent_plus"] * 3


def test_scan_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "scan.json", SCAN_DOC)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["scan", "--config", cfg, "--out", out1]) == EXIT_OK
    assert run(["scan", "--config", cfg, "--out", out2]) == EXIT_OK
    for name in ("fig1c.csv", "fig1d.csv", "fig1e.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_scan_rejects_empty_targets(tmp_path):
    cfg = write_config(tmp_path, "scan.json", {**SCAN_DOC, "targets": []})
    assert run(["scan", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG


def test_missing_and_malformed_config(tmp_path):
    assert run(["scan", "--config", tmp_path / "nope.json", "--out", tmp_path]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["scan", "--config", bad, "--out", tmp_path]) == EXIT_CONFIG
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    assert run(["scan", "--config", arr, "--out", tmp_path]) == EXIT_CONFIG


PREP_DOC = {
    "dim": 25,
    "conditioning": {"theta_rad": 0.0, "q_center_snu": 0.0, "delta_snu": 0.2},
    "targets": [{"kind": "cat_minus"}],
    "wigner": {"min_snu": -4.0, "max_snu": 4.0, "step_snu": 0.2},
}


def test_prepare_outputs(tmp_path):
    cfg = write_config(tmp_path, "prep.json", PREP_DOC)
    out = tmp_path / "out"
    assert run(["prepare", "--config", cfg, "--out", out]) == EXIT_OK

    state = json.loads((out / "state.json").read_text())
    assert state["dim"] == 25
    assert len(state["rho"]) == 25 * 25
    assert not state["success_is_density"]
    assert 0 < state["success_prob"] < 1
    assert state["heralded_rate_hz"] == pytest.approx(state["success_prob"] * 200_000.0)
    assert state["conditioning"]["delta_snu"] == 0.2
    assert 0 < state["purity"] <= 1
    fid = state["fidelities"][0]
    assert fid["target"] == "cat_minus"
    assert fid["fidelity_published"] is None
    assert 0.9 < fid["fidelity_simulated"] < 1.0

    bloch = json.loads((out / "bloch.json").read_text())
    for key in ("phi_polar_rad", "varphi_azimuth_rad", "d", "max_fidelity",
                "subspace_weight", "alpha"):
        assert key in bloch
    assert bloch["phi_polar_rad"] == pytest.approx(np.pi, abs=0.05)

    wlines = (out / "wigner.csv").read_text().strip().splitlines()
    assert wlines[0].startswith("xs,")
    assert wlines[1].startswith("ps,")
    assert len(wlines) == 2 + 41  # 41 p rows
    wmeta = json.loads((out / "wigner.json").read_text())
    assert wmeta["convention"] == "snu-x2-norm1"
    assert wmeta["w_origin"] < 0  # odd-parity state
    assert wmeta["negativity_min"] <= wmeta["w_origin"] + 1e-15  # grid and parity sum round apart


def test_prepare_wide_wigner_axes_match_series(tmp_path):
    # |p| to 30 is past the support radius of dim 25: the node rule caps the
    # spacing there, and every value stays finite and matches the series
    doc = {**PREP_DOC, "wigner": {"min_snu": -30.0, "max_snu": 30.0, "step_snu": 0.25}}
    cfg = write_config(tmp_path, "prep.json", doc)
    out = tmp_path / "out"
    assert run(["prepare", "--config", cfg, "--out", out]) == EXIT_OK
    xs, ps, values = read_grid_csv(out / "wigner.csv")
    assert values.shape == (241, 241) and np.isfinite(values).all()
    pairs = json.loads((out / "state.json").read_text())["rho"]
    rho = np.array([complex(*v) for v in pairs]).reshape(25, 25)
    rng = np.random.default_rng(0)  # points inside |x|, |p| <= 18, where W is not negligible,
    rows, cols = rng.integers(48, 193, (2, 200))  # then anywhere on the grid
    rows, cols = np.append(rows, rng.integers(0, 241, 50)), np.append(cols, rng.integers(0, 241, 50))
    want = wigner_series(rho, xs[cols], ps[rows])
    assert np.abs(values[rows, cols] - want).max() <= 1e-14


def test_prepare_point_mode_density_flag(tmp_path):
    doc = {**PREP_DOC, "conditioning": {"q_center_snu": 0.0, "delta_snu": 0.0}}
    cfg = write_config(tmp_path, "prep.json", doc)
    out = tmp_path / "out"
    assert run(["prepare", "--config", cfg, "--out", out]) == EXIT_OK
    state = json.loads((out / "state.json").read_text())
    assert state["success_is_density"]


def test_prepare_published_row_comparison(tmp_path, capsys):
    doc = {
        "dim": 25,
        "table1_row": 2,
        "targets": [{"kind": "cat_minus"}, {"kind": "cat_plus"}],
        "wigner": {"min_snu": -3.0, "max_snu": 3.0, "step_snu": 0.5},
    }
    cfg = write_config(tmp_path, "prep.json", doc)
    out = tmp_path / "out"
    assert run(["prepare", "--config", cfg, "--out", out]) == EXIT_OK
    state = json.loads((out / "state.json").read_text())
    by_kind = {f["target"]: f for f in state["fidelities"]}
    assert by_kind["cat_minus"]["fidelity_published"] == 0.65
    assert by_kind["cat_plus"]["fidelity_published"] is None
    assert "(published)" in capsys.readouterr().out


def test_prepare_rejects_bad_row_and_grid(tmp_path):
    cfg = write_config(tmp_path, "p1.json", {**PREP_DOC, "table1_row": 9})
    assert run(["prepare", "--config", cfg, "--out", tmp_path / "o1"]) == EXIT_CONFIG
    doc = {**PREP_DOC, "wigner": {"min_snu": 2.0, "max_snu": -2.0, "step_snu": 0.2}}
    cfg2 = write_config(tmp_path, "p2.json", doc)
    assert run(["prepare", "--config", cfg2, "--out", tmp_path / "o2"]) == EXIT_CONFIG


def test_prepare_numerical_failure_exit_code(tmp_path):
    # a window far outside the marginal support has zero probability
    doc = {**PREP_DOC, "conditioning": {"q_center_snu": 50.0, "delta_snu": 0.0}}
    cfg = write_config(tmp_path, "prep.json", doc)
    assert run(["prepare", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_NUMERICAL


TOMO_DOC = {
    "dim": 20,
    "truth": {"kind": "cat_minus"},
    "n_samples": 4000,
    "seed": 5,
    "tomo": {"dim_recon": 8, "n_phases": 8},
}


def test_tomo_outputs(tmp_path):
    cfg = write_config(tmp_path, "tomo.json", TOMO_DOC)
    out = tmp_path / "out"
    assert run(["tomo", "--config", cfg, "--out", out]) == EXIT_OK

    lines = (out / "records.csv").read_text().strip().splitlines()
    assert lines[0] == "theta_rad,q"
    assert len(lines) == 4000 + 1

    recon = json.loads((out / "recon.json").read_text())
    assert recon["dim"] == 8
    assert len(recon["rho"]) == 64
    assert recon["iterations"] >= 1
    assert recon["optimality_gap"] >= -1e-12

    report = json.loads((out / "report.json").read_text())
    for key in ("truth", "n_samples", "eta", "eta_correction", "seed",
                "fidelity_recon_truth", "w_origin_recon", "iterations", "converged"):
        assert key in report
    assert report["seed"] == 5
    assert report["truth"] == {"kind": "cat_minus", "alpha": 0.7}
    assert report["fidelity_recon_truth"] > 0.9


def test_custom_targets_write_their_coefficients(tmp_path):
    # two custom states of one alpha are told apart by the outputs: the truth of
    # report.json and each custom fidelity entry of state.json carry c_plus and
    # c_minus as the config's [re, im] pairs, and a named kind carries neither
    customs = [{"kind": "custom", "alpha": 0.7, "c_plus": [0.6, 0.0], "c_minus": [0.0, 0.8]},
               {"kind": "custom", "alpha": 0.7, "c_plus": [0.8, 0.0], "c_minus": [0.6, 0.0]}]
    reports = []
    for i, truth in enumerate(customs):
        cfg = write_config(tmp_path, f"tomo{i}.json",
                           {**TOMO_DOC, "dim": 16, "truth": truth, "n_samples": 2000})
        assert run(["tomo", "--config", cfg, "--out", tmp_path / f"tomo{i}"]) == EXIT_OK
        reports.append((tmp_path / f"tomo{i}" / "report.json").read_bytes())
        assert json.loads(reports[-1])["truth"] == truth
    assert reports[0] != reports[1]

    cfg = write_config(tmp_path, "prep.json", {**PREP_DOC, "targets": [{"kind": "cat_minus"},
                                                                        *customs]})
    assert run(["prepare", "--config", cfg, "--out", tmp_path / "prep"]) == EXIT_OK
    named, *custom = json.loads((tmp_path / "prep" / "state.json").read_text())["fidelities"]
    assert "c_plus" not in named and "c_minus" not in named
    for entry, target in zip(custom, customs, strict=True):
        assert (entry["target"], entry["c_plus"], entry["c_minus"]) == (
            "custom", target["c_plus"], target["c_minus"])
    assert custom[0]["fidelity_simulated"] != custom[1]["fidelity_simulated"]


README = Path(catprep.__file__).resolve().parents[2] / "README.md"


def readme_configs():
    """(subcommand, document) for each json config in the README, a config
    shown under a "### <subcommand>" heading running with that subcommand."""
    configs = []
    for section in README.read_text().split("\n### ")[1:]:
        command = section.split("\n", 1)[0].strip()
        for block in section.split("```json\n")[1:]:
            configs.append((command, json.loads(block.split("```", 1)[0])))
    return configs


README_CONFIGS = readme_configs()


def leaf_paths(doc, path=()):
    """The key path of every number, string and bool in a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path]
    return [leaf for key, value in items for leaf in leaf_paths(value, (*path, key))]


def with_leaf(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


RESOURCE = {"model": "experimental", "alpha": 0.7, "squeezing_db": 3.0, "weight_dv": 0.5}
CUSTOM = {"kind": "custom", "alpha": 0.7, "c_plus": [0.6, 0.0], "c_minus": [0.0, 0.8]}
FUZZ_TEMPLATES = (  # each subcommand at dim 12 with small grids and every optional key set
    ("scan", {
        "dim": 12, "resource": RESOURCE, "theta_rad": 0.0,
        "q_grid_snu": {"start": -1.0, "stop": 1.0, "num": 3},
        "targets": [{"kind": "cat_minus", "alpha": 0.7}, CUSTOM],
        "eta_grid": [0.8, 1.0],
        "eta_scan": [{"q_center_snu": 0.0, "target": {"kind": "cat_minus", "alpha": 0.7}}],
        "delta_grid_snu": [0.0, 0.2],
        "delta_scan": {"q_center_snu": 0.0, "target": CUSTOM},
    }),
    ("prepare", {
        "dim": 12, "resource": RESOURCE, "table1_row": None,
        "conditioning": {"theta_rad": 0.0, "q_center_snu": 0.5, "delta_snu": 0.2, "eta_a": 0.9,
                         "tail": False},
        "bloch_alpha": 0.7,
        "wigner": {"min_snu": -1.0, "max_snu": 1.0, "step_snu": 0.5},
        "targets": [{"kind": "cat_minus", "alpha": 0.7}, CUSTOM],
    }),
    ("tomo", {
        "dim": 12, "resource": RESOURCE, "truth": CUSTOM, "n_samples": 200, "eta": 0.9, "seed": 1,
        "tomo": {"dim_recon": 4, "eta_correction": 0.9, "bin_width_snu": 0.5, "n_phases": 4},
    }),
)
# values out of type, out of range and past the float and 64-bit ranges; none makes a
# config that allocates much
FUZZ_VALUES = (None, "x", [], {}, 0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 1e-300, 2**63, -2**63,
               2**70, True, False, 0, 1, 2, 7)


@st.composite
def fuzzed_configs(draw):
    """A template with one to three of its leaves, pair and grid elements included,
    replaced by values from FUZZ_VALUES."""
    command, doc = draw(st.sampled_from(FUZZ_TEMPLATES))
    for path in draw(st.lists(st.sampled_from(leaf_paths(doc)), min_size=1, max_size=3,
                              unique=True)):
        doc = with_leaf(doc, path, draw(st.sampled_from(FUZZ_VALUES)))
    return command, doc


@settings(max_examples=600, deadline=None, derandomize=True)
@given(fuzzed_configs())
def test_fuzzed_configs_exit_cleanly(tmp_path_factory, command_doc):
    # every config exits 0 to 3 without a traceback or a warning, with at most one
    # line on stderr (none on success), and a config error writes no file
    command, doc = command_doc
    base = tmp_path_factory.mktemp("fuzz")
    cfg, out = write_config(base, "cfg.json", doc), base / "out"
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run([command, "--config", cfg, "--out", out])
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert code in (EXIT_OK, EXIT_OUTPUT, EXIT_CONFIG, EXIT_NUMERICAL)
    assert len(lines) <= (0 if code == EXIT_OK else 1), lines
    if code == EXIT_CONFIG:
        assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["scan", "prepare", "tomo"])
def test_readme_config_examples_run(tmp_path, command):
    docs = [doc for c, doc in README_CONFIGS if c == command]
    assert docs
    for i, doc in enumerate(docs):
        cfg = write_config(tmp_path, f"cfg{i}.json", doc)
        assert run([command, "--config", cfg, "--out", tmp_path / f"out{i}"]) == EXIT_OK
        # the CLI reads every key an example sets: text in its place is refused
        # before any computing, where a stale key would be ignored and the run succeed
        for k, path in enumerate(leaf_paths(doc)):
            cfg = write_config(tmp_path, f"stale{i}_{k}.json", with_leaf(doc, path, "stale"))
            out = tmp_path / f"o{i}_{k}"
            assert run([command, "--config", cfg, "--out", out]) == EXIT_CONFIG, path


def test_readme_key_lists_are_the_dataclass_fields():
    # the CLI builds resource, conditioning and tomo from their dataclasses' fields, so
    # the keys the README lists for them must be those fields, in order
    text = README.read_text()
    for node, cls in (("resource", ResourceParams), ("conditioning", Conditioning),
                      ("tomo", TomoConfig)):
        (listed,) = re.findall(rf"The\s+`{node}`\s+node\s+reads\s+\w+\s+keys:([^.]*)\.", text)
        assert re.findall(r"`(\w+)`", listed) == [f.name for f in dataclasses.fields(cls)]
    # a field of a type without a reader would end a user's run in a traceback
    types = {f.type for cls in (ResourceParams, Conditioning, TomoConfig, TargetSpec)
             for f in dataclasses.fields(cls)}
    assert types <= set(_READERS)


def test_readme_cites_only_names_that_exist():
    # each catprep.<module>.<name> in the README is importable from that module,
    # so a name that moves or goes cannot stay cited
    cited = sorted(set(re.findall(r"\bcatprep(?:\.\w+)+", README.read_text())))
    assert cited
    for dotted in cited:
        _, module, *attrs = dotted.split(".")
        obj = importlib.import_module(f"catprep.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), dotted
            obj = getattr(obj, attr)


@pytest.mark.parametrize("seed", [11, 13])
def test_readme_tomo_config_converges(tmp_path, seed):
    # sampling seeds on which RrhoR ran into the 2000-iteration cap
    (doc,) = [doc for command, doc in README_CONFIGS if command == "tomo"]
    cfg = write_config(tmp_path, "tomo.json", doc)
    out = tmp_path / "out"
    assert run(["tomo", "--config", cfg, "--out", out, "--seed", seed]) == EXIT_OK
    recon = json.loads((out / "recon.json").read_text())
    assert recon["converged"] is True
    assert recon["iterations"] < tomography.MAX_ITERS
    # lambda_max(R) - 1 bounds LL* - LL; rounding may put it a hair below 0
    assert -1e-12 <= recon["optimality_gap"] <= tomography.GAP_TOL
    report = json.loads((out / "report.json").read_text())
    assert report["fidelity_recon_truth"] >= 0.98


@pytest.mark.parametrize("command, doc, extra, outputs", [
    ("prepare", PREP_DOC, [], ["bloch.json", "state.json", "wigner.csv", "wigner.json"]),
    ("tomo", TOMO_DOC, ["--seed", 17], ["recon.json", "records.csv", "report.json"]),
], ids=["prepare", "tomo"])
def test_rerun_is_byte_identical(tmp_path, command, doc, extra, outputs):
    cfg = write_config(tmp_path, f"{command}.json", doc)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run([command, "--config", cfg, "--out", out1, *extra]) == EXIT_OK
    assert run([command, "--config", cfg, "--out", out2, *extra]) == EXIT_OK
    for out in (out1, out2):
        assert sorted(p.name for p in out.iterdir()) == outputs
    for name in outputs:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_tomo_seed_override_changes_records(tmp_path):
    cfg = write_config(tmp_path, "tomo.json", {**TOMO_DOC, "n_samples": 500})
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run(["tomo", "--config", cfg, "--out", out1]) == EXIT_OK
    assert run(["tomo", "--config", cfg, "--out", out2]) == EXIT_OK
    assert run(["tomo", "--config", cfg, "--out", out3, "--seed", 99]) == EXIT_OK
    assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
    assert (out1 / "records.csv").read_bytes() != (out3 / "records.csv").read_bytes()
    assert json.loads((out3 / "report.json").read_text())["seed"] == 99


def test_tomo_config_errors(tmp_path):
    no_truth = {k: v for k, v in TOMO_DOC.items() if k != "truth"}
    cfg = write_config(tmp_path, "t1.json", no_truth)
    assert run(["tomo", "--config", cfg, "--out", tmp_path / "o1"]) == EXIT_CONFIG
    cfg2 = write_config(tmp_path, "t2.json", {**TOMO_DOC, "n_samples": 0})
    assert run(["tomo", "--config", cfg2, "--out", tmp_path / "o2"]) == EXIT_CONFIG
    cfg3 = write_config(tmp_path, "t3.json", {**TOMO_DOC, "eta": 1.5})
    assert run(["tomo", "--config", cfg3, "--out", tmp_path / "o3"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "command, doc",
    [
        ("prepare", {**PREP_DOC, "table1_row": 2, "conditioning": {"delta_snu": "wide"}}),
        ("prepare", {**PREP_DOC, "table1_row": 0}),
        ("prepare", {**PREP_DOC, "table1_row": -1}),
        ("prepare", {**PREP_DOC, "table1_row": True}),
        ("scan", {**SCAN_DOC, "delta_scan": 5}),
        ("scan", {**SCAN_DOC, "eta_scan": [5]}),
        ("scan", {**SCAN_DOC, "targets": 5}),
        ("tomo", {**TOMO_DOC, "n_samples": True}),
        ("tomo", {**TOMO_DOC, "seed": "abc"}),
        ("tomo", {**TOMO_DOC, "seed": 5.7}),
        ("tomo", {**TOMO_DOC, "tomo": {**TOMO_DOC["tomo"], "dim_recon": 6.9}}),
        ("tomo", {**TOMO_DOC, "tomo": {**TOMO_DOC["tomo"], "n_phases": 4.5}}),
        ("scan", {**SCAN_DOC, "q_grid_snu": {"start": -1.0, "stop": 1.0, "num": 3.7}}),
        ("scan", {**SCAN_DOC, "eta_grid": [0.5, 1.2]}),
        ("scan", {**SCAN_DOC, "delta_grid_snu": [-0.1, 0.1]}),
        ("scan", {**SCAN_DOC, "q_grid_snu": [NAN, 0.5]}),
        ("scan", {**SCAN_DOC, "theta_rad": NAN}),
        ("scan", {**SCAN_DOC, "eta_grid": [NAN, 1.0]}),
        ("scan", {**SCAN_DOC, "delta_grid_snu": [NAN, 0.1]}),
        ("tomo", {**TOMO_DOC, "truth": {"kind": "cat_minus", "alpha": NAN}}),
        ("tomo", {**TOMO_DOC, "tomo": {**TOMO_DOC["tomo"], "bin_width_snu": NAN}}),
        ("tomo", {**TOMO_DOC, "seed": -1}),
        ("prepare", {**PREP_DOC, "wigner": {"min_snu": -1.0, "max_snu": 1.0, "step_snu": 0.3}}),
        ("tomo", {**TOMO_DOC, "tomo": {**TOMO_DOC["tomo"], "dim_recon": 21}}),
        ("prepare", {**PREP_DOC, "bloch_alpha": 0.0}),
        ("prepare", {**PREP_DOC, "bloch_alpha": -0.7}),
        ("prepare", {**PREP_DOC, "bloch_alpha": 2.5}),
        ("prepare", {**PREP_DOC, "conditioning": {"q_center_snu": -2.0, "tail": True}}),
        ("prepare", {**PREP_DOC, "conditioning": {"q_center_snu": 2.0, "tail": "false"}}),
        ("prepare", {**PREP_DOC, "targets": [{"kind": "cat_minus", "alpha": 3.0}]}),
        ("scan", {**SCAN_DOC, "eta_scan": [{"target": {"kind": "coherent_plus", "alpha": 2.5}}]}),
        ("tomo", {**TOMO_DOC, "truth": {"kind": "cat_minus", "alpha": 3.0}}),
        ("scan", {**SCAN_DOC, "resource": {"model": "ideal", "alpha": 3.0},
                  "targets": [{"kind": "cat_minus", "alpha": 0.7}],
                  "eta_scan": [{"target": {"kind": "cat_minus", "alpha": 0.7}}],
                  "delta_scan": {"target": {"kind": "cat_minus", "alpha": 0.7}}}),
        ("prepare", {**PREP_DOC, "resource": {"model": "ideal", "alpha": 3.0},
                     "targets": [{"kind": "cat_minus", "alpha": 0.7}], "bloch_alpha": 0.7}),
        ("tomo", {**TOMO_DOC, "resource": {"model": "ideal", "alpha": 3.0},
                  "truth": {"kind": "cat_minus", "alpha": 0.7}}),
        ("scan", {**SCAN_DOC, "q_grid_snu": ["a", 1]}),
        ("scan", {**SCAN_DOC, "q_grid_snu": [[0.1, 0.2], [0.3]]}),
        ("scan", {**SCAN_DOC, "q_grid_snu": [[0.1, 0.2]]}),
        ("scan", {**SCAN_DOC, "eta_grid": [[0.5, 0.9]]}),
        ("scan", {**SCAN_DOC, "q_grid_snu": {"start": -1.0, "stop": 1.0, "num": 10**18}}),
        ("scan", {**SCAN_DOC, "theta_rad": 10**400}),
        ("prepare", {**PREP_DOC, "wigner": {"min_snu": -4.0, "max_snu": 4.0, "step_snu": 1e-320}}),
        ("tomo", {**TOMO_DOC, "tomo": {**TOMO_DOC["tomo"], "bin_width_snu": 1e-320}}),
        ("scan", {**SCAN_DOC, "dim": DIM_400_DIGITS}),
        ("scan", {**SCAN_DOC, "q_grid_snu": {"start": -1.0, "stop": 1.0, "num": 2**63 - 1}}),
        ("tomo", {**TOMO_DOC, "tomo": {"dim_recon": 10, "n_phases": 1}}),
    ],
    ids=["row_delta_text", "row_0", "row_minus_1", "row_true", "delta_scan_number",
         "eta_scan_entry_number", "targets_number", "n_samples_true", "seed_text",
         "seed_fraction", "dim_recon_fraction", "n_phases_fraction",
         "grid_num_fraction", "eta_above_one", "delta_negative", "q_grid_nan", "theta_nan",
         "eta_grid_nan", "delta_grid_nan", "truth_alpha_nan", "bin_width_nan",
         "seed_negative", "wigner_step_not_dividing", "dim_recon_above_dim", "bloch_alpha_zero",
         "bloch_alpha_negative", "bloch_alpha_at_truncation_bound", "tail_negative_q",
         "tail_text", "target_alpha_above_truncation_bound",
         "scan_target_alpha_at_truncation_bound", "truth_alpha_above_truncation_bound",
         "scan_ideal_resource_alpha_above_truncation_bound",
         "prepare_ideal_resource_alpha_above_truncation_bound",
         "tomo_ideal_resource_alpha_above_truncation_bound", "q_grid_text", "q_grid_ragged",
         "q_grid_nested", "eta_grid_nested", "q_grid_num_unallocatable", "theta_past_float_range",
         "wigner_step_infinite_count", "bin_width_infinite_count", "dim_past_64_bits",
         "q_grid_num_unsizable", "n_phases_below_dim_recon"],
)
def test_bad_config_values_exit_with_config_error(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, "cfg.json", doc)
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not any((tmp_path / "o").iterdir())  # refused before any output


@pytest.mark.parametrize(
    "command, doc, holder, key",
    [
        ("scan", {**SCAN_DOC, "stray": 1}, "the top level", "stray"),
        ("prepare", {**PREP_DOC, "stray": 1}, "the top level", "stray"),
        ("tomo", {**TOMO_DOC, "n_phases": 6}, "the top level", "n_phases"),
        ("scan", {**SCAN_DOC, "resource": {"alpha": 0.7, "stray": 1}}, "resource", "stray"),
        ("prepare", {**PREP_DOC, "targets": [{"kind": "cat_minus", "stray": 1}]}, "target",
         "stray"),
        ("tomo", {**TOMO_DOC, "truth": {"kind": "cat_minus", "alhpa": 0.7}}, "target", "alhpa"),
        ("scan", {**SCAN_DOC, "q_grid_snu": {"start": -1.0, "stop": 1.0, "num": 5, "step": 0.5}},
         "q_grid_snu", "step"),
        ("scan", {**SCAN_DOC, "eta_scan": [{"q_center_snu": 0.0, "delta_snu": 0.2}]},
         "eta_scan entry", "delta_snu"),
        ("scan", {**SCAN_DOC, "delta_scan": {"q_center_snu": 0.0, "eta_a": 0.9}}, "delta_scan",
         "eta_a"),
        ("prepare", {**PREP_DOC, "conditioning": {"q_center_snu": 0.0, "delta": 0.2}},
         "conditioning", "delta"),
        ("prepare", {**PREP_DOC, "wigner": {**PREP_DOC["wigner"], "num": 41}}, "wigner", "num"),
        ("tomo", {**TOMO_DOC, "tomo": {"dim_recon": 8, "n_phase": 6}}, "tomo", "n_phase"),
        # a Table 1 row fixes theta_rad, q_center_snu and tail
        ("prepare", {**PREP_DOC, "table1_row": 2,
                     "conditioning": {"q_center_snu": 1.0, "theta_rad": 0.5}},
         "conditioning under a table1_row", "q_center_snu"),
        ("prepare", {**PREP_DOC, "table1_row": 3, "conditioning": {"theta_rad": 0.0}},
         "conditioning under a table1_row", "theta_rad"),
        ("prepare", {**PREP_DOC, "table1_row": 1, "conditioning": {"delta_snu": 0.2, "tail": True}},
         "conditioning under a table1_row", "tail"),
    ],
    ids=["scan_top", "prepare_top", "tomo_top", "resource", "target", "truth", "grid",
         "eta_scan_entry", "delta_scan", "conditioning", "wigner", "tomo_node", "row_q_center",
         "row_theta", "row_tail"],
)
def test_unknown_keys_are_refused_at_every_level(tmp_path, capsys, command, doc, holder, key):
    # a key the command does not read, such as a misspelt one, would be ignored and the
    # run succeed with the default in its place
    cfg = write_config(tmp_path, "cfg.json", doc)
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {holder} reads only ") and err.count("\n") == 1
    assert err.endswith(f", not {key!r}\n")
    assert not any((tmp_path / "o").iterdir())


def test_default_targets_take_the_resource_alpha(tmp_path):
    # without targets, the six Table 1 kinds are built at the resource alpha, as a
    # listed target without an alpha is
    doc = {**{k: v for k, v in PREP_DOC.items() if k != "targets"}, "resource": {"alpha": 1.2}}
    runs = {"default": doc, "listed": {**doc, "targets": [{"kind": "cat_minus"}]}}
    fids = {}
    for name, config in runs.items():
        cfg = write_config(tmp_path, f"{name}.json", config)
        assert run(["prepare", "--config", cfg, "--out", tmp_path / name]) == EXIT_OK
        fids[name] = json.loads((tmp_path / name / "state.json").read_text())["fidelities"]
    assert [f["target"] for f in fids["default"]] == [row.target.kind for row in TABLE1]
    assert all(f["alpha"] == 1.2 for f in fids["default"] + fids["listed"])
    (listed,) = fids["listed"]
    assert fids["default"][1] == listed  # cat_minus, Table 1 row 2


@pytest.mark.parametrize(
    "command, doc",
    [
        ("scan", {"dim": 12, "targets": [{"kind": "cat_minus", "alpha": 1e308}]}),
        ("tomo", {**TOMO_DOC, "truth": {"kind": "cat_minus", "alpha": 1e200}}),
        ("prepare", {**PREP_DOC, "bloch_alpha": 1e200}),
        ("scan", {**SCAN_DOC, "resource": {"model": "ideal", "alpha": 1e200}}),
    ],
    ids=["target", "truth", "bloch_alpha", "ideal_resource"],
)
def test_alpha_whose_square_overflows_exits_with_config_error(tmp_path, capsys, command, doc):
    # |alpha|^2 is past the float range, and the truncation guard must not square it
    cfg = write_config(tmp_path, "cfg.json", doc)
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not any((tmp_path / "o").iterdir())


@pytest.mark.parametrize(
    "c_plus, c_minus",
    [([1e200, 0.0], [0.0, 0.0]), ([1e308, 1e308], [0.0, 0.0]), ([0.0, 0.0], [0.0, -1e200])],
    ids=["square_overflows", "modulus_overflows", "c_minus"],
)
def test_custom_coefficients_past_one_exit_with_config_error(tmp_path, capsys, c_plus, c_minus):
    # |c|^2 is past the float range, and the normalization check must not square it
    doc = {"dim": 12, "targets": [{"kind": "custom", "c_plus": c_plus, "c_minus": c_minus}]}
    cfg = write_config(tmp_path, "cfg.json", doc)
    assert run(["scan", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: custom coefficients") and err.count("\n") == 1
    assert not any((tmp_path / "o").iterdir())


@pytest.mark.parametrize(
    "command, doc, code, text",
    [
        ("scan", {**SCAN_DOC, "q_grid_snu": {"start": -1e308, "stop": 1e308, "num": 5}},
         EXIT_CONFIG, "config error: q_grid_snu: overflow"),
        ("prepare", {**PREP_DOC, "conditioning": {"q_center_snu": 1e308}},
         EXIT_NUMERICAL, "numerical failure: overflow"),
        ("scan", {**SCAN_DOC, "delta_grid_snu": [0.0, 1e308]},
         EXIT_CONFIG, "config error: delta_grid_snu"),
        ("scan", {**SCAN_DOC, "resource": {"squeezing_db": -1e308}},
         EXIT_NUMERICAL, "numerical failure: divide by zero"),
    ],
    ids=["q_grid_span", "q_center", "delta_grid", "squeezing_db"],
)
def test_floating_point_faults_print_one_line_and_no_warning(tmp_path, capsys, command, doc,
                                                             code, text):
    # numpy's overflow, division and invalid warnings would print two more lines
    cfg = write_config(tmp_path, "cfg.json", doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == code
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith(text) and err.count("\n") == 1
    assert not any((tmp_path / "o").iterdir())


def test_window_width_bound_is_inclusive(tmp_path):
    # a window exactly WINDOW_MAX wide runs, and one a float wider is refused
    past = float(np.nextafter(WINDOW_MAX, np.inf))
    for command, doc, code in [
        ("prepare", {**PREP_DOC, "conditioning": {"delta_snu": WINDOW_MAX}}, EXIT_OK),
        ("prepare", {**PREP_DOC, "conditioning": {"delta_snu": past}}, EXIT_CONFIG),
        ("scan", {**SCAN_DOC, "delta_grid_snu": [0.0, WINDOW_MAX]}, EXIT_OK),
        ("scan", {**SCAN_DOC, "delta_grid_snu": [0.0, past]}, EXIT_CONFIG),
    ]:
        cfg = write_config(tmp_path, "cfg.json", doc)
        out = tmp_path / f"{command}_{code}"
        assert run([command, "--config", cfg, "--out", out]) == code
    state = json.loads((tmp_path / "prepare_0" / "state.json").read_text())
    assert 0.9 < state["success_prob"] < 1.0  # P(|q| <= 3.5) of the heralding marginal


@pytest.mark.parametrize(
    "command, doc, key",
    [
        ("prepare", {**PREP_DOC, "targets": [{"kind": "cat_minus", "alpha": -0.7}]},
         "target alpha"),
        ("prepare", {**PREP_DOC, "wigner": {"min_snu": -4.0, "max_snu": 4.0, "step_snu": 0.0}},
         "step_snu"),
        ("prepare", {**PREP_DOC, "wigner": {"min_snu": -1.0, "max_snu": 1.0, "step_snu": 0.3}},
         "step_snu"),
        ("tomo", {**TOMO_DOC, "tomo": {**TOMO_DOC["tomo"], "n_phases": 0}}, "n_phases"),
        ("tomo", {**TOMO_DOC, "tomo": {"dim_recon": 10, "n_phases": 1}}, "n_phases"),
        ("tomo", {**TOMO_DOC, "truth": {"kind": "custom", "c_plus": 1}}, "c_plus"),
        ("tomo", {**TOMO_DOC, "tomo": {**TOMO_DOC["tomo"], "bin_width_snu": 1e-320}}, "bin_width"),
        ("scan", {**SCAN_DOC, "dim": DIM_400_DIGITS}, "dim"),
        ("scan", {**SCAN_DOC, "q_grid_snu": {"start": -1.0, "stop": 1.0, "num": 2**63 - 1}},
         "q_grid_snu: num 9223372036854775807 is more values than a float64 array can hold"),
        ("scan", {**SCAN_DOC, "eta_grid": {"start": 0.5, "stop": 1.0, "num": 2**60}},
         "eta_grid: num 1152921504606846976 is more values than a float64 array can hold"),
        ("prepare", {**PREP_DOC, "wigner": {"min_snu": -4.0, "max_snu": 4.0, "step_snu": 1e-300}},
         "wigner step_snu 1e-300 makes 8e+300 steps across max_snu - min_snu = 8.0, "
         "more values than a float64 array can hold"),
        ("prepare", {**PREP_DOC, "wigner": {"min_snu": -4.0, "max_snu": 4.0, "step_snu": 1e-17}},
         "wigner step_snu 1e-17: Unable to allocate"),
        # WINDOW_NODES nodes integrate a window only up to WINDOW_MAX wide: a 40 snu
        # window at q = 0 reported success_prob 0.74, where every outcome is accepted
        ("prepare", {**PREP_DOC, "conditioning": {"delta_snu": 40.0}}, "delta must lie in [0, 7]"),
        ("prepare", {**PREP_DOC, "table1_row": 2, "conditioning": {"delta_snu": 100.0}},
         "delta must lie in [0, 7]"),
        ("scan", {**SCAN_DOC, "delta_grid_snu": [0.0, 0.2, 7.5]},
         "delta_grid_snu: widths must lie in [0, 7]"),
        ("scan", {**SCAN_DOC, "delta_grid_snu": {"start": 0.0, "stop": 10.0, "num": 3}},
         "delta_grid_snu: widths must lie in [0, 7]"),
    ],
    ids=["target_alpha_negative", "wigner_step_zero", "wigner_step_not_dividing", "n_phases_zero",
         "n_phases_below_dim_recon",
         "custom_coefficient_not_a_pair", "bin_width_infinite_count", "dim_past_64_bits",
         "q_grid_num_unsizable", "eta_grid_num_past_array_bytes", "wigner_step_unsizable",
         "wigner_step_unallocatable", "delta_40", "row_delta_100",
         "delta_grid_list_past_bound", "delta_grid_range_past_bound"],
)
def test_config_error_names_the_key(tmp_path, capsys, command, doc, key):
    # library messages reach the user unwrapped, so they must name the key themselves
    cfg = write_config(tmp_path, "cfg.json", doc)
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_out_path_that_is_a_file_exits_with_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "scan.json", SCAN_DOC)
    out = tmp_path / "taken"
    out.write_text("keep")
    assert run(["scan", "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert out.read_text() == "keep"


def test_module_entry_point_exits_with_config_error_without_traceback(tmp_path):
    # in-process calls of main skip the __main__ path that sys.exit takes
    cfg = write_config(tmp_path, "scan.json", SCAN_DOC)
    out = tmp_path / "taken"
    out.write_text("keep")
    src = str(Path(catprep.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "catprep.cli", "scan", "--config", cfg, "--out", out],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == EXIT_CONFIG
    assert "config error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_failed_output_write_is_an_output_error(tmp_path, capsys):
    # a directory where fig1c.csv goes cannot be replaced by the file
    cfg = write_config(tmp_path, "scan.json", SCAN_DOC)
    out = tmp_path / "out"
    (out / "fig1c.csv").mkdir(parents=True)
    assert run(["scan", "--config", cfg, "--out", out]) == EXIT_OUTPUT
    err = capsys.readouterr().err
    assert err.startswith("output error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert sorted(p.name for p in out.iterdir()) == ["fig1c.csv"]  # no .fig1c.csv.tmp left
    assert (out / "fig1c.csv").is_dir()


def test_non_finite_output_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # a -inf log likelihood cannot be written as JSON: the run exits 3, recon.json is absent
    real = tomography.mle_reconstruct
    monkeypatch.setattr("catprep.cli.mle_reconstruct", lambda records, cfg: dataclasses.replace(
        real(records, cfg), log_likelihood=float("-inf")))
    cfg = write_config(tmp_path, "tomo.json", TOMO_DOC)
    out = tmp_path / "out"
    assert run(["tomo", "--config", cfg, "--out", out]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure: cannot write the non-finite")
    assert sorted(p.name for p in out.iterdir()) == ["records.csv"]  # no .recon.json.tmp left


def test_unsizable_bin_count_is_a_numerical_failure(tmp_path, capsys):
    # 2e18 bins fit 64 bits, but the counts of six phases do not
    doc = {**TOMO_DOC, "tomo": {**TOMO_DOC["tomo"], "bin_width_snu": 1e-17}}
    cfg = write_config(tmp_path, "tomo.json", doc)
    assert run(["tomo", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure:")


def test_unallocatable_sample_count_is_a_numerical_failure(tmp_path, capsys):
    # 10**18 samples ask numpy for exabytes, beyond any 64-bit address space,
    # so the allocation fails at once without touching memory
    cfg = write_config(tmp_path, "tomo.json", {**TOMO_DOC, "n_samples": 10**18})
    assert run(["tomo", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_NUMERICAL
    assert "numerical failure:" in capsys.readouterr().err
    assert not (tmp_path / "o" / "records.csv").exists()


WRITERS = {  # writer, a document it writes, and one it fails on
    "write_json": (write_json, {"a": 1.0}, {"a": object()}),
    "write_scan_csv": (lambda columns, path: write_scan_csv(*columns, path),
                       ([0.1], ["cat_minus"], [0.5]), ([0.2], [], [])),
    "write_grid_csv": (lambda grid, path: write_grid_csv(*grid, path),
                       (np.zeros(1), np.zeros(1), np.zeros((1, 1))),
                       (np.zeros(1), np.zeros(1), [["text"]])),
    "write_records": (tomography.write_records, (np.zeros(2), np.ones(2)),
                      (np.zeros(2), np.ones(3))),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_rewrite_keeps_the_previous_file(tmp_path, name):
    writer, good, bad = WRITERS[name]
    path = tmp_path / "out.txt"
    writer(good, path)
    writer(good, path)  # a rewrite replaces the existing file
    before = path.read_bytes()
    with pytest.raises((TypeError, KeyError, ValueError)):
        writer(bad, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]  # no temporary file left


def test_negative_seed_flag_exits_with_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "tomo.json", TOMO_DOC)
    assert run(["tomo", "--config", cfg, "--out", tmp_path / "o", "--seed", -1]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not any((tmp_path / "o").iterdir())


@pytest.mark.parametrize("command, doc", [("scan", SCAN_DOC), ("prepare", PREP_DOC)])
def test_seed_flag_is_tomo_only(tmp_path, capsys, command, doc):
    # scan and prepare draw no random numbers, so argparse refuses --seed there
    cfg = write_config(tmp_path, "cfg.json", doc)
    with pytest.raises(SystemExit) as exc:
        run([command, "--config", cfg, "--out", tmp_path / "o", "--seed", 7])
    assert exc.value.code == 2  # argparse's usage error
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_import_loads_numpy_only():
    src = str(Path(catprep.__file__).resolve().parents[1])
    code = ("import sys; import catprep.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_falling_likelihood_is_a_numerical_failure(tmp_path, monkeypatch):
    # an explicit raise, not an assert that python -O would strip
    falling = itertools.count()
    monkeypatch.setattr(tomography, "_frequencies_ll", lambda freqs, probs: -float(next(falling)))
    cfg = tomography.TomoConfig(dim_recon=8, n_phases=6)
    records = tomography.sample_homodyne(cat(0.7, "odd", 20), cfg.n_phases, 2000, seed=5)
    with pytest.raises(ValueError, match="likelihood decreased"):  # not an AssertionError
        tomography.mle_reconstruct(records, cfg)
    cfg_path = write_config(tmp_path, "tomo.json", TOMO_DOC)
    assert run(["tomo", "--config", cfg_path, "--out", tmp_path / "o"]) == EXIT_NUMERICAL
