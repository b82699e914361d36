"""Correctness checks on the files one catprep invocation wrote.

Each check compares an output against the benchmark's own computation in
``model``, never against stored output. A check function returns the list
of failures (empty when the outputs are right) and the invocation's
headline fidelity, computed from the written files.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import model

MODEL_ATOL = 1e-6  # catprep builds a S|0> from S|0> truncated at dim: ~4e-7 at dim 30
STATE_TOL = 1e-10  # Hermiticity, trace and eigenvalue floor of a density matrix
EXACT_TOL = 1e-9  # quantities both sides compute from the same written matrix
WIGNER_MASS_TOL = 1e-3  # the +-6 box misses 0.8e-4 to 4.3e-4 of the Table 1 states
MOMENT_SIGMAS = 5.0  # second-moment check, in standard errors of the sample mean
TOMO_MIN_FIDELITY = 0.98  # README: above 0.98 with 15 percent loss corrected
HERALD_RATE_HZ = 200_000.0

# Published Table 1 working points: target, Q, theta, tail, fidelity.
TABLE1 = {
    1: ("cat_plus", 2.0, 0.0, True, 0.86),
    2: ("cat_minus", 0.0, 0.0, False, 0.65),
    3: ("coherent_plus", 1.14, 0.0, False, 0.85),
    4: ("coherent_minus", -1.14, 0.0, False, 0.85),
    5: ("phase_cat_plus", 1.14, math.pi / 2, False, 0.81),
    6: ("phase_cat_minus", -1.14, math.pi / 2, False, 0.80),
}
PREPARE_TARGETS = tuple(row[0] for row in TABLE1.values())


def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _rho(pairs, dim: int) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(dim, dim)


def _close(name: str, got, want, atol: float, failures: list) -> None:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not err <= atol:
        failures.append(f"{name}: off by {err:.3g} (tolerance {atol:g})")


def _density_matrix(name: str, rho: np.ndarray, failures: list) -> None:
    _close(f"{name} Hermitian", rho, rho.conj().T, STATE_TOL, failures)
    _close(f"{name} trace", np.trace(rho).real, 1.0, STATE_TOL, failures)
    low = float(np.linalg.eigvalsh(rho).min())
    if low < -STATE_TOL:
        failures.append(f"{name} not PSD: eigenvalue {low:.3g}")


def _scan_rows(path: Path) -> tuple[list, np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["param", "target", "fidelity"]:
        raise ValueError(f"{path.name}: header {rows[0]}")
    body = rows[1:]
    params = np.array([float(r[0]) for r in body])
    fids = np.array([float(r[2]) for r in body])
    return [r[1] for r in body], params, fids


def _grid(node: dict) -> np.ndarray:
    return np.linspace(node["start"], node["stop"], node["num"])


def check_tomo(out: Path, doc: dict, seed: int) -> tuple[list, float]:
    failures: list = []
    report = _json(out / "report.json")
    recon = _json(out / "recon.json")
    tomo = doc["tomo"]
    dim = tomo["dim_recon"]
    rho = _rho(recon["rho"], dim)
    _density_matrix("recon", rho, failures)

    truth = doc["truth"]
    head = model.cat_amps(truth["alpha"], -1, doc["dim"])[:dim]
    fid = float(np.real(head.conj() @ rho @ head))
    if not fid >= TOMO_MIN_FIDELITY:
        failures.append(f"F(recon, truth) = {fid:.4f} < {TOMO_MIN_FIDELITY}")
    _close("fidelity_recon_truth", report["fidelity_recon_truth"], fid, EXACT_TOL, failures)
    w0 = model.parity_origin(rho)
    _close("w_origin_recon", report["w_origin_recon"], w0, EXACT_TOL, failures)
    if not report["w_origin_recon"] < 0:
        failures.append(f"w_origin_recon = {report['w_origin_recon']:.4g} is not negative")
    if report["seed"] != seed or report["n_samples"] != doc["n_samples"]:
        failures.append("report does not echo the seed and sample count")

    with open(out / "records.csv") as fh:
        header = fh.readline().strip()
        records = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header != "theta_rad,q" or records.shape != (doc["n_samples"], 2):
        failures.append(f"records.csv: header {header!r}, shape {records.shape}")
        return failures, fid
    phases = np.pi * np.arange(tomo["n_phases"]) / tomo["n_phases"]
    which = np.argmin(np.abs(records[:, :1] - phases[None, :]), axis=1)
    if np.max(np.abs(records[:, 0] - phases[which])) > 1e-12:
        failures.append("records.csv: a phase outside the configured set")
    expected = model.lossy_second_moment(
        model.cat_quadrature_second_moment(truth["alpha"], -1, phases), doc["eta"])
    for k, theta in enumerate(phases):
        q2 = records[which == k, 1] ** 2
        stderr = q2.std(ddof=1) / math.sqrt(q2.size)
        if abs(q2.mean() - expected[k]) > MOMENT_SIGMAS * stderr:
            failures.append(f"<q^2> at theta={theta:.3f}: {q2.mean():.4f}, "
                            f"expected {expected[k]:.4f} +- {stderr:.4f}")
    return failures, fid


def check_prepare(out: Path, doc: dict) -> tuple[list, float]:
    failures: list = []
    row = doc["table1_row"]
    kind, q_center, theta, tail, published = TABLE1[row]
    dim = doc["dim"]
    mdl = model.TwoBranchModel(dim)
    if tail:
        moments = model.tail_moments(q_center)
    else:
        half = doc["conditioning"]["delta_snu"] / 2
        moments = model.window_moments(q_center - half, q_center + half)
    m = mdl.matrix(moments, theta, doc["conditioning"]["eta_a"])
    rho_model = mdl.rho(m)
    success = float(mdl.success(m))
    purity = np.real(np.trace(rho_model @ rho_model))

    state = _json(out / "state.json")
    rho = _rho(state["rho"], dim)
    _density_matrix("state", rho, failures)
    _close("rho", rho, rho_model, MODEL_ATOL, failures)
    _close("success_prob", state["success_prob"] / success, 1.0, MODEL_ATOL, failures)
    _close("heralded_rate_hz", state["heralded_rate_hz"] / HERALD_RATE_HZ,
           state["success_prob"], EXACT_TOL, failures)
    _close("purity", state["purity"], purity, MODEL_ATOL, failures)
    _close("mean_photon_number", state["mean_photon_number"],
           np.real(np.arange(dim) @ np.diag(rho_model)), MODEL_ATOL, failures)
    if state["success_is_density"]:
        failures.append("a window or tail success probability is flagged as a density")

    row_fid = float("nan")
    written = {entry["target"]: entry for entry in state["fidelities"]}
    if sorted(written) != sorted(PREPARE_TARGETS):
        failures.append(f"fidelity rows for {sorted(written)}")
        return failures, row_fid
    for target in PREPARE_TARGETS:
        entry = written[target]
        want = float(mdl.fidelity(m, model.target_amps(target, entry["alpha"], dim)))
        _close(f"F[{target}]", entry["fidelity_simulated"], want, MODEL_ATOL, failures)
        ref = published if target == kind else None
        if entry["fidelity_published"] != ref:
            failures.append(f"F[{target}] published {entry['fidelity_published']}, expected {ref}")
        if target == kind:
            t = model.target_amps(target, entry["alpha"], dim)
            row_fid = float(np.real(t.conj() @ rho @ t))

    bloch = _json(out / "bloch.json")
    cats = np.stack([model.cat_amps(bloch["alpha"], +1, dim), model.cat_amps(bloch["alpha"], -1, dim)])
    qubit = cats.conj() @ rho_model @ cats.T
    _close("bloch subspace_weight", bloch["subspace_weight"], np.trace(qubit).real, MODEL_ATOL, failures)
    _close("bloch max_fidelity", bloch["max_fidelity"], np.linalg.eigvalsh(qubit).max(),
           MODEL_ATOL, failures)
    _close("bloch d", bloch["d"], math.sqrt(max(2 * purity - 1, 0.0)), MODEL_ATOL, failures)

    with open(out / "wigner.csv") as fh:
        xs = np.array(fh.readline().strip().split(",")[1:], dtype=float)
        ps = np.array(fh.readline().strip().split(",")[1:], dtype=float)
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    wnode = doc["wigner"]
    n = int(round((wnode["max_snu"] - wnode["min_snu"]) / wnode["step_snu"])) + 1
    axis = np.linspace(wnode["min_snu"], wnode["max_snu"], n)
    if values.shape != (n, n) or not (np.array_equal(xs, axis) and np.array_equal(ps, axis)):
        failures.append(f"wigner.csv: shape {values.shape}, axes differ from the config")
        return failures, row_fid
    mass = np.trapezoid(np.trapezoid(values, xs, axis=1), ps)
    _close("Wigner integral", mass, 1.0, WIGNER_MASS_TOL, failures)
    w0 = model.parity_origin(rho_model)
    zero = int(np.argmin(np.abs(axis)))
    if abs(axis[zero]) < 1e-12:
        _close("W(0,0) on the grid", values[zero, zero], w0, MODEL_ATOL, failures)
    meta = _json(out / "wigner.json")
    _close("wigner.json w_origin", meta["w_origin"], w0, MODEL_ATOL, failures)
    _close("wigner.json negativity_min", meta["negativity_min"], values.min(), 0.0, failures)
    return failures, row_fid


def check_scan(out: Path, doc: dict) -> tuple[list, float]:
    failures: list = []
    dim = doc["dim"]
    theta = doc["theta_rad"]
    mdl = model.TwoBranchModel(dim)

    def compare(name, got_targets, params, fids, want_params, want_targets, want_fids):
        if got_targets != want_targets or params.shape != want_params.shape:
            failures.append(f"{name}: rows do not follow the configured grid and targets")
            return
        _close(f"{name} params", params, want_params, 1e-12, failures)
        _close(f"{name} fidelities", fids, want_fids, MODEL_ATOL, failures)

    targets = [t["kind"] for t in doc["targets"]]
    q = _grid(doc["q_grid_snu"])
    m = mdl.matrix(model.point_moments(q), theta)
    want = np.stack([mdl.fidelity(m, model.target_amps(t["kind"], t["alpha"], dim))
                     for t in doc["targets"]], axis=1)
    got_t, params, fids = _scan_rows(out / "fig1c.csv")
    compare("fig1c", got_t, params, fids, np.repeat(q, len(targets)),
            targets * q.size, want.ravel())
    fig1c_mean = float(fids.mean())

    eta = _grid(doc["eta_grid"])
    want_p, want_t, want_f = [], [], []
    for node in doc["eta_scan"]:
        t = node["target"]
        m = mdl.matrix(model.point_moments(node["q_center_snu"]), theta, eta)
        want_p.append(eta)
        want_t += [t["kind"]] * eta.size
        want_f.append(mdl.fidelity(m, model.target_amps(t["kind"], t["alpha"], dim)))
    got_t, params, fids = _scan_rows(out / "fig1d.csv")
    compare("fig1d", got_t, params, fids, np.concatenate(want_p), want_t, np.concatenate(want_f))

    delta = _grid(doc["delta_grid_snu"])
    node = doc["delta_scan"]
    q0 = node["q_center_snu"]
    window = model.window_moments(q0 - delta / 2, q0 + delta / 2)
    point = model.point_moments(np.full_like(delta, q0))
    moments = [np.where(delta > 0, w, p) for w, p in zip(window, point)]
    t = node["target"]
    want_f = mdl.fidelity(mdl.matrix(moments, theta), model.target_amps(t["kind"], t["alpha"], dim))
    got_t, params, fids = _scan_rows(out / "fig1e.csv")
    compare("fig1e", got_t, params, fids, delta, [t["kind"]] * delta.size, want_f)
    return failures, fig1c_mean


def check(workload: str, out: Path, doc: dict, seed: int | None) -> tuple[list, float]:
    """Run the workload's checks; a check that cannot read its inputs fails."""
    try:
        if workload == "tomo_lossy":
            return check_tomo(out, doc, seed)
        if workload == "prepare_table1":
            return check_prepare(out, doc)
        return check_scan(out, doc)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"cannot check {out.name}: {type(exc).__name__}: {exc}"], float("nan")
