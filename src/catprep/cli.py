"""Command-line front end.

Subcommands: scan | prepare | tomo, each driven by a single JSON config
document plus an output directory. Physical quantities carry explicit unit
suffixes in key names (theta_rad, q_center_snu, delta_snu, squeezing_db) to
prevent convention drift. CSV floats are written as "%.17g" writes them, and
JSON floats as json.dumps writes them, the shortest text that reads back as the
same float. No timestamps are written, so reruns are byte-identical.

Each subcommand parses its config into the library's objects before it computes.
An object that holds a dataclass's settings is built from its fields, one key per
field, and a key that nothing reads is refused. Only main maps errors to exit codes:
0 success, 1 output error, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .files import replacing, write_csv
from .fock import fidelity, mean_photon_number, purity
from .homodyne import WINDOW_MAX, Conditioning, condition
from .rsp import (
    TABLE1,
    Table1Row,
    TargetSpec,
    bloch_embed,
    fidelity_vs_delta,
    fidelity_vs_eta,
    fidelity_vs_q,
    heralded_rate,
    target_state,
)
from .states import ResourceParams, hybrid_entangled, within_truncation
from .tomography import (
    TomoConfig,
    mle_reconstruct,
    sample_homodyne,
    write_records,
)
from .wigner import (
    GRID_MAX,
    GRID_MIN,
    GRID_STEP,
    default_grid_axes,
    grid_metadata,
    wigner_grid,
    wigner_origin,
    write_grid_csv,
)

EXIT_OK = 0
EXIT_OUTPUT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Invalid or inconsistent configuration document."""


def write_json(obj, path) -> None:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # JSON has no inf or nan, and json.loads reads neither
        raise ValueError(f"cannot write the non-finite number as JSON: {exc}") from exc
    with replacing(path) as fh:
        fh.write((text + "\n").encode())


def write_scan_csv(params, targets, fids, path) -> None:
    """Three equal-length columns: grid values, target kinds and fidelities."""
    # target kinds come from rsp.TARGET_KINDS, and none holds a comma or a quote,
    # so these are the bytes csv.writer wrote, which quotes only such fields
    write_csv(path, ([[b"param", b"target", b"fidelity"]],),
              (np.array(params, dtype=float)[:, None], np.array(targets, dtype=bytes)[:, None],
               np.array(fids, dtype=float)[:, None]))


def _rho_pairs(mat: np.ndarray) -> list:
    return np.ascontiguousarray(mat, dtype=complex).view(float).reshape(-1, 2).tolist()


def _coefficients(spec: TargetSpec) -> dict:
    """A custom target's c_plus and c_minus as [re, im] pairs, the config's form."""
    pairs = {"c_plus": spec.c_plus, "c_minus": spec.c_minus}
    return {key: [c.real, c.imag] for key, c in pairs.items()} if spec.kind == "custom" else {}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _parse_grid(node, name: str) -> np.ndarray:
    """A non-empty ascending grid: a flat list of finite numbers, or start/stop/num."""
    if isinstance(node, list):
        grid = np.array([_float({name: v}, name) for v in node])
    elif isinstance(node, dict):
        _object(node, name, ("start", "stop", "num"))
        try:
            num = _int(node, "num")
            if num > np.iinfo(np.intp).max // 8:  # more bytes than an array can address
                raise ConfigError(f"num {num} is more values than a float64 array can hold")
            grid = np.linspace(_float(node, "start"), _float(node, "stop"), num)
        except (ValueError, ArithmeticError, MemoryError) as exc:
            # a bad key or num, a step past the float range, or an array numpy cannot allocate
            raise ConfigError(f"{name}: {exc}") from exc
    else:
        raise ConfigError(f"{name}: need start/stop/num or a list")
    if grid.size == 0:
        raise ConfigError(f"{name}: grid is empty")
    if not np.isfinite(grid).all():
        raise ConfigError(f"{name}: grid values must be finite")
    if np.any(grid[1:] < grid[:-1]):  # no difference, which can overflow
        raise ConfigError(f"{name}: grid must be sorted ascending")
    return grid


def _object(node, name: str, keys) -> dict:
    """node, a JSON object whose keys are all among keys; name says where it sits."""
    if not isinstance(node, dict):
        raise ConfigError(f"{name}: need an object")
    for key in node:
        if key not in keys:
            raise ConfigError(f"{name} reads only {', '.join(keys)}, not {key!r}")
    return node


def _int(node: dict, key: str, default: int | None = None) -> int:
    """A JSON integer within 64 bits; bools and numbers with a fraction are refused."""
    value = node.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: need an integer")
    if not -2**63 <= value < 2**63:
        raise ConfigError(f"{key}: need an integer within 64 bits")
    return value


def _float(node: dict, key: str, default: float | None = None) -> float:
    """A finite JSON number; bools, text, NaN, Infinity and out-of-range integers are refused."""
    value = node.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: need a number")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{key}: need a finite number")
    return float(value)


def _complex(node: dict, key: str) -> complex:
    """A [re, im] pair of finite numbers."""
    pair = node[key]
    if not isinstance(pair, list) or len(pair) != 2:
        raise ConfigError(f"{key}: need a [re, im] pair")
    return complex(*(_float({key: v}, key) for v in pair))


# the reader of each field type of the dataclasses a config builds; those check
# their str and bool fields themselves
_READERS = {"int": _int, "float": _float, "complex": _complex, "str": dict.get, "bool": dict.get}


def _build(cls, node, name: str, **defaults):
    """A cls from the JSON object node, whose keys are the names of cls's fields:
    each value is read by its field's type, and an absent field takes the given
    default, or else its own."""
    types = {field.name: field.type for field in dataclasses.fields(cls)}
    _object(node, name, types)
    return cls(**{**defaults, **{key: _READERS[types[key]](node, key) for key in node}})


def _check_alpha(name: str, alpha: float, dim: int) -> None:
    if not (alpha > 0 and within_truncation(alpha, dim)):
        raise ConfigError(f"{name} must be positive and below sqrt(dim)/2 = {dim**0.5 / 2:g}")


def _parse_resource(cfg: dict, dim: int) -> ResourceParams:
    params = _build(ResourceParams, cfg.get("resource", {}), "resource")
    if params.model == "ideal":  # its cats are built at this alpha
        _check_alpha("ideal resource alpha", params.alpha, dim)
    return params


def _parse_target(node, default_alpha: float, dim: int) -> TargetSpec:
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigError("target: need an object with a 'kind' key")
    spec = _build(TargetSpec, node, "target", alpha=default_alpha)
    _check_alpha(f"{spec.kind} target alpha", spec.alpha, dim)
    return spec


def _parse_targets(cfg: dict, default_alpha: float, dim: int) -> list[TargetSpec]:
    """The listed targets, or by default the Table 1 kinds; alpha defaults to default_alpha."""
    nodes = cfg.get("targets", [{"kind": row.target.kind} for row in TABLE1])
    if not isinstance(nodes, list) or not nodes:
        raise ConfigError("targets: need a non-empty list of targets")
    return [_parse_target(node, default_alpha, dim) for node in nodes]


def _parse_point(node, name: str, default_alpha: float, dim: int) -> tuple[float, TargetSpec]:
    """The outcome and the target of an eta_scan entry or of delta_scan."""
    _object(node, name, ("q_center_snu", "target"))
    q_center = _float(node, "q_center_snu", 0.0)
    return q_center, _parse_target(node.get("target", {}), default_alpha, dim)


def _parse_dim(cfg: dict) -> int:
    dim = _int(cfg, "dim", 30)
    if dim < 4:
        raise ConfigError("dim must be an integer >= 4")
    return dim


def cmd_scan(cfg: dict):
    """Parse a scan config; the returned step computes and writes into out_dir."""
    _object(cfg, "the top level", ("dim", "resource", "theta_rad", "q_grid_snu", "targets",
                                   "eta_grid", "eta_scan", "delta_grid_snu", "delta_scan"))
    dim = _parse_dim(cfg)
    params = _parse_resource(cfg, dim)
    theta = _float(cfg, "theta_rad", 0.0)
    q_grid = _parse_grid(cfg.get("q_grid_snu", {"start": -3.0, "stop": 3.0, "num": 121}), "q_grid_snu")
    targets = _parse_targets(cfg, params.alpha, dim)
    eta_grid = _parse_grid(cfg.get("eta_grid", {"start": 0.5, "stop": 1.0, "num": 26}), "eta_grid")
    if eta_grid[0] < 0 or eta_grid[-1] > 1:
        raise ConfigError("eta_grid: efficiencies must lie in [0, 1]")
    eta_scan = cfg.get("eta_scan", [{"q_center_snu": 0.0, "target": {"kind": "cat_minus"}},
                                    {"q_center_snu": 1.14, "target": {"kind": "coherent_plus"}}])
    if not isinstance(eta_scan, list) or not eta_scan:
        raise ConfigError("eta_scan: need a non-empty list of objects")
    eta_points = [_parse_point(node, "eta_scan entry", params.alpha, dim) for node in eta_scan]
    delta_grid = _parse_grid(
        cfg.get("delta_grid_snu", {"start": 0.0, "stop": 0.5, "num": 26}), "delta_grid_snu"
    )
    if not (delta_grid[0] >= 0 and delta_grid[-1] <= WINDOW_MAX):
        raise ConfigError(f"delta_grid_snu: widths must lie in [0, {WINDOW_MAX:g}]")
    delta_q, delta_target = _parse_point(cfg.get("delta_scan", {"target": {"kind": "cat_minus"}}),
                                         "delta_scan", params.alpha, dim)

    def run(out_dir: Path) -> None:
        resource = hybrid_entangled(params, dim_b=dim)

        fids_c = fidelity_vs_q(resource, theta, q_grid, targets)
        kinds = [spec.kind for spec in targets]
        write_scan_csv(np.repeat(q_grid, len(kinds)), np.tile(kinds, len(q_grid)), fids_c.ravel(),
                       out_dir / "fig1c.csv")
        print(f"wrote fig1c.csv ({fids_c.size} rows)")

        fids_d = np.concatenate([fidelity_vs_eta(resource, q_center, theta, eta_grid, target)
                                 for q_center, target in eta_points])
        write_scan_csv(np.tile(eta_grid, len(eta_points)),
                       np.repeat([target.kind for _, target in eta_points], eta_grid.size),
                       fids_d, out_dir / "fig1d.csv")
        print(f"wrote fig1d.csv ({fids_d.size} rows)")

        fids_e = fidelity_vs_delta(resource, delta_q, theta, delta_grid, delta_target)
        write_scan_csv(delta_grid, np.repeat(delta_target.kind, delta_grid.size), fids_e,
                       out_dir / "fig1e.csv")
        print(f"wrote fig1e.csv ({fids_e.size} rows)")

    return run


def _parse_row(cfg: dict) -> Table1Row | None:
    if cfg.get("table1_row") is None:
        return None
    index = _int(cfg, "table1_row")
    if not 1 <= index <= len(TABLE1):
        raise ConfigError(f"table1_row must be an integer 1..{len(TABLE1)}")
    return TABLE1[index - 1]


def _parse_conditioning(cfg: dict, row: Table1Row | None) -> Conditioning:
    node = cfg.get("conditioning", {})
    if row is not None:  # a published row fixes everything but the width and the loss
        node = {**_object(node, "conditioning under a table1_row", ("delta_snu", "eta_a")),
                "theta_rad": row.theta_rad, "q_center_snu": row.q_center, "tail": row.tail}
    return _build(Conditioning, node, "conditioning")


def cmd_prepare(cfg: dict):
    """Parse a prepare config; the returned step computes and writes into out_dir."""
    _object(cfg, "the top level", ("dim", "resource", "table1_row", "conditioning", "bloch_alpha",
                                   "wigner", "targets"))
    dim = _parse_dim(cfg)
    params = _parse_resource(cfg, dim)
    row = _parse_row(cfg)
    cond = _parse_conditioning(cfg, row)
    bloch_alpha = _float(cfg, "bloch_alpha", params.alpha)
    _check_alpha("bloch_alpha", bloch_alpha, dim)
    wnode = _object(cfg.get("wigner", {}), "wigner", ("min_snu", "max_snu", "step_snu"))
    xs, ps = default_grid_axes(
        _float(wnode, "min_snu", GRID_MIN), _float(wnode, "max_snu", GRID_MAX),
        _float(wnode, "step_snu", GRID_STEP),
    )
    targets = _parse_targets(cfg, params.alpha, dim)

    def run(out_dir: Path) -> None:
        resource = hybrid_entangled(params, dim_b=dim)
        prep = condition(resource, cond)
        rate = heralded_rate(prep.success_prob)

        fid_rows = []
        for spec in targets:
            entry = {
                "target": spec.kind,
                "alpha": spec.alpha,
                "fidelity_simulated": fidelity(prep.rho, target_state(spec, dim)),
                "fidelity_published": None,
                **_coefficients(spec),
            }
            if row is not None and row.target.kind == spec.kind:
                entry["fidelity_published"] = row.published_fidelity
            fid_rows.append(entry)

        state_doc = {
            "dim": dim,
            "rho": _rho_pairs(prep.rho.mat),
            "success_prob": prep.success_prob,
            "success_is_density": prep.success_is_density,
            "heralded_rate_hz": rate,
            "conditioning": dataclasses.asdict(cond),
            "purity": purity(prep.rho),
            "mean_photon_number": mean_photon_number(prep.rho),
            "fidelities": fid_rows,
        }
        write_json(state_doc, out_dir / "state.json")

        coords = bloch_embed(prep.rho, bloch_alpha)
        write_json({**dataclasses.asdict(coords), "alpha": bloch_alpha}, out_dir / "bloch.json")

        values = wigner_grid(prep.rho, xs, ps)
        write_grid_csv(xs, ps, values, out_dir / "wigner.csv")
        descriptor = f"conditioned q={cond.q_center_snu:g} theta={cond.theta_rad:g}"
        meta = grid_metadata(xs, ps, dim, descriptor)
        meta["w_origin"] = wigner_origin(prep.rho)
        meta["negativity_min"] = float(values.min())
        write_json(meta, out_dir / "wigner.json")

        print(f"success_prob = {prep.success_prob:.6g}"
              + (" (density)" if prep.success_is_density else ""))
        print(f"heralded_rate_hz = {rate:.6g}")
        for entry in fid_rows:
            line = f"F[{entry['target']}] = {entry['fidelity_simulated']:.4f} (simulated)"
            if entry["fidelity_published"] is not None:
                line += f" vs {entry['fidelity_published']:.2f} (published)"
            print(line)

    return run


def cmd_tomo(cfg: dict):
    """Parse a tomo config; the returned step samples, reconstructs and writes into out_dir."""
    _object(cfg, "the top level", ("dim", "resource", "truth", "n_samples", "eta", "seed", "tomo"))
    dim = _parse_dim(cfg)
    params = _parse_resource(cfg, dim)
    if "truth" not in cfg:
        raise ConfigError("tomo: need a 'truth' target")
    truth_spec = _parse_target(cfg["truth"], params.alpha, dim)
    n_samples = _int(cfg, "n_samples", 50_000)
    if n_samples < 1:
        raise ConfigError("n_samples must be a positive integer")
    eta = _float(cfg, "eta", 1.0)
    if not 0 < eta <= 1:
        raise ConfigError("eta must lie in (0, 1]")
    seed = _int(cfg, "seed", 0)
    if seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    tomo_cfg = _build(TomoConfig, cfg.get("tomo", {}), "tomo", eta_correction=eta)
    if tomo_cfg.dim_recon > dim:
        raise ConfigError(f"tomo: dim_recon must not exceed dim = {dim}")
    if tomo_cfg.n_phases < tomo_cfg.dim_recon:  # too few equally spaced phases to fix rho
        raise ConfigError(f"tomo: n_phases must be at least dim_recon = {tomo_cfg.dim_recon}")

    def run(out_dir: Path) -> None:
        truth = target_state(truth_spec, dim)
        records = sample_homodyne(truth, tomo_cfg.n_phases, n_samples, eta=eta, seed=seed)
        write_records(records, out_dir / "records.csv")

        result = mle_reconstruct(records, tomo_cfg)
        write_json(
            {
                "dim": tomo_cfg.dim_recon,
                "rho": _rho_pairs(result.state.mat),
                "iterations": result.iterations,
                "log_likelihood": result.log_likelihood,
                "converged": result.converged,
                "optimality_gap": result.optimality_gap,
            },
            out_dir / "recon.json",
        )

        fid = fidelity(result.state, truth)
        w_origin = wigner_origin(result.state)
        report = {
            "truth": {"kind": truth_spec.kind, "alpha": truth_spec.alpha,
                      **_coefficients(truth_spec)},
            "n_samples": n_samples,
            "eta": eta,
            "eta_correction": tomo_cfg.eta_correction,
            "seed": seed,
            "fidelity_recon_truth": fid,
            "w_origin_recon": w_origin,
            "iterations": result.iterations,
            "converged": result.converged,
        }
        write_json(report, out_dir / "report.json")
        print(f"F(recon, truth) = {fid:.4f}, W(0,0) = {w_origin:.4f}, "
              f"{result.iterations} iterations{'' if result.converged else ' (not converged)'}")

    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="catprep",
        description="Conditional preparation of cat-state qubits: scans, "
        "state preparation, and homodyne tomography.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("scan", "fidelity scans over q, efficiency, and window width"),
        ("prepare", "condition a single state; Bloch and Wigner outputs"),
        ("tomo", "synthetic homodyne records and MLE reconstruction"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config document")
        p.add_argument("--out", required=True, help="output directory")
        if name == "tomo":  # the only subcommand that draws random numbers
            p.add_argument("--seed", type=int, default=None, help="RNG seed override")
    args = parser.parse_args(argv)

    # a fault in the config, the --out directory or the parse step exits 2, before any
    # write; floating-point overflow, division by zero and invalid operations raise
    # instead of warning, so that each failure prints one line
    out_dir = Path(args.out)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            cfg = load_config(args.config)
            if getattr(args, "seed", None) is not None:  # tomo's --seed overrides the config
                cfg["seed"] = args.seed
            out_dir.mkdir(parents=True, exist_ok=True)
            run = {"scan": cmd_scan, "prepare": cmd_prepare, "tomo": cmd_tomo}[args.command](cfg)
        except (ConfigError, TypeError, ValueError, ArithmeticError, OSError, MemoryError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        try:
            run(out_dir)
        except (ValueError, ArithmeticError, np.linalg.LinAlgError, MemoryError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        except OSError as exc:  # an output file that cannot be written
            print(f"output error: {exc}", file=sys.stderr)
            return EXIT_OUTPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
