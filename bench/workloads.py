"""The benchmark's workloads: config documents and CLI invocations from a seed.

Stdlib only, so the orchestrating process stays light. A pass is one round
of invocations; every pass of a run repeats the same round, so each run
attempts whole rounds of the same operations whatever its length.
"""

from __future__ import annotations

import random

WORKLOADS = ("tomo_lossy", "prepare_table1", "scan_dense")

SUBCOMMAND = {"tomo_lossy": "tomo", "prepare_table1": "prepare", "scan_dense": "scan"}

# tomo_lossy: one pass reconstructs ten data sets. The RrhoR iteration count
# depends on the data (about 450 to the 2000 cap), so the pass time does
# too. Five data sets are the same for every seed, which keeps the pass
# time comparable across seeds; five are drawn from the seed, so a change
# must also hold on data it was not tuned on.
TOMO_FIXED_SEEDS = (0, 1, 2, 3, 4)
TOMO_SEEDED = 5
TOMO_DOC = {
    "dim": 30,
    "truth": {"kind": "cat_minus", "alpha": 0.7},
    "n_samples": 50_000,
    "eta": 0.85,
    "tomo": {"dim_recon": 12, "eta_correction": 0.85, "bin_width_snu": 0.1, "n_phases": 12},
}

# prepare_table1: the rows' window widths are drawn from the seed; row 1
# uses tail acceptance and ignores its width.
TABLE1_ROWS = 6
PREP_DIM = 30
WIGNER = {"min_snu": -6.0, "max_snu": 6.0, "step_snu": 0.05}

# scan_dense: grid sizes are fixed, their end points are jittered by the seed.
SCAN_DIM = 40
SCAN_TARGETS = ("cat_plus", "cat_minus", "coherent_plus", "coherent_minus",
                "phase_cat_plus", "phase_cat_minus")
Q_POINTS = 2401
ETA_POINTS = 801
DELTA_POINTS = 801


def configs(workload: str, seed: int) -> dict[str, dict]:
    """Config documents by file name."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tomo_lossy":
        return {"tomo.json": TOMO_DOC}
    if workload == "prepare_table1":
        return {
            f"row{row}.json": {
                "dim": PREP_DIM,
                "table1_row": row,
                "conditioning": {"delta_snu": round(rng.uniform(0.15, 0.25), 4), "eta_a": 1.0},
                "wigner": WIGNER,
            }
            for row in range(1, TABLE1_ROWS + 1)
        }
    if workload == "scan_dense":
        return {"scan.json": {
            "dim": SCAN_DIM,
            "theta_rad": 0.0,
            "targets": [{"kind": kind, "alpha": 0.7} for kind in SCAN_TARGETS],
            "q_grid_snu": {"start": round(-3 + rng.uniform(-0.05, 0.05), 4),
                           "stop": round(3 + rng.uniform(-0.05, 0.05), 4), "num": Q_POINTS},
            "eta_grid": {"start": round(0.5 + rng.uniform(-0.02, 0.02), 4),
                         "stop": 1.0, "num": ETA_POINTS},
            "eta_scan": [
                {"q_center_snu": round(rng.uniform(-0.05, 0.05), 4),
                 "target": {"kind": "cat_minus", "alpha": 0.7}},
                {"q_center_snu": round(1.14 + rng.uniform(-0.05, 0.05), 4),
                 "target": {"kind": "coherent_plus", "alpha": 0.7}},
            ],
            "delta_grid_snu": {"start": 0.0, "stop": round(0.5 + rng.uniform(-0.02, 0.02), 4),
                               "num": DELTA_POINTS},
            "delta_scan": {"q_center_snu": round(rng.uniform(-0.05, 0.05), 4),
                           "target": {"kind": "cat_minus", "alpha": 0.7}},
        }}
    raise ValueError(f"unknown workload {workload!r}")


def tomo_seeds(seed: int) -> list[int]:
    """Sampling seeds of one tomo_lossy pass: the fixed ones, then the seeded."""
    rng = random.Random(f"tomo_lossy-samples:{seed}")
    return [*TOMO_FIXED_SEEDS, *(rng.randrange(1000, 2**31) for _ in range(TOMO_SEEDED))]


def invocations(workload: str, seed: int) -> list[tuple[str, str, int | None]]:
    """One pass: (output label, config file name, --seed or None) per invocation."""
    if workload == "tomo_lossy":
        return [(f"tomo{k}", "tomo.json", s) for k, s in enumerate(tomo_seeds(seed))]
    if workload == "prepare_table1":
        return [(f"row{row}", f"row{row}.json", None) for row in range(1, TABLE1_ROWS + 1)]
    return [("scan", "scan.json", None)]


def grid_points(workload: str) -> int:
    """Wigner grid points one pass evaluates."""
    if workload != "prepare_table1":
        return 0
    n = int(round((WIGNER["max_snu"] - WIGNER["min_snu"]) / WIGNER["step_snu"])) + 1
    return TABLE1_ROWS * n * n


def scan_points(workload: str) -> int:
    """Conditioning points one pass scans: q, two eta scans, and delta."""
    return Q_POINTS + 2 * ETA_POINTS + DELTA_POINTS if workload == "scan_dense" else 0
