"""Test oracles for tomography: the full stack of POVM elements and a
records.csv reader. Nothing in catprep calls them."""

import numpy as np

from catprep.tomography import TomoConfig, _povm_factors


def build_povm(cfg: TomoConfig) -> np.ndarray:
    """POVM elements Pi_{k,b}, shape (n_phases * (n_bins + 1), dim, dim),
    phase-major as bin_records counts them, from the factored form of
    _povm_factors."""
    bins, phases = _povm_factors(cfg)
    return (phases[:, None] * bins).reshape(-1, cfg.dim_recon, cfg.dim_recon)


def read_records(path) -> tuple[np.ndarray, np.ndarray]:
    """The (thetas, qs) pair from a file written by write_records."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0].copy(), data[:, 1].copy()
