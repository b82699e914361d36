"""Test oracles: references that nothing in catprep calls. The full stack of
POVM elements and a records.csv reader for tomography, quadrature overlaps and
the closed-form point-projection state for homodyne conditioning, and loss on
mode A of a two-mode state."""

import numpy as np

from catprep.channels import loss
from catprep.fock import PureState, TwoModeState
from catprep.homodyne import quad_wavefunctions
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


def quad_overlaps(dim: int, q: float, theta: float) -> np.ndarray:
    """Vector of overlaps <q_theta|n> = e^{i n theta} psi_n(q)."""
    psi = quad_wavefunctions(dim, q)[:, 0]
    return np.exp(1j * theta * np.arange(dim)) * psi


def closed_form_state(
    q: float, theta_rad: float, cv_minus: PureState, cv_plus: PureState
) -> PureState:
    """Conditional state of the balanced resource in the point-projection
    limit: (|cv-> + q e^{i theta} |cv+>) / sqrt(1 + q^2) for orthonormal
    branch states (renormalized numerically in general)."""
    amps = cv_minus.amps + q * np.exp(1j * theta_rad) * cv_plus.amps
    return PureState.from_amplitudes(amps)


def loss_on_mode_a(state: TwoModeState, eta: float) -> TwoModeState:
    """Photon loss on mode A of a two-mode state, identity on mode B."""
    if eta == 1.0:
        return state
    da, db = state.dim_a, state.dim_b
    blocks = state.mat.reshape(da, db, da, db).transpose(1, 3, 0, 2)  # [b, d, a, c]
    out = loss(blocks, eta).transpose(2, 0, 3, 1).reshape(da * db, da * db)
    return TwoModeState(0.5 * (out + out.conj().T), da, db)
