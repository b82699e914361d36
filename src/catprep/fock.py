"""Truncated Fock-space states and linear-algebra primitives.

Conventions used across the package:

    quadratures   X = a + a^dag,  P = -i (a - a^dag),  [X, P] = 2i
    vacuum        Var(X) = Var(P) = 1  (one shot-noise unit)
    fidelity      F(rho, |t>) = <t| rho |t>   (no square root)

States are dense numpy arrays in the number basis, truncated at ``dim``.
Constructors validate their invariants and raise ValueError on violation:
normalization, Hermiticity and, for MixedState, positivity. TwoModeState
checks Hermiticity and unit trace but not positivity; the scans in rsp check
a resource's positivity before they herald from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12
HERM_TOL = 1e-10
EIG_TOL = 1e-10


@dataclass
class PureState:
    """Normalized state vector in the number basis.

    Parameters
    ----------
    amps : ndarray
        Complex amplitudes, shape (dim,). Must have unit norm within 1e-12.
    """

    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.ndim != 1:
            raise ValueError("PureState amplitudes must be a 1-D array")
        nrm = np.linalg.norm(self.amps)
        if not abs(nrm - 1.0) <= NORM_TOL:  # written so that NaN fails
            raise ValueError(f"PureState not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    @classmethod
    def from_amplitudes(cls, amps) -> "PureState":
        """Build a PureState from an unnormalized amplitude vector."""
        amps = np.asarray(amps, dtype=complex)
        nrm = np.linalg.norm(amps)
        if nrm == 0:
            raise ValueError("cannot normalize a zero vector")
        return cls(amps / nrm)


@dataclass
class MixedState:
    """Density matrix in the number basis.

    Hermitian within 1e-10, positive semidefinite (eigenvalues >= -1e-10),
    unit trace within 1e-10.
    """

    mat: np.ndarray

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        if self.mat.ndim != 2 or self.mat.shape[0] != self.mat.shape[1]:
            raise ValueError("MixedState matrix must be square")
        if not np.max(np.abs(self.mat - self.mat.conj().T)) <= HERM_TOL:  # NaN fails
            raise ValueError("MixedState matrix is not Hermitian")
        tr = np.trace(self.mat).real
        if not abs(tr - 1.0) <= HERM_TOL:
            raise ValueError(f"MixedState trace is {tr}, expected 1")
        if np.linalg.eigvalsh(self.mat).min() < -EIG_TOL:
            raise ValueError("MixedState matrix is not positive semidefinite")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass
class TwoModeState:
    """Density matrix on two modes A and B, row-major index n_a * dim_b + n_b."""

    mat: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        d = self.dim_a * self.dim_b
        if self.mat.shape != (d, d):
            raise ValueError(f"TwoModeState matrix must be {d}x{d}")
        if not np.max(np.abs(self.mat - self.mat.conj().T)) <= HERM_TOL:  # NaN fails
            raise ValueError("TwoModeState matrix is not Hermitian")
        if not abs(np.trace(self.mat).real - 1.0) <= HERM_TOL:
            raise ValueError("TwoModeState trace must be 1")

    @classmethod
    def from_pure(cls, vec, dim_a: int, dim_b: int) -> "TwoModeState":
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (dim_a * dim_b,):
            raise ValueError("joint vector has wrong length")
        nrm = np.linalg.norm(vec)
        if not abs(nrm - 1.0) <= NORM_TOL:
            raise ValueError("joint vector not normalized")
        return cls(np.outer(vec, vec.conj()), dim_a, dim_b)


def annihilate(state: PureState) -> np.ndarray:
    """Apply the lowering operator a.

    Returns the raw (unnormalized) amplitude vector; its squared norm is the
    mean photon number of the input. The caller normalizes explicitly.
    """
    out = np.zeros(state.dim, dtype=complex)
    n = np.arange(1, state.dim)
    out[:-1] = np.sqrt(n) * state.amps[1:]
    return out


def _as_density(state) -> np.ndarray:
    if isinstance(state, PureState):
        return np.outer(state.amps, state.amps.conj())
    if isinstance(state, MixedState):
        return state.mat
    raise TypeError(f"expected PureState or MixedState, got {type(state).__name__}")


def fidelity(state, target: PureState) -> float:
    """F = <target| rho |target>, clipped to [0, 1]."""
    if isinstance(state, PureState):
        val = abs(np.vdot(target.amps, state.amps)) ** 2
    else:
        rho = _as_density(state)
        val = np.real(target.amps.conj() @ rho @ target.amps)
    return float(min(max(val, 0.0), 1.0))


def purity(state) -> float:
    """Tr[rho^2]."""
    rho = _as_density(state)
    return float(np.real(np.trace(rho @ rho)))


def mean_photon_number(state) -> float:
    rho = _as_density(state)
    return float(np.real(np.sum(np.arange(rho.shape[0]) * np.diag(rho))))
