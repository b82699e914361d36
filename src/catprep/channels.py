"""Noise channels: photon loss (Kraus form) and Gaussian phase jitter."""

from __future__ import annotations

import math

import numpy as np

from .fock import MixedState, TwoModeState, _as_density


def loss_kraus(eta: float, dim: int) -> list[np.ndarray]:
    """Kraus operators of the photon-loss channel with transmission eta.

    K_k |n> = sqrt(C(n,k) eta^{n-k} (1-eta)^k) |n-k>. They satisfy
    sum_k K_k^dag K_k = 1 exactly in the truncated space because loss only
    lowers the photon number.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    log_fact = np.array([math.lgamma(k + 1) for k in range(dim)])  # log k!
    kraus = []
    for k in range(dim):
        ns = np.arange(k, dim)
        log_binom = log_fact[ns] - log_fact[ns - k] - log_fact[k]
        # power(0, 0) = 1 covers the eta = 0 and eta = 1 endpoints
        coeff = np.exp(0.5 * log_binom) * np.power(eta, (ns - k) / 2) * (1 - eta) ** (k / 2)
        mat = np.zeros((dim, dim))
        mat[np.arange(dim - k), np.arange(k, dim)] = coeff
        kraus.append(mat)
    return kraus


def apply_kraus(mat: np.ndarray, kraus: list[np.ndarray]) -> np.ndarray:
    """sum_k K_k mat K_k^dag."""
    out = np.zeros_like(mat, dtype=complex)
    for k in kraus:
        out += k @ mat @ k.conj().T
    return out


def apply_kraus_adjoint(mat: np.ndarray, kraus: list[np.ndarray]) -> np.ndarray:
    """Heisenberg-picture map sum_k K_k^dag mat K_k (used on measurement
    operators to fold detection inefficiency into a POVM)."""
    out = np.zeros_like(mat, dtype=complex)
    for k in kraus:
        out += k.conj().T @ mat @ k
    return out


def loss_channel(state, eta: float) -> MixedState:
    """Photon-loss channel applied to a single-mode state."""
    rho = _as_density(state)
    out = apply_kraus(rho, loss_kraus(eta, rho.shape[0]))
    out = 0.5 * (out + out.conj().T)
    return MixedState(out)


def loss_on_mode_a(state: TwoModeState, eta: float) -> TwoModeState:
    """Photon loss on mode A of a two-mode state, identity on mode B."""
    if eta == 1.0:
        return state
    eye_b = np.eye(state.dim_b)
    kraus = [np.kron(k, eye_b) for k in loss_kraus(eta, state.dim_a)]
    out = apply_kraus(state.mat, kraus)
    out = 0.5 * (out + out.conj().T)
    return TwoModeState(out, state.dim_a, state.dim_b)


def phase_jitter(state, sigma_rad: float) -> MixedState:
    """Average over Gaussian phase-space rotations of rms size sigma_rad.

    Coherences decay as rho_mn -> rho_mn exp(-sigma^2 (m-n)^2 / 2);
    populations are untouched.
    """
    if sigma_rad < 0:
        raise ValueError("sigma_rad must be nonnegative")
    rho = _as_density(state)
    n = np.arange(rho.shape[0])
    dn = n[:, None] - n[None, :]
    out = rho * np.exp(-0.5 * sigma_rad**2 * dn.astype(float) ** 2)
    return MixedState(out)
