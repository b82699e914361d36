"""Photon loss as a binomial map on each diagonal m - n of a matrix.

Loss of transmission eta sends |n> to |n-k> with amplitude
c_k(n) = sqrt(C(n, k) eta^(n-k) (1-eta)^k), so it maps rho[i+k, j+k] onto
rho[i, j] with weight c_k(i+k) c_k(j+k): each diagonal of the matrix is
mapped on its own, in O(dim^3) for the whole map. The map is exact in the
truncated space because loss only lowers the photon number.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import MixedState, _as_density


def _amplitudes(eta, dim: int) -> np.ndarray:
    """c[..., k, n] = c_k(n), zero for n < k; eta's shape leads."""
    eta = np.asarray(eta, dtype=float)[..., None, None]
    if not np.all((eta >= 0.0) & (eta <= 1.0)):  # NaN fails too
        raise ValueError("eta must lie in [0, 1]")
    log_fact = np.array([math.lgamma(m + 1) for m in range(dim)])  # log m!
    n = np.arange(dim)
    k = n[:, None]
    kept = np.maximum(n - k, 0)
    log_binom = log_fact[n] - log_fact[kept] - log_fact[k]
    # power(0, 0) = 1 covers the eta = 0 and eta = 1 endpoints
    return np.triu(np.exp(0.5 * log_binom) * np.power(eta, kept / 2) * (1 - eta) ** (k / 2))


def loss(mat: np.ndarray, eta) -> np.ndarray:
    """Photon loss Phi_eta(rho)[i, j] = sum_k c_k(i+k) c_k(j+k) rho[i+k, j+k].

    mat has shape (..., dim, dim); eta is a number or an array that
    broadcasts over the leading axes of mat.
    """
    dim = mat.shape[-1]
    c = _amplitudes(eta, dim)
    out = np.zeros(np.broadcast_shapes(c.shape[:-2], mat.shape[:-2]) + (dim, dim),
                   dtype=np.result_type(mat, c))
    for k in range(dim):
        ck = c[..., k, k:]
        out[..., : dim - k, : dim - k] += ck[..., :, None] * ck[..., None, :] * mat[..., k:, k:]
    return out


def loss_adjoint(mat: np.ndarray, eta) -> np.ndarray:
    """Heisenberg-picture loss Phi_eta^dag(E)[i, j] = sum_k c_k(i) c_k(j) E[i-k, j-k],
    which folds detection inefficiency into a measurement operator. Shapes as
    for loss; at eta = 1 the map is exactly the identity (c_0 = 1, c_k = 0)."""
    dim = mat.shape[-1]
    c = _amplitudes(eta, dim)
    out = np.zeros(np.broadcast_shapes(c.shape[:-2], mat.shape[:-2]) + (dim, dim),
                   dtype=np.result_type(mat, c))
    for k in range(dim):
        ck = c[..., k, k:]
        out[..., k:, k:] += ck[..., :, None] * ck[..., None, :] * mat[..., : dim - k, : dim - k]
    return out


def loss_channel(state, eta: float) -> MixedState:
    """Photon-loss channel applied to a single-mode state."""
    out = loss(_as_density(state), eta)
    return MixedState(0.5 * (out + out.conj().T))

