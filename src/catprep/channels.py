"""Photon loss as a binomial map on each diagonal m - n of a matrix.

Loss of transmission eta sends |n> to |n-k> with amplitude
c_k(n) = sqrt(C(n, k) eta^(n-k) (1-eta)^k), so it maps rho[i+k, j+k] onto
rho[i, j] with weight c_k(i+k) c_k(j+k): each diagonal of the matrix is
mapped on its own, in O(dim^3) for the whole map. The map is exact in the
truncated space because loss only lowers the photon number.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fock import MixedState, _as_density


@functools.lru_cache(maxsize=16)
def _sqrt_binomials(dim: int) -> np.ndarray:
    """s[k, n] = sqrt(C(n, k)), zero for n < k, computed once per dim and
    returned read-only because every caller shares it. Each exact integer
    binomial is rounded to a float once; one that exceeds the float range
    (n above about 1030) takes the lgamma form instead."""
    s = np.zeros((dim, dim))
    for n in range(dim):
        for k in range(n + 1):
            try:
                s[k, n] = math.sqrt(math.comb(n, k))
            except OverflowError:
                s[k, n] = math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(k + 1)
                                          - math.lgamma(n - k + 1)))
    s.flags.writeable = False
    return s


def _amplitudes(eta, dim: int) -> np.ndarray:
    """c[..., k, n] = c_k(n), zero for n < k; eta's shape leads."""
    eta = np.asarray(eta, dtype=float)[..., None, None]
    if not np.all((eta >= 0.0) & (eta <= 1.0)):  # NaN fails too
        raise ValueError("eta must lie in [0, 1]")
    n = np.arange(dim)
    k = n[:, None]
    # 1 - eta = one_minus + t exactly (Fast2Sum). t is 0 for eta >= 1/2 (Sterbenz) and at
    # both endpoints; below 1/2 it corrects each power of one_minus to first order in t
    one_minus = 1 - eta
    rel = np.divide((1 - one_minus) - eta, one_minus, out=np.zeros_like(one_minus),
                    where=one_minus > 0)
    # power(0, 0) = 1 covers the eta = 0 and eta = 1 endpoints
    return (_sqrt_binomials(dim) * np.power(eta, np.maximum(n - k, 0) / 2)
            * (one_minus ** (k / 2) * (1 + k / 2 * rel)))


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

