"""Closed-form reference model the benchmark checks catprep's outputs against.

Nothing here imports catprep. The resource is the two-branch state
sqrt(1-w)|0>|cv-> + sqrt(w)|1>|cv+> with the qubit mode A truncated at one
photon, so a homodyne outcome region on A leaves mode B in

    rho_B = V M V^dag / tr M,    V = [cv-, cv+] (dim x 2),

where M is a 2x2 matrix of Gaussian integrals of psi_0^2, psi_0 psi_1 and
psi_1^2 over the accepted region (closed form via erf), and loss eta on the
qubit mode moves weight (1-eta) w I00 onto |cv+><cv+|. cv- and cv+ have
opposite photon-number parity, so tr(V M V^dag) = tr M is the success
probability.

Conventions follow catprep: X = a + a^dag (vacuum variance 1),
<q_theta|n> = e^{i n theta} psi_n(q), F = <t|rho|t>, W normalized to 1.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

Q_SUPPORT = 10.0  # catprep integrates tail acceptance out to |q| = 10


def _log_factorial(n: np.ndarray) -> np.ndarray:
    return np.array([math.lgamma(k + 1.0) for k in np.atleast_1d(n)])


def _normalized(amps: np.ndarray) -> np.ndarray:
    # catprep renormalizes every state after truncating it at dim
    return amps / np.linalg.norm(amps)


def coherent_amps(alpha: complex, dim: int) -> np.ndarray:
    """e^{-|alpha|^2/2} alpha^n / sqrt(n!)."""
    n = np.arange(dim)
    mag = np.exp(-abs(alpha) ** 2 / 2 - 0.5 * _log_factorial(n))
    return _normalized(mag * np.asarray(alpha, dtype=complex) ** n)


def cat_amps(alpha: float, parity: int, dim: int) -> np.ndarray:
    """|alpha> + parity |-alpha>: only n with (-1)^n = parity survive."""
    n = np.arange(dim)
    keep = (1 + parity * (-1.0) ** n) / 2
    return _normalized(coherent_amps(alpha, dim) * keep)


def target_amps(kind: str, alpha: float, dim: int) -> np.ndarray:
    """Pure target states of catprep's named kinds."""
    if kind == "cat_plus":
        return cat_amps(alpha, +1, dim)
    if kind == "cat_minus":
        return cat_amps(alpha, -1, dim)
    if kind == "coherent_plus":
        return coherent_amps(alpha, dim)
    if kind == "coherent_minus":
        return coherent_amps(-alpha, dim)
    if kind in ("phase_cat_plus", "phase_cat_minus"):
        sign = 1j if kind == "phase_cat_plus" else -1j
        return _normalized(coherent_amps(alpha, dim) + sign * coherent_amps(-alpha, dim))
    raise ValueError(f"no closed form for target kind {kind!r}")


def squeezing_r(db: float) -> float:
    return math.log(10 ** (db / 20))


def squeezed_vacuum_amps(db: float, dim: int) -> np.ndarray:
    """c_2m = sqrt(sech r) tanh(r)^m sqrt((2m)!) / (2^m m!)."""
    r = squeezing_r(db)
    m = np.arange((dim + 1) // 2)
    log_c = (0.5 * np.log(1 / math.cosh(r)) + m * math.log(math.tanh(r))
             + 0.5 * _log_factorial(2 * m) - m * math.log(2) - _log_factorial(m))
    amps = np.zeros(dim, dtype=complex)
    amps[2 * m] = np.exp(log_c)
    return _normalized(amps)


def photon_subtracted_amps(db: float, dim: int) -> np.ndarray:
    """a S|0> / sinh r: c_2m+1 = sech(r)^{3/2} tanh(r)^m sqrt((2m+1)!) / (2^m m!)."""
    r = squeezing_r(db)
    m = np.arange(dim // 2)
    log_c = (1.5 * np.log(1 / math.cosh(r)) + m * math.log(math.tanh(r))
             + 0.5 * _log_factorial(2 * m + 1) - m * math.log(2) - _log_factorial(m))
    amps = np.zeros(dim, dtype=complex)
    amps[2 * m + 1] = np.exp(log_c)
    return _normalized(amps)


def _pdf(x):
    return np.exp(-np.square(x) / 2) / math.sqrt(2 * math.pi)


def _cdf(x):
    return 0.5 * (1 + erf(np.asarray(x, dtype=float) / math.sqrt(2)))


def point_moments(q):
    """(psi_0^2, psi_0 psi_1, psi_1^2) at q; psi_0^2 is the standard normal pdf."""
    q = np.asarray(q, dtype=float)
    p = _pdf(q)
    return p, q * p, q * q * p


def window_moments(lo, hi):
    """Integrals of psi_0^2, psi_0 psi_1 and psi_1^2 over [lo, hi]."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    i00 = _cdf(hi) - _cdf(lo)
    i01 = _pdf(lo) - _pdf(hi)
    i11 = i00 + lo * _pdf(lo) - hi * _pdf(hi)
    return i00, i01, i11


def tail_moments(q_min, q_max=Q_SUPPORT):
    """Integrals over q_min <= |q| <= q_max; psi_0 psi_1 is odd, so it cancels."""
    i00, _, i11 = window_moments(q_min, q_max)
    return 2 * i00, np.zeros_like(i00), 2 * i11


class TwoBranchModel:
    """The experimental resource (squeezed vacuum and its photon-subtracted
    partner) at Fock cutoff dim, with the conditional states it prepares."""

    def __init__(self, dim: int, squeezing_db: float = 3.0, weight_dv: float = 0.5):
        self.weight_dv = weight_dv
        self.basis = np.stack(
            [photon_subtracted_amps(squeezing_db, dim), squeezed_vacuum_amps(squeezing_db, dim)],
            axis=1,
        )

    def matrix(self, moments, theta, eta=1.0) -> np.ndarray:
        """Unnormalized M on (cv-, cv+), shape (..., 2, 2), broadcast over inputs."""
        i00, i01, i11 = (np.asarray(m, dtype=float) for m in moments)
        theta, eta = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(eta, dtype=float))
        w = self.weight_dv
        m = np.zeros(np.broadcast(i00, theta).shape + (2, 2), dtype=complex)
        m[..., 0, 0] = (1 - w) * i00
        m[..., 1, 1] = eta * w * i11 + (1 - eta) * w * i00
        m[..., 0, 1] = np.sqrt(w * (1 - w) * eta) * np.exp(-1j * theta) * i01
        m[..., 1, 0] = np.conj(m[..., 0, 1])
        return m

    @staticmethod
    def success(m: np.ndarray) -> np.ndarray:
        return np.real(m[..., 0, 0] + m[..., 1, 1])

    def rho(self, m: np.ndarray) -> np.ndarray:
        """Normalized density matrix of mode B for one branch matrix."""
        return self.basis @ m @ self.basis.conj().T / self.success(m)

    def fidelity(self, m: np.ndarray, target: np.ndarray) -> np.ndarray:
        """<t|rho|t> for every branch matrix in a stack, without forming rho."""
        g = self.basis.conj().T @ target  # <cv_x|t>
        quad = np.einsum("x,...xy,y->...", g.conj(), m, g)
        return np.real(quad) / self.success(m)


def parity_origin(rho: np.ndarray) -> float:
    """W(0, 0) = Tr[rho (-1)^n] / (2 pi)."""
    signs = (-1.0) ** np.arange(rho.shape[0])
    return float(np.real(np.sum(signs * np.diag(rho))) / (2 * math.pi))


def cat_quadrature_second_moment(alpha: float, parity: int, theta) -> np.ndarray:
    """<q_theta^2> of the cat |alpha> + parity|-alpha> for real alpha.

    a^2 leaves either cat unchanged up to alpha^2, and <n> is alpha^2
    tanh(alpha^2) (even) or alpha^2 coth(alpha^2) (odd), so
    <q_theta^2> = 2 alpha^2 cos(2 theta) + 2 <n> + 1.
    """
    a2 = alpha * alpha
    n_mean = a2 * (math.tanh(a2) if parity > 0 else 1 / math.tanh(a2))
    return 2 * a2 * np.cos(2 * np.asarray(theta, dtype=float)) + 2 * n_mean + 1


def lossy_second_moment(moment, eta: float):
    """Photon loss eta maps <q^2> - 1 (the excess over vacuum) to eta times itself."""
    return eta * (np.asarray(moment) - 1) + 1
