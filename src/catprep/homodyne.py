"""Homodyne measurement on one arm of an entangled state and the
conditional state it prepares on the other arm.

Quadrature eigenstates follow the shot-noise-unit convention
Var_vac(X) = 1, so

    psi_0(q) = (2 pi)^{-1/4} exp(-q^2 / 4)
    psi_{n+1}(q) = q psi_n(q) / sqrt(n+1) - sqrt(n/(n+1)) psi_{n-1}(q)
    <q_theta|n> = e^{i n theta} psi_n(q)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channels import loss_adjoint
from .fock import MixedState, TwoModeState, _as_density

Q_SUPPORT = 10.0  # marginals of states in this package are negligible beyond |q| = 10
WINDOW_NODES = 21  # Gauss-Legendre nodes across an acceptance window
WINDOW_MAX = 7.0  # widest window, snu, that WINDOW_NODES integrate to rounding
TAIL_NODES = 160  # Gauss-Legendre nodes on each side of a two-sided tail
MIN_SUCCESS = np.finfo(float).tiny  # smaller acceptance probabilities overflow when divided by
PDF_BLOCK = 2**17  # elements (1 MiB) of one product in marginal_pdf, which bounds its memory


def quad_wavefunctions(dim: int, q) -> np.ndarray:
    """Matrix psi[n, j] = psi_n(q_j) of quadrature wavefunctions at theta = 0.

    Stable three-term recursion in n; q may be a scalar or an array.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    psi = np.zeros((dim, q.size))
    psi[0] = (2 * np.pi) ** (-0.25) * np.exp(-(q**2) / 4)
    if dim > 1:
        psi[1] = q * psi[0]
    for n in range(1, dim - 1):
        psi[n + 1] = (q * psi[n] - np.sqrt(n) * psi[n - 1]) / np.sqrt(n + 1)
    return psi


def _psd_factor(m: np.ndarray) -> np.ndarray:
    """Rows c_j with m = sum_j c_j c_j^T to rounding, for a stack (k, dim, dim)
    of real positive semidefinite matrices: left-looking Cholesky with
    diagonal pivoting, stopped once every residual diagonal is at most
    dim * eps * the largest diagonal of m (N. J. Higham, "Analysis of the
    Cholesky decomposition of a semi-definite matrix", 1990). Returns shape
    (k, r, dim), r the most steps any matrix took, so r is at most the largest
    numerical rank; a matrix that stopped earlier gets zero rows. The backward
    error is elementwise, so sum_j (c_j . x)^2 stays close to x^T m x."""
    k, dim, _ = m.shape
    diag = np.diagonal(m, axis1=1, axis2=2).copy()  # of the residual m - sum_j c_j c_j^T
    tol = dim * np.finfo(float).eps * diag.max(axis=1)
    at = np.arange(k)
    c = np.zeros((k, dim, dim))
    for r in range(dim):
        pivot = diag.argmax(axis=1)
        d = diag[at, pivot]
        live = d > tol
        if not live.any():
            return c[:, :r]
        col = m[at, pivot] - np.einsum("kj,kjn->kn", c[at, :r, pivot], c[:, :r])
        c[:, r] = col / np.sqrt(np.where(live, d, np.inf))[:, None]
        diag -= c[:, r] ** 2
    return c


def marginal_pdf(state, theta, q) -> np.ndarray:
    """Homodyne probability density P_theta(q) = <q_theta| rho |q_theta>.

    theta may be one phase, giving shape (n_q,), or a 1-D array of phases,
    giving one row per phase (an empty one gives shape (0, n_q)); the
    wavefunctions on q are evaluated once. psi is real and rho Hermitian, so
    P_theta(q) = psi(q)^T M_theta psi(q) with M_theta = Re(rho_theta) real,
    symmetric and PSD. _psd_factor writes every M_theta as C_theta C_theta^T
    with r columns, r the largest numerical rank of the M_theta (at most twice
    the rank of rho), and P_theta(q) = |C_theta^T psi(q)|^2. So the cost
    follows the rank of Re(rho_theta): each block of PDF_BLOCK elements' worth
    of q takes one (n_phases * r, dim) product.
    """
    rho = _as_density(state)
    dim = rho.shape[0]
    psi = quad_wavefunctions(dim, q)
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    pdf = np.empty((thetas.size, psi.shape[1]))
    if thetas.size == 0:
        return pdf
    phase = np.exp(1j * thetas[:, None] * np.arange(dim))
    factor = _psd_factor((phase[:, :, None] * rho * phase.conj()[:, None, :]).real)
    rank = factor.shape[1]
    rows = factor.reshape(-1, dim)
    width = max(1, PDF_BLOCK // len(rows))
    for start in range(0, psi.shape[1], width):
        prod = (rows @ psi[:, start:start + width]).reshape(thetas.size, rank, -1)
        pdf[:, start:start + width] = np.einsum("kjq,kjq->kq", prod, prod)
    return pdf[0] if np.ndim(theta) == 0 else pdf


@dataclass
class Conditioning:
    """Acceptance region of the heralding homodyne measurement.

    theta_rad : local-oscillator phase
    q_center  : window center, or the tail's threshold, shot-noise units
    delta     : window width, at most WINDOW_MAX; 0 selects the point-projection limit
    eta_a     : transmission of the conditioning path before the homodyne
    tail      : accept |q| >= q_center out to Q_SUPPORT instead; delta is unused
    """

    theta_rad: float = 0.0
    q_center: float = 0.0
    delta: float = 0.2
    eta_a: float = 1.0
    tail: bool = False

    def __post_init__(self):
        if not 0 <= self.delta <= WINDOW_MAX:  # NaN fails too
            raise ValueError(f"delta must lie in [0, {WINDOW_MAX:g}] snu")
        if not 0.0 <= self.eta_a <= 1.0:
            raise ValueError("eta_a must lie in [0, 1]")
        if not isinstance(self.tail, bool):
            raise ValueError("tail must be true or false")
        if self.tail and not 0.0 <= self.q_center < Q_SUPPORT:
            raise ValueError(f"a tail needs 0 <= q_center < {Q_SUPPORT:g}")


@dataclass
class PreparedState:
    """Result of the conditional preparation.

    success_prob is the probability of the accepted quadrature range; in the
    point-projection limit (delta = 0) it is a probability density times a
    unit reference width, flagged by success_is_density.
    """

    rho: MixedState
    success_prob: float
    success_is_density: bool


@functools.lru_cache(maxsize=16)
def _legendre_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per node
    count and returned read-only because every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(lo, hi, n_nodes: int):
    """Nodes and weights of an n_nodes-point Gauss-Legendre rule on each
    interval [lo, hi]. lo and hi broadcast; the results gain a trailing node
    axis, so (n_intervals,) bounds give (n_intervals, n_nodes) arrays."""
    x, w = _legendre_rule(n_nodes)
    lo = np.asarray(lo, dtype=float)[..., None]
    half = (np.asarray(hi, dtype=float)[..., None] - lo) / 2
    return lo + half * (x + 1), half * w


def acceptance_operator(dim: int, nodes, weights, theta: float, eta=1.0) -> np.ndarray:
    """Measurement operator of a lossy homodyne detector accepting a range of
    quadrature values, E = Phi_eta^dag(sum_j w_j |q_j,theta><q_j,theta|).

    Phi_eta is photon loss of transmission eta in front of an ideal detector;
    channels.loss_adjoint moves the loss into the operator. nodes and weights
    have shape (..., n_nodes); the leading axes give a stack of operators of
    shape (..., dim, dim), and eta may be an array that broadcasts over them.
    """
    nodes = np.asarray(nodes, dtype=float)
    psi = quad_wavefunctions(dim, nodes.ravel()).T.reshape(*nodes.shape, dim)
    ov = np.exp(1j * theta * np.arange(dim)) * psi  # <q_j,theta|n>
    op = np.swapaxes(ov.conj() * np.asarray(weights)[..., None], -1, -2) @ ov
    return loss_adjoint(op, eta)


def conditioning_operator(dim: int, theta: float, q_center, delta=0.0, eta=1.0,
                          tail: bool = False) -> np.ndarray:
    """Acceptance operator of a heralding setting with its loss eta: the tail |q| >=
    q_center (TAIL_NODES Gauss-Legendre nodes a side), a point projection at delta = 0,
    or a WINDOW_NODES-point window, exact to rounding up to width WINDOW_MAX. Without a
    tail, q_center, delta and eta broadcast to a grid of operators (*grid, dim, dim)."""
    if tail:
        if not 0.0 <= q_center < Q_SUPPORT:  # NaN fails too
            raise ValueError(f"a tail needs 0 <= q_center < {Q_SUPPORT:g}")
        nodes, weights = gauss_legendre([q_center, -Q_SUPPORT], [Q_SUPPORT, -q_center],
                                        TAIL_NODES)
        return acceptance_operator(dim, nodes.ravel(), weights.ravel(), theta, eta)
    q, delta, etas = np.broadcast_arrays(q_center, delta, eta)
    if not np.all((delta >= 0) & (delta <= WINDOW_MAX)):  # NaN fails too
        raise ValueError(f"window widths must lie in [0, {WINDOW_MAX:g}] snu")
    ops = acceptance_operator(dim, q[..., None], np.ones(1), theta, eta)  # one node a point
    w = delta > 0
    if w.any():  # windows, centered so that no width is lost to rounding at q_center
        nodes, weights = gauss_legendre(-delta[w] / 2, delta[w] / 2, WINDOW_NODES)
        ops[w] = acceptance_operator(dim, nodes + q[w, None], weights, theta, etas[w])
    return ops


def condition(resource: TwoModeState, c: Conditioning) -> PreparedState:
    """Mode B given that the homodyne on mode A accepted its outcome: rho_B
    proportional to Tr_A[(E x 1) rho_AB], E the conditioning operator with its loss."""
    op = conditioning_operator(resource.dim_a, c.theta_rad, c.q_center, c.delta, c.eta_a, c.tail)
    r4 = resource.mat.reshape(resource.dim_a, resource.dim_b, resource.dim_a, resource.dim_b)
    raw = np.einsum("ca,abcd->bd", op, r4)
    success = float(np.real(np.trace(raw)))
    if not success >= MIN_SUCCESS:  # NaN fails too
        raise ValueError("acceptance region has zero probability")
    rho = raw / success
    return PreparedState(MixedState(0.5 * (rho + rho.conj().T)), success,
                         c.delta == 0.0 and not c.tail)

