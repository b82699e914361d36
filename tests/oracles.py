"""Test oracles: references that nothing in catprep calls. The full stack of
POVM elements and a records.csv reader for tomography, quadrature overlaps and
the closed-form point-projection state for homodyne conditioning, loss on
mode A of a two-mode state, the Laguerre series of the Wigner function with
a wigner.csv reader, and the kernel's value at one point."""

import numpy as np

from catprep.channels import loss
from catprep.fock import PureState, TwoModeState
from catprep.homodyne import quad_wavefunctions
from catprep.tomography import TomoConfig, _povm_factors
from catprep.wigner import WignerGrid, wigner_grid


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


def read_grid_csv(path) -> WignerGrid:
    """The grid of a file written by write_grid_csv: two axis rows, then the matrix."""
    with open(path) as fh:
        xs = np.array(fh.readline().split(",")[1:], dtype=float)
        ps = np.array(fh.readline().split(",")[1:], dtype=float)
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    return WignerGrid(xs, ps, values)


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


def wigner_series(rho: np.ndarray, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """W at the points (x, p): e^{-s/2}/(2 pi) Sum_mn rho_mn K_mn, s = x^2 + p^2.

    K_mn = (-1)^n sqrt(n!/m!) (x - ip)^{m-n} L_n^{m-n}(s) for m >= n,
    and K_nm = conj(K_mn). Each diagonal d = m - n is summed by the three-term
    Laguerre recurrence in n on l_n = (-1)^n sqrt(n! d!/(n+d)!) L_n^d(s), which gives
    l_0 = 1 and sqrt((n+1)(n+d+1)) l_{n+1} = (s - 2n - 1 - d) l_n - sqrt(n(n+d)) l_{n-1},
    then weighted by z^d/sqrt(d!), z = x - ip (as in Johansson, Nation, Nori,
    Comput. Phys. Commun. 184, 1234 (2013)). The recurrence runs once per distinct s,
    and each diagonal's sum is gathered back to the points before the z^d factor.
    """
    dim = rho.shape[0]
    s = x**2 + p**2
    su, inv = np.unique(s, return_inverse=True)
    z = x - 1j * p
    total = np.zeros_like(s)
    zd = np.ones_like(z)  # z^d / sqrt(d!)
    for d in range(dim):
        if d:
            zd = zd * z / np.sqrt(d)
        prev = np.zeros_like(su)
        cur = np.ones_like(su)
        diag = np.full(su.shape, rho[d, 0], dtype=complex)
        for n in range(dim - d - 1):
            prev *= -np.sqrt(n * (n + d))
            prev += (su - (2 * n + 1 + d)) * cur
            prev /= np.sqrt((n + 1) * (n + d + 1))
            prev, cur = cur, prev
            diag += rho[n + 1 + d, n + 1] * cur
        total += (1.0 if d == 0 else 2.0) * (zd * diag[inv]).real
    return (1 / (2 * np.pi)) * np.exp(-s / 2) * total


def wigner_series_grid(rho: np.ndarray, xs, ps) -> np.ndarray:
    """wigner_series on the outer product of the axes, values[i, j] = W(xs[j], ps[i])."""
    xg, pg = np.meshgrid(np.asarray(xs, dtype=float), np.asarray(ps, dtype=float))
    return wigner_series(rho, xg.ravel(), pg.ravel()).reshape(pg.shape)


def wigner_point(state, x: float, p: float) -> float:
    """W(x, p) for a single phase-space point: a one-point grid."""
    return float(wigner_grid(state, [x], [p]).values[0, 0])
