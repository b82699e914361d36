"""Test oracles: references that nothing in catprep calls.

- fock: the Fock state |n> (basis_state), the density matrix of a pure state
  (density) and the partial trace of a two-mode state (partial_trace);
- states: the best-fit cat size of a state (effective_alpha);
- homodyne: the quadrature overlaps <q_theta|n> and the closed-form state of
  point-projection conditioning;
- channels: loss on mode A of a two-mode state;
- rsp: the least-squares power law of a fidelity drop against the window
  width (fit_power_law);
- tomography: the full stack of POVM elements, the log likelihood of a record
  set under a state (log_likelihood) and a records.csv reader;
- wigner: the Laguerre series of the Wigner function, its value at one point,
  the trapezoid integral of a grid (grid_integral) and a wigner.csv reader.

The named ones moved here from catprep, which runs none of them: basis_state,
partial_trace, effective_alpha, fit_power_law and log_likelihood under the same
names, density from the PureState.density method, and grid_integral from the
WignerGrid.integral method.
"""

import numpy as np

from catprep.channels import loss
from catprep.fock import MixedState, PureState, TwoModeState, _as_density
from catprep.homodyne import quad_wavefunctions
from catprep.states import cat
from catprep.tomography import (
    TomoConfig,
    _frequencies_ll,
    _povm_factors,
    _probabilities,
    bin_records,
)
from catprep.wigner import wigner_grid


def basis_state(n: int, dim: int) -> PureState:
    """Fock state |n> in a dim-dimensional truncation."""
    if not 0 <= n < dim:
        raise ValueError(f"need 0 <= n < dim, got n={n}, dim={dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[n] = 1.0
    return PureState(amps)


def density(state: PureState) -> MixedState:
    """The density matrix |psi><psi| of a pure state."""
    return MixedState(np.outer(state.amps, state.amps.conj()))


def partial_trace(state: TwoModeState, keep: str) -> MixedState:
    """Trace out one mode; keep is 'a' or 'b'."""
    r4 = state.mat.reshape(state.dim_a, state.dim_b, state.dim_a, state.dim_b)
    if keep == "a":
        red = np.einsum("ibjb->ij", r4)
    elif keep == "b":
        red = np.einsum("aiaj->ij", r4)
    else:
        raise ValueError("keep must be 'a' or 'b'")
    red = 0.5 * (red + red.conj().T)
    return MixedState(red)


def effective_alpha(state: PureState, parity: str) -> tuple[float, float]:
    """Best-fit cat size: argmax over alpha of F(state, cat(alpha, parity)).

    Coarse grid on [0.05, 2] then golden-section refinement. Returns
    (alpha_eff, fidelity).
    """
    def neg_f(a):
        return -abs(np.vdot(cat(a, parity, state.dim).amps, state.amps)) ** 2

    grid = np.linspace(0.05, 2.0, 80)
    vals = [neg_f(a) for a in grid]
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    invphi = (np.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = neg_f(c), neg_f(d)
    while b - a > 1e-8:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = neg_f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = neg_f(d)
    best = 0.5 * (a + b)
    return float(best), float(-neg_f(best))


def fit_power_law(deltas, drops) -> tuple[float, float]:
    """Fit drop = c * delta^p by least squares on logs; returns (c, p).

    Nonpositive drops (possible at machine-level widths) are excluded.
    """
    deltas = np.asarray(deltas, dtype=float)
    drops = np.asarray(drops, dtype=float)
    mask = (deltas > 0) & (drops > 0)
    if mask.sum() < 2:
        raise ValueError("need at least two positive (delta, drop) pairs")
    slope, intercept = np.polyfit(np.log(deltas[mask]), np.log(drops[mask]), 1)
    return float(np.exp(intercept)), float(slope)


def log_likelihood(state, records, cfg: TomoConfig) -> float:
    """Frequency-weighted log likelihood of the binned records; -inf when a
    populated bin has zero probability under the state."""
    counts = bin_records(records, cfg)
    freqs = counts / counts.sum()
    rho = _as_density(state)
    if rho.shape[0] != cfg.dim_recon:
        raise ValueError("state dimension must match dim_recon")
    active = freqs > 0
    return _frequencies_ll(freqs[active], _probabilities(rho, *_povm_factors(cfg))[active])


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


def read_grid_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (xs, ps, values) of a file written by write_grid_csv: two axis rows,
    then the matrix."""
    with open(path) as fh:
        xs = np.array(fh.readline().split(",")[1:], dtype=float)
        ps = np.array(fh.readline().split(",")[1:], dtype=float)
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    return xs, ps, values


def grid_integral(xs, ps, values) -> float:
    """The trapezoid integral of W over a grid, values[i, j] = W(xs[j], ps[i])."""
    inner = np.trapezoid(values, xs, axis=1)
    return float(np.trapezoid(inner, ps))


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
    return float(wigner_grid(state, [x], [p])[0, 0])
