"""Synthetic homodyne acquisition and maximum-likelihood state reconstruction
with detection-efficiency correction.

Sampling draws records from the homodyne marginals of a state after a loss
channel; a record set is the pair (thetas, qs) of float arrays, one entry per
shot. Reconstruction bins the records, builds window-integrated quadrature
POVM elements pushed through the adjoint of the loss channel (so the
recovered state refers to the field before detection loss), and maximises
the likelihood by accelerated projected gradient over density matrices,
finished by Newton steps on the optimal face. Loss commutes with phase
rotations, so the elements of every phase follow from the theta = 0 set and
a table of phase factors: the bin probabilities and the gradient are each two
small real matrix products over populated bins, and the Newton steps' Jacobian
one more.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channels import loss_channel
from .files import write_csv
from .fock import MixedState
from .homodyne import Q_SUPPORT, acceptance_operator, gauss_legendre, marginal_pdf

CDF_STEP = 1e-3  # inverse-CDF table resolution; error well under shot noise
P_FLOOR = 1e-15  # probability floor inside the iteration only
LL_SLACK = 1e-9  # relative slack for the monotonicity check
GAIN_TOL = 1e-10  # a step that gains less than this, with the gap below GAP_TOL, ends the MLE
GAP_TOL = 1e-6  # certified bound on LL* - LL that, with a gain below GAIN_TOL, ends the MLE
MAX_ITERS = 2000  # the MLE stops here, unconverged
STEP_GROWTH = 1.2  # the gradient step grows by this after every accepted step
BACKTRACKS = 60  # step halvings before a projected step counts as failed
SWITCH_GAP = 1e-1  # APG hands the iterate to Newton steps once the gap falls below this
SWITCH_EVERY = 5  # APG iterations between checks of the switch gap
RANK_TOL = 1e-12  # eigenvalues of the APG iterate above this span the face Newton polishes


@dataclass
class TomoConfig:
    """Reconstruction settings.

    eta_correction is the detection efficiency compensated for in the POVM;
    bin_width_snu defines per-phase quadrature bins across the sampling support
    +-Q_SUPPORT, closed by one overflow element per phase so the POVM is
    complete exactly. The phases are pi k / n_phases, k < n_phases; dim_recon of
    them determine rho (Leonhardt et al., Opt. Commun. 127, 144 (1996)).
    """

    dim_recon: int = 12
    eta_correction: float = 1.0
    bin_width_snu: float = 0.1
    n_phases: int = 12

    def __post_init__(self):  # written so that NaN fails every check
        if not (isinstance(self.dim_recon, (int, np.integer)) and self.dim_recon >= 2):
            raise ValueError("dim_recon must be an integer of at least 2")
        if not (self.bin_width_snu > 0 and 2 * Q_SUPPORT / self.bin_width_snu < 2**63):
            raise ValueError("bin_width_snu must be positive, with 2 * Q_SUPPORT / bin_width_snu "
                             "below 2**63")
        if not 0 < self.eta_correction <= 1:
            raise ValueError("eta_correction must lie in (0, 1]")
        if not (isinstance(self.n_phases, (int, np.integer)) and self.n_phases >= 1):
            raise ValueError("n_phases must be a positive integer")

    @property
    def n_bins(self) -> int:
        return int(np.ceil(2 * Q_SUPPORT / self.bin_width_snu - 1e-9))


def _phases(n_phases: int) -> np.ndarray:
    """The equally spaced homodyne phases pi k / n_phases, k = 0 .. n_phases - 1."""
    return np.arange(n_phases) * np.pi / n_phases


def _record_arrays(records) -> tuple[np.ndarray, np.ndarray]:
    """The (thetas, qs) pair of a record set as two float arrays."""
    thetas, qs = (np.asarray(a, dtype=float) for a in records)
    if thetas.ndim != 1 or thetas.shape != qs.shape:
        raise ValueError("records must be two 1-D arrays of equal length (thetas, qs)")
    return thetas, qs


def sample_homodyne(state, n_phases: int, n_samples: int, eta: float = 1.0, seed: int = 0):
    """Draw homodyne records (thetas, qs) at the phases pi k / n_phases from the
    state after a loss channel of transmission eta. Deterministic for a fixed
    seed; the stream interleaves phases the way an acquisition run would. Each
    phase's draws invert a trapezoid CDF of marginal_pdf on a CDF_STEP grid
    over +-Q_SUPPORT, so the cost follows the rank of Re(rho_theta). Each
    phase's uniforms are inverted in ascending order, which changes the speed
    of the table lookups and no value."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if not (isinstance(n_phases, (int, np.integer)) and n_phases >= 1):
        raise ValueError("n_phases must be a positive integer")
    phases = _phases(n_phases)
    rho = loss_channel(state, eta)

    qgrid = np.arange(-Q_SUPPORT, Q_SUPPORT + CDF_STEP / 2, CDF_STEP)
    pdf = np.clip(marginal_pdf(rho, phases, qgrid), 0, None)
    cdf = np.zeros_like(pdf)  # trapezoid rule, 0 at -Q_SUPPORT
    cdf[:, 1:] = np.cumsum(np.diff(qgrid) * (pdf[:, 1:] + pdf[:, :-1]) / 2, axis=-1)
    cdf /= cdf[:, -1:]

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, phases.size, size=n_samples)
    us = rng.random(n_samples)
    qs = np.empty(n_samples)
    key = idx.astype(np.min_scalar_type(phases.size - 1))  # a stable sort on it is a radix sort
    by_u = np.argsort(us)
    order = by_u[np.argsort(key[by_u], kind="stable")]  # phase by phase, each ascending in u
    counts = np.bincount(idx, minlength=phases.size)
    ends = np.cumsum(counts)
    for table, start, end in zip(cdf, ends - counts, ends):
        draws = order[start:end]
        qs[draws] = np.interp(us[draws], table, qgrid)
    return phases[idx], qs


def write_records(records, path) -> None:
    """CSV with header theta_rad,q, 17 significant digits and CRLF line ends. A record
    set holds few distinct thetas, so each is formatted once, keyed by its bits so that
    0.0 and -0.0 keep their own text."""
    thetas, qs = _record_arrays(records)
    keys, inv = np.unique(thetas.view(np.int64), return_inverse=True)
    texts = np.array([b"%.17g" % v for v in keys.view(float).tolist()], dtype="S")
    write_csv(path, ([[b"theta_rad", b"q"]],), (texts[inv][:, None], qs[:, None]))


def _povm_factors(cfg: TomoConfig) -> tuple[np.ndarray, np.ndarray]:
    """The POVM in factored form, Pi_{k,b}[m, n] = e^{-i theta_k (m - n)} P_b[m, n].

    Returns the theta = 0 elements P_b as a real (n_bins + 1, dim^2) matrix
    and the phase factors as a complex (n_phases, dim^2) table. The P_b are
    n_bins window-integrated quadrature operators (3-node Gauss-Legendre
    each, detection loss folded in through the adjoint) plus the overflow
    element I / n_phases - sum_b P_b. Loss is phase covariant, which makes
    the factorization exact; the adjoint of a trace-preserving channel is
    unital, so the overflow element is the adjoint image of the lossless one
    and every phase's set sums to I / n_phases.
    """
    dim, n_phases = cfg.dim_recon, cfg.n_phases
    edges = -Q_SUPPORT + cfg.bin_width_snu * np.arange(cfg.n_bins + 1)
    nodes, weights = gauss_legendre(edges[:-1], edges[1:], 3)
    bins = acceptance_operator(dim, nodes, weights / n_phases, 0.0, cfg.eta_correction).real
    bins = np.concatenate((bins, np.eye(dim)[None] / n_phases - bins.sum(axis=0)))
    n = np.arange(dim)
    thetas = _phases(n_phases)[:, None, None]
    phases = np.exp(-1j * thetas * (n[:, None] - n))
    return bins.reshape(-1, dim * dim), phases.reshape(-1, dim * dim)


def bin_records(records, cfg: TomoConfig) -> np.ndarray:
    """Counts per POVM element, phase-major, n_bins + 1 per phase. Bin b holds
    floor((q + Q_SUPPORT) / bin_width_snu) = b for 0 <= b < n_bins; everything else
    goes to the phase's overflow element, the last. Phase k holds theta within
    1e-12 of pi k / n_phases; other phases and non-finite q are an error."""
    thetas, qs = _record_arrays(records)
    n = cfg.n_phases
    k = np.rint(thetas * n / np.pi)
    known = (k >= 0) & (k < n)  # false for NaN, so the cast below sees only indices
    k = np.where(known, k, 0).astype(np.intp)
    known &= np.abs(thetas - _phases(n)[k]) <= 1e-12
    if not known.all():
        raise ValueError(f"record phase {thetas[~known][0]} is not pi k / {n} for an integer k")
    if not np.isfinite(qs).all():
        raise ValueError("record quadratures must be finite")
    b = np.floor((qs + Q_SUPPORT) / cfg.bin_width_snu)
    b = np.where((b >= 0) & (b < cfg.n_bins), b, cfg.n_bins).astype(np.intp)
    stride = cfg.n_bins + 1
    return np.bincount(k * stride + b, minlength=n * stride).astype(float)


@dataclass
class ReconResult:
    state: MixedState
    iterations: int  # APG iterations plus Newton steps
    log_likelihood: float
    converged: bool
    optimality_gap: float  # lambda_max(R) - 1 at state, a bound on LL* - LL


def _frequencies_ll(freqs, probs) -> float:
    """sum_j f_j log p_j over populated bins only (all f_j > 0); -inf if a p_j <= 0."""
    if (probs <= 0).any():
        return -np.inf
    return float((freqs * np.log(probs)).sum())


def _probabilities(rho, bins, phases) -> np.ndarray:
    """Tr[Pi_{k,b} rho] for each phase k and row b of bins, phase-major and flattened:
    sum_mn P_b[m, n] Re(e^{-i theta_k (m - n)} rho[n, m])."""
    return ((phases * rho.T.ravel()).real @ bins.T).ravel()


def _r_operator(weights, bins, phases) -> np.ndarray:
    """sum_j w_j Pi_j for real weights in _probabilities order, the adjoint of
    _probabilities: sum_k e^{-i theta_k (m - n)} (w_k @ P)[m, n]."""
    dim = round(np.sqrt(bins.shape[1]))
    return np.sum(phases * (weights.reshape(len(phases), -1) @ bins), axis=0).reshape(dim, dim)


def _project_density(h: np.ndarray) -> np.ndarray:
    """The density matrix nearest the Hermitian h in Frobenius norm: h's
    eigenvectors with its eigenvalues projected onto the probability simplex
    (Smolin, Gambetta, Smith, PRL 108, 070502 (2012))."""
    w, v = np.linalg.eigh(h)
    u = w[::-1]
    excess = np.cumsum(u) - 1.0
    r = np.count_nonzero(u > excess / np.arange(1, u.size + 1))  # >= 1: u_1 > u_1 - 1
    rho = (v * np.maximum(w - excess[r - 1] / r, 0.0)) @ v.conj().T
    return 0.5 * (rho + rho.conj().T)


def _face_factor(rho) -> np.ndarray:
    """T with T T^H = rho on its eigenvalues above RANK_TOL: dim x r, r the rank."""
    w, v = np.linalg.eigh(rho)
    keep = w > RANK_TOL
    return np.ascontiguousarray(v[:, keep] * np.sqrt(w[keep]))


def _fisher_rows(t, bins, phases, active, scale) -> np.ndarray:
    """Rows scale_j J_j over the active elements j of _probabilities, where J_j =
    2 (Re, Im)(Pi_j T), interleaved as T.view(float), is the derivative of
    p_j = Tr[Pi_j T T^H] in the real coordinates of T. Pi_{k,b} T =
    e^{-i theta_k m} (P_b @ (e^{i theta_k n} T)): one real product of the P_b with
    every phase's rotated T, then the active rows rotated back."""
    dim, r = t.shape
    u = phases[:, :dim]  # e^{i theta_k n}, the m = 0 row of each phase's factors
    cols = np.ascontiguousarray((u[:, :, None] * t).transpose(1, 0, 2)).view(float)
    prod = (bins.reshape(-1, dim) @ cols.reshape(dim, -1)).view(complex)
    k, b = np.divmod(active, len(bins))
    rows = prod.reshape(len(bins), dim, len(phases), r)[b, :, k].reshape(len(active), -1)
    rows *= np.repeat((2 * scale)[:, None] * u.conj()[k], r, axis=1)
    return rows.view(float)


def _newton_direction(t, fisher_rows, grad) -> np.ndarray:
    """The Newton direction dT of LL(T T^H) on Tr T T^H = 1.

    In the real coordinates x = T.view(float) the bin probabilities are quadratic,
    with Jacobian rows J_j (_fisher_rows), so LL has gradient 2 (R T).view(float)
    and Hessian 2 R - J^T diag(f / p^2) J, R (grad) acting on each column of T;
    fisher_rows are the J_j scaled by sqrt(f_j) / p_j. The Lagrangian of the trace
    constraint, multiplier mu = Tr R rho, subtracts 2 mu. One bordered (KKT) solve
    holds the step tangent to Tr T T^H = 1 and orthogonal to the r^2 gauge
    directions T A, A anti-Hermitian, which leave rho = T T^H unchanged and make
    the Hessian singular."""
    dim, r = t.shape
    n = 2 * dim * r
    x = t.view(float).ravel()
    g = 2 * (grad @ t).view(float).ravel()
    mu = (x @ g) / (2 * (x @ x))
    cons = (t @ _gauge_basis(r)).reshape(r * r + 1, -1).view(float)
    kkt = np.zeros((n + len(cons), n + len(cons)))
    hess = kkt[:n, :n].reshape(dim, r, 2, dim, r, 2)  # a view: (row m, column c, Re/Im)
    for c in range(r):
        hess[:, c, 0, :, c, 0] = hess[:, c, 1, :, c, 1] = 2 * grad.real
        hess[:, c, 1, :, c, 0] = 2 * grad.imag
        hess[:, c, 0, :, c, 1] = -2 * grad.imag
    kkt[:n, :n] -= fisher_rows.T @ fisher_rows
    kkt[np.arange(n), np.arange(n)] -= 2 * mu
    kkt[:n, n:] = cons.T
    kkt[n:, :n] = cons
    rhs = np.concatenate((2 * mu * x - g, [(1 - x @ x) / 2], np.zeros(r * r)))
    return np.linalg.solve(kkt, rhs)[:n].view(complex).reshape(dim, r)


@functools.lru_cache(maxsize=16)
def _gauge_basis(r: int) -> np.ndarray:
    """The r x r identity, then a real basis of the anti-Hermitian r x r matrices,
    as one (r^2 + 1, r, r) array; read-only, as every caller shares it."""
    basis = [np.eye(r, dtype=complex)]
    for i in range(r):
        for j in range(i, r):
            e = np.zeros((r, r), dtype=complex)
            e[i, j] = e[j, i] = 1
            basis.append(1j * e)
            if i < j:
                e[j, i] = -1
                basis.append(e)
    basis = np.array(basis)
    basis.flags.writeable = False
    return basis


def mle_reconstruct(records, cfg: TomoConfig) -> ReconResult:
    """Maximum likelihood over density matrices by accelerated projected
    gradient (APG; Shang, Zhang, Ng, PRA 95, 062336 (2017)), from the
    maximally mixed state, finished by damped Newton steps on the face of the
    optimum.

    The gradient of the log likelihood LL is R = sum_j (f_j / p_j) Pi_j over
    populated bins, built from the factored POVM, so no iteration touches the
    full per-phase stack, nor the bins that no phase populates (about half;
    the overflow element is built before they go and keeps their mass). A
    step moves from the extrapolated point sigma along R and projects onto
    density matrices; its length halves until the quadratic bound holds, and
    grows by STEP_GROWTH after it is accepted. Nesterov momentum moves sigma
    past the last iterate; it restarts from the iterate when a step lowers LL
    or sigma gives a populated bin a probability <= 0. So the accepted
    iterates never lower LL: a step from an accepted iterate that lowers it
    beyond LL_SLACK, backtracking that runs out, or a NaN raises ValueError.

    Every SWITCH_EVERY iterations APG checks the gap lambda_max(R) - 1; once it
    is below SWITCH_GAP, the iterate's eigenvalues above RANK_TOL fix a rank r
    and rho = T T^H, T dim x r, and Newton steps take over (_newton_direction,
    with J and the Hessian built from the factored POVM). Their step halves
    until it does not lower LL. A Newton step that cannot gain while the gap
    is open means the optimum lies off this face: APG resumes, from the
    polished iterate with its momentum restarted, or where it stopped if no
    Newton step moved rho, and hands over again at its next check. Newton
    steps count as iterations.

    Converged when a step gains less than GAIN_TOL and the gap is at most
    GAP_TOL. The gap bounds LL* - LL (Glancy, Knill, Girard, NJP 14, 095017
    (2012)), since LL is concave and Tr R rho = 1; a gain below GAIN_TOL alone
    can stop on a plateau of the coherent targets. Otherwise stops after
    MAX_ITERS. A bin at P_FLOOR voids Tr R rho = 1: not converged, and the log
    likelihood is unfloored (-inf at p <= 0).
    """
    counts = bin_records(records, cfg)
    if np.count_nonzero(counts) < 2:  # none, or all in one bin
        raise ValueError("records must fall into at least two bins to reconstruct")
    freqs = (counts / counts.sum()).reshape(cfg.n_phases, -1)
    populated = freqs.any(axis=0)
    freqs = freqs[:, populated].ravel()
    active = np.flatnonzero(freqs)
    f_act = freqs[active]
    bins, phases = _povm_factors(cfg)
    bins = bins[populated]
    weights = np.zeros(freqs.size)

    def probabilities(rho):
        return _probabilities(rho, bins, phases)[active]

    def ll_of(probs):
        return _frequencies_ll(f_act, np.maximum(probs, P_FLOOR))

    def gradient(probs):
        weights[active] = f_act / np.maximum(probs, P_FLOOR)
        return _r_operator(weights, bins, phases)

    def gap(probs):
        return float(np.linalg.eigvalsh(gradient(probs))[-1] - 1.0)

    def newton(t, probs, ll):
        """A damped Newton step from rho = T T^H; the line search never lowers LL,
        and a step it cannot make gain returns None."""
        grad = gradient(probs)
        rows = _fisher_rows(t, bins, phases, active, np.sqrt(f_act) / np.maximum(probs, P_FLOOR))
        try:
            direction = _newton_direction(t, rows, grad)
        except np.linalg.LinAlgError:  # a singular KKT matrix: no step
            return None
        if not np.vdot(grad @ t, direction).real > 0:  # not uphill: the Hessian is not
            return None  # negative definite on this face
        alpha = 1.0
        for _ in range(BACKTRACKS):
            cand_t = t + alpha * direction
            cand_t /= np.linalg.norm(cand_t)
            cand = cand_t @ cand_t.conj().T
            cand = 0.5 * (cand + cand.conj().T)
            cand_probs = probabilities(cand)
            cand_ll = ll_of(cand_probs)
            if cand_ll >= ll:  # also fails on a NaN
                return cand_t, cand, cand_probs, cand_ll
            alpha /= 2
        return None

    rho = np.eye(cfg.dim_recon, dtype=complex) / cfg.dim_recon
    probs = probabilities(rho)
    ll = ll_of(probs)
    sigma, sigma_probs, sigma_ll, momentum = rho, probs, ll, 1.0
    step = 1.0
    factor = None  # rho = factor factor^H while Newton steps polish it; None under APG
    polished_from = None  # the APG iterate the last polish started from
    iterations = 0
    converged = False
    for iterations in range(1, MAX_ITERS + 1):
        if factor is not None:  # a step that cannot gain stays put
            stay = factor, rho, probs, ll
            factor, cand, cand_probs, cand_ll = newton(factor, probs, ll) or stay
        else:
            grad = gradient(sigma_probs)
            first_step = step  # a restart tries rho with the step sigma started from
            for _ in range(BACKTRACKS):
                cand = _project_density(sigma + step * grad)
                cand_probs = probabilities(cand)
                cand_ll = ll_of(cand_probs)
                move = cand - sigma
                bound = sigma_ll + np.vdot(grad, move).real - np.vdot(move, move).real / (2 * step)
                if cand_ll >= bound:
                    break
                step /= 2
            else:  # also a NaN, which fails every comparison
                raise ValueError("likelihood decreased")
            if not cand_ll >= ll:
                if sigma is not rho:  # restart the momentum from the iterate
                    sigma, sigma_probs, sigma_ll, momentum, step = rho, probs, ll, 1.0, first_step
                    continue
                if not cand_ll >= ll - LL_SLACK * abs(ll):
                    raise ValueError("likelihood decreased")
                cand, cand_probs, cand_ll = rho, probs, ll  # rounding: stay put
            next_momentum = (1 + np.sqrt(1 + 4 * momentum**2)) / 2
            c = (momentum - 1) / next_momentum
            sigma_probs = cand_probs + c * (cand_probs - probs)  # p is linear in rho
            if sigma_probs.min() > 0:
                sigma, momentum = (cand + c * (cand - rho) if c else cand), next_momentum
                sigma_ll = ll_of(sigma_probs)
            else:  # sigma would leave the likelihood's domain
                sigma, sigma_probs, sigma_ll, momentum = cand, cand_probs, cand_ll, 1.0
            step *= STEP_GROWTH
        gain = cand_ll - ll
        rho, probs, ll = cand, cand_probs, cand_ll
        if gain < GAIN_TOL:
            if gap(probs) <= GAP_TOL:
                converged = bool(probs.min() > P_FLOOR)  # a floored probability voids the bound
                break
            if factor is not None:  # the optimum is off this face: APG resumes,
                factor = None  # with its momentum unless the Newton steps moved rho
                if rho is not polished_from:
                    sigma, sigma_probs, sigma_ll, momentum = rho, probs, ll, 1.0
        elif factor is None and iterations % SWITCH_EVERY == 0 and gap(probs) < SWITCH_GAP:
            factor, polished_from = _face_factor(rho), rho
    return ReconResult(MixedState(rho), iterations, _frequencies_ll(f_act, probs), converged,
                       gap(probs))

