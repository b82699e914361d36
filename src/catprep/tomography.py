"""Synthetic homodyne acquisition and iterative maximum-likelihood state
reconstruction with detection-efficiency correction.

Sampling draws (phase, quadrature) records from the homodyne marginals of a
state after a loss channel. Reconstruction bins the records, builds
window-integrated quadrature POVM elements pushed through the adjoint of the
loss channel (so the recovered state refers to the field before detection
loss), and iterates rho <- R rho R / Tr[...] with the standard R operator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .channels import loss_channel
from .fock import MixedState, _as_density
from .homodyne import acceptance_operator, gauss_legendre, marginal_pdf

CDF_STEP = 1e-3  # inverse-CDF table resolution; error well under shot noise
P_FLOOR = 1e-15  # probability floor inside the iteration only
LL_SLACK = 1e-9  # relative slack for the monotonicity check


def default_phase_set(n_phases: int = 12) -> tuple[float, ...]:
    """Equally spaced homodyne phases covering [0, pi)."""
    return tuple(k * np.pi / n_phases for k in range(n_phases))


@dataclass
class HomodyneRecord:
    theta: float
    q: float


@dataclass
class TomoConfig:
    """Reconstruction settings.

    eta_correction is the detection efficiency compensated for in the POVM;
    bin_width and q_max define per-phase quadrature bins, closed by one
    overflow element per phase so the POVM is complete exactly.
    """

    dim_recon: int = 12
    eta_correction: float = 1.0
    bin_width: float = 0.1
    phase_set: tuple = field(default_factory=default_phase_set)
    max_iters: int = 2000
    tol: float = 1e-10
    q_max: float = 10.0

    def __post_init__(self):
        if self.dim_recon < 2:
            raise ValueError("dim_recon must be at least 2")
        if self.bin_width <= 0:
            raise ValueError("bin_width must be positive")
        if not 0 < self.eta_correction <= 1:
            raise ValueError("eta_correction must lie in (0, 1]")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if len(self.phase_set) == 0:
            raise ValueError("phase_set must be non-empty")

    @property
    def n_bins(self) -> int:
        return int(np.ceil(2 * self.q_max / self.bin_width - 1e-9))


def sample_homodyne(state, phase_set, n_samples: int, eta: float = 1.0, seed: int = 0):
    """Draw homodyne records from the state after a loss channel of
    transmission eta. Deterministic for a fixed seed; the stream interleaves
    phases the way an acquisition run would."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rho = loss_channel(state, eta)
    phase_set = list(phase_set)

    qgrid = np.arange(-10.0, 10.0 + CDF_STEP / 2, CDF_STEP)
    tables = []
    for theta in phase_set:
        pdf = marginal_pdf(rho, theta, qgrid)
        cdf = cumulative_trapezoid(np.clip(pdf, 0, None), qgrid, initial=0.0)
        tables.append(cdf / cdf[-1])

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(phase_set), size=n_samples)
    us = rng.random(n_samples)
    qs = np.empty(n_samples)
    for k in range(len(phase_set)):
        mask = idx == k
        if mask.any():
            qs[mask] = np.interp(us[mask], tables[k], qgrid)
    return [HomodyneRecord(phase_set[i], float(q)) for i, q in zip(idx, qs)]


def records_to_arrays(records):
    thetas = np.array([r.theta for r in records])
    qs = np.array([r.q for r in records])
    return thetas, qs


def write_records(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta_rad", "q"])
        for r in records:
            writer.writerow([f"{r.theta:.17g}", f"{r.q:.17g}"])


def read_records(path):
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            out.append(HomodyneRecord(float(row[0]), float(row[1])))
    return out


def build_povm(cfg: TomoConfig) -> np.ndarray:
    """POVM elements, shape (n_phases * (n_bins + 1), dim, dim).

    Per phase: n_bins window-integrated quadrature operators (3-node
    Gauss-Legendre each, detection loss folded in through the adjoint) plus
    one overflow element defined by completeness. The adjoint of a
    trace-preserving channel is unital, so the overflow element is the
    adjoint image of the lossless one and the set sums to the identity.
    """
    dim = cfg.dim_recon
    n_phases = len(cfg.phase_set)
    edges = -cfg.q_max + cfg.bin_width * np.arange(cfg.n_bins + 1)
    nodes, weights = gauss_legendre(edges[:-1], edges[1:], 3)
    weights /= n_phases

    elements = np.empty((n_phases, cfg.n_bins + 1, dim, dim), dtype=complex)
    for k, theta in enumerate(cfg.phase_set):
        bins = acceptance_operator(dim, nodes, weights, theta, cfg.eta_correction)
        elements[k, :-1] = bins
        elements[k, -1] = np.eye(dim) / n_phases - bins.sum(axis=0)
    return elements.reshape(-1, dim, dim)


def bin_records(records, cfg: TomoConfig) -> np.ndarray:
    """Counts aligned with build_povm ordering; unknown phases are an error."""
    thetas, qs = records_to_arrays(records)
    phase_index = {round(p, 12): k for k, p in enumerate(cfg.phase_set)}
    counts = np.zeros(len(cfg.phase_set) * (cfg.n_bins + 1), dtype=float)
    stride = cfg.n_bins + 1
    for theta, q in zip(thetas, qs):
        k = phase_index.get(round(theta, 12))
        if k is None:
            raise ValueError(f"record phase {theta} not in the configured phase set")
        b = int(np.floor((q + cfg.q_max) / cfg.bin_width))
        if b < 0 or b >= cfg.n_bins:
            b = cfg.n_bins
        counts[k * stride + b] += 1
    return counts


@dataclass
class ReconResult:
    state: MixedState
    iterations: int
    log_likelihood: float
    converged: bool


def _frequencies_ll(freqs, probs) -> float:
    active = freqs > 0
    if np.any(probs[active] <= 0):
        return -np.inf
    return float(np.sum(freqs[active] * np.log(probs[active])))


def log_likelihood(state, records, cfg: TomoConfig) -> float:
    """Frequency-weighted log likelihood of the binned records; -inf when a
    populated bin has zero probability under the state."""
    counts = bin_records(records, cfg)
    freqs = counts / counts.sum()
    povm = build_povm(cfg)
    rho = _as_density(state)
    if rho.shape[0] != cfg.dim_recon:
        raise ValueError("state dimension must match dim_recon")
    probs = np.einsum("jab,ba->j", povm, rho).real
    return _frequencies_ll(freqs, probs)


def mle_reconstruct(records, cfg: TomoConfig) -> ReconResult:
    """Iterate rho <- R rho R, R = sum_j (f_j / p_j) Pi_j over populated bins,
    from the maximally mixed seed. A likelihood that falls in any iteration
    raises ValueError; stops on gain < tol or max_iters."""
    if len(records) == 0:
        raise ValueError("records must be non-empty")
    counts = bin_records(records, cfg)
    freqs = counts / counts.sum()
    povm = build_povm(cfg)

    active = freqs > 0
    if active.sum() == 1:
        raise ValueError("all records fell into a single bin; cannot reconstruct")
    pi_act = np.ascontiguousarray(povm[active])
    f_act = freqs[active]

    dim = cfg.dim_recon
    rho = np.eye(dim, dtype=complex) / dim
    probs = np.einsum("jab,ba->j", pi_act, rho).real
    ll = _frequencies_ll(f_act, np.clip(probs, P_FLOOR, None))
    iterations = 0
    converged = False
    for iterations in range(1, cfg.max_iters + 1):
        r = np.einsum("j,jab->ab", f_act / np.clip(probs, P_FLOOR, None), pi_act)
        rho = r @ rho @ r
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
        probs = np.einsum("jab,ba->j", pi_act, rho).real
        new_ll = _frequencies_ll(f_act, np.clip(probs, P_FLOOR, None))
        if not new_ll >= ll - LL_SLACK * abs(ll):  # NaN fails too
            raise ValueError("likelihood decreased")
        gain = new_ll - ll
        ll = new_ll
        if gain < cfg.tol:
            converged = True
            break
    return ReconResult(MixedState(rho), iterations, ll, converged)


def fidelity_to_truth(result_state: MixedState, truth) -> float:
    """Fidelity of a low-dimensional reconstruction against a pure truth
    state of any dimension >= dim_recon."""
    rho = result_state.mat
    t = np.asarray(truth.amps if hasattr(truth, "amps") else truth, dtype=complex)
    d = rho.shape[0]
    if t.size < d:
        raise ValueError("truth dimension must be at least the reconstruction's")
    head = t[:d]
    return float(np.real(head.conj() @ rho @ head))
