"""Protocol-level studies of the conditional preparation: fidelity scans
over the conditioning parameters, Bloch-sphere embedding of prepared states
in the cat basis, and target bookkeeping with published reference values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import EIG_TOL, PureState, TwoModeState, _as_density, purity
from .homodyne import MIN_SUCCESS, conditioning_operator
from .states import cat, coherent

BASE_HERALD_RATE_HZ = 200_000.0  # entanglement heralding rate of the source

TARGET_KINDS = (
    "cat_plus",
    "cat_minus",
    "coherent_plus",
    "coherent_minus",
    "phase_cat_plus",
    "phase_cat_minus",
    "custom",
)


@dataclass
class TargetSpec:
    """A target state drawn from the cat-basis qubit family.

    kind selects a named superposition; custom takes explicit coefficients
    c_plus, c_minus on (Cat+, Cat-) with |c_plus|^2 + |c_minus|^2 = 1.
    """

    kind: str
    alpha: float = 0.7
    c_plus: complex = 0j
    c_minus: complex = 0j

    def __post_init__(self):
        if self.kind not in TARGET_KINDS:
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.alpha <= 0:
            raise ValueError("target alpha must be positive")
        if self.kind == "custom":
            c_plus, c_minus = self.c_plus, self.c_minus
            parts = (c_plus.real, c_plus.imag, c_minus.real, c_minus.imag)
            # parts above 1 are refused before any square can overflow; NaN fails too
            if not (all(abs(x) <= 1 for x in parts)
                    and np.isclose(abs(c_plus) ** 2 + abs(c_minus) ** 2, 1.0, atol=1e-9)):
                raise ValueError(f"custom coefficients c_plus = {c_plus}, c_minus = {c_minus} "
                                 "must be normalized")


def target_state(spec: TargetSpec, dim: int) -> PureState:
    a = spec.alpha
    if spec.kind == "cat_plus":
        return cat(a, "even", dim)
    if spec.kind == "cat_minus":
        return cat(a, "odd", dim)
    if spec.kind == "coherent_plus":
        return coherent(a, dim)
    if spec.kind == "coherent_minus":
        return coherent(-a, dim)
    if spec.kind == "phase_cat_plus":
        amps = coherent(a, dim).amps + 1j * coherent(-a, dim).amps
        return PureState.from_amplitudes(amps)
    if spec.kind == "phase_cat_minus":
        amps = coherent(a, dim).amps - 1j * coherent(-a, dim).amps
        return PureState.from_amplitudes(amps)
    amps = spec.c_plus * cat(a, "even", dim).amps + spec.c_minus * cat(a, "odd", dim).amps
    return PureState.from_amplitudes(amps)


@dataclass
class Table1Row:
    """One published preparation: target, conditioning, published fidelity.
    Row k of the paper's Table 1 is TABLE1[k - 1].

    The published fidelities are experimental values and are not accuracy
    targets for the simulation; they are carried for side-by-side reporting.
    """

    target: TargetSpec
    q_center: float
    theta_rad: float
    tail: bool
    published_fidelity: float


TABLE1 = (
    Table1Row(TargetSpec("cat_plus"), 2.0, 0.0, True, 0.86),
    Table1Row(TargetSpec("cat_minus"), 0.0, 0.0, False, 0.65),
    Table1Row(TargetSpec("coherent_plus"), 1.14, 0.0, False, 0.85),
    Table1Row(TargetSpec("coherent_minus"), -1.14, 0.0, False, 0.85),
    # rows 5/6: Q sign written in this package's phase convention
    # (flipping the sign of Q equals shifting theta by pi)
    Table1Row(TargetSpec("phase_cat_plus"), 1.14, np.pi / 2, False, 0.81),
    Table1Row(TargetSpec("phase_cat_minus"), -1.14, np.pi / 2, False, 0.80),
)


def _scan(resource: TwoModeState, ops, targets) -> np.ndarray:
    """F[n, k]: the fidelity to targets[k] of the state heralded by the acceptance
    operator ops[n], from the mode-B blocks rho_B^{ac} of the resource:
    F = Re sum E_ca <t|rho_B^{ac}|t> / Re sum E_ca Tr rho_B^{ac}.
    The map E -> Tr_A[(E x 1) rho_AB] is completely positive, so a PSD
    resource and PSD operators stand in for a check of every heralded state."""
    ops = np.asarray(ops)
    if len(ops) == 0:
        return np.empty((0, len(targets)))
    lowest = np.minimum(np.linalg.eigvalsh(resource.mat).min(), np.linalg.eigvalsh(ops).min())
    if not lowest >= -EIG_TOL:  # NaN fails too
        raise ValueError("resource or acceptance operator is not positive semidefinite")
    r4 = resource.mat.reshape(resource.dim_a, resource.dim_b, resource.dim_a, resource.dim_b)
    t = np.stack([target_state(spec, resource.dim_b).amps for spec in targets])
    overlaps = np.einsum("kb,abcd,kd->kac", t.conj(), r4, t)
    success = np.einsum("nca,ac->n", ops, np.einsum("abcb->ac", r4)).real
    if not np.all(success >= MIN_SUCCESS):  # NaN fails too
        raise ValueError("acceptance region has zero probability")
    return np.clip(np.einsum("nca,kac->nk", ops, overlaps).real / success[:, None], 0.0, 1.0)


def fidelity_vs_q(resource: TwoModeState, theta_rad: float, q_grid, targets) -> np.ndarray:
    """Point-conditioned fidelity F[i, k] at q_grid[i] to targets[k]."""
    return _scan(resource, conditioning_operator(resource.dim_a, theta_rad, q_grid), targets)


def fidelity_vs_eta(resource: TwoModeState, q: float, theta_rad: float, eta_grid,
                    target: TargetSpec) -> np.ndarray:
    """Point-conditioned fidelity at each heralding-path efficiency of eta_grid."""
    return _scan(resource, conditioning_operator(resource.dim_a, theta_rad, q, eta=eta_grid),
                 [target])[:, 0]


def fidelity_vs_delta(resource: TwoModeState, q: float, theta_rad: float, delta_grid,
                      target: TargetSpec) -> np.ndarray:
    """Window-conditioned fidelity at each acceptance width of delta_grid; a zero
    width is the point projection, and a negative one or one above
    homodyne.WINDOW_MAX raises ValueError."""
    return _scan(resource, conditioning_operator(resource.dim_a, theta_rad, q, delta_grid),
                 [target])[:, 0]


@dataclass
class BlochCoords:
    """Location of a state inside the cat-basis Bloch sphere.

    phi_polar_rad ranges over [0, pi] with Cat+ at the north pole; the azimuth
    parametrizes the family cos(phi/2)|Cat+> + e^{-i varphi} sin(phi/2)|Cat->,
    so the azimuth of a conditioned state tracks the homodyne phase theta.
    d is the Bloch-vector length sqrt(max(2 purity - 1, 0)).
    """

    phi_polar_rad: float
    varphi_azimuth_rad: float
    d: float
    max_fidelity: float
    subspace_weight: float


def _qubit_overlap_matrix(rho: np.ndarray, alpha: float) -> np.ndarray:
    dim = rho.shape[0]
    e0 = cat(alpha, "even", dim).amps
    e1 = cat(alpha, "odd", dim).amps
    basis = np.stack([e0, e1])
    return basis.conj() @ rho @ basis.T


def bloch_embed(state, alpha: float) -> BlochCoords:
    """Maximize fidelity over the cat-basis qubit family.

    The family is every pure state in span{Cat+, Cat-}, so the best fidelity
    is the top eigenvalue of the 2 x 2 overlap matrix; its eigenvector
    (v0, v1) gives phi = 2 atan2(|v1|, |v0|) and varphi = -arg(v1 / v0), or 0
    at a pole (a component below 1e-12). The subspace weight reports how much
    of the state lies in span{Cat+, Cat-} so leakage is visible.
    """
    m = _qubit_overlap_matrix(_as_density(state), alpha)
    vals, vecs = np.linalg.eigh(m)
    v0, v1 = vecs[:, -1]
    at_pole = min(abs(v0), abs(v1)) < 1e-12
    return BlochCoords(
        phi_polar_rad=float(2 * np.arctan2(abs(v1), abs(v0))),
        varphi_azimuth_rad=0.0 if at_pole else float(-np.angle(v1 / v0) % (2 * np.pi)),
        d=float(np.sqrt(max(2 * purity(state) - 1, 0.0))),
        max_fidelity=float(vals[-1]),
        subspace_weight=float(m[0, 0].real + m[1, 1].real),
    )


def heralded_rate(success_prob: float) -> float:
    """Preparation rate in Hz: acceptance probability times BASE_HERALD_RATE_HZ."""
    if success_prob < 0:
        raise ValueError("success_prob must be nonnegative")
    return success_prob * BASE_HERALD_RATE_HZ

