"""Protocol-level studies of the conditional preparation: fidelity scans
over the conditioning parameters, Bloch-sphere embedding of prepared states
in the cat basis, and target bookkeeping with published reference values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import MixedState, PureState, TwoModeState, _as_density, fidelity, purity
from .homodyne import Conditioning, condition, condition_tail
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
            raise ValueError("alpha must be positive")
        if self.kind == "custom":
            norm = abs(self.c_plus) ** 2 + abs(self.c_minus) ** 2
            if not np.isclose(norm, 1.0, atol=1e-9):
                raise ValueError("custom coefficients must be normalized")


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
    """One published preparation: target, conditioning, reference numbers.

    The published fidelities are experimental values and are not accuracy
    targets for the simulation; they are carried for side-by-side reporting.
    """

    index: int
    target: TargetSpec
    q_center: float
    theta_rad: float
    tail: bool
    published_fidelity: float
    published_rate_hz: float


TABLE1 = (
    Table1Row(1, TargetSpec("cat_plus"), 2.0, 0.0, True, 0.86, 13_800.0),
    Table1Row(2, TargetSpec("cat_minus"), 0.0, 0.0, False, 0.65, 9_600.0),
    Table1Row(3, TargetSpec("coherent_plus"), 1.14, 0.0, False, 0.85, 9_400.0),
    Table1Row(4, TargetSpec("coherent_minus"), -1.14, 0.0, False, 0.85, 9_400.0),
    # rows 5/6: Q sign written in this package's phase convention
    # (flipping the sign of Q equals shifting theta by pi)
    Table1Row(5, TargetSpec("phase_cat_plus"), 1.14, np.pi / 2, False, 0.81, 9_400.0),
    Table1Row(6, TargetSpec("phase_cat_minus"), -1.14, np.pi / 2, False, 0.80, 9_400.0),
)

DEFAULT_TARGETS = tuple(row.target for row in TABLE1)


def fidelity_vs_q(
    resource: TwoModeState,
    theta_rad: float,
    q_grid,
    targets,
    eta_a: float = 1.0,
) -> list[dict]:
    """Point-conditioned fidelity for each (q, target) pair.

    Rows carry keys param, target, fidelity with param the quadrature value.
    """
    dim = resource.dim_b
    states = [(t.kind, target_state(t, dim)) for t in targets]
    return [
        {"param": float(q), "target": label, "fidelity": fidelity(rho, tgt)}
        for q in q_grid
        for rho in [condition(resource, Conditioning(theta_rad, q, 0.0, eta_a)).rho]
        for label, tgt in states
    ]


def fidelity_vs_eta(
    resource: TwoModeState,
    q: float,
    theta_rad: float,
    eta_grid,
    target: TargetSpec,
) -> list[dict]:
    """Point-conditioned fidelity as the heralding-path efficiency varies."""
    tgt = target_state(target, resource.dim_b)
    return [
        {"param": float(eta), "target": target.kind,
         "fidelity": fidelity(condition(resource, Conditioning(theta_rad, q, 0.0, eta)).rho, tgt)}
        for eta in eta_grid
    ]


def fidelity_vs_delta(
    resource: TwoModeState,
    q: float,
    theta_rad: float,
    delta_grid,
    target: TargetSpec,
) -> list[dict]:
    """Window-conditioned fidelity as the acceptance width varies."""
    tgt = target_state(target, resource.dim_b)
    return [
        {"param": float(delta), "target": target.kind,
         "fidelity": fidelity(condition(resource, Conditioning(theta_rad, q, delta, 1.0)).rho, tgt)}
        for delta in delta_grid
    ]


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


@dataclass
class BlochCoords:
    """Location of a state inside the cat-basis Bloch sphere.

    phi_polar ranges over [0, pi] with Cat+ at the north pole; the azimuth
    parametrizes the family cos(phi/2)|Cat+> + e^{-i varphi} sin(phi/2)|Cat->,
    so the azimuth of a conditioned state tracks the homodyne phase theta.
    d is the Bloch-vector length sqrt(max(2 purity - 1, 0)).
    """

    phi_polar: float
    varphi_azimuth: float
    d: float
    max_fidelity: float
    subspace_weight: float


def _qubit_overlap_matrix(rho: np.ndarray, alpha: float) -> np.ndarray:
    dim = rho.shape[0]
    e0 = cat(alpha, "even", dim).amps
    e1 = cat(alpha, "odd", dim).amps
    basis = np.stack([e0, e1])
    return basis.conj() @ rho @ basis.T


def _family_fidelity(m: np.ndarray, phi, varphi):
    c = np.cos(phi / 2)
    s = np.sin(phi / 2)
    cross = (m[0, 1] * np.exp(-1j * varphi)).real
    return c**2 * m[0, 0].real + s**2 * m[1, 1].real + 2 * c * s * cross


def bloch_embed(state, alpha: float, tol: float = 1e-6) -> BlochCoords:
    """Maximize fidelity over the cat-basis qubit family.

    Coarse 64 x 128 grid over (polar, azimuth), then a shrinking local grid
    search to the angular tolerance. The subspace weight reports how much of
    the state lies in span{Cat+, Cat-} so leakage is visible.
    """
    rho = _as_density(state)
    m = _qubit_overlap_matrix(rho, alpha)

    phis = np.linspace(0, np.pi, 64)
    varphis = np.linspace(0, 2 * np.pi, 128, endpoint=False)
    pg, vg = np.meshgrid(phis, varphis, indexing="ij")
    vals = _family_fidelity(m, pg, vg)
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    best_phi, best_varphi = pg[i, j], vg[i, j]
    best_val = vals[i, j]

    half_phi = phis[1] - phis[0]
    half_varphi = varphis[1] - varphis[0]
    while max(half_phi, half_varphi) > tol:
        local_p = np.clip(best_phi + np.linspace(-half_phi, half_phi, 5), 0, np.pi)
        local_v = best_varphi + np.linspace(-half_varphi, half_varphi, 5)
        pg, vg = np.meshgrid(local_p, local_v, indexing="ij")
        vals = _family_fidelity(m, pg, vg)
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        best_phi, best_varphi = pg[i, j], vg[i, j]
        best_val = vals[i, j]
        half_phi *= 0.5
        half_varphi *= 0.5

    d = float(np.sqrt(max(2 * purity(MixedState(rho, _validate=False)) - 1, 0.0)))
    return BlochCoords(
        phi_polar=float(best_phi),
        varphi_azimuth=float(best_varphi % (2 * np.pi)),
        d=d,
        max_fidelity=float(best_val),
        subspace_weight=float(m[0, 0].real + m[1, 1].real),
    )


def heralded_rate(success_prob: float, base_rate_hz: float = BASE_HERALD_RATE_HZ) -> float:
    """Preparation rate in Hz: acceptance probability times the base rate."""
    if success_prob < 0 or base_rate_hz < 0:
        raise ValueError("inputs must be nonnegative")
    return success_prob * base_rate_hz


def prepare_row(resource: TwoModeState, row: Table1Row, delta: float = 0.2, eta_a: float = 1.0):
    """Condition the resource per a published row; returns the prepared state."""
    if row.tail:
        return condition_tail(resource, row.theta_rad, row.q_center, eta_a=eta_a)
    c = Conditioning(theta_rad=row.theta_rad, q_center=row.q_center, delta=delta, eta_a=eta_a)
    return condition(resource, c)
