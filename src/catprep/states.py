"""Library of optical states: coherent, cat, squeezed, and the hybrid
entangled resource linking a single-rail qubit to a cat-state qubit."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import PureState, TwoModeState, annihilate


def within_truncation(alpha: complex, dim: int) -> bool:
    """|alpha|^2 < dim/4: a coherent state this small has a negligible tail
    beyond a dim-level truncation (False for NaN). |alpha| < dim comes first, so
    that no |alpha| squares past the float range; for dim >= 1 it changes no verdict."""
    a = abs(alpha)
    return a < dim and a ** 2 < dim / 4


def coherent(alpha: complex, dim: int) -> PureState:
    """Coherent state |alpha>, renormalized after truncation.

    Requires within_truncation(alpha, dim).
    """
    if not within_truncation(alpha, dim):
        raise ValueError(f"|alpha| = {abs(alpha):.4g} too large for dim {dim} "
                         "(need |alpha|^2 < dim/4)")
    n = np.arange(dim)
    log_fact = np.array([math.lgamma(k + 1) for k in range(dim)])  # log k!
    amps = np.exp(-abs(alpha) ** 2 / 2 - 0.5 * log_fact) * np.asarray(alpha, dtype=complex) ** n
    return PureState.from_amplitudes(amps)


def cat(alpha: float, parity: str, dim: int) -> PureState:
    """Even or odd coherent-state superposition |alpha> +- |-alpha>.

    The unnormalized squared norm is 2 (1 +- e^{-2 alpha^2}); the returned
    state is normalized. parity is 'even' or 'odd'.
    """
    if parity == "even":
        sign = 1.0
    elif parity == "odd":
        sign = -1.0
    else:
        raise ValueError("parity must be 'even' or 'odd'")
    v = coherent(alpha, dim).amps + sign * coherent(-alpha, dim).amps
    return PureState.from_amplitudes(v)


def squeezing_parameter(db: float) -> float:
    """r = ln(10^{dB/20}); e.g. 3 dB -> r = 0.3454."""
    return float(np.log(10 ** (db / 20)))


def squeezed_vacuum(db: float, dim: int) -> PureState:
    """Squeezed vacuum with the given squeezing strength in dB.

    Amplitudes c_2m = sqrt(sech r) (tanh r)^m sqrt((2m)!)/(2^m m!), all
    positive, so the squeezed quadrature is P and the state's long axis lies
    along X, aligned with the real-alpha cat states it approximates. The
    squeezed-quadrature variance is 10^{-dB/10} shot-noise units.
    """
    r = squeezing_parameter(db)
    t = np.tanh(r)
    amps = np.zeros(dim, dtype=complex)
    m = np.arange((dim + 1) // 2)
    log_fact = np.array([math.lgamma(k + 1) for k in range(dim)])  # log k!
    log_coeff = 0.5 * log_fact[2 * m] - m * np.log(2) - log_fact[m]
    amps[2 * m] = np.sqrt(1 / np.cosh(r)) * t**m * np.exp(log_coeff)
    return PureState.from_amplitudes(amps)


def photon_subtracted_sv(db: float, dim: int) -> PureState:
    """Single-photon-subtracted squeezed vacuum, normalize(a S|0>).

    Odd-parity state; the standard approximation to an odd cat.
    """
    return PureState.from_amplitudes(annihilate(squeezed_vacuum(db, dim)))


@dataclass
class ResourceParams:
    """Parameters of the hybrid entangled resource.

    model : 'ideal' (exact cat states of size alpha) or 'experimental'
        (3-dB-class squeezed vacuum and its photon-subtracted partner).
    weight_dv : weight of the |1>(x)CV+ branch, in [0, 1]. 1/2 is balanced.
    """

    model: str = "experimental"
    alpha: float = 0.7
    squeezing_db: float = 3.0
    weight_dv: float = 0.5

    def __post_init__(self):
        if self.model not in ("ideal", "experimental"):
            raise ValueError(f"unknown resource model {self.model!r}")
        if not 0.0 <= self.weight_dv <= 1.0:
            raise ValueError("weight_dv must lie in [0, 1]")


def cv_pair(params: ResourceParams, dim: int) -> tuple[PureState, PureState]:
    """The (cv_minus, cv_plus) pair held by the remote mode.

    ideal:        (Cat-, Cat+) at params.alpha
    experimental: (photon-subtracted squeezed vacuum, squeezed vacuum)
    """
    if params.model == "ideal":
        return cat(params.alpha, "odd", dim), cat(params.alpha, "even", dim)
    return (
        photon_subtracted_sv(params.squeezing_db, dim),
        squeezed_vacuum(params.squeezing_db, dim),
    )


def hybrid_entangled(params: ResourceParams, dim_b: int = 30) -> TwoModeState:
    """sqrt(1-w)|0>(x)|CV-> + sqrt(w)|1>(x)|CV+>, w = weight_dv.

    Mode A is the two-level single-rail qubit, mode B the CV mode.
    """
    cv_minus, cv_plus = cv_pair(params, dim_b)
    w = params.weight_dv
    vec = np.concatenate([np.sqrt(1 - w) * cv_minus.amps, np.sqrt(w) * cv_plus.amps])
    return TwoModeState.from_pure(vec, 2, dim_b)
