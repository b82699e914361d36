import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from catprep.fock import fidelity, mean_photon_number, purity
from catprep.states import (
    ResourceParams,
    cat,
    coherent,
    cv_pair,
    hybrid_entangled,
    photon_subtracted_sv,
    squeezed_vacuum,
    squeezing_parameter,
    within_truncation,
)
from oracles import density, effective_alpha, partial_trace


def quadrature_ops(dim):
    # X = a + a†, P = -i (a - a†) so the vacuum variance is 1
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    x = a + a.conj().T
    p = -1j * (a - a.conj().T)
    return x, p


def variance(state, op):
    rho = density(state).mat
    mean = np.trace(rho @ op).real
    return np.trace(rho @ op @ op).real - mean**2


def test_coherent_amplitudes_match_series():
    alpha = 0.6 + 0.2j
    s = coherent(alpha, 20)
    for n in range(12):
        expected = np.exp(-abs(alpha) ** 2 / 2) * alpha**n / math.sqrt(math.factorial(n))
        assert np.isclose(s.amps[n], expected, atol=1e-12)


def test_coherent_mean_photon_number():
    assert np.isclose(mean_photon_number(coherent(0.7, 30)), 0.49, atol=1e-10)


def test_coherent_rejects_insufficient_truncation():
    with pytest.raises(ValueError):
        coherent(4.0, 30)  # |alpha|^2 = 16 > 30/4


@given(dim=st.integers(1, 5000) | st.integers(1, 2**63 - 1), alpha=st.floats(),
       ulps=st.none() | st.integers(-4, 4))
@example(dim=12, alpha=1e308, ulps=None)
def test_within_truncation_is_the_squared_guard(dim, alpha, ulps):
    # the guard gives the verdict of |alpha|^2 < dim/4 wherever that does not overflow,
    # also within a few ulps of the boundary, and False wherever it does
    if ulps is not None:  # alpha a few ulps from the boundary sqrt(dim)/2
        boundary = math.sqrt(dim) / 2
        alpha = boundary + ulps * math.ulp(boundary)
    try:
        want = abs(alpha) ** 2 < dim / 4
    except OverflowError:
        want = False
    assert within_truncation(alpha, dim) == want


def test_coherent_quadrature_means():
    x, p = quadrature_ops(30)
    rho = density(coherent(0.5 + 0.3j, 30)).mat
    assert np.isclose(np.trace(rho @ x).real, 1.0, atol=1e-10)  # 2 Re alpha
    assert np.isclose(np.trace(rho @ p).real, 0.6, atol=1e-10)  # 2 Im alpha


@pytest.mark.parametrize("parity,offset", [("even", 0), ("odd", 1)])
def test_cat_parity_structure(parity, offset):
    s = cat(0.7, parity, 30)
    wrong = s.amps[(1 - offset) :: 2]
    assert np.allclose(wrong, 0, atol=1e-14)
    assert np.isclose(np.linalg.norm(s.amps), 1.0)


def test_cat_normalization_constant():
    # unnormalized norm^2 of |a> +- |-a> is 2 (1 +- e^{-2 a^2})
    alpha = 0.7
    plus = coherent(alpha, 40).amps + coherent(-alpha, 40).amps
    minus = coherent(alpha, 40).amps - coherent(-alpha, 40).amps
    assert np.isclose(np.linalg.norm(plus) ** 2, 2 * (1 + np.exp(-2 * alpha**2)))
    assert np.isclose(np.linalg.norm(minus) ** 2, 2 * (1 - np.exp(-2 * alpha**2)))


def test_cat_rejects_unknown_parity():
    with pytest.raises(ValueError):
        cat(0.7, "both", 20)


def test_squeezing_parameter_values():
    assert np.isclose(squeezing_parameter(3.0), np.log(10 ** (3 / 20)))
    assert squeezing_parameter(0.0) == 0.0


def test_squeezed_vacuum_quadrature_variances():
    db = 3.0
    sv = squeezed_vacuum(db, 60)
    x, p = quadrature_ops(60)
    assert np.isclose(variance(sv, p), 10 ** (-db / 10), atol=1e-6)
    assert np.isclose(variance(sv, p), 0.5011872336272722, atol=1e-6)
    assert np.isclose(variance(sv, x), 10 ** (db / 10), atol=1e-4)


def test_squeezed_vacuum_even_and_mean_photon():
    db = 3.0
    sv = squeezed_vacuum(db, 60)
    assert np.allclose(sv.amps[1::2], 0, atol=1e-14)
    r = squeezing_parameter(db)
    assert np.isclose(mean_photon_number(sv), np.sinh(r) ** 2, atol=1e-10)


def test_photon_subtracted_sv_is_odd():
    ps = photon_subtracted_sv(3.0, 60)
    assert np.allclose(ps.amps[0::2], 0, atol=1e-14)
    assert np.isclose(np.linalg.norm(ps.amps), 1.0)


def test_effective_alpha_of_photon_subtracted_sv():
    # dense-grid oracle values frozen: the 3 dB photon-subtracted state looks
    # like an odd cat of size ~1.035 with fidelity ~0.996
    ps = photon_subtracted_sv(3.0, 40)
    a_eff, f = effective_alpha(ps, "odd")
    assert np.isclose(a_eff, 1.035, atol=2e-3)
    assert np.isclose(f, 0.9960, atol=5e-4)


def test_effective_alpha_of_squeezed_vacuum():
    sv = squeezed_vacuum(3.0, 40)
    a_eff, f = effective_alpha(sv, "even")
    assert np.isclose(a_eff, 0.588, atol=2e-3)
    assert f > 0.99


def test_effective_alpha_recovers_exact_cat():
    target = cat(0.8, "odd", 40)
    a_eff, f = effective_alpha(target, "odd")
    assert np.isclose(a_eff, 0.8, atol=1e-4)
    assert f > 1 - 1e-8


def test_resource_params_validation():
    with pytest.raises(ValueError):
        ResourceParams(model="exact")
    with pytest.raises(ValueError):
        ResourceParams(weight_dv=1.2)
    with pytest.raises(ValueError):
        ResourceParams(weight_dv=-0.1)


def test_cv_pair_ideal_is_cat_basis():
    params = ResourceParams(model="ideal", alpha=0.7)
    cvm, cvp = cv_pair(params, 30)
    assert fidelity(cvm, cat(0.7, "odd", 30)) > 1 - 1e-12
    assert fidelity(cvp, cat(0.7, "even", 30)) > 1 - 1e-12


def test_cv_pair_experimental_branches_are_orthogonal():
    cvm, cvp = cv_pair(ResourceParams(), 30)
    assert abs(np.vdot(cvm.amps, cvp.amps)) < 1e-14


@pytest.mark.parametrize("w", [0.0, 0.3, 0.5, 1.0])
def test_hybrid_entangled_qubit_populations(w):
    params = ResourceParams(weight_dv=w)
    joint = hybrid_entangled(params, dim_b=25)
    ra = partial_trace(joint, keep="a")
    assert np.isclose(ra.mat[0, 0].real, 1 - w, atol=1e-12)
    assert np.isclose(ra.mat[1, 1].real, w, atol=1e-12)
    # orthogonal CV branches leave no qubit coherence
    assert abs(ra.mat[0, 1]) < 1e-13


def test_hybrid_entangled_reduced_b_mixture():
    params = ResourceParams(model="ideal", alpha=0.7, weight_dv=0.5)
    joint = hybrid_entangled(params, dim_b=25)
    rb = partial_trace(joint, keep="b")
    expected = 0.5 * density(cat(0.7, "odd", 25)).mat + 0.5 * density(cat(0.7, "even", 25)).mat
    assert np.allclose(rb.mat, expected, atol=1e-12)
    assert purity(rb) < 1.0

