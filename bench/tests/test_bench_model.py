"""The benchmark's closed-form model against hand-derived cases."""

import math

import numpy as np
import pytest

import model

DIM = 30


def quadrature_wavefunctions(q, n_max=2):
    """psi_n(q) from the Hermite recursion, independent of model's moments."""
    psi = [np.exp(-q**2 / 4) / (2 * math.pi) ** 0.25]
    psi.append(q * psi[0])
    for n in range(1, n_max):
        psi.append((q * psi[n] - math.sqrt(n) * psi[n - 1]) / math.sqrt(n + 1))
    return psi


def pure(amps):
    return np.outer(amps, amps.conj())


@pytest.fixture(scope="module")
def mdl():
    return model.TwoBranchModel(DIM)


def test_point_projection_at_zero_gives_cv_minus(mdl):
    m = mdl.matrix(model.point_moments(0.0), theta=0.3)
    assert np.allclose(mdl.rho(m), pure(mdl.basis[:, 0]), atol=1e-14)
    assert mdl.success(m) == pytest.approx(0.5 / math.sqrt(2 * math.pi), rel=1e-14)


def test_point_projection_is_the_balanced_superposition(mdl):
    # |cv-> + q e^{i theta} |cv+>, normalized by sqrt(1 + q^2)
    q, theta = 1.14, math.pi / 2
    m = mdl.matrix(model.point_moments(q), theta)
    vec = (mdl.basis[:, 0] + q * np.exp(1j * theta) * mdl.basis[:, 1]) / math.sqrt(1 + q * q)
    assert np.allclose(mdl.rho(m), pure(vec), atol=1e-14)
    target = model.target_amps("coherent_plus", 0.7, DIM)
    assert mdl.fidelity(m, target) == pytest.approx(abs(np.vdot(target, vec)) ** 2, abs=1e-14)


def test_heralding_loss_at_zero_mixes_in_cv_plus(mdl):
    # loss moves the photon branch onto |0>, which q = 0 accepts with weight (1 - eta)
    eta = 0.6
    m = mdl.matrix(model.point_moments(0.0), 0.0, eta)
    want = (pure(mdl.basis[:, 0]) + (1 - eta) * pure(mdl.basis[:, 1])) / (2 - eta)
    assert np.allclose(mdl.rho(m), want, atol=1e-14)


def test_window_moments_match_quadrature():
    lo, hi = -0.37, 1.21
    q = np.linspace(lo, hi, 20001)
    psi0, psi1 = quadrature_wavefunctions(q)[:2]
    want = [np.trapezoid(f, q) for f in (psi0 * psi0, psi0 * psi1, psi1 * psi1)]
    assert np.allclose(model.window_moments(lo, hi), want, atol=1e-8)


def test_narrow_window_tends_to_the_point_limit():
    q, width = 0.8, 1e-5
    window = model.window_moments(q - width / 2, q + width / 2)
    assert np.allclose(np.array(window) / width, model.point_moments(q), rtol=1e-8)


def test_windows_tiling_the_line_sum_to_one(mdl):
    edges = np.linspace(-10, 10, 41)
    m = mdl.matrix(model.window_moments(edges[:-1], edges[1:]), 0.4, 0.8)
    assert mdl.success(m).sum() == pytest.approx(1.0, abs=1e-12)


def test_tail_is_symmetric_and_completes_the_window():
    tail = model.tail_moments(2.0)
    inner = model.window_moments(-2.0, 2.0)
    assert tail[1] == 0.0
    assert tail[0] + inner[0] == pytest.approx(1.0, abs=1e-15)
    assert tail[2] + inner[2] == pytest.approx(1.0, abs=1e-15)  # <psi_1|psi_1> = 1


def test_squeezed_pair_closed_forms():
    r = model.squeezing_r(3.0)
    assert r == pytest.approx(0.3454, abs=1e-4)
    n = np.arange(DIM)
    sv = model.squeezed_vacuum_amps(3.0, DIM)
    ps = model.photon_subtracted_amps(3.0, DIM)
    assert np.sum(n * abs(sv) ** 2) == pytest.approx(math.sinh(r) ** 2, rel=1e-12)
    # a S|0> normalized: amplitudes sqrt(n + 1) c_{n+1} / sinh r
    lowered = np.zeros(DIM, dtype=complex)
    lowered[:-1] = np.sqrt(n[1:]) * sv[1:]
    assert np.allclose(ps[:-1], lowered[:-1] / math.sinh(r), atol=1e-12)
    assert abs(np.vdot(sv, ps)) < 1e-15


def test_cat_moments():
    alpha = 0.7
    n = np.arange(DIM)
    odd = model.cat_amps(alpha, -1, DIM)
    assert np.all(odd[::2] == 0)
    assert np.sum(n * abs(odd) ** 2) == pytest.approx(alpha**2 / math.tanh(alpha**2), rel=1e-12)
    a = np.diag(np.sqrt(n[1:]), 1)
    for theta in (0.0, 0.4, math.pi / 2):
        x = a * np.exp(-1j * theta) + a.conj().T * np.exp(1j * theta)
        direct = np.real(odd.conj() @ x @ x @ odd)
        assert model.cat_quadrature_second_moment(alpha, -1, theta) == pytest.approx(direct, rel=1e-10)
    assert model.lossy_second_moment(3.0, 0.85) == pytest.approx(0.85 * 2.0 + 1.0)


def test_parity_origin():
    assert model.parity_origin(np.diag([1.0, 0.0])) == pytest.approx(1 / (2 * math.pi))
    assert model.parity_origin(np.diag([0.0, 1.0])) == pytest.approx(-1 / (2 * math.pi))


def test_model_agrees_with_catprep_conditioning(mdl):
    from catprep.homodyne import Conditioning, condition, condition_tail
    from catprep.states import ResourceParams, hybrid_entangled

    resource = hybrid_entangled(ResourceParams(), dim_b=DIM)
    prep = condition(resource, Conditioning(theta_rad=0.3, q_center=-1.14, delta=0.2, eta_a=0.9))
    m = mdl.matrix(model.window_moments(-1.24, -1.04), 0.3, 0.9)
    assert np.allclose(prep.rho.mat, mdl.rho(m), atol=1e-6)
    assert prep.success_prob == pytest.approx(float(mdl.success(m)), rel=1e-9)
    prep = condition_tail(resource, 0.0, 2.0)
    m = mdl.matrix(model.tail_moments(2.0), 0.0)
    assert np.allclose(prep.rho.mat, mdl.rho(m), atol=1e-6)
