import numpy as np
import pytest

from catprep.channels import (
    apply_kraus,
    apply_kraus_adjoint,
    loss_channel,
    loss_kraus,
    loss_on_mode_a,
    phase_jitter,
)
from catprep.fock import MixedState, basis_state, fidelity, mean_photon_number, partial_trace
from catprep.states import ResourceParams, coherent, hybrid_entangled


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_efficiency_validation():
    loss_kraus(0.85, 4)
    with pytest.raises(ValueError):
        loss_kraus(1.2, 4)
    with pytest.raises(ValueError):
        loss_kraus(-0.1, 4)


def test_phase_jitter_validation():
    phase_jitter(basis_state(1, 4), 0.05)
    with pytest.raises(ValueError):
        phase_jitter(basis_state(1, 4), -0.01)


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 1.0])
def test_kraus_completeness(eta):
    kraus = loss_kraus(eta, 25)
    total = sum(k.conj().T @ k for k in kraus)
    assert np.allclose(total, np.eye(25), atol=1e-12)


def test_loss_maps_coherent_to_attenuated_coherent():
    alpha, eta = 0.9, 0.6
    out = loss_channel(coherent(alpha, 30), eta)
    target = coherent(np.sqrt(eta) * alpha, 30)
    assert fidelity(out, target) > 1 - 1e-12


def test_loss_composition():
    rho = MixedState(random_density(15, seed=2))
    once = loss_channel(loss_channel(rho, 0.8), 0.75)
    direct = loss_channel(rho, 0.6)
    assert np.allclose(once.mat, direct.mat, atol=1e-12)


def test_loss_scales_mean_photon_number():
    rho = MixedState(random_density(15, seed=3))
    n0 = mean_photon_number(rho)
    for eta in (0.5, 0.85):
        assert np.isclose(mean_photon_number(loss_channel(rho, eta)), eta * n0, atol=1e-10)


def test_loss_endpoints():
    rho = MixedState(random_density(10, seed=4))
    assert np.allclose(loss_channel(rho, 1.0).mat, rho.mat, atol=1e-12)
    vac = loss_channel(rho, 0.0)
    assert np.isclose(vac.mat[0, 0].real, 1.0, atol=1e-12)


def test_adjoint_duality():
    # Tr[Lambda(rho) A] = Tr[rho Lambda†(A)] for arbitrary A
    rng = np.random.default_rng(7)
    kraus = loss_kraus(0.7, 12)
    rho = random_density(12, seed=8)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    lhs = np.trace(apply_kraus(rho, kraus) @ a)
    rhs = np.trace(rho @ apply_kraus_adjoint(a, kraus))
    assert np.isclose(lhs, rhs, atol=1e-12)


def test_adjoint_is_unital():
    kraus = loss_kraus(0.55, 14)
    assert np.allclose(apply_kraus_adjoint(np.eye(14), kraus), np.eye(14), atol=1e-12)


def test_loss_on_mode_a_matches_reduced_channel():
    joint = hybrid_entangled(ResourceParams(), dim_b=20)
    lossy = loss_on_mode_a(joint, 0.7)
    ra_direct = loss_channel(partial_trace(joint, keep="a"), 0.7)
    ra_joint = partial_trace(lossy, keep="a")
    assert np.allclose(ra_joint.mat, ra_direct.mat, atol=1e-12)
    # mode B untouched
    rb0 = partial_trace(joint, keep="b")
    rb1 = partial_trace(lossy, keep="b")
    assert np.allclose(rb0.mat, rb1.mat, atol=1e-12)


def test_loss_on_mode_a_eta_one_is_identity():
    joint = hybrid_entangled(ResourceParams(), dim_b=15)
    assert loss_on_mode_a(joint, 1.0) is joint


def test_phase_jitter_monte_carlo_oracle():
    # average of e^{i phi n} rho e^{-i phi n} over phi ~ N(0, sigma^2)
    dim, sigma, n_draws = 10, 0.35, 200_000
    rho = random_density(dim, seed=11)
    out = phase_jitter(MixedState(rho), sigma).mat

    rng = np.random.default_rng(12)
    phis = rng.normal(0, sigma, n_draws)
    ns = np.arange(dim)
    dn = ns[:, None] - ns[None, :]
    factors = np.exp(1j * np.outer(phis, dn.ravel())).mean(axis=0).reshape(dim, dim)
    mc = rho * factors

    se = 1 / np.sqrt(n_draws)
    assert np.allclose(out, mc, atol=5 * se)


def test_phase_jitter_exact_factor():
    sigma = np.deg2rad(3.0)
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = rho[1, 1] = 0.5
    rho[0, 1] = rho[1, 0] = 0.5
    out = phase_jitter(MixedState(rho), sigma).mat
    assert np.isclose(out[0, 1].real, 0.5 * np.exp(-sigma**2 / 2), atol=1e-12)
    assert np.isclose(out[0, 1].real / 0.5, 0.9986302, atol=1e-7)


def test_phase_jitter_preserves_populations():
    rho = random_density(8, seed=13)
    out = phase_jitter(MixedState(rho), 0.4).mat
    assert np.allclose(np.diag(out), np.diag(rho), atol=1e-14)


def test_phase_jitter_zero_is_identity():
    rho = random_density(6, seed=14)
    out = phase_jitter(MixedState(rho), 0.0).mat
    assert np.allclose(out, rho, atol=1e-14)


def test_basis_state_loss_binomial():
    # |n> through loss has binomial photon statistics
    n, eta = 4, 0.65
    out = loss_channel(basis_state(n, 10), eta)
    from math import comb

    for k in range(n + 1):
        expected = comb(n, k) * eta**k * (1 - eta) ** (n - k)
        assert np.isclose(out.mat[k, k].real, expected, atol=1e-12)
