import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catprep.channels import _amplitudes, _sqrt_binomials, loss, loss_adjoint, loss_channel
from catprep.fock import MixedState, fidelity, mean_photon_number
from catprep.states import ResourceParams, coherent, hybrid_entangled
from oracles import basis_state, loss_on_mode_a, partial_trace


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def kraus_oracle(eta, dim):
    """Kraus operators K_k |n> = sqrt(C(n,k) eta^(n-k) (1-eta)^k) |n-k>, built
    one matrix element at a time."""
    kraus = []
    for k in range(dim):
        mat = np.zeros((dim, dim))
        for n in range(k, dim):
            mat[n - k, n] = math.sqrt(math.comb(n, k) * eta ** (n - k) * (1 - eta) ** k)
        kraus.append(mat)
    return kraus


def test_efficiency_validation():
    mat = np.eye(4)
    for channel in (loss, loss_adjoint):
        channel(mat, 0.85)
        channel(mat, np.array([0.0, 0.5, 1.0]))
        for bad in (1.2, -0.1, np.nan, np.array([0.5, 1.2]), np.array([0.5, np.nan])):
            with pytest.raises(ValueError):
                channel(mat, bad)


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 1.0])
def test_kraus_completeness(eta):
    # sum_k K_k^dag K_k = 1 is the adjoint's image of the identity
    assert np.allclose(loss_adjoint(np.eye(25), eta), np.eye(25), atol=1e-12)


@pytest.mark.parametrize("dim", [12, 30, 40])
def test_amplitudes_match_mpmath(dim):
    # each sqrt(C(n, k)) is an exact integer rounded once; 1 - eta is exact
    # for eta >= 1/2 and carries its rounding error below, so only the powers
    # and products round
    mp = pytest.importorskip("mpmath")
    for eta in (0.1, 0.3, 0.45, 0.5, 0.7, 0.85, 0.97):
        got = _amplitudes(eta, dim)
        with mp.workdps(40):
            e = mp.mpf(eta)
            want = np.array([[float(mp.sqrt(mp.binomial(n, k) * e ** (n - k) * (1 - e) ** k))
                              if n >= k else 0.0 for n in range(dim)] for k in range(dim)])
        assert np.array_equal(got == 0, want == 0)
        nonzero = want != 0
        assert np.max(np.abs(got[nonzero] / want[nonzero] - 1)) <= 1e-15


def test_binomials_past_the_float_range_stay_finite():
    # C(1030, 515) exceeds the largest float, so row n = 1030 mixes exact
    # entries with lgamma ones; both must agree with the lgamma form throughout
    dim = 1031
    with pytest.raises(OverflowError):
        float(math.comb(dim - 1, (dim - 1) // 2))
    got = _sqrt_binomials(dim)
    assert not got.flags.writeable
    assert np.all(np.isfinite(got))
    n = dim - 1
    log_binom = np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                          for k in range(dim)])
    np.testing.assert_allclose(got[:, n], np.exp(0.5 * log_binom), rtol=1e-11)


@pytest.mark.parametrize("dim", [1, 2, 5, 12, 25, 40])
def test_maps_match_kraus_oracle(dim):
    # unit largest entry: sums over up to dim products of rounded amplitudes
    mat = random_matrix(dim, seed=dim)
    mat /= np.abs(mat).max()
    for eta in (0.0, 0.3, 0.55, 0.85, 1.0):
        kraus = kraus_oracle(eta, dim)
        forward = sum(k @ mat @ k.T for k in kraus)
        adjoint = sum(k.T @ mat @ k for k in kraus)
        assert np.allclose(loss(mat, eta), forward, rtol=0, atol=1e-14)
        assert np.allclose(loss_adjoint(mat, eta), adjoint, rtol=0, atol=1e-14)


def test_adjoint_at_eta_one_is_exact_identity():
    mat = random_matrix(12, seed=5)
    assert np.array_equal(loss_adjoint(mat, 1.0), mat)


def test_batched_eta_matches_single_calls():
    rng = np.random.default_rng(6)
    etas = np.array([0.0, 0.2, 0.55, 0.9, 1.0])
    stack = rng.normal(size=(etas.size, 9, 9)) + 1j * rng.normal(size=(etas.size, 9, 9))
    for channel in (loss, loss_adjoint):
        batched = channel(stack, etas)
        for eta, mat, out in zip(etas, stack, batched):
            assert np.array_equal(out, channel(mat, eta))
        shared = channel(stack[0], etas)  # one matrix under every eta
        assert shared.shape == stack.shape
        for eta, out in zip(etas, shared):
            assert np.array_equal(out, channel(stack[0], eta))


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
    rho = random_density(12, seed=8)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    lhs = np.trace(loss(rho, 0.7) @ a)
    rhs = np.trace(rho @ loss_adjoint(a, 0.7))
    assert np.isclose(lhs, rhs, atol=1e-12)


def test_adjoint_is_unital():
    assert np.allclose(loss_adjoint(np.eye(14), 0.55), np.eye(14), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 30), eta=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_loss_properties(dim, eta, seed):
    rho = random_density(dim, seed)
    e = random_matrix(dim, seed + 1)
    lossy = loss(rho, eta)
    # duality Tr[Phi(rho) E] = Tr[rho Phi^dag(E)]
    assert np.isclose(np.trace(lossy @ e), np.trace(rho @ loss_adjoint(e, eta)), atol=1e-12)
    assert np.isclose(np.trace(lossy), 1.0, atol=1e-12)  # trace preserving
    assert np.allclose(loss_adjoint(np.eye(dim), eta), np.eye(dim), atol=1e-12)  # unital


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


def test_basis_state_loss_binomial():
    # |n> through loss has binomial photon statistics
    n, eta = 4, 0.65
    out = loss_channel(basis_state(n, 10), eta)
    from math import comb

    for k in range(n + 1):
        expected = comb(n, k) * eta**k * (1 - eta) ** (n - k)
        assert np.isclose(out.mat[k, k].real, expected, atol=1e-12)
