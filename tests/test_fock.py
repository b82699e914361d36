import numpy as np
import pytest

from catprep.fock import (
    MixedState,
    PureState,
    TwoModeState,
    annihilate,
    fidelity,
    mean_photon_number,
    purity,
)
from oracles import basis_state, density, partial_trace


def random_pure(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState.from_amplitudes(v)


def random_mixed(dim, seed, rank=None):
    rng = np.random.default_rng(seed)
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return MixedState(rho / np.trace(rho).real)


def test_pure_state_requires_unit_norm():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))


def test_from_amplitudes_normalizes():
    s = PureState.from_amplitudes(np.array([3.0, 4.0]))
    assert np.isclose(np.linalg.norm(s.amps), 1.0)
    assert np.isclose(abs(s.amps[0]), 0.6)


def test_basis_state_density():
    s = basis_state(2, 5)
    rho = density(s).mat
    assert rho.shape == (5, 5)
    assert np.isclose(rho[2, 2], 1.0)
    assert np.isclose(np.abs(rho).sum(), 1.0)


def test_mixed_state_rejects_non_hermitian():
    m = np.eye(3, dtype=complex)
    m[0, 1] = 0.5
    with pytest.raises(ValueError):
        MixedState(m / np.trace(m))


def test_mixed_state_rejects_bad_trace():
    with pytest.raises(ValueError):
        MixedState(np.eye(3, dtype=complex))


def test_mixed_state_rejects_negative_eigenvalue():
    m = np.diag([1.5, -0.5, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        MixedState(m)


def test_two_mode_state_rejects_negative_eigenvalue():
    # Hermitian and unit trace, but the eigenvalue -0.2 makes it no state
    m = np.kron(np.diag([1.0, 0.0]), np.diag([1.2, -0.2, 0.0])).astype(complex)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        TwoModeState(m, 2, 3)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PureState(np.array([np.nan, 0.0, 0.0])), "not normalized"),
        (lambda: MixedState(np.full((3, 3), np.nan)), "not Hermitian"),
        (lambda: TwoModeState(np.full((4, 4), np.nan), 2, 2), "not Hermitian"),
        (lambda: TwoModeState.from_pure(np.array([np.nan, 0.0, 0.0, 0.0]), 2, 2), "not normalized"),
    ],
    ids=["pure", "mixed", "two_mode", "two_mode_from_pure"],
)
def test_nan_entries_fail_the_invariant_checks(build, message):
    # NaN compares false, so each check is written to fail on it; a LinAlgError
    # from a later eigensolve would not match
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("n", [0, 1, 4])
def test_annihilate_ladder(n):
    s = basis_state(n, 8)
    out = annihilate(s)
    if n == 0:
        assert np.allclose(out, 0)
    else:
        assert np.isclose(out[n - 1], np.sqrt(n))
        assert np.isclose(np.linalg.norm(out) ** 2, n)


def test_annihilate_norm_is_mean_photon_number():
    s = random_pure(10, seed=5)
    assert np.isclose(np.linalg.norm(annihilate(s)) ** 2, mean_photon_number(s))


def test_tensor_and_partial_trace_product_state():
    a = random_pure(3, seed=1)
    b = random_pure(4, seed=2)
    joint = TwoModeState(np.kron(density(a).mat, density(b).mat), 3, 4)
    assert joint.dim_a == 3 and joint.dim_b == 4
    ra = partial_trace(joint, keep="a")
    rb = partial_trace(joint, keep="b")
    assert np.allclose(ra.mat, density(a).mat, atol=1e-12)
    assert np.allclose(rb.mat, density(b).mat, atol=1e-12)


def test_two_mode_index_layout():
    # vec index is n_a * dim_b + n_b
    vec = np.zeros(6, dtype=complex)
    vec[1 * 3 + 2] = 1.0  # |1>_A |2>_B
    joint = TwoModeState.from_pure(vec, 2, 3)
    ra = partial_trace(joint, keep="a")
    rb = partial_trace(joint, keep="b")
    assert np.isclose(ra.mat[1, 1].real, 1.0)
    assert np.isclose(rb.mat[2, 2].real, 1.0)


def test_partial_trace_entangled_populations():
    vec = np.zeros(4, dtype=complex)
    vec[0] = np.sqrt(0.3)  # |0,0>
    vec[3] = np.sqrt(0.7)  # |1,1>
    joint = TwoModeState.from_pure(vec, 2, 2)
    ra = partial_trace(joint, keep="a")
    assert np.isclose(ra.mat[0, 0].real, 0.3)
    assert np.isclose(ra.mat[1, 1].real, 0.7)
    assert np.isclose(abs(ra.mat[0, 1]), 0.0, atol=1e-12)


def test_fidelity_pure_pure_overlap():
    a = random_pure(6, seed=3)
    b = random_pure(6, seed=4)
    expected = abs(np.vdot(a.amps, b.amps)) ** 2
    assert np.isclose(fidelity(a, b), expected)
    assert np.isclose(fidelity(a, a), 1.0)


def test_fidelity_mixture_is_convex():
    t = basis_state(0, 4)
    rho = MixedState(np.diag([0.25, 0.75, 0.0, 0.0]).astype(complex))
    assert np.isclose(fidelity(rho, t), 0.25)


def test_fidelity_dimension_check():
    result = MixedState(np.eye(4, dtype=complex) / 4)
    with pytest.raises(ValueError):
        fidelity(result, basis_state(0, 3))
    with pytest.raises(ValueError):
        fidelity(basis_state(0, 4), basis_state(0, 3))
    # equal dimension works, and a longer target contributes its first 4 amplitudes
    assert np.isclose(fidelity(result, basis_state(0, 4)), 0.25)
    assert np.isclose(fidelity(result, basis_state(0, 6)), fidelity(result, basis_state(0, 4)))
    assert np.isclose(fidelity(result, PureState(np.array([1, 0, 0, 0, 0, 1]) / np.sqrt(2))),
                      0.125)
    assert np.isclose(fidelity(basis_state(1, 4), basis_state(1, 6)), 1.0)


def test_purity_bounds():
    assert np.isclose(purity(random_pure(7, seed=8)), 1.0)
    mixed = MixedState(np.eye(5, dtype=complex) / 5)
    assert np.isclose(purity(mixed), 0.2)


def test_mean_photon_number_basis():
    for n in range(4):
        assert np.isclose(mean_photon_number(basis_state(n, 6)), n)
