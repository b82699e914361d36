import numpy as np
import pytest

from catprep.fock import MixedState, basis_state, fidelity
from catprep.states import cat
from catprep.tomography import (
    HomodyneRecord,
    TomoConfig,
    bin_records,
    build_povm,
    default_phase_set,
    fidelity_to_truth,
    log_likelihood,
    mle_reconstruct,
    read_records,
    records_to_arrays,
    sample_homodyne,
    write_records,
)

FROZEN_SEED = 4  # representative seed for the statistical round-trip tests


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_default_phase_set():
    phases = default_phase_set()
    assert len(phases) == 12
    assert phases[0] == 0.0
    assert np.allclose(np.diff(phases), np.pi / 12)
    assert phases[-1] < np.pi


def test_config_validation():
    with pytest.raises(ValueError):
        TomoConfig(dim_recon=1)
    with pytest.raises(ValueError):
        TomoConfig(bin_width=0.0)
    with pytest.raises(ValueError):
        TomoConfig(eta_correction=0.0)
    with pytest.raises(ValueError):
        TomoConfig(eta_correction=1.2)
    with pytest.raises(ValueError):
        TomoConfig(tol=0.0)
    with pytest.raises(ValueError):
        TomoConfig(phase_set=())
    assert TomoConfig().n_bins == 200


def test_sampling_vacuum_statistics():
    records = sample_homodyne(basis_state(0, 10), [0.0], 100_000, seed=11)
    _, qs = records_to_arrays(records)
    assert np.isclose(qs.mean(), 0.0, atol=0.02)
    assert np.isclose(qs.var(), 1.0, atol=0.02)


def test_sampling_single_photon_dip():
    # P(|q| < 0.1) = 2.653e-4 for the single-photon marginal
    records = sample_homodyne(basis_state(1, 10), [0.3], 100_000, seed=12)
    _, qs = records_to_arrays(records)
    assert (np.abs(qs) < 0.1).mean() < 0.002


def test_sampling_is_deterministic():
    s = cat(0.7, "odd", 20)
    a = sample_homodyne(s, default_phase_set(), 500, seed=7)
    b = sample_homodyne(s, default_phase_set(), 500, seed=7)
    c = sample_homodyne(s, default_phase_set(), 500, seed=8)
    assert all(x.theta == y.theta and x.q == y.q for x, y in zip(a, b))
    assert any(x.q != y.q for x, y in zip(a, c))


def test_sampling_rejects_empty_draw():
    with pytest.raises(ValueError):
        sample_homodyne(basis_state(0, 5), [0.0], 0)


def test_records_csv_round_trip(tmp_path):
    records = sample_homodyne(cat(0.7, "even", 20), default_phase_set(), 200, seed=3)
    path = tmp_path / "records.csv"
    write_records(records, path)
    back = read_records(path)
    assert len(back) == len(records)
    assert all(x.theta == y.theta and x.q == y.q for x, y in zip(records, back))


def test_bin_records_counts_and_overflow():
    cfg = TomoConfig(phase_set=(0.0, np.pi / 2), bin_width=1.0, q_max=2.0)
    records = [
        HomodyneRecord(0.0, -1.5),
        HomodyneRecord(0.0, 0.5),
        HomodyneRecord(0.0, 5.0),  # overflow
        HomodyneRecord(np.pi / 2, -3.0),  # overflow
    ]
    counts = bin_records(records, cfg)
    stride = cfg.n_bins + 1
    assert counts.sum() == 4
    assert counts[0] == 1  # [-2,-1) bin of phase 0
    assert counts[2] == 1  # [0,1) bin of phase 0
    assert counts[cfg.n_bins] == 1  # phase-0 overflow
    assert counts[stride + cfg.n_bins] == 1  # phase-pi/2 overflow


def test_bin_records_rejects_unknown_phase():
    cfg = TomoConfig()
    with pytest.raises(ValueError):
        bin_records([HomodyneRecord(0.123, 0.0)], cfg)


@pytest.mark.parametrize("eta", [1.0, 0.85])
def test_povm_completeness(eta):
    cfg = TomoConfig(dim_recon=8, eta_correction=eta, phase_set=default_phase_set(4))
    povm = build_povm(cfg)
    assert povm.shape == (4 * (cfg.n_bins + 1), 8, 8)
    assert np.allclose(povm.sum(axis=0), np.eye(8), atol=1e-12)


def test_povm_probabilities_match_marginal_integral():
    # without correction, bin probabilities equal integrals of the marginal
    cfg = TomoConfig(dim_recon=10, bin_width=0.5, phase_set=(0.0, 0.7))
    povm = build_povm(cfg)
    state = cat(0.7, "odd", 10)
    rho = state.density().mat
    probs = np.einsum("jab,ba->j", povm, rho).real
    from catprep.homodyne import marginal_pdf

    stride = cfg.n_bins + 1
    edges = -cfg.q_max + cfg.bin_width * np.arange(cfg.n_bins + 1)
    for k, theta in enumerate(cfg.phase_set):
        for b in range(0, cfg.n_bins, 17):
            qs = np.linspace(edges[b], edges[b + 1], 201)
            want = np.trapezoid(marginal_pdf(state, theta, qs), qs) / len(cfg.phase_set)
            assert np.isclose(probs[k * stride + b], want, atol=1e-7)


@pytest.mark.parametrize("dim", [8, 12])
def test_povm_duality_with_loss_channel(dim):
    # Tr[Pi_corrected rho] = Tr[Pi loss(rho)] for every element
    from catprep.channels import loss_channel

    cfg0 = TomoConfig(dim_recon=dim, bin_width=1.0, phase_set=(0.0, 1.1))
    cfg = TomoConfig(dim_recon=dim, bin_width=1.0, phase_set=(0.0, 1.1), eta_correction=0.85)
    rho = random_density(dim, seed=5)
    lossy = loss_channel(MixedState(rho), 0.85).mat
    p_corr = np.einsum("jab,ba->j", build_povm(cfg), rho).real
    p_plain = np.einsum("jab,ba->j", build_povm(cfg0), lossy).real
    assert np.allclose(p_corr, p_plain, atol=1e-12)


def test_round_trip_cat_reconstruction():
    truth = cat(0.7, "odd", 30)
    records = sample_homodyne(truth, default_phase_set(), 50_000, eta=1.0, seed=FROZEN_SEED)
    cfg = TomoConfig()
    result = mle_reconstruct(records, cfg)
    assert result.converged
    f = fidelity_to_truth(result.state, truth)
    assert f >= 0.995


def test_loss_correction_improves_fidelity():
    truth = cat(0.7, "odd", 30)
    records = sample_homodyne(truth, default_phase_set(), 50_000, eta=0.85, seed=FROZEN_SEED)
    plain = mle_reconstruct(records, TomoConfig())
    corrected = mle_reconstruct(records, TomoConfig(eta_correction=0.85))
    f_plain = fidelity_to_truth(plain.state, truth)
    f_corr = fidelity_to_truth(corrected.state, truth)
    assert f_corr > f_plain
    assert f_corr >= 0.98


def test_truth_beats_random_challengers():
    truth = cat(0.7, "even", 12)
    records = sample_homodyne(truth, default_phase_set(), 20_000, seed=FROZEN_SEED)
    cfg = TomoConfig()
    ll_truth = log_likelihood(truth, records, cfg)
    for seed in range(10):
        challenger = MixedState(random_density(12, seed))
        assert log_likelihood(challenger, records, cfg) < ll_truth


def test_log_likelihood_minus_inf_sentinel():
    # a populated bin with zero probability under the state
    cfg = TomoConfig(dim_recon=2, phase_set=(0.0,), bin_width=20.0, q_max=10.0)
    records = [HomodyneRecord(0.0, 50.0)]  # lands in overflow only
    ll = log_likelihood(basis_state(0, 2), records, cfg)
    assert ll == -np.inf


def test_log_likelihood_dimension_check():
    cfg = TomoConfig(dim_recon=12)
    records = [HomodyneRecord(0.0, 0.5)]
    with pytest.raises(ValueError):
        log_likelihood(basis_state(0, 5), records, cfg)


def test_bin_width_insensitivity():
    # coarser bins cost a little information but not the reconstruction
    truth = cat(0.7, "odd", 30)
    records = sample_homodyne(truth, default_phase_set(), 30_000, seed=FROZEN_SEED)
    f1 = fidelity_to_truth(
        mle_reconstruct(records, TomoConfig(bin_width=0.05)).state, truth
    )
    f2 = fidelity_to_truth(
        mle_reconstruct(records, TomoConfig(bin_width=0.2)).state, truth
    )
    assert f1 >= 0.99 and f2 >= 0.99
    assert abs(f1 - f2) <= 0.01


def test_non_converged_flag():
    records = sample_homodyne(cat(0.7, "odd", 20), default_phase_set(), 2_000, seed=1)
    result = mle_reconstruct(records, TomoConfig(max_iters=3))
    assert not result.converged
    assert result.iterations == 3


def test_reconstruct_rejects_degenerate_input():
    cfg = TomoConfig()
    with pytest.raises(ValueError):
        mle_reconstruct([], cfg)
    with pytest.raises(ValueError):
        mle_reconstruct([HomodyneRecord(0.0, 0.05), HomodyneRecord(0.0, 0.05)], cfg)


def test_reconstruction_output_is_physical():
    records = sample_homodyne(cat(0.7, "even", 20), default_phase_set(), 5_000, seed=2)
    result = mle_reconstruct(records, TomoConfig(dim_recon=8))
    rho = result.state.mat
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert np.isclose(np.trace(rho).real, 1.0, atol=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-12
    assert np.isfinite(result.log_likelihood)


def test_fidelity_to_truth_dimension_check():
    result = MixedState(np.eye(4, dtype=complex) / 4)
    with pytest.raises(ValueError):
        fidelity_to_truth(result, basis_state(0, 3))
    # equal dimension works and matches the full fidelity
    assert np.isclose(fidelity_to_truth(result, basis_state(0, 4)), 0.25)
    assert np.isclose(
        fidelity_to_truth(result, basis_state(0, 4)),
        fidelity(MixedState(np.eye(4, dtype=complex) / 4), basis_state(0, 4)),
    )
