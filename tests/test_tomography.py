import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catprep import tomography
from catprep.fock import MixedState, fidelity
from catprep.channels import loss_channel
from catprep.homodyne import Q_SUPPORT, acceptance_operator, gauss_legendre, marginal_pdf
from catprep.rsp import TARGET_KINDS, TargetSpec, target_state
from catprep.states import cat
from catprep.tomography import (
    GAIN_TOL,
    GAP_TOL,
    LL_SLACK,
    MAX_ITERS,
    P_FLOOR,
    TomoConfig,
    _fisher_rows,
    _frequencies_ll,
    _povm_factors,
    _probabilities,
    _project_density,
    _r_operator,
    bin_records,
    fidelity_to_truth,
    mle_reconstruct,
    sample_homodyne,
    write_records,
)

from oracles import basis_state, build_povm, density, log_likelihood, read_records

FROZEN_SEED = 4  # representative seed for the statistical round-trip tests


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_config_validation():
    for bad in (1, 8.0, 2.5, np.nan):
        with pytest.raises(ValueError, match="dim_recon"):
            TomoConfig(dim_recon=bad)
    with pytest.raises(ValueError):
        TomoConfig(bin_width_snu=0.0)
    with pytest.raises(ValueError):
        TomoConfig(eta_correction=0.0)
    with pytest.raises(ValueError):
        TomoConfig(eta_correction=1.2)
    for bad in (0, -3, np.nan, 2.5, 12.0):
        with pytest.raises(ValueError, match="n_phases"):
            TomoConfig(n_phases=bad)
    # bin counts past 64 bits, the first infinite
    for bad in ({"bin_width_snu": np.nan}, {"bin_width_snu": -0.1}, {"bin_width_snu": 1e-320},
                {"bin_width_snu": 1e-300},
                {"eta_correction": np.nan}):
        with pytest.raises(ValueError):
            TomoConfig(**bad)
    assert TomoConfig().n_bins == 200


def test_sampling_vacuum_statistics():
    _, qs = sample_homodyne(basis_state(0, 10), 1, 100_000, seed=11)
    assert np.isclose(qs.mean(), 0.0, atol=0.02)
    assert np.isclose(qs.var(), 1.0, atol=0.02)


def test_sampling_single_photon_dip():
    # P(|q| < 0.1) = 2.653e-4 for the single-photon marginal
    _, qs = sample_homodyne(basis_state(1, 10), 1, 100_000, seed=12)
    assert (np.abs(qs) < 0.1).mean() < 0.002


def test_sampling_is_deterministic():
    s = cat(0.7, "odd", 20)
    a = sample_homodyne(s, 12, 500, seed=7)
    b = sample_homodyne(s, 12, 500, seed=7)
    c = sample_homodyne(s, 12, 500, seed=8)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert np.any(a[1] != c[1])


def sample_homodyne_by_masks(state, n_phases, n_samples, eta, seed):
    """The sampler with one boolean mask per phase picking that phase's draws."""
    rho = loss_channel(state, eta)
    phases = np.array([k * np.pi / n_phases for k in range(n_phases)])
    qgrid = np.arange(-Q_SUPPORT, Q_SUPPORT + tomography.CDF_STEP / 2, tomography.CDF_STEP)
    pdf = np.clip(marginal_pdf(rho, phases, qgrid), 0, None)
    cdf = np.zeros_like(pdf)
    cdf[:, 1:] = np.cumsum(np.diff(qgrid) * (pdf[:, 1:] + pdf[:, :-1]) / 2, axis=-1)
    cdf /= cdf[:, -1:]
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, phases.size, size=n_samples)
    us = rng.random(n_samples)
    qs = np.empty(n_samples)
    for k, table in enumerate(cdf):
        qs[idx == k] = np.interp(us[idx == k], table, qgrid)
    return phases[idx], qs


@pytest.mark.parametrize("n_phases, n_samples", [(12, 3000), (1, 50), (5, 1)])
def test_sampler_fills_each_phase_as_masks_do(n_phases, n_samples):
    # each phase's draws come from one slice of a sort by phase, ascending in u within
    # it, and each theta is exactly pi k / n_phases, the equally spaced phase k
    state = cat(0.7, "odd", 20)
    got = sample_homodyne(state, n_phases, n_samples, eta=0.85, seed=9)
    want = sample_homodyne_by_masks(state, n_phases, n_samples, 0.85, 9)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=15, deadline=None)
@given(truth=st.integers(20, 40).flatmap(lambda dim: st.tuples(  # |alpha|^2 below dim / 4
           st.sampled_from([k for k in TARGET_KINDS if k != "custom"]),
           st.floats(0.3, 0.99 * np.sqrt(dim) / 2), st.just(dim), st.floats(0.5, 1.0))),
       n_phases=st.integers(1, 14), n_samples=st.integers(1, 60_000),
       seed=st.integers(0, 2**32 - 1))
# five truths, (kind, alpha, dim, eta), on which the sorted draws were checked against
# the stream-order sampler over sampling seeds 0 to 5
@example(truth=("cat_minus", 0.7, 30, 0.85), n_phases=12, n_samples=50_000, seed=0)
@example(truth=("cat_plus", 2.7, 30, 1.0), n_phases=12, n_samples=50_000, seed=1)
@example(truth=("coherent_plus", 3.15, 40, 0.5), n_phases=12, n_samples=50_000, seed=2)
@example(truth=("phase_cat_plus", 3.15, 40, 0.9), n_phases=12, n_samples=50_000, seed=3)
@example(truth=("cat_minus", 1.5, 30, 0.7), n_phases=12, n_samples=50_000, seed=4)
def test_sorted_draws_equal_the_masks_sampler_bit_for_bit(truth, n_phases, n_samples, seed):
    # np.interp finds each point's bracket of the CDF table on its own, so the order in
    # which a phase's uniforms reach it changes no value
    kind, alpha, dim, eta = truth
    state = target_state(TargetSpec(kind, alpha), dim)
    got = sample_homodyne(state, n_phases, n_samples, eta=eta, seed=seed)
    want = sample_homodyne_by_masks(state, n_phases, n_samples, eta, seed)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_sampling_rejects_empty_draw():
    with pytest.raises(ValueError):
        sample_homodyne(basis_state(0, 5), 1, 0)
    for bad in (0, 2.5):
        with pytest.raises(ValueError, match="n_phases"):
            sample_homodyne(basis_state(0, 5), bad, 10)


def test_records_csv_round_trip(tmp_path):
    records = sample_homodyne(cat(0.7, "even", 20), 12, 200, seed=3)
    path = tmp_path / "records.csv"
    write_records(records, path)
    back = read_records(path)
    assert len(back[0]) == len(records[0])
    assert np.array_equal(back[0], records[0]) and np.array_equal(back[1], records[1])


def test_bin_records_counts_and_overflow():
    w = Q_SUPPORT / 2  # four bins across the support
    cfg = TomoConfig(n_phases=2, bin_width_snu=w)
    assert cfg.n_bins == 4
    records = (
        np.array([0.0, 0.0, 0.0, np.pi / 2]),
        np.array([-1.5 * w, 0.5 * w, 2.5 * w, -3.0 * w]),  # the last two overflow
    )
    counts = bin_records(records, cfg)
    stride = cfg.n_bins + 1
    assert counts.sum() == 4
    assert counts[0] == 1  # [-2w,-w) bin of phase 0
    assert counts[2] == 1  # [0,w) bin of phase 0
    assert counts[cfg.n_bins] == 1  # phase-0 overflow
    assert counts[stride + cfg.n_bins] == 1  # phase-pi/2 overflow

    # an edge belongs to the bin above it; -Q_SUPPORT opens bin 0, +Q_SUPPORT overflows
    edges = (np.full(4, np.pi / 2), np.array([-2.0 * w, -w, 0.0, 2.0 * w]))
    counts = bin_records(edges, cfg)
    assert counts.sum() == 4
    assert counts[stride + 0] == counts[stride + 1] == counts[stride + 2] == 1
    assert counts[stride + cfg.n_bins] == 1
    for q in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            bin_records((np.zeros(2), np.array([0.5, q])), cfg)


def test_bin_records_rejects_unknown_phase():
    # a record's phase is pi k / n_phases with 0 <= k < n_phases, to within 1e-12
    cfg = TomoConfig()
    for theta in (0.123, np.pi, np.nan):  # off the grid, k = n_phases, and NaN
        with pytest.raises(ValueError):
            bin_records((np.array([theta]), np.array([0.0])), cfg)
    for theta, k in ((5 * np.pi / 12 + 5e-13, 5), (-0.0, 0)):
        counts = bin_records((np.array([theta]), np.array([0.0])), cfg)
        assert counts.reshape(12, -1).sum(axis=1).tolist() == [float(j == k) for j in range(12)]


@pytest.mark.parametrize("bin_width", [0.1, 0.3, 0.7, 2.0])
def test_sampled_records_never_overflow(bin_width):
    # the sampler draws from +-Q_SUPPORT and the bins span it, even at a width
    # that does not divide it; the cat's marginal at theta = 0 peaks at +-9 and
    # reaches both edges
    records = sample_homodyne(cat(4.5, "even", 100), 1, 20_000, seed=FROZEN_SEED)
    assert records[1].min() < 0.5 - Q_SUPPORT and records[1].max() > Q_SUPPORT - 0.5
    counts = bin_records(records, TomoConfig(bin_width_snu=bin_width, n_phases=1))
    assert counts[-1] == 0


@pytest.mark.parametrize("eta", [1.0, 0.85])
def test_povm_completeness(eta):
    cfg = TomoConfig(dim_recon=8, eta_correction=eta, n_phases=4)
    povm = build_povm(cfg)
    assert povm.shape == (4 * (cfg.n_bins + 1), 8, 8)
    assert np.allclose(povm.sum(axis=0), np.eye(8), atol=1e-12)


def test_povm_probabilities_match_marginal_integral():
    # without correction, bin probabilities equal integrals of the marginal
    cfg = TomoConfig(dim_recon=10, bin_width_snu=0.5, n_phases=3)
    povm = build_povm(cfg)
    state = cat(0.7, "odd", 10)
    rho = density(state).mat
    probs = np.einsum("jab,ba->j", povm, rho).real
    stride = cfg.n_bins + 1
    edges = -Q_SUPPORT + cfg.bin_width_snu * np.arange(cfg.n_bins + 1)
    for k in range(cfg.n_phases):
        theta = k * np.pi / cfg.n_phases
        for b in range(0, cfg.n_bins, 17):
            qs = np.linspace(edges[b], edges[b + 1], 201)
            want = np.trapezoid(marginal_pdf(state, theta, qs), qs) / cfg.n_phases
            assert np.isclose(probs[k * stride + b], want, atol=1e-7)


@pytest.mark.parametrize("dim", [8, 12])
def test_povm_duality_with_loss_channel(dim):
    # Tr[Pi_corrected rho] = Tr[Pi loss(rho)] for every element
    cfg0 = TomoConfig(dim_recon=dim, bin_width_snu=1.0, n_phases=3)
    cfg = TomoConfig(dim_recon=dim, bin_width_snu=1.0, n_phases=3, eta_correction=0.85)
    rho = random_density(dim, seed=5)
    lossy = loss_channel(MixedState(rho), 0.85).mat
    p_corr = np.einsum("jab,ba->j", build_povm(cfg), rho).real
    p_plain = np.einsum("jab,ba->j", build_povm(cfg0), lossy).real
    assert np.allclose(p_corr, p_plain, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(2, 8), data=st.data())
def test_equally_spaced_phases_determine_rho_from_dim_phases_on(dim, data):
    # the rank of the real linear map from the dim^2 coordinates of a Hermitian rho
    # to the bin probabilities: dim^2 - (dim - k)^2 for k < dim phases, full from
    # k = dim on, the bound the tomo command refuses below (Leonhardt et al. 1996)
    n_phases = data.draw(st.integers(1, dim + 1))
    factors = _povm_factors(TomoConfig(dim_recon=dim, n_phases=n_phases, bin_width_snu=0.1))
    basis = []
    for m in range(dim):
        for n in range(m, dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[m, n] = e[n, m] = 1
            basis.append(e)
            if m < n:
                f = np.zeros((dim, dim), dtype=complex)
                f[m, n], f[n, m] = -1j, 1j
                basis.append(f)
    linear_map = np.array([_probabilities(h, *factors) for h in basis]).T
    # kept singular values are at least 1.9e-2 here, dropped ones at most 1.1e-15
    rank = np.linalg.matrix_rank(linear_map, tol=1e-8)
    assert rank == dim**2 - max(dim - n_phases, 0) ** 2


def test_round_trip_cat_reconstruction():
    truth = cat(0.7, "odd", 30)
    records = sample_homodyne(truth, 12, 50_000, eta=1.0, seed=FROZEN_SEED)
    cfg = TomoConfig()
    result = mle_reconstruct(records, cfg)
    assert result.converged
    f = fidelity_to_truth(result.state, truth)
    assert f >= 0.995


def test_loss_correction_improves_fidelity():
    truth = cat(0.7, "odd", 30)
    records = sample_homodyne(truth, 12, 50_000, eta=0.85, seed=FROZEN_SEED)
    plain = mle_reconstruct(records, TomoConfig())
    corrected = mle_reconstruct(records, TomoConfig(eta_correction=0.85))
    f_plain = fidelity_to_truth(plain.state, truth)
    f_corr = fidelity_to_truth(corrected.state, truth)
    assert f_corr > f_plain
    assert f_corr >= 0.98


def test_truth_beats_random_challengers():
    truth = cat(0.7, "even", 12)
    records = sample_homodyne(truth, 12, 20_000, seed=FROZEN_SEED)
    cfg = TomoConfig()
    ll_truth = log_likelihood(truth, records, cfg)
    for seed in range(10):
        challenger = MixedState(random_density(12, seed))
        assert log_likelihood(challenger, records, cfg) < ll_truth


def test_log_likelihood_minus_inf_sentinel():
    # a populated bin with zero probability under the state
    cfg = TomoConfig(dim_recon=2, n_phases=1, bin_width_snu=2 * Q_SUPPORT)
    records = (np.array([0.0]), np.array([5 * Q_SUPPORT]))  # lands in overflow only
    ll = log_likelihood(basis_state(0, 2), records, cfg)
    assert ll == -np.inf


def test_log_likelihood_dimension_check():
    cfg = TomoConfig(dim_recon=12)
    records = (np.array([0.0]), np.array([0.5]))
    with pytest.raises(ValueError):
        log_likelihood(basis_state(0, 5), records, cfg)


def test_bin_width_insensitivity():
    # coarser bins cost a little information but not the reconstruction
    truth = cat(0.7, "odd", 30)
    records = sample_homodyne(truth, 12, 30_000, seed=FROZEN_SEED)
    f1 = fidelity_to_truth(
        mle_reconstruct(records, TomoConfig(bin_width_snu=0.05)).state, truth
    )
    f2 = fidelity_to_truth(
        mle_reconstruct(records, TomoConfig(bin_width_snu=0.2)).state, truth
    )
    assert f1 >= 0.99 and f2 >= 0.99
    assert abs(f1 - f2) <= 0.01


def test_non_converged_flag(monkeypatch):
    monkeypatch.setattr(tomography, "MAX_ITERS", 3)
    records = sample_homodyne(cat(0.7, "odd", 20), 12, 2_000, seed=1)
    result = mle_reconstruct(records, TomoConfig())
    assert not result.converged
    assert result.iterations == 3


def test_reconstruct_rejects_degenerate_input():
    cfg = TomoConfig()
    with pytest.raises(ValueError):
        mle_reconstruct((np.array([]), np.array([])), cfg)
    with pytest.raises(ValueError):
        mle_reconstruct((np.zeros(2), np.full(2, 0.05)), cfg)


def test_reconstruction_output_is_physical():
    records = sample_homodyne(cat(0.7, "even", 20), 12, 5_000, seed=2)
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


def reference_povm(cfg):
    """The POVM built phase by phase, one lossy acceptance operator per
    phase, with no use of phase covariance."""
    dim, n_phases = cfg.dim_recon, cfg.n_phases
    edges = -Q_SUPPORT + cfg.bin_width_snu * np.arange(cfg.n_bins + 1)
    nodes, weights = gauss_legendre(edges[:-1], edges[1:], 3)
    elements = []
    for k in range(n_phases):
        theta = k * np.pi / n_phases
        bins = acceptance_operator(dim, nodes, weights / n_phases, theta, cfg.eta_correction)
        elements += [*bins, np.eye(dim) / n_phases - bins.sum(axis=0)]
    return np.array(elements)


def reference_mle(records, cfg):
    """RrhoR on the full stack of POVM elements, every iteration an einsum
    over the populated ones; returns (rho, iterations, converged)."""
    counts = bin_records(records, cfg)
    freqs = counts / counts.sum()
    active = freqs > 0
    pi_act = reference_povm(cfg)[active]
    f_act = freqs[active]
    rho = np.eye(cfg.dim_recon, dtype=complex) / cfg.dim_recon
    probs = np.einsum("jab,ba->j", pi_act, rho).real
    ll = _frequencies_ll(f_act, np.clip(probs, P_FLOOR, None))
    for iterations in range(1, MAX_ITERS + 1):
        r = np.einsum("j,jab->ab", f_act / np.clip(probs, P_FLOOR, None), pi_act)
        rho = r @ rho @ r
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
        probs = np.einsum("jab,ba->j", pi_act, rho).real
        new_ll = _frequencies_ll(f_act, np.clip(probs, P_FLOOR, None))
        assert new_ll >= ll - LL_SLACK * abs(ll)
        gain, ll = new_ll - ll, new_ll
        if gain < GAIN_TOL:
            return rho, iterations, True
    return rho, MAX_ITERS, False


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(2, 12),
    eta=st.floats(0.3, 1.0),
    bin_width=st.floats(0.05, 3.0),
    n_phases=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_phase_covariant_probabilities_match_full_povm(dim, eta, bin_width, n_phases, seed):
    cfg = TomoConfig(dim_recon=dim, eta_correction=eta, bin_width_snu=bin_width, n_phases=n_phases)
    rho = random_density(dim, seed)
    povm, factors = reference_povm(cfg), _povm_factors(cfg)
    want = np.einsum("jab,ba->j", povm, rho).real
    assert np.allclose(_probabilities(rho, *factors), want, rtol=0, atol=1e-13)
    assert np.allclose(build_povm(cfg).sum(axis=0), np.eye(dim), rtol=0, atol=1e-12)
    # the gradient operator R = sum_j w_j Pi_j, for weights of the size of f_j / p_j
    weights = np.random.default_rng(seed).uniform(0, 1, len(povm))
    want_r = np.einsum("j,jab->ab", weights, povm)
    assert np.allclose(_r_operator(weights, *factors), want_r, rtol=0, atol=1e-13)
    # the Newton steps' scaled Jacobian rows 2 w_j (Re, Im)(Pi_j T) on a subset of elements
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, dim + 1))
    t = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    active = np.flatnonzero(rng.random(len(povm)) < 0.7)
    want_j = 2 * weights[active, None] * (povm[active] @ t).reshape(len(active), -1).view(float)
    got_j = _fisher_rows(t, *factors, active, weights[active])
    assert np.allclose(got_j, want_j, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "kind, eta",
    [("cat_minus", 1.0), ("cat_minus", 0.85), ("coherent_minus", 1.0)],
    # coherent_minus at eta 1 has a plateau where a single step gains less
    # than tol well before the optimum; the cat_minus cases keep the ids they
    # had when eta was the only parameter
    ids=["1.0", "0.85", "coherent_minus-1.0"],
)
def test_mle_matches_full_povm_iteration(kind, eta):
    # RrhoR on the full POVM stack is the oracle: APG must reach at least its
    # likelihood at the same tol, and certify how far it is from the optimum
    truth = target_state(TargetSpec(kind=kind, alpha=0.7), 30)
    records = sample_homodyne(truth, 12, 50_000, eta=eta, seed=FROZEN_SEED)
    cfg = TomoConfig(eta_correction=eta)
    rho, _, ref_converged = reference_mle(records, cfg)
    result = mle_reconstruct(records, cfg)
    assert ref_converged and result.converged
    assert result.iterations < 50  # Newton steps end the run; APG alone took 80 to 219
    ll_ref = log_likelihood(MixedState(rho), records, cfg)
    assert result.log_likelihood >= ll_ref
    assert result.log_likelihood == pytest.approx(log_likelihood(result.state, records, cfg),
                                                  rel=0, abs=1e-12)
    assert -1e-12 <= result.optimality_gap <= GAP_TOL


def route_through_permuted_columns(monkeypatch, seed):
    """_probabilities and _r_operator over a fixed permutation of the bin columns:
    the same sums, added in another order."""
    probabilities, r_operator = tomography._probabilities, tomography._r_operator

    def permuted_probabilities(rho, bins, phases):
        perm = np.random.default_rng(seed).permutation(len(bins))
        out = np.empty((len(phases), len(bins)))
        out[:, perm] = probabilities(rho, bins[perm], phases).reshape(len(phases), -1)
        return out.ravel()

    def permuted_r_operator(weights, bins, phases):
        perm = np.random.default_rng(seed).permutation(len(bins))
        return r_operator(weights.reshape(len(phases), -1)[:, perm].ravel(), bins[perm], phases)

    monkeypatch.setattr(tomography, "_probabilities", permuted_probabilities)
    monkeypatch.setattr(tomography, "_r_operator", permuted_r_operator)


RHO_SPREAD = 1e-10  # largest |delta rho| allowed when only the summation order changes


@pytest.mark.parametrize("seed", [134, 138, 627625064])
def test_reconstruction_does_not_depend_on_bin_column_order(monkeypatch, seed):
    # sampling seeds where APG alone ended 5e-7 to 3e-5 apart: a last-bit difference
    # flipped a backtracking or restart decision, and LL is flat to about GAP_TOL there.
    # The Newton steps converge quadratically, so their end lies far closer to the optimum
    truth = cat(0.7, "odd", 30)
    cfg = TomoConfig(eta_correction=0.85)
    records = sample_homodyne(truth, cfg.n_phases, 50_000, eta=0.85, seed=seed)
    base = mle_reconstruct(records, cfg)
    for perm_seed in range(2):
        with monkeypatch.context() as patch:
            route_through_permuted_columns(patch, perm_seed)
            result = mle_reconstruct(records, cfg)
        assert base.converged and result.converged
        np.testing.assert_allclose(result.state.mat, base.state.mat, rtol=0, atol=RHO_SPREAD)


def test_polish_off_the_optimal_face_hands_back_to_apg(monkeypatch):
    # switched at a gap of 1e-3, APG's iterate has rank 2 and the optimum rank 3: the
    # Newton steps stall on the rank-2 face with the gap open, APG resumes from there
    # and grows the third eigenvalue, and a later polish certifies the optimum
    truth = cat(0.7, "odd", 30)
    cfg = TomoConfig(eta_correction=0.85)
    records = sample_homodyne(truth, cfg.n_phases, 50_000, eta=0.85, seed=6)
    reference = mle_reconstruct(records, cfg)
    ranks = []
    face_factor = tomography._face_factor

    def recording_face_factor(rho):
        t = face_factor(rho)
        ranks.append(t.shape[1])
        return t

    monkeypatch.setattr(tomography, "_face_factor", recording_face_factor)
    monkeypatch.setattr(tomography, "SWITCH_GAP", 1e-3)
    result = mle_reconstruct(records, cfg)
    optimum_rank = np.count_nonzero(np.linalg.eigvalsh(result.state.mat) > tomography.RANK_TOL)
    assert ranks[0] == 2 and optimum_rank == 3 and len(ranks) > 1
    assert result.converged and result.iterations < MAX_ITERS
    assert -1e-12 <= result.optimality_gap <= GAP_TOL
    # the same optimum as the polish that starts on the right face
    assert result.log_likelihood == pytest.approx(reference.log_likelihood, rel=0, abs=1e-12)


def test_polish_that_never_steps_leaves_the_apg_path_as_it_was(monkeypatch):
    # each stalled hand-over that did not move rho costs one iteration and nothing else:
    # APG goes on with its momentum, so it ends on the iterate APG alone ends on
    records = sample_homodyne(cat(0.7, "odd", 30), 12, 50_000, eta=0.85,
                              seed=FROZEN_SEED)
    cfg = TomoConfig(eta_correction=0.85)
    with monkeypatch.context() as patch:
        patch.setattr(tomography, "SWITCH_GAP", 0.0)  # never hands over
        apg = mle_reconstruct(records, cfg)

    def singular(*args):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(tomography, "_newton_direction", singular)
    stalled = mle_reconstruct(records, cfg)
    assert apg.converged and stalled.converged
    assert stalled.iterations > apg.iterations
    assert np.array_equal(stalled.state.mat, apg.state.mat)


def random_hermitian(dim, seed, scale):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e2), shift=st.floats(-10.0, 10.0))
def test_density_projection(dim, seed, scale, shift):
    # the MLE projects sigma + t R with entries below about 3, well inside this range
    h = random_hermitian(dim, seed, scale) + shift * np.eye(dim)
    p = _project_density(h)
    assert np.array_equal(p, p.conj().T)
    assert abs(np.trace(p).real - 1) <= 1e-12
    assert np.linalg.eigvalsh(p).min() >= -1e-12
    np.testing.assert_allclose(_project_density(p), p, rtol=0, atol=1e-12)  # idempotent
    # the nearest point: Re Tr[(H - P(H))(sigma - P(H))] <= 0 for every density matrix sigma
    for k in range(3):
        sigma = random_density(dim, seed + k)
        assert np.vdot(h - p, sigma - p).real <= 1e-12


def full_povm_gap(state, records, cfg):
    """lambda_max(R) - 1 with R = sum_j (f_j / p_j) Pi_j over populated bins of the full stack."""
    counts = bin_records(records, cfg)
    freqs = counts / counts.sum()
    active = freqs > 0
    povm = build_povm(cfg)[active]
    probs = np.einsum("jab,ba->j", povm, state.mat).real
    r = np.einsum("j,jab->ab", freqs[active] / np.clip(probs, P_FLOOR, None), povm)
    return np.linalg.eigvalsh(r)[-1] - 1


def single_phase_bin_records():
    """Records on three phases over the same central bins, plus one record in a
    fringe bin that only the last phase populates and one in the overflow
    element of the middle phase."""
    phases = np.arange(3) * np.pi / 3
    qs = np.linspace(-1.45, 1.45, 59)
    thetas = np.repeat(phases, qs.size)
    return (np.append(thetas, [phases[2], phases[1]]),
            np.append(np.tile(qs, 3), [2.33, 2 * Q_SUPPORT]))


@pytest.mark.parametrize("case", ["coherent_plus", "single_phase_bin"])
def test_mle_on_populated_columns_matches_full_povm(case):
    # the MLE drops bin columns that no phase populates; its likelihood and
    # gap must still be those of the full POVM stack
    if case == "coherent_plus":
        truth = target_state(TargetSpec(kind="coherent_plus", alpha=0.7), 30)
        records = sample_homodyne(truth, 12, 50_000, eta=0.85, seed=FROZEN_SEED)
        cfg = TomoConfig(eta_correction=0.85)
    else:
        records = single_phase_bin_records()
        # at dim_recon 6 the bins hold all of the support to rounding, which
        # leaves the overflow element no probability to give a record
        cfg = TomoConfig(dim_recon=12, n_phases=3, bin_width_snu=0.5)
    counts = bin_records(records, cfg).reshape(cfg.n_phases, -1)
    populated = counts.any(axis=0)
    assert 0 < populated.sum() < populated.size  # the fringes are empty in every phase
    if case == "single_phase_bin":
        assert np.count_nonzero(counts > 0, axis=0).tolist().count(1) == 2
    result = mle_reconstruct(records, cfg)
    assert result.converged
    full_ll = log_likelihood(result.state, records, cfg)
    assert result.log_likelihood == pytest.approx(full_ll, rel=1e-12, abs=0)
    assert result.optimality_gap == pytest.approx(full_povm_gap(result.state, records, cfg),
                                                  rel=0, abs=1e-10)


def test_mle_never_certifies_a_floored_probability():
    # at dim_recon 6 the overflow element gives the record at 2 * Q_SUPPORT no
    # probability under any state; P_FLOOR keeps the iteration finite, but
    # Tr R rho = 1 fails there, so the gap bounds nothing
    records = single_phase_bin_records()
    cfg = TomoConfig(dim_recon=6, n_phases=3, bin_width_snu=0.5)
    result = mle_reconstruct(records, cfg)
    assert not result.converged
    assert result.log_likelihood == log_likelihood(result.state, records, cfg) == -np.inf


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_records_keep_every_probability_above_the_floor(seed):
    # sampled records never reach the overflow element, so at the tomo command's
    # settings the floor never binds and a converged result keeps its likelihood
    truth = cat(0.7, "odd", 30)
    cfg = TomoConfig(eta_correction=0.85)
    records = sample_homodyne(truth, cfg.n_phases, 50_000, eta=0.85, seed=seed)
    result = mle_reconstruct(records, cfg)
    counts = bin_records(records, cfg)
    probs = _probabilities(result.state.mat, *_povm_factors(cfg))[counts > 0]
    assert result.converged and probs.min() > P_FLOOR
    assert result.log_likelihood == pytest.approx(
        _frequencies_ll(counts[counts > 0] / counts.sum(), probs), rel=1e-12, abs=0)
