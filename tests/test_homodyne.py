import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e
from scipy.stats import norm

from catprep.channels import loss_channel
from catprep.fock import EIG_TOL, MixedState, fidelity
from catprep.homodyne import (
    PDF_BLOCK,
    Q_SUPPORT,
    WINDOW_MAX,
    WINDOW_NODES,
    Conditioning,
    acceptance_operator,
    condition,
    conditioning_operator,
    gauss_legendre,
    marginal_pdf,
    quad_wavefunctions,
)
from catprep.states import ResourceParams, cat, coherent, cv_pair, hybrid_entangled, squeezed_vacuum
from catprep.tomography import CDF_STEP, _phases
from oracles import basis_state, closed_form_state, loss_on_mode_a, partial_trace, quad_overlaps


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_ground_wavefunction_value():
    psi = quad_wavefunctions(1, 0.0)
    assert np.isclose(psi[0, 0], (2 * np.pi) ** (-0.25))
    assert np.isclose(psi[0, 0], 0.6316187363, atol=1e-9)


def test_recursion_matches_hermite_polynomials():
    # psi_n(q) = He_n(q) psi_0(q) / sqrt(n!) with probabilists' polynomials
    qs = np.linspace(-4, 4, 17)
    psi = quad_wavefunctions(7, qs)
    fact = 1.0
    for n in range(7):
        if n > 0:
            fact *= n
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        expected = hermite_e.hermeval(qs, coeffs) * psi[0] / np.sqrt(fact)
        assert np.allclose(psi[n], expected, atol=1e-12)


def test_wavefunction_orthonormality():
    # range must cover the classical turning point of the highest state
    qs = np.arange(-15, 15, 1e-3)
    psi = quad_wavefunctions(25, qs)
    gram = psi @ psi.T * 1e-3
    assert np.allclose(gram, np.eye(25), atol=1e-10)


def test_overlaps_carry_phase():
    o = quad_overlaps(5, 0.8, 0.6)
    psi = quad_wavefunctions(5, 0.8)[:, 0]
    assert np.allclose(o, np.exp(1j * 0.6 * np.arange(5)) * psi)


def test_marginal_vacuum_is_standard_normal():
    qs = np.linspace(-5, 5, 101)
    for theta in (0.0, 0.7, np.pi / 2):
        pdf = marginal_pdf(basis_state(0, 10), theta, qs)
        assert np.allclose(pdf, norm.pdf(qs), atol=1e-12)


def test_marginal_single_photon():
    qs = np.linspace(-5, 5, 101)
    pdf = marginal_pdf(basis_state(1, 10), 0.3, qs)
    assert np.allclose(pdf, qs**2 * norm.pdf(qs), atol=1e-12)


def test_marginal_coherent_mean_tracks_phase():
    # phase convention <q_theta|n> = e^{i n theta} psi_n gives mean 2 Re(alpha e^{i theta})
    alpha = 0.5 + 0.4j
    qs = np.linspace(-6, 6, 2401)
    for theta in (0.0, 0.9, 2.1):
        pdf = marginal_pdf(coherent(alpha, 30), theta, qs)
        mean = 2 * np.real(alpha * np.exp(1j * theta))
        assert np.allclose(pdf, norm.pdf(qs, loc=mean), atol=1e-10)


def test_marginal_squeezed_vacuum_variances():
    sv = squeezed_vacuum(3.0, 60)
    qs = np.linspace(-8, 8, 3201)
    var_p = np.trapezoid(qs**2 * marginal_pdf(sv, np.pi / 2, qs), qs)
    var_x = np.trapezoid(qs**2 * marginal_pdf(sv, 0.0, qs), qs)
    assert np.isclose(var_p, 10 ** (-0.3), atol=1e-6)
    assert np.isclose(var_x, 10 ** (0.3), atol=1e-4)


def test_marginal_normalized_for_random_states():
    qs = np.arange(-10, 10, 1e-3)
    for seed in range(4):
        rho = MixedState(random_density(12, seed=seed))
        for theta in (0.0, 1.1):
            pdf = marginal_pdf(rho, theta, qs)
            assert pdf.min() > -1e-12
            assert np.isclose(np.trapezoid(pdf, qs), 1.0, atol=1e-8)


def marginal_pdf_per_phase(rho, thetas, qs):
    """<q_theta| rho |q_theta> one phase at a time, all of q in one product."""
    dim = rho.shape[0]
    psi = quad_wavefunctions(dim, qs)
    rows = []
    for t in thetas:
        phase = np.exp(1j * t * np.arange(dim))
        m = (phase[:, None] * rho * phase.conj()[None, :]).real
        rows.append(np.sum(psi * (m @ psi), axis=0))
    return np.array(rows)


@pytest.mark.parametrize("block", [None, 7, 100])
def test_stacked_marginals_match_the_per_phase_loop(monkeypatch, block):
    # the stacked product over blocks of q is the same sums, so only rounding may differ;
    # blocks of 7 and 100 elements cut q into one or more columns per product
    if block is not None:
        monkeypatch.setattr("catprep.homodyne.PDF_BLOCK", block)
    rho = MixedState(random_density(9, seed=3))
    thetas = np.array([0.0, 0.4, 2.0, -1.1, np.pi])
    qs = np.linspace(-6, 6, 301)
    want = marginal_pdf_per_phase(rho.mat, thetas, qs)
    np.testing.assert_allclose(marginal_pdf(rho, thetas, qs), want, rtol=0, atol=1e-15)
    np.testing.assert_allclose(marginal_pdf(rho, 0.4, qs), want[1], rtol=0, atol=1e-15)
    assert marginal_pdf(rho, 0.4, 0.3).shape == (1,)
    assert marginal_pdf(rho, np.array([]), qs).shape == (0, qs.size)


@settings(max_examples=60, deadline=None)
@given(
    dim_rank=st.integers(2, 14).flatmap(lambda dim: st.tuples(st.just(dim), st.integers(1, dim))),
    seed=st.integers(0, 2**32 - 1),
    theta=st.one_of(st.floats(-7.0, 7.0),
                    st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=5).map(np.array)),
    block=st.sampled_from([1, 7, 100, PDF_BLOCK]),
)
@example(dim_rank=(14, 14), seed=0, theta=np.array([0.0, -1.1, 4.0]), block=PDF_BLOCK)
@example(dim_rank=(2, 1), seed=1, theta=-2.5, block=1)
def test_marginals_match_the_per_phase_loop_at_every_rank(dim_rank, seed, theta, block):
    # rho = A A^H of every rank from 1 to dim: the factored form keeps Re(rho_theta)'s
    # numerical rank, so only rounding may differ, at the tolerance of the stacked test
    dim, rank = dim_rank
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    qs = np.linspace(-7, 7, 201)
    want = marginal_pdf_per_phase(rho, np.atleast_1d(theta), qs)
    with mock.patch("catprep.homodyne.PDF_BLOCK", block):
        got = marginal_pdf(MixedState(rho), theta, qs)
    np.testing.assert_allclose(got, want[0] if np.ndim(theta) == 0 else want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("truth, eta", [
    (cat(0.7, "odd", 30), 0.85),
    pytest.param(coherent(3.159, 40), 0.5, marks=pytest.mark.xfail(
        reason="1.2e-15 from the loop: the largest alpha dim 40 admits, near its truncation edge")),
], ids=["cat_minus", "coherent_plus"])
def test_sampler_marginals_match_the_per_phase_loop(truth, eta):
    # the sampler's own call: its phases and CDF grid, on the lossy truth it draws from
    rho = loss_channel(truth, eta)
    thetas = _phases(12)
    qgrid = np.arange(-Q_SUPPORT, Q_SUPPORT + CDF_STEP / 2, CDF_STEP)
    want = marginal_pdf_per_phase(rho.mat, thetas, qgrid)
    np.testing.assert_allclose(marginal_pdf(rho, thetas, qgrid), want, rtol=0, atol=1e-15)


def test_conditioning_validation():
    with pytest.raises(ValueError):
        Conditioning(delta_snu=-0.1)
    with pytest.raises(ValueError):
        Conditioning(eta_a=1.3)
    Conditioning(delta_snu=WINDOW_MAX)
    for delta in (np.nextafter(WINDOW_MAX, np.inf), 40.0, -0.1, np.nan):
        with pytest.raises(ValueError):
            Conditioning(delta_snu=delta)
        with pytest.raises(ValueError):
            conditioning_operator(2, 0.0, 0.0, [0.0, 0.2, delta])
    for q_center in (12.0, -1.0, np.nan):  # off-POVM or NaN operators if unchecked
        with pytest.raises(ValueError, match="a tail needs"):
            conditioning_operator(4, 0.0, q_center, tail=True)


def _window_error(dim, q_center, delta, window):
    """Largest entry of window's difference from the operator of a 400-node rule,
    which integrates these Gaussian-times-polynomial integrands to rounding."""
    nodes, weights = gauss_legendre(-delta / 2, delta / 2, 400)
    return np.abs(window - acceptance_operator(dim, nodes + q_center, weights, 0.0)).max()


@pytest.mark.parametrize("dim", [2, 3])  # the heralding mode holds at most two photons
@pytest.mark.parametrize("q_center", [0.0, 3.0])
def test_window_rule_is_exact_up_to_the_width_bound(dim, q_center):
    window = conditioning_operator(dim, 0.0, q_center, WINDOW_MAX)
    assert _window_error(dim, q_center, WINDOW_MAX, window) <= 1e-13
    # wider, the same rule drifts: by 1e-11 to 5e-9 at 10 snu, and by 0.7 at 40
    nodes, weights = gauss_legendre(-5.0, 5.0, WINDOW_NODES)
    window = acceptance_operator(dim, nodes + q_center, weights, 0.0)
    assert _window_error(dim, q_center, 10.0, window) > 1e-12


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([2, 3, 6]),
    theta=st.floats(0.0, 2 * np.pi),
    q=st.floats(-4.0, 4.0),
    eta=st.floats(0.0, 1.0),
    qs=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=5),
    etas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    deltas=st.lists(st.one_of(st.just(0.0), st.floats(0.0, WINDOW_MAX)), min_size=1, max_size=5),
)
@example(dim=2, theta=0.0, q=0.0, eta=1.0, qs=[-0.0, 0.0], etas=[0.0, 1.0], deltas=[0.0, 0.2, 0.0])
def test_broadcast_conditioning_operator_equals_scalar_calls(dim, theta, q, eta, qs, etas,
                                                             deltas):
    # a grid of points, of losses, or of widths that mixes zero with windows gives
    # exactly the operators of one call per point
    def each(grid, make):
        return np.stack([make(value) for value in grid])

    points = conditioning_operator(dim, theta, qs, eta=eta)
    losses = conditioning_operator(dim, theta, q, eta=etas)
    widths = conditioning_operator(dim, theta, q, deltas, eta)
    assert np.array_equal(points,
                          each(qs, lambda v: conditioning_operator(dim, theta, v, eta=eta)))
    assert np.array_equal(losses,
                          each(etas, lambda v: conditioning_operator(dim, theta, q, eta=v)))
    assert np.array_equal(widths,
                          each(deltas, lambda v: conditioning_operator(dim, theta, q, v, eta)))
    # every operator, a tail's too, is PSD by construction (non-negative weights on
    # rank-one projectors through the completely positive loss adjoint), which is
    # what lets the scans herald without checking a state
    tail = conditioning_operator(dim, theta, abs(q), eta=eta, tail=True)
    ops = np.concatenate([points, losses, widths, tail[None]])
    assert np.linalg.eigvalsh(ops).min() >= -EIG_TOL


def _check_acceptance_oracle(q_center, delta, eta, w, tail):
    # Alice's reduced state is (1 - w eta)|0><0| + w eta |1><1| and
    # |psi_1(q)|^2 = q^2 |psi_0(q)|^2, so the probability of a window or of
    # the tail |q| >= q_center follows from normal-distribution integrals
    # (the tail's mass beyond Q_SUPPORT is below 1e-20)
    res = hybrid_entangled(ResourceParams(weight_dv=w), dim_b=40)
    prep = condition(res, Conditioning(q_center_snu=q_center, delta_snu=delta, eta_a=eta,
                                       tail=tail))
    if tail:
        i0 = 2 * norm.cdf(-q_center)
        i2 = i0 + 2 * q_center * norm.pdf(q_center)
    else:
        a, b = q_center - delta / 2, q_center + delta / 2
        i0 = norm.cdf(b) - norm.cdf(a)
        i2 = i0 - (b * norm.pdf(b) - a * norm.pdf(a))
    expected = (1 - w * eta) * i0 + w * eta * i2
    assert np.isclose(prep.success_prob, expected, atol=1e-10 if tail else 1e-12)
    assert not prep.success_is_density


@pytest.mark.parametrize(
    "q_center,delta,eta",
    [(0.0, 0.2, 1.0), (0.0, 0.2, 0.7), (1.0, 0.4, 0.85), (-1.14, 0.2, 1.0)],
)
def test_window_success_matches_gaussian_oracle(q_center, delta, eta):
    _check_acceptance_oracle(q_center, delta, eta, 0.5, tail=False)


@settings(max_examples=30, deadline=None)
@given(
    q_center=st.floats(-3.0, 3.0),
    delta=st.floats(0.01, 1.0),
    eta=st.floats(0.0, 1.0),
    w=st.floats(0.0, 1.0),
    tail=st.booleans(),
)
@example(q_center=2.0, delta=0.2, eta=1.0, w=0.5, tail=True)
def test_acceptance_success_matches_gaussian_oracle(q_center, delta, eta, w, tail):
    _check_acceptance_oracle(abs(q_center) if tail else q_center, delta, eta, w, tail)


@settings(max_examples=30, deadline=None)
@given(
    theta=st.floats(0.0, 2 * np.pi),
    q_center=st.floats(-3.0, 3.0),
    delta=st.floats(0.01, 1.0),
    eta_a=st.floats(0.0, 1.0),
)
@example(theta=0.4, q_center=0.6, delta=0.3, eta_a=0.8)
def test_window_success_matches_marginal_integral(theta, q_center, delta, eta_a):
    # joint-picture success (loss folded into the operator) equals the window
    # integral of Alice's marginal after loss on her mode
    from scipy.special import roots_legendre

    res = hybrid_entangled(ResourceParams(weight_dv=0.35), dim_b=30)
    c = Conditioning(theta_rad=theta, q_center_snu=q_center, delta_snu=delta, eta_a=eta_a)
    prep = condition(res, c)
    ra = partial_trace(loss_on_mode_a(res, c.eta_a), keep="a")
    x, wts = roots_legendre(40)
    nodes = c.q_center_snu + (c.delta_snu / 2) * x
    integral = np.sum((c.delta_snu / 2) * wts * marginal_pdf(ra, c.theta_rad, nodes))
    assert np.isclose(prep.success_prob, integral, atol=1e-10)


def test_point_conditioning_reports_density():
    res = hybrid_entangled(ResourceParams(), dim_b=30)
    c = Conditioning(q_center_snu=0.3, delta_snu=0.0)
    prep = condition(res, c)
    assert prep.success_is_density
    ra = partial_trace(res, keep="a")
    assert np.isclose(prep.success_prob, marginal_pdf(ra, 0.0, 0.3)[0], atol=1e-12)


def test_condition_rejects_empty_window():
    res = hybrid_entangled(ResourceParams(), dim_b=30)
    with pytest.raises(ValueError):
        condition(res, Conditioning(q_center_snu=60.0, delta_snu=0.0))


def test_closed_form_limits():
    cvm, cvp = cv_pair(ResourceParams(model="ideal"), 30)
    assert fidelity(closed_form_state(0.0, 0.0, cvm, cvp), cvm) > 1 - 1e-12
    assert fidelity(closed_form_state(1e6, 0.0, cvm, cvp), cvp) > 1 - 1e-6


def test_point_conditioning_matches_closed_form():
    params = ResourceParams(model="ideal")
    res = hybrid_entangled(params, dim_b=30)
    cvm, cvp = cv_pair(params, 30)
    for q, theta in [(0.9, 0.0), (-1.7, np.pi / 4), (2.4, np.pi)]:
        prep = condition(res, Conditioning(theta_rad=theta, q_center_snu=q, delta_snu=0.0))
        assert fidelity(prep.rho, closed_form_state(q, theta, cvm, cvp)) > 1 - 1e-9


def test_phase_covariance_of_fidelity():
    params = ResourceParams()
    res = hybrid_entangled(params, dim_b=30)
    cvm, cvp = cv_pair(params, 30)
    q = 1.2
    vals = []
    for theta in (0.0, np.pi / 3, np.pi / 2, 4.0):
        prep = condition(res, Conditioning(theta_rad=theta, q_center_snu=q, delta_snu=0.0))
        vals.append(fidelity(prep.rho, closed_form_state(q, theta, cvm, cvp)))
    assert np.ptp(vals) < 1e-9


def test_sign_flip_equals_phase_shift():
    res = hybrid_entangled(ResourceParams(model="ideal"), dim_b=30)
    for q, theta in [(1.3, 0.0), (0.6, np.pi / 4)]:
        a = condition(res, Conditioning(theta_rad=theta, q_center_snu=-q, delta_snu=0.0)).rho
        b = condition(res, Conditioning(theta_rad=theta + np.pi, q_center_snu=q, delta_snu=0.0)).rho
        overlap = np.trace(a.mat @ b.mat).real  # both pure
        assert overlap > 1 - 1e-9


@functools.cache
def _resource(model, weight_dv):
    return hybrid_entangled(ResourceParams(model=model, weight_dv=weight_dv), dim_b=30)


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(["ideal", "experimental"]),
    weight_dv=st.sampled_from([0.35, 0.5]),
    theta=st.floats(0.0, 2 * np.pi),
    q=st.floats(-3.0, 3.0),
    delta=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
    eta_a=st.floats(0.0, 1.0),
)
@example(model="ideal", weight_dv=0.5, theta=0.0, q=1.3, delta=0.0, eta_a=1.0)
@example(model="experimental", weight_dv=0.5, theta=np.pi / 4, q=0.6, delta=0.2, eta_a=1.0)
@example(model="experimental", weight_dv=0.35, theta=2.0, q=-1.1, delta=0.3, eta_a=0.7)
def test_sign_flip_equals_phase_shift_everywhere(model, weight_dv, theta, q, delta, eta_a):
    # Table 1 rows 5 and 6 herald at -q: conditioning on -q at theta must equal
    # conditioning on q at theta + pi for points, windows and heralding loss
    res = _resource(model, weight_dv)
    a = condition(res, Conditioning(theta_rad=theta, q_center_snu=-q, delta_snu=delta,
                                    eta_a=eta_a))
    b = condition(res, Conditioning(theta_rad=theta + np.pi, q_center_snu=q, delta_snu=delta,
                                    eta_a=eta_a))
    assert np.max(np.abs(a.rho.mat - b.rho.mat)) <= 1e-12
    assert abs(a.success_prob - b.success_prob) <= 1e-12 * b.success_prob
    assert a.success_is_density == b.success_is_density


def test_loss_before_projection_degrades_fidelity():
    res = hybrid_entangled(ResourceParams(), dim_b=40)
    tgt = cat(0.7, "odd", 40)
    f_clean = fidelity(condition(res, Conditioning(q_center_snu=0.0, delta_snu=0.0)).rho, tgt)
    f_lossy = fidelity(
        condition(res, Conditioning(q_center_snu=0.0, delta_snu=0.0, eta_a=0.7)).rho, tgt
    )
    assert f_lossy < f_clean


def test_tail_conditioning_success_oracle():
    # frozen at dim 40 from the Gaussian oracle's tail example above
    res = hybrid_entangled(ResourceParams(weight_dv=0.5), dim_b=40)
    prep = condition(res, Conditioning(q_center_snu=2.0, tail=True))
    assert np.isclose(prep.success_prob, 0.1534821969227534, atol=1e-10)
    assert np.isclose(fidelity(prep.rho, cat(0.7, "even", 40)), 0.8422758830922087, atol=1e-8)


def test_tail_conditioning_validation():
    for q_min in (-1.0, Q_SUPPORT, 12.0, np.nan):
        with pytest.raises(ValueError):
            Conditioning(q_center_snu=q_min, tail=True)
    with pytest.raises(ValueError):
        Conditioning(q_center_snu=2.0, tail="false")  # a truthy string is not a flag
    Conditioning(q_center_snu=-1.0)  # a window may sit anywhere


def test_conditioned_state_is_physical():
    res = hybrid_entangled(ResourceParams(), dim_b=30)
    prep = condition(res, Conditioning(q_center_snu=0.8, delta_snu=0.25, eta_a=0.9))
    rho = prep.rho.mat
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert np.isclose(np.trace(rho).real, 1.0, atol=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-10


@pytest.mark.parametrize(
    "prepare",
    [
        lambda res, eta: condition(res, Conditioning(q_center_snu=0.5, delta_snu=0.2, eta_a=eta)),
        lambda res, eta: condition(res, Conditioning(q_center_snu=0.5, delta_snu=0.0, eta_a=eta)),
        lambda res, eta: condition(res, Conditioning(q_center_snu=2.0, eta_a=eta, tail=True)),
    ],
    ids=["window", "point", "tail"],
)
def test_loss_commutes_to_reduced_picture(prepare):
    # conditioning after loss on A equals conditioning the lossy joint state
    res = hybrid_entangled(ResourceParams(), dim_b=25)
    lossy = loss_on_mode_a(res, 0.6)
    direct = prepare(res, 0.6)
    explicit = prepare(lossy, 1.0)
    assert np.allclose(direct.rho.mat, explicit.rho.mat, atol=1e-12)
    assert np.isclose(direct.success_prob, explicit.success_prob, atol=1e-14)
