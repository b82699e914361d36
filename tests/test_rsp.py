import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catprep.fock import MixedState, TwoModeState, fidelity
from catprep.homodyne import Conditioning, condition
from catprep.rsp import (
    TABLE1,
    BlochCoords,
    Table1Row,
    TargetSpec,
    bloch_embed,
    fidelity_vs_delta,
    fidelity_vs_eta,
    fidelity_vs_q,
    heralded_rate,
    target_state,
)
from catprep.states import ResourceParams, cat, coherent, hybrid_entangled
from oracles import fit_power_law


def experimental_resource(dim_b=40):
    return hybrid_entangled(ResourceParams(), dim_b=dim_b)


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_target_state_kinds():
    dim = 30
    assert fidelity(target_state(TargetSpec("cat_plus"), dim), cat(0.7, "even", dim)) > 1 - 1e-12
    assert fidelity(target_state(TargetSpec("cat_minus"), dim), cat(0.7, "odd", dim)) > 1 - 1e-12
    assert (
        fidelity(target_state(TargetSpec("coherent_plus"), dim), coherent(0.7, dim)) > 1 - 1e-12
    )
    assert (
        fidelity(target_state(TargetSpec("coherent_minus"), dim), coherent(-0.7, dim)) > 1 - 1e-12
    )


@pytest.mark.parametrize("kind,sign", [("phase_cat_plus", 1), ("phase_cat_minus", -1)])
def test_phase_cat_targets(kind, sign):
    dim = 30
    amps = coherent(0.7, dim).amps + sign * 1j * coherent(-0.7, dim).amps
    amps = amps / np.linalg.norm(amps)
    got = target_state(TargetSpec(kind), dim)
    assert abs(np.vdot(amps, got.amps)) > 1 - 1e-12


def test_custom_target_requires_normalized_coefficients():
    spec = TargetSpec("custom", c_plus=0.6, c_minus=0.8j)
    s = target_state(spec, 30)
    want = 0.6 * cat(0.7, "even", 30).amps + 0.8j * cat(0.7, "odd", 30).amps
    assert abs(np.vdot(want, s.amps)) > 1 - 1e-12
    # a coefficient of exactly 1 is normalized: the even cat itself
    even = target_state(TargetSpec("custom", c_plus=1, c_minus=0), 30)
    assert np.array_equal(even.amps, cat(0.7, "even", 30).amps)
    with pytest.raises(ValueError):
        TargetSpec("custom", c_plus=0.9, c_minus=0.9)
    with pytest.raises(ValueError):
        TargetSpec("something_else")
    with pytest.raises(ValueError, match="alpha must be positive"):
        TargetSpec("cat_minus", alpha=0.0)
    # a part above 1 is refused before |c|^2 is formed, which overflows here
    for c_plus, c_minus in [(1e200, 0), (complex(1e308, 1e308), 0), (0, 1e200j)]:
        with pytest.raises(ValueError, match="c_plus = .* c_minus = .* must be normalized"):
            TargetSpec("custom", c_plus=c_plus, c_minus=c_minus)


def test_published_table_contents():
    assert len(TABLE1) == 6
    assert TABLE1[0].tail and not any(r.tail for r in TABLE1[1:])
    assert TABLE1[1].target.kind == "cat_minus"
    assert TABLE1[1].q_center == 0.0
    assert np.isclose(TABLE1[4].theta_rad, np.pi / 2)
    for r in TABLE1:
        assert 0 < r.published_fidelity <= 1


def test_point_fidelity_anchor_at_q_zero():
    # frozen: experimental balanced resource, dim_b = 40, point projection
    (cat_minus, cat_plus), = fidelity_vs_q(
        experimental_resource(), 0.0, [0.0],
        [TargetSpec("cat_minus"), TargetSpec("cat_plus")],
    )
    assert np.isclose(cat_minus, 0.9489727810938092, atol=1e-9)
    assert cat_plus < 0.05


def test_scan_row_layout():
    # F[i, k]: one row per q, one column per target in the order given
    res = experimental_resource(30)
    qs = [-1.0, 0.0, 1.0]
    fids = fidelity_vs_q(res, 0.0, qs, [TargetSpec("cat_minus"), TargetSpec("coherent_plus")])
    want = [[fidelity_vs_q(res, 0.0, [q], [TargetSpec(kind)])[0, 0]
             for kind in ("cat_minus", "coherent_plus")] for q in qs]
    assert fids.shape == (3, 2)
    assert np.allclose(fids, want, rtol=0, atol=1e-12)
    assert fidelity_vs_q(res, 0.0, [], [TargetSpec("cat_minus")]).shape == (0, 1)


def test_mirror_symmetry_between_coherent_targets():
    res = experimental_resource()
    qs = [0.4, 0.9, 1.4]
    plus = fidelity_vs_q(res, 0.0, qs, [TargetSpec("coherent_plus")])
    minus = fidelity_vs_q(res, 0.0, [-q for q in qs], [TargetSpec("coherent_minus")])
    for a, b in zip(plus[:, 0], minus[:, 0]):
        assert np.isclose(a, b, atol=1e-9)


def test_eta_scan_consistency_and_monotonicity():
    res = experimental_resource()
    target = TargetSpec("cat_minus")
    etas = [0.5, 0.7, 0.9, 1.0]
    fids = fidelity_vs_eta(res, 0.0, 0.0, etas, target)
    assert fids.shape == (len(etas),)
    assert np.all(np.diff(fids) > 0)
    point = fidelity_vs_q(res, 0.0, [0.0], [target])[0, 0]
    assert np.isclose(fids[-1], point, atol=1e-12)


def test_delta_scan_consistency():
    res = experimental_resource()
    target = TargetSpec("cat_minus")
    fids = fidelity_vs_delta(res, 0.0, 0.0, [0.0, 0.2, 0.4], target)
    point = fidelity_vs_q(res, 0.0, [0.0], [target])[0, 0]
    assert np.isclose(fids[0], point, atol=1e-12)
    assert fids[0] > fids[1] > fids[2]


SCAN_DIM_B = 16
SCAN_RESOURCES = {
    2: experimental_resource(SCAN_DIM_B),
    3: TwoModeState(random_density(3 * SCAN_DIM_B, 7), 3, SCAN_DIM_B),
}


@pytest.mark.parametrize("dim_a", [2, 3])
@settings(max_examples=25, deadline=None)
@given(
    theta=st.floats(0.0, 2 * np.pi, exclude_max=True),
    q=st.floats(-3.0, 3.0),
    eta=st.floats(0.3, 1.0),
    delta=st.floats(0.0, 0.5),
)
def test_scans_match_conditioned_states(dim_a, theta, q, eta, delta):
    # condition() builds each heralded state; the scans never do
    res = SCAN_RESOURCES[dim_a]
    specs = [TargetSpec("cat_minus"), TargetSpec("coherent_plus"), TargetSpec("phase_cat_plus")]

    def reference(c, spec):
        return fidelity(condition(res, c).rho, target_state(spec, SCAN_DIM_B))

    def check(fids, want):
        assert np.allclose(fids.ravel(), want, rtol=0, atol=1e-12)

    check(fidelity_vs_q(res, theta, [q, -q], specs),
          [reference(Conditioning(theta, x, 0.0), s) for x in (q, -q) for s in specs])
    for x in (q, -q):  # the lossy points
        for s in specs:
            check(fidelity_vs_eta(res, x, theta, [eta, 1.0], s),
                  [reference(Conditioning(theta, x, 0.0, e), s) for e in (eta, 1.0)])
    try:
        want = [reference(Conditioning(theta, q, d, 1.0), specs[2]) for d in (0.0, delta)]
    except ValueError:  # a window so narrow that its probability is not a normal double
        with pytest.raises(ValueError, match="zero probability"):
            fidelity_vs_delta(res, q, theta, [0.0, delta], specs[2])
        return
    check(fidelity_vs_delta(res, q, theta, [0.0, delta], specs[2]), want)


@pytest.mark.parametrize(
    "scan",
    [
        lambda res: fidelity_vs_q(res, 0.0, [0.0, 0.5], [TargetSpec("cat_minus")]),
        lambda res: fidelity_vs_eta(res, 0.5, 0.0, [0.8, 1.0], TargetSpec("cat_minus")),
        lambda res: fidelity_vs_delta(res, 0.5, 0.0, [0.0, 0.2], TargetSpec("cat_minus")),
    ],
    ids=["q", "eta", "delta"],
)
def test_scans_reject_non_psd_resource(scan):
    # Hermitian and unit trace, but every state it would herald is the non-PSD
    # sigma: TwoModeState refuses it when it is built, so no scan can see it
    sigma = np.diag([1.2, -0.2] + [0.0] * 8)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        scan(TwoModeState(np.kron(np.diag([1.0, 0.0]), sigma), 2, 10))


@pytest.mark.parametrize(
    "scan",
    [
        lambda res: fidelity_vs_q(res, 0.0, [0.0, np.nan], [TargetSpec("cat_minus")]),
        lambda res: fidelity_vs_eta(res, 0.5, 0.0, [np.nan, 1.0], TargetSpec("cat_minus")),
        lambda res: fidelity_vs_delta(res, 0.5, 0.0, [0.0, np.nan], TargetSpec("cat_minus")),
        lambda res: fidelity_vs_delta(res, 0.5, 0.0, [-0.1, 0.2], TargetSpec("cat_minus")),
        lambda res: fidelity_vs_delta(res, 0.5, 0.0, [0.2, 10.0], TargetSpec("cat_minus")),
    ],
    ids=["q", "eta", "delta", "delta_negative", "delta_past_window_max"],
)
def test_scans_reject_nan_settings(scan):
    with pytest.raises(ValueError):
        scan(experimental_resource(10))


def test_fit_power_law_recovers_exponent():
    deltas = np.linspace(0.05, 0.5, 10)
    drops = 0.08 * deltas**2
    c, p = fit_power_law(deltas, drops)
    assert np.isclose(c, 0.08, atol=1e-12)
    assert np.isclose(p, 2.0, atol=1e-12)


def test_fit_power_law_needs_two_points():
    with pytest.raises(ValueError):
        fit_power_law([0.1, 0.2], [0.01, -0.01])


def test_coherent_fidelity_peak_location():
    # independent dense scan: the experimental balanced resource reaches its
    # best coherent-state fidelity near q = 1.51, not at the published 1.14
    res = experimental_resource()
    qs = np.arange(1.30, 1.75, 0.002)
    fids = fidelity_vs_q(res, 0.0, qs, [TargetSpec("coherent_plus")])[:, 0]
    q_star = qs[fids.argmax()]
    assert np.isclose(q_star, 1.5146, atol=0.01)
    # interior maximum, not a grid-edge artifact
    assert 0 < fids.argmax() < qs.size - 1


def test_bloch_embed_poles():
    dim = 30
    top = bloch_embed(cat(0.7, "even", dim), 0.7)
    assert isinstance(top, BlochCoords)
    assert top.phi_polar_rad < 1e-3
    assert top.varphi_azimuth_rad == 0.0
    assert np.isclose(top.max_fidelity, 1.0, atol=1e-9)
    assert np.isclose(top.d, 1.0, atol=1e-9)
    assert np.isclose(top.subspace_weight, 1.0, atol=1e-9)
    bottom = bloch_embed(cat(0.7, "odd", dim), 0.7)
    assert np.isclose(bottom.phi_polar_rad, np.pi, atol=1e-3)
    assert bottom.varphi_azimuth_rad == 0.0


def test_bloch_embed_equator_azimuth():
    dim = 30
    for varphi0 in (0.5, 2.0, 4.5):
        amps = (
            cat(0.7, "even", dim).amps + np.exp(-1j * varphi0) * cat(0.7, "odd", dim).amps
        ) / np.sqrt(2)
        from catprep.fock import PureState

        coords = bloch_embed(PureState.from_amplitudes(amps), 0.7)
        assert np.isclose(coords.phi_polar_rad, np.pi / 2, atol=1e-3)
        assert np.isclose(coords.varphi_azimuth_rad, varphi0, atol=1e-3)
        assert np.isclose(coords.max_fidelity, 1.0, atol=1e-9)


def test_bloch_embed_matches_eigenvalue_oracle():
    # best family fidelity equals the top eigenvalue of the 2x2 overlap matrix
    dim = 15
    e0 = cat(0.7, "even", dim).amps
    e1 = cat(0.7, "odd", dim).amps
    basis = np.stack([e0, e1])
    for seed in range(25):
        rho = random_density(dim, seed)
        coords = bloch_embed(MixedState(rho), 0.7)
        m = basis.conj() @ rho @ basis.T
        lam = np.linalg.eigvalsh(m).max()
        assert np.isclose(coords.max_fidelity, lam, atol=1e-6)
        # the returned angles reach that fidelity within the family
        # cos(phi/2)|Cat+> + e^{-i varphi} sin(phi/2)|Cat->
        c, s = np.cos(coords.phi_polar_rad / 2), np.sin(coords.phi_polar_rad / 2)
        cross = (m[0, 1] * np.exp(-1j * coords.varphi_azimuth_rad)).real
        family = c**2 * m[0, 0].real + s**2 * m[1, 1].real + 2 * c * s * cross
        assert np.isclose(family, coords.max_fidelity, rtol=0, atol=1e-12)


def test_conditioned_azimuth_tracks_phase():
    res = experimental_resource()
    for theta in (0.3, 1.2, 2.5):
        prep = condition(res, Conditioning(theta_rad=theta, q_center_snu=1.0, delta_snu=0.0))
        coords = bloch_embed(prep.rho, 0.7)
        diff = (coords.varphi_azimuth_rad - theta + np.pi) % (2 * np.pi) - np.pi
        assert abs(diff) < 0.05


def test_heralded_rate():
    assert heralded_rate(0.0) == 0.0
    assert np.isclose(heralded_rate(0.05), 10_000.0)
    with pytest.raises(ValueError):
        heralded_rate(-0.01)


def table1_conditioning(row, delta=0.2):
    return Conditioning(row.theta_rad, row.q_center, delta, tail=row.tail)


def test_tail_is_not_a_density_and_ignores_delta():
    # a tail's success is a probability even at delta = 0, and its width
    # setting plays no part
    res = experimental_resource()
    tail = [condition(res, table1_conditioning(TABLE1[0], delta=d)) for d in (0.0, 0.2)]
    assert not any(p.success_is_density for p in tail)
    assert tail[0].success_prob == tail[1].success_prob
    assert np.array_equal(tail[0].rho.mat, tail[1].rho.mat)
    window = condition(res, table1_conditioning(TABLE1[1]))
    assert not window.success_is_density


def test_table1_fidelity_sanity():
    # the lossless simulation must at least reach the published experimental
    # fidelities (within a small slack for the tail row, where the published
    # number reflects a slightly larger effective cat)
    res = experimental_resource()
    for row in TABLE1:
        prep = condition(res, table1_conditioning(row))
        f = fidelity(prep.rho, target_state(row.target, res.dim_b))
        assert row.published_fidelity - 0.03 <= f <= 1.0
