import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catprep.channels import loss_channel
from catprep.fock import MixedState, PureState
from catprep.homodyne import (
    Conditioning,
    condition,
    marginal_pdf,
    quad_wavefunctions,
)
from catprep.rsp import TABLE1
from catprep.states import ResourceParams, cat, coherent, hybrid_entangled
from catprep.wigner import (
    CONVENTION_TAG,
    default_grid_axes,
    grid_metadata,
    wigner_grid,
    wigner_origin,
    write_grid_csv,
)
from oracles import basis_state, grid_integral, read_grid_csv, wigner_point, wigner_series_grid

INV_2PI = 1 / (2 * np.pi)
KERNEL_TOL = 1e-14  # the kernel's stated agreement with the Laguerre series


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def wigner_integral_oracle(amps, x, p):
    # W(x,p) = (1/4pi) Int dy e^{-ipy/2} psi(x + y/2) psi*(x - y/2)
    ys = np.arange(-24, 24, 1e-3)
    dim = amps.size
    psi_plus = amps @ quad_wavefunctions(dim, x + ys / 2)
    psi_minus = amps @ quad_wavefunctions(dim, x - ys / 2)
    integrand = np.exp(-1j * p * ys / 2) * psi_plus * np.conj(psi_minus)
    return np.real(np.trapezoid(integrand, ys)) / (4 * np.pi)


def test_vacuum_peak():
    assert np.isclose(wigner_point(basis_state(0, 10), 0.0, 0.0), INV_2PI, atol=1e-14)


def test_vacuum_is_gaussian():
    xs = np.linspace(-4, 4, 41)
    values = wigner_grid(basis_state(0, 10), xs, xs)
    expected = INV_2PI * np.exp(-(xs[None, :] ** 2 + xs[:, None] ** 2) / 2)
    assert np.allclose(values, expected, atol=1e-14)


def test_parity_identity_at_origin():
    for seed in range(100):
        rho = random_density(12, seed)
        expected = INV_2PI * np.sum((-1.0) ** np.arange(12) * np.diag(rho).real)
        assert np.isclose(wigner_point(MixedState(rho), 0.0, 0.0), expected, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_parity_identity_at_origin_for_random_states(dim, seed):
    rho = random_density(dim, seed)
    expected = INV_2PI * np.sum((-1.0) ** np.arange(dim) * np.diag(rho).real)
    assert np.isclose(wigner_point(MixedState(rho), 0.0, 0.0), expected, rtol=0, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), pure=st.booleans())
def test_origin_from_parity_matches_kernel(dim, seed, pure):
    rho = random_density(dim, seed)
    state = PureState(np.linalg.eigh(rho)[1][:, -1]) if pure else MixedState(rho)
    got = wigner_origin(state)
    assert np.isclose(got, wigner_point(state, 0.0, 0.0), rtol=0, atol=1e-15)
    assert np.isclose(got, wigner_grid(state, [0.0], [0.0])[0, 0], rtol=0, atol=1e-15)


def assert_grid_matches_points(rho, xs, ps):
    # the node spacing follows max|p| of the whole axis, so a grid and its points
    # differ in rounding; each must match the series to the kernel's tolerance
    values = wigner_grid(MixedState(rho), xs, ps)
    points = [[wigner_point(MixedState(rho), x, p) for x in xs] for p in ps]
    want = wigner_series_grid(rho, xs, ps)
    assert np.abs(values - want).max() <= KERNEL_TOL
    assert np.abs(np.array(points) - want).max() <= KERNEL_TOL


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(1, 14), seed=st.integers(0, 2**32 - 1),
       step=st.floats(0.05, 1.0), x_ends=st.tuples(st.integers(-6, 0), st.integers(0, 6)),
       p_ends=st.tuples(st.integers(-6, 0), st.integers(0, 6)))
def test_grid_equals_points_where_radii_repeat(dim, seed, step, x_ends, p_ends):
    # integer multiples of one step: -k*step == -(k*step), so mirrored and
    # swapped points share a radius, and the axes need not be symmetric
    xs = step * np.arange(x_ends[0], x_ends[1] + 1)
    ps = step * np.arange(p_ends[0], p_ends[1] + 1)
    s = xs[None, :] ** 2 + ps[:, None] ** 2
    assume(np.unique(s).size < s.size)
    assert_grid_matches_points(random_density(dim, seed), xs, ps)


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(1, 14), seed=st.integers(0, 2**32 - 1),
       xs=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=7, unique=True),
       ps=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=7, unique=True))
def test_grid_equals_points_where_no_radius_repeats(dim, seed, xs, ps):
    xs, ps = np.sort(xs), np.sort(ps)
    s = xs[None, :] ** 2 + ps[:, None] ** 2
    assume(np.unique(s).size == s.size)
    assert_grid_matches_points(random_density(dim, seed), xs, ps)


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       x=st.floats(-6.0, 6.0), p=st.floats(-6.0, 6.0))
def test_one_point_grid_equals_point(dim, seed, x, p):
    state = MixedState(random_density(dim, seed))
    got = wigner_point(state, x, p)
    assert wigner_grid(state, [x], [p])[0, 0] == got  # the same call, bit for bit
    assert abs(got - wigner_series_grid(state.mat, [x], [p])[0, 0]) <= KERNEL_TOL


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), pure=st.booleans(),
       xs=st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=9, unique=True),
       ps=st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=9, unique=True))
def test_grid_matches_series_within_node_rule(dim, seed, pure, xs, ps):
    # the node count follows from dim and max|p| alone; a rule with too few nodes
    # fails here first at small dim or at large |x| and |p|
    rho = random_density(dim, seed)
    if pure:
        v = np.linalg.eigh(rho)[1][:, -1]
        rho = np.outer(v, v.conj())
    got = wigner_grid(MixedState(rho), xs, ps)
    assert np.abs(got - wigner_series_grid(rho, xs, ps)).max() <= KERNEL_TOL


@pytest.mark.parametrize(
    "amps_state",
    [coherent(0.5j, 25), coherent(0.4 + 0.3j, 25), cat(0.7, "even", 25)],
    ids=["coh-imag", "coh-complex", "cat-even"],
)
def test_kernel_matches_integral_transform(amps_state):
    for x, p in [(0.0, 0.0), (0.7, -0.4), (-1.3, 0.9), (2.0, 1.5)]:
        got = wigner_point(amps_state, x, p)
        want = wigner_integral_oracle(amps_state.amps, x, p)
        assert np.isclose(got, want, atol=1e-9)


def test_coherent_peak_location():
    alpha = 0.6 + 0.45j
    x0, p0 = 2 * alpha.real, 2 * alpha.imag
    s = coherent(alpha, 30)
    assert np.isclose(wigner_point(s, x0, p0), INV_2PI, atol=1e-12)
    assert wigner_point(s, x0 + 0.5, p0) < INV_2PI
    xs = np.linspace(x0 - 5, x0 + 5, 101)
    ps = np.linspace(p0 - 5, p0 + 5, 101)
    values = wigner_grid(s, xs, ps)
    i, j = np.unravel_index(values.argmax(), values.shape)
    assert np.isclose(xs[j], x0, atol=0.1)
    assert np.isclose(ps[i], p0, atol=0.1)


def test_grid_integral_is_one():
    # grids centered on the state's phase-space mean
    cases = [
        (basis_state(0, 10), 0.0, 0.0),
        (basis_state(1, 10), 0.0, 0.0),
        (cat(0.7, "odd", 30), 0.0, 0.0),
        (coherent(0.8j, 30), 0.0, 1.6),
    ]
    for state, cx, cp in cases:
        xs = np.linspace(cx - 6, cx + 6, 241)
        ps = np.linspace(cp - 6, cp + 6, 241)
        assert np.isclose(grid_integral(xs, ps, wigner_grid(state, xs, ps)), 1.0, atol=1e-6)


def test_marginal_consistency():
    # integrating W over p recovers the theta = 0 homodyne density
    state = cat(0.7, "odd", 30)
    xs = np.linspace(-6, 6, 121)
    ps = np.linspace(-8, 8, 641)
    proj = np.trapezoid(wigner_grid(state, xs, ps), ps, axis=0)
    assert np.allclose(proj, marginal_pdf(state, 0.0, xs), atol=1e-6)


def test_rotated_marginal_consistency():
    # Radon transform at angle theta: integrate W along the orthogonal axis.
    # With <q_theta|n> = e^{i n theta} psi_n, the q_theta axis in the (x, p)
    # plane points along (cos theta, -sin theta).
    state = coherent(0.5 + 0.3j, 20)
    theta = 0.7
    qs = np.linspace(-3, 3, 9)
    ts = np.linspace(-7, 7, 281)
    vals = np.empty_like(qs)
    for k, q in enumerate(qs):
        x = q * np.cos(theta) + ts * np.sin(theta)
        p = -q * np.sin(theta) + ts * np.cos(theta)
        w = np.array([wigner_point(state, xi, pi) for xi, pi in zip(x, p)])
        vals[k] = np.trapezoid(w, ts)
    assert np.allclose(vals, marginal_pdf(state, theta, qs), atol=1e-6)


def test_linearity_in_the_density_matrix():
    rho1 = random_density(10, seed=3)
    rho2 = random_density(10, seed=4)
    mix = MixedState(0.3 * rho1 + 0.7 * rho2)
    pts = [(0.0, 0.0), (1.1, -0.6), (-2.0, 0.4)]
    for x, p in pts:
        w1 = wigner_point(MixedState(rho1), x, p)
        w2 = wigner_point(MixedState(rho2), x, p)
        assert np.isclose(wigner_point(mix, x, p), 0.3 * w1 + 0.7 * w2, atol=1e-12)


def test_single_photon_negativity():
    values = wigner_grid(basis_state(1, 10), *default_grid_axes())
    assert np.isclose(values.min(), -INV_2PI, atol=1e-6)
    assert np.isclose(wigner_point(basis_state(1, 10), 0.0, 0.0), -INV_2PI, atol=1e-14)


def test_vacuum_never_negative():
    values = wigner_grid(basis_state(0, 10), *default_grid_axes())
    assert values.min() > -1e-15


def test_odd_cat_origin_value():
    # odd photon-number support makes W(0,0) = -1/(2 pi) exactly
    s = cat(0.7, "odd", 30)
    assert np.isclose(wigner_point(s, 0.0, 0.0), -INV_2PI, atol=1e-12)


def test_half_loss_erases_negativity():
    lossy = loss_channel(basis_state(1, 12), 0.5)
    values = wigner_grid(lossy, *default_grid_axes())
    assert values.min() > -1e-9


def _table1_state(row, eta_a):
    spec = TABLE1[row - 1]
    resource = hybrid_entangled(ResourceParams(), dim_b=30)
    c = Conditioning(spec.theta_rad, spec.q_center, 0.2, eta_a, spec.tail)
    return condition(resource, c).rho


def wigner_series_oracle(mp, rho, x, p):
    # the kernel series summed term by term at 60 digits:
    # W = e^{-s/2}/(2 pi) sum_{m>=n} c Re[rho_mn (-1)^n sqrt(n!/m!) z^(m-n) L_n^(m-n)(s)],
    # s = x^2 + p^2, z = x - ip, c = 1 on the diagonal and 2 off it
    with mp.workdps(60):
        x, p = mp.mpf(x), mp.mpf(p)
        s, z = x**2 + p**2, mp.mpc(x, -p)
        total = mp.mpf(0)
        for m in range(rho.shape[0]):
            for n in range(m + 1):
                k = (-1) ** n * mp.sqrt(mp.factorial(n) / mp.factorial(m)) * z ** (m - n)
                term = (mp.mpc(rho[m, n].real, rho[m, n].imag) * k * mp.laguerre(n, m - n, s)).real
                total += term if m == n else 2 * term
        return float(mp.exp(-s / 2) * total / (2 * mp.pi))


@pytest.mark.parametrize(
    "row, eta_a, x, p",
    [(2, 1.0, -3.95, 0.0), (2, 1.0, 5.75, 0.0), (2, 1.0, 4.0, 4.0),
     (3, 1.0, -3.95, 0.0), (3, 1.0, 5.75, 0.0), (3, 1.0, 4.0, 4.0),
     (1, 0.8, 0.0, -5.25)],
)
def test_wigner_point_matches_high_precision_series(row, eta_a, x, p):
    # far from the origin the Laguerre factors are large, so every matrix
    # element counts, however small
    mp = pytest.importorskip("mpmath")
    state = _table1_state(row, eta_a)
    expected = wigner_series_oracle(mp, state.mat, x, p)
    assert abs(wigner_point(state, x, p) - expected) <= 1e-12


def test_default_grid_axes_shape():
    xs, ps = default_grid_axes()
    assert xs[0] == -6.0 and xs[-1] == 6.0
    assert np.isclose(xs[1] - xs[0], 0.05)
    assert xs.size == ps.size == 241


def test_default_grid_axes_refuses_a_step_that_does_not_divide():
    assert 0.3 / 0.1 != 3  # rounding slack, which is forgiven
    assert np.allclose(default_grid_axes(0.0, 0.3, 0.1)[0], [0.0, 0.1, 0.2, 0.3])
    for lo, hi, step in ((-1.0, 1.0, 0.3), (-1.0, 1.0, 3.0), (1.0, -1.0, 0.1), (-1.0, 1.0, 0.0),
                         (-1.0, 1.0, np.nan)):
        with pytest.raises(ValueError):
            default_grid_axes(lo, hi, step)


def test_grid_csv_round_trip(tmp_path):
    xs, ps = np.linspace(-3, 3, 31), np.linspace(-2, 2, 21)
    values = wigner_grid(cat(0.7, "even", 25), xs, ps)
    path = tmp_path / "w.csv"
    write_grid_csv(xs, ps, values, path)
    back_xs, back_ps, back_values = read_grid_csv(path)
    assert np.array_equal(back_xs, xs)
    assert np.array_equal(back_ps, ps)
    assert np.array_equal(back_values, values)


def test_grid_metadata_fields():
    meta = grid_metadata(np.linspace(-1, 1, 11), np.linspace(-2, 2, 21), 8, "vacuum")
    assert meta["convention"] == CONVENTION_TAG
    assert meta["dim"] == 8
    assert meta["state"] == "vacuum"
    assert meta["x_min_snu"] == -1.0 and meta["x_max_snu"] == 1.0
    assert meta["p_min_snu"] == -2.0 and meta["p_max_snu"] == 2.0
    assert meta["n_x"] == 11 and meta["n_p"] == 21
