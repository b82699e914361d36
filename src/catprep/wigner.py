"""Wigner functions on phase-space grids.

Convention: x and p in shot-noise units (X = a + a†, vacuum variance 1),
normalized so the integral of W over the plane is 1. The vacuum peak is
then 1/(2 pi) and the value at the origin obeys the parity identity
W(0, 0) = Tr[rho (-1)^n] / (2 pi).
"""

from __future__ import annotations

import numpy as np

from .files import write_csv
from .fock import _as_density
from .homodyne import quad_wavefunctions

CONVENTION_TAG = "snu-x2-norm1"  # X = a + a†, integral of W = 1

GRID_MIN = -6.0
GRID_MAX = 6.0
GRID_STEP = 0.05  # the +-6 box misses 0.8e-4 to 4.3e-4 of the mass of the Table 1 states
STEP_SLACK = 1e-9  # relative rounding slack in a grid's step count
RADIUS_MARGIN = 7.0  # snu past the top Fock turning point; 6.5 is the least that holds 1e-14
X_BLOCK = 32  # x columns per quadrature pass, which bounds the kernel's memory


def default_grid_axes(lo: float = GRID_MIN, hi: float = GRID_MAX, step: float = GRID_STEP):
    """Equal x and p axes from lo to hi (min_snu, max_snu), step (step_snu) apart. The step
    must divide hi - lo; only rounding slack (STEP_SLACK of the step count) is forgiven."""
    if not (lo < hi and step > 0):  # written so that NaN fails
        raise ValueError("wigner axes need min_snu < max_snu and step_snu > 0")
    steps = (hi - lo) / step
    if not steps < np.iinfo(np.intp).max // 8:  # more bytes than an array can address
        raise ValueError(f"wigner step_snu {float(step)!r} makes {steps:.3g} steps across "
                         f"max_snu - min_snu = {float(hi - lo)!r}, more values than a "
                         "float64 array can hold")
    if not abs(steps - round(steps)) <= STEP_SLACK * steps:
        raise ValueError(f"wigner step_snu {float(step)!r} does not divide "
                         f"max_snu - min_snu = {float(hi - lo)!r}")
    try:
        axis = np.linspace(lo, hi, round(steps) + 1)
    except MemoryError as exc:  # a step count numpy cannot allocate
        raise ValueError(f"wigner step_snu {float(step)!r}: {exc}") from exc
    return axis, axis.copy()


def wigner_grid(state, xs, ps) -> np.ndarray:
    """W on the outer product of the axes xs and ps, values[i, j] = W(xs[j], ps[i]).

    W(x, p) = (1/2 pi) Int du e^{-ipu} g(x, u), g = psi(x + u)^T rho psi(x - u) for the
    quadrature wavefunctions psi, and g(x, -u) = conj g(x, u), so W is (1/pi) times the
    integral over u >= 0 of cos(pu) Re g + sin(pu) Im g: here a trapezoid sum on u_j = j h.
    By Poisson summation the whole-line rule returns the sum of W(x, p + 2 pi k / h) over
    integers k. W and psi of every state in dim are negligible past the radius R, the top
    Fock state's turning point sqrt(4 dim - 2) plus RADIUS_MARGIN, so nodes to u = R with
    2 pi / h = R + max|p| are exact to rounding for |p| <= R, and W is 0 outside the square
    |x|, |p| <= R. That is at most R^2 / pi + 2 nodes, whatever the axes. The values match
    the Laguerre series of Johansson, Nation, Nori (Comput. Phys. Commun. 184, 1234 (2013))
    to 1e-14.
    """
    rho = _as_density(state)
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    dim = rho.shape[0]
    radius = np.sqrt(4 * dim - 2) + RADIUS_MARGIN
    values = np.zeros((ps.size, xs.size))
    rows, cols = np.abs(ps) <= radius, np.flatnonzero(np.abs(xs) <= radius)
    h = 2 * np.pi / (radius + np.abs(ps[rows]).max(initial=0.0))
    u = h * np.arange(int(np.ceil(radius / h)) + 1)
    w = np.where(u > 0, h / np.pi, h / (2 * np.pi))  # trapezoid weights, times 1/pi
    pu = ps[rows, None] * u
    trig = np.hstack((w * np.cos(pu), w * np.sin(pu)))
    parts = np.vstack((rho.real, rho.imag))
    for start in range(0, cols.size, X_BLOCK):
        block = cols[start:start + X_BLOCK]
        x = xs[block]
        prod = (parts @ quad_wavefunctions(dim, (x - u[:, None]).ravel())).reshape(2, dim, -1)
        prod *= quad_wavefunctions(dim, (x + u[:, None]).ravel())
        values[np.ix_(rows, block)] = trig @ prod.sum(axis=1).reshape(2 * u.size, -1)  # Re, Im g
    return values


def wigner_origin(state) -> float:
    """W(0, 0) = Tr[rho (-1)^n] / (2 pi), the parity identity, summed in order of n."""
    diag = np.diagonal(_as_density(state)).real
    return float((1 / (2 * np.pi)) * np.cumsum(diag * (-1.0) ** np.arange(diag.size))[-1])


def write_grid_csv(xs, ps, values, path) -> None:
    """CSV matrix: two header rows carrying the axes, then W rows (one per p)."""
    xs, ps, values = (np.asarray(a, dtype=float) for a in (xs, ps, values))
    write_csv(path, ([[b"xs"]], xs[None]), ([[b"ps"]], ps[None]), (values,))


def grid_metadata(xs, ps, dim: int, descriptor: str) -> dict:
    return {
        "convention": CONVENTION_TAG,
        "dim": dim,
        "state": descriptor,
        "x_min_snu": float(xs[0]),
        "x_max_snu": float(xs[-1]),
        "p_min_snu": float(ps[0]),
        "p_max_snu": float(ps[-1]),
        "n_x": int(xs.size),
        "n_p": int(ps.size),
    }
