"""Wigner functions on phase-space grids.

Convention: x and p in shot-noise units (X = a + a†, vacuum variance 1),
normalized so the integral of W over the plane is 1. The vacuum peak is
then 1/(2 pi) and the value at the origin obeys the parity identity
W(0, 0) = Tr[rho (-1)^n] / (2 pi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .files import write_csv
from .fock import _as_density

CONVENTION_TAG = "snu-x2-norm1"  # X = a + a†, integral of W = 1

GRID_MIN = -6.0
GRID_MAX = 6.0
GRID_STEP = 0.05  # the +-6 box misses 0.8e-4 to 4.3e-4 of the mass of the Table 1 states
STEP_SLACK = 1e-9  # relative rounding slack in a grid's step count


@dataclass
class WignerGrid:
    """Values W(x, p) on a rectangular grid; values[i, j] = W(xs[j], ps[i])."""

    xs: np.ndarray
    ps: np.ndarray
    values: np.ndarray

    def integral(self) -> float:
        inner = np.trapezoid(self.values, self.xs, axis=1)
        return float(np.trapezoid(inner, self.ps))


def default_grid_axes(lo: float = GRID_MIN, hi: float = GRID_MAX, step: float = GRID_STEP):
    """Equal x and p axes from lo to hi (min_snu, max_snu), step (step_snu) apart. The step
    must divide hi - lo; only rounding slack (STEP_SLACK of the step count) is forgiven."""
    if not (lo < hi and step > 0):  # written so that NaN fails
        raise ValueError("wigner axes need min_snu < max_snu and step_snu > 0")
    steps = (hi - lo) / step
    if not (steps < np.inf and abs(steps - round(steps)) <= STEP_SLACK * steps):
        raise ValueError(f"wigner step_snu {float(step)!r} does not divide "
                         f"max_snu - min_snu = {float(hi - lo)!r}")
    axis = np.linspace(lo, hi, round(steps) + 1)
    return axis, axis.copy()


def _wigner(rho: np.ndarray, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """W at the points (x, p): e^{-s/2}/(2 pi) Sum_mn rho_mn K_mn, s = x^2 + p^2.

    K_mn = (-1)^n sqrt(n!/m!) (x - ip)^{m-n} L_n^{m-n}(s) for m >= n,
    and K_nm = conj(K_mn). Derived from the integral form of W in this
    convention; validated against direct quadrature in the tests.
    Each diagonal d = m - n is summed by the three-term Laguerre recurrence in n
    on l_n = (-1)^n sqrt(n! d!/(n+d)!) L_n^d(s), which gives l_0 = 1 and
    sqrt((n+1)(n+d+1)) l_{n+1} = (s - 2n - 1 - d) l_n - sqrt(n(n+d)) l_{n-1},
    then weighted by z^d/sqrt(d!), z = x - ip (as in Johansson, Nation, Nori,
    Comput. Phys. Commun. 184, 1234 (2013)). The recurrence runs once per distinct s,
    and each diagonal's sum is gathered back to the points before the z^d factor.
    """
    dim = rho.shape[0]
    s = x**2 + p**2
    su, inv = np.unique(s, return_inverse=True)
    z = x - 1j * p
    total = np.zeros_like(s)
    zd = np.ones_like(z)  # z^d / sqrt(d!)
    for d in range(dim):
        if d:  # out of place, which numpy rounds the same for one point as for a grid
            zd = zd * z / np.sqrt(d)
        prev = np.zeros_like(su)
        cur = np.ones_like(su)
        diag = np.full(su.shape, rho[d, 0], dtype=complex)
        for n in range(dim - d - 1):
            prev *= -np.sqrt(n * (n + d))
            prev += (su - (2 * n + 1 + d)) * cur
            prev /= np.sqrt((n + 1) * (n + d + 1))
            prev, cur = cur, prev
            diag += rho[n + 1 + d, n + 1] * cur
        total += (1.0 if d == 0 else 2.0) * (zd * diag[inv]).real
    return (1 / (2 * np.pi)) * np.exp(-s / 2) * total


def wigner_point(state, x: float, p: float) -> float:
    """W(x, p) for a single phase-space point."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ps = np.atleast_1d(np.asarray(p, dtype=float))
    return float(_wigner(_as_density(state), xs, ps)[0])


def wigner_origin(state) -> float:
    """W(0, 0) = Tr[rho (-1)^n] / (2 pi), summed in order of n as _wigner sums
    it at s = 0, so it equals a grid's origin bit for bit."""
    diag = np.diagonal(_as_density(state)).real
    return float((1 / (2 * np.pi)) * np.cumsum(diag * (-1.0) ** np.arange(diag.size))[-1])


def wigner_grid(state, xs, ps) -> WignerGrid:
    """Evaluate W on the outer product of the axes xs and ps."""
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    xg, pg = np.meshgrid(xs, ps)
    return WignerGrid(xs, ps, _wigner(_as_density(state), xg.ravel(), pg.ravel()).reshape(pg.shape))


def negativity_min(grid: WignerGrid) -> float:
    return float(grid.values.min())


def write_grid_csv(grid: WignerGrid, path) -> None:
    """CSV matrix: two header rows carrying the axes, then W rows (one per p)."""
    xs, ps, values = (np.asarray(a, dtype=float) for a in (grid.xs, grid.ps, grid.values))
    n_p, n_x = values.shape
    head = "xs" + ",%.17g" * xs.size + "\r\nps" + ",%.17g" * ps.size + "\r\n"
    fields = xs.tolist() + ps.tolist() + values.ravel().tolist()
    write_csv(path, head, ",".join(["%.17g"] * n_x), n_p, fields)


def grid_metadata(grid: WignerGrid, dim: int, descriptor: str) -> dict:
    return {
        "convention": CONVENTION_TAG,
        "dim": dim,
        "state": descriptor,
        "x_min_snu": float(grid.xs[0]),
        "x_max_snu": float(grid.xs[-1]),
        "p_min_snu": float(grid.ps[0]),
        "p_max_snu": float(grid.ps[-1]),
        "n_x": int(grid.xs.size),
        "n_p": int(grid.ps.size),
    }

