"""Wigner functions on phase-space grids.

Convention: x and p in shot-noise units (X = a + a†, vacuum variance 1),
normalized so the integral of W over the plane is 1. The vacuum peak is
then 1/(2 pi) and the value at the origin obeys the parity identity
W(0, 0) = Tr[rho (-1)^n] / (2 pi).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from .fock import _as_density

CONVENTION_TAG = "snu-x2-norm1"  # X = a + a†, integral of W = 1

GRID_MIN = -6.0
GRID_MAX = 6.0
GRID_STEP = 0.05  # the +-6 box misses 0.8e-4 to 4.3e-4 of the mass of the Table 1 states

COEF_CUTOFF = 1e-18  # skip Laguerre evaluation for negligible matrix elements


@dataclass
class WignerGrid:
    """Values W(x, p) on a rectangular grid; values[i, j] = W(xs[j], ps[i])."""

    xs: np.ndarray
    ps: np.ndarray
    values: np.ndarray

    def integral(self) -> float:
        inner = np.trapezoid(self.values, self.xs, axis=1)
        return float(np.trapezoid(inner, self.ps))


def default_grid_axes():
    n = int(round((GRID_MAX - GRID_MIN) / GRID_STEP)) + 1
    axis = np.linspace(GRID_MIN, GRID_MAX, n)
    return axis, axis.copy()


def _kernel_sum(rho: np.ndarray, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Sum_mn rho_mn K_mn with the generalized-Laguerre kernel.

    K_mn = (-1)^n sqrt(n!/m!) (x - ip)^{m-n} L_n^{m-n}(x^2+p^2) for m >= n,
    and K_nm = conj(K_mn). Derived from the integral form of W in this
    convention; validated against direct quadrature in the tests.
    """
    dim = rho.shape[0]
    s = x**2 + p**2
    z = x - 1j * p
    total = np.zeros_like(s)
    for d in range(dim):
        ns = np.arange(dim - d)
        coef = rho[ns + d, ns] * (-1.0) ** ns
        coef = coef * np.exp(0.5 * (gammaln(ns + 1) - gammaln(ns + d + 1)))
        diag = np.zeros_like(s, dtype=complex)
        for n in ns:
            if abs(coef[n]) < COEF_CUTOFF:
                continue
            diag += coef[n] * eval_genlaguerre(n, d, s)
        if d == 0:
            total += diag.real
        else:
            total += 2 * (z**d * diag).real
    return total


def wigner_point(state, x: float, p: float) -> float:
    """W(x, p) for a single phase-space point."""
    rho = _as_density(state)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ps = np.atleast_1d(np.asarray(p, dtype=float))
    val = (1 / (2 * np.pi)) * np.exp(-(xs**2 + ps**2) / 2) * _kernel_sum(rho, xs, ps)
    return float(val[0])


def wigner_grid(state, xs=None, ps=None) -> WignerGrid:
    """Evaluate W on the outer product of the axes xs and ps."""
    rho = _as_density(state)
    if xs is None or ps is None:
        dx, dp = default_grid_axes()
        xs = dx if xs is None else np.asarray(xs, dtype=float)
        ps = dp if ps is None else np.asarray(ps, dtype=float)
    else:
        xs = np.asarray(xs, dtype=float)
        ps = np.asarray(ps, dtype=float)
    xg, pg = np.meshgrid(xs, ps)
    flat_x = xg.ravel()
    flat_p = pg.ravel()
    vals = (1 / (2 * np.pi)) * np.exp(-(flat_x**2 + flat_p**2) / 2)
    vals = vals * _kernel_sum(rho, flat_x, flat_p)
    return WignerGrid(xs, ps, vals.reshape(pg.shape))


def negativity_min(grid: WignerGrid) -> float:
    return float(grid.values.min())


def write_grid_csv(grid: WignerGrid, path) -> None:
    """CSV matrix: two header rows carrying the axes, then W rows (one per p)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["xs"] + [f"{v:.17g}" for v in grid.xs])
        writer.writerow(["ps"] + [f"{v:.17g}" for v in grid.ps])
        for row in grid.values:
            writer.writerow([f"{v:.17g}" for v in row])


def read_grid_csv(path) -> WignerGrid:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    xs = np.array([float(v) for v in rows[0][1:]])
    ps = np.array([float(v) for v in rows[1][1:]])
    values = np.array([[float(v) for v in row] for row in rows[2:]])
    return WignerGrid(xs, ps, values)


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

