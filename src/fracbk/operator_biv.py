"""Tensor-product bivariate operator, its moments and error bounds.

The kernel integral matrix V is computed once per function with a tensor
Gauss-Jacobi rule and reused for every point; a product grid is Bz @ V @ By.T
for the basis matrices of its axes.  Moduli of continuity on [0,1]^2 are
certified for an expression: interval enclosures on square cells, cached per
expression, read over runs of cells along one axis (partial moduli) or over
squares of cells (complete modulus).  Each call also evaluates F at the cell
corners and checks those values against the enclosures.  For a plain
callable the moduli are grid estimates from below.  Both use the window
extremes of error_analysis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import OperatorParams, basis_matrix, basis_row
from .error_analysis import (
    _SHIFT_EPS,
    _cell_ends,
    _check_enclosure,
    _resolution,
    _run_range,
    _shift_count,
    _window_extremes,
    _window_range,
)
from .errors import QuadratureError, check_real
from .exprlib import FunctionExpr
from .operator_uni import DEFAULT_ORDER, central_moments, eval_function, raw_moments
from .quadrature import _kernel_rule

# Cells (an expression) or grid points (a callable) per axis when no grid_n
# is given; an expression gets at most _MAX_CELLS cells per axis.
_GRID = 256
_MAX_CELLS = 320


@dataclass(frozen=True)
class BivariateParams:
    px: OperatorParams
    py: OperatorParams


@dataclass(frozen=True, eq=False)
class BivKernelIntegrals:
    bp: BivariateParams
    values: np.ndarray


@dataclass(frozen=True)
class BivMoments:
    e00: float
    e10: float
    e01: float
    e11: float
    e20: float
    e02: float


def biv_kernel_integrals(bp: BivariateParams, F, order: int = DEFAULT_ORDER) -> BivKernelIntegrals:
    """The (m1+1) x (m2+1) matrix of tensor kernel integrals of F."""
    px, py = bp.px, bp.py
    tg1, w1 = _kernel_rule(px.eta, px.gamma, order)
    tg2, w2 = _kernel_rule(py.eta, py.gamma, order)
    x_args = (np.arange(px.m + 1)[:, None] + tg1[None, :]) / (px.m + 1.0)
    y_args = (np.arange(py.m + 1)[:, None] + tg2[None, :]) / (py.m + 1.0)
    values = np.empty((px.m + 1, py.m + 1))
    for j1 in range(px.m + 1):
        vals = eval_function(F, x_args[j1][:, None, None], y_args[None, :, :])
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("bivariate kernel integrand produced non-finite values")
        values[j1] = np.einsum("a,abc,c->b", w1, vals, w2)
    values.setflags(write=False)
    return BivKernelIntegrals(bp, values)


def apply_biv_kernel(ki: BivKernelIntegrals, z: float, y: float) -> float:
    bz = basis_row(ki.bp.px, z).weights
    by = basis_row(ki.bp.py, y).weights
    return float(bz @ ki.values @ by)


def apply_biv(bp: BivariateParams, F, z: float, y: float, order: int = DEFAULT_ORDER) -> float:
    """Bivariate operator value at one point; use surface_values for grids."""
    return apply_biv_kernel(biv_kernel_integrals(bp, F, order), z, y)


def surface_values(bp: BivariateParams, F, zs, ys, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Operator values on the product grid zs x ys, shape (len(zs), len(ys))."""
    ki = biv_kernel_integrals(bp, F, order)
    return basis_matrix(bp.px, zs) @ ki.values @ basis_matrix(bp.py, ys).T


def biv_moments(bp: BivariateParams, z: float, y: float) -> BivMoments:
    """Closed-form images of the monomials z^u y^v, u+v <= 2, which factor
    into products of univariate moments."""
    mx = raw_moments(bp.px, z)
    my = raw_moments(bp.py, y)
    return BivMoments(1.0, mx.e1, my.e1, mx.e1 * my.e1, mx.e2, my.e2)


@functools.lru_cache(maxsize=8)
def _square_ends(F: FunctionExpr, cells: int) -> np.ndarray:
    u = np.linspace(0.0, 1.0, cells + 1)
    return _cell_ends(F, (u[:-1, None], u[1:, None]), (u[None, :-1], u[None, 1:]))


def _enclosures(F: FunctionExpr, cells: int) -> tuple[np.ndarray, float]:
    """(ends, width): the cached enclosures of F on cells x cells squares,
    checked against F at the cell corners on every call."""
    u = np.linspace(0.0, 1.0, cells + 1)
    ends = _square_ends(F, cells)
    _check_enclosure(ends, eval_function(F, u[:, None], u[None, :]))
    return ends, float(np.min(np.diff(u)))


def _grid_values(F, grid_n: int) -> np.ndarray:
    u = np.linspace(0.0, 1.0, grid_n)
    return eval_function(F, u[:, None], u[None, :])


def partial_moduli(F, d1: float, d2: float, grid_n: int | None = None) -> tuple[float, float]:
    """The two partial moduli of continuity: certified for an expression on
    grid_n cells per axis (default 256, at most 320), grid estimates from
    below for a callable on grid_n points per axis (default 256)."""
    check_real("d1", d1, closed=True)
    check_real("d2", d2, closed=True)
    n = _resolution(F, grid_n, (_GRID, _GRID), _MAX_CELLS)
    if isinstance(F, FunctionExpr):
        ends, width = _enclosures(F, n)
        return _run_range(ends, width, d1, axes=(-2,)), _run_range(ends, width, d2, axes=(-1,))
    G = _grid_values(F, n)
    return _window_range(G, _shift_count(d1, n), axis=0), _window_range(G, _shift_count(d2, n), axis=1)


def complete_modulus(F, d: float, grid_n: int | None = None) -> float:
    """sup |F(v) - F(u)| over pairs with |v-u| <= d.

    Certified for an expression: such a pair lies in a square of k+1 by k+1
    cells, k = ceil(d/h), so the largest max hi - min lo over those squares
    bounds it.  For a callable, a grid estimate from below (grid sizes as in
    partial_moduli): the grid offsets (a, b) inside the disc are taken one
    row offset a at a time; the partners F[u+a, v+b], |b| <= B(a), of each
    grid point form a window of 2*B(a)+1 columns, and the term is the
    point's largest distance to that window's max or min.  With k =
    d*(grid_n-1) offsets per axis the cost is O(k * grid_n^2 * log k).
    """
    check_real("d", d, closed=True)
    grid_n = _resolution(F, grid_n, (_GRID, _GRID), _MAX_CELLS)
    if isinstance(F, FunctionExpr):
        ends, width = _enclosures(F, grid_n)
        return _run_range(ends, width, d, axes=(-2, -1))
    G = _grid_values(F, grid_n)
    d = min(d, 2.0)  # a disc of radius 2 already covers the unit square
    h = 1.0 / (grid_n - 1)
    kmax = min(int(d / h + _SHIFT_EPS), grid_n - 1)
    limit = (d / h) ** 2 + _SHIFT_EPS
    best = 0.0
    b = kmax  # the half-width B(a) only shrinks as a grows
    for a in range(0, kmax + 1):
        while b >= 0 and a * a + b * b > limit:
            b -= 1
        if b < 0:
            break
        if a == 0:
            # offsets (0, b) and (0, -b) pair the same points; this term
            # also rejects a grid with non-finite values
            best = _window_range(G, b, axis=1)
            continue
        # edge padding repeats a border column the clipped window holds anyway
        partners = np.pad(G[a:], ((0, 0), (b, b)), mode="edge")
        hi, lo = _window_extremes(partners, 2 * b + 1, axis=1)
        base = G[: grid_n - a]
        best = max(best, float(np.max(hi - base)), float(np.max(base - lo)))
    return best


def bound_complete(bp: BivariateParams, F, z: float, y: float, grid_n: int | None = None) -> float:
    """Error bound 4*omega_complete(F; sqrt(xi2_x + xi2_y))."""
    d = math.sqrt(central_moments(bp.px, z).xi2 + central_moments(bp.py, y).xi2)
    return 4.0 * complete_modulus(F, d, grid_n)


def bound_partial(bp: BivariateParams, F, z: float, y: float, grid_n: int | None = None) -> float:
    """Error bound 2*(omega_1(F; sqrt(xi2_x)) + omega_2(F; sqrt(xi2_y)))."""
    d1 = math.sqrt(central_moments(bp.px, z).xi2)
    d2 = math.sqrt(central_moments(bp.py, y).xi2)
    w1, w2 = partial_moduli(F, d1, d2, grid_n)
    return 2.0 * (w1 + w2)


def surface_rows(bp: BivariateParams, F, zs, ys, order: int = DEFAULT_ORDER):
    """Row-major (z, y, exact, approx, abs_error) tuples over the grid."""
    approx = surface_values(bp, F, zs, ys, order)
    zv, yv = np.meshgrid(np.asarray(zs, dtype=float), np.asarray(ys, dtype=float), indexing="ij")
    exact = eval_function(F, zv, yv)
    err = np.abs(exact - approx)
    rows = list(zip(*(a.ravel().tolist() for a in (zv, yv, exact, approx, err))))
    return rows, float(np.max(err)) if rows else 0.0
