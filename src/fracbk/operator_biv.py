"""Tensor-product bivariate operator, its moments and error bounds.

The kernel integral matrix V is computed once per function and reused for
every point; a product grid is Bz @ V @ By.T for the basis matrices of its
axes.  The tensor rule is the product of the two univariate kernel rules, so
for an expression that is a sum of products a_r(z) b_r(y) (exprlib.separate)
V is the sum of the outer products of the factors' univariate kernel
integrals.  abs(g) of a separable g is +-g on the tensor cells where the
enclosure of g keeps one sign, so such an expression takes those sums
there; a callable, another inseparable expression, and the cells where g
may change sign are evaluated on the tensor rule one row of V at a time.
The error bounds read the partial and complete moduli of continuity, which
error_analysis computes with the same engine as the univariate moduli (and
which this module re-exports).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import OperatorParams, basis_matrix, basis_row
from .error_analysis import ErrorTable, complete_modulus, partial_moduli
from .errors import DomainError, EvaluationError, QuadratureError, check_point, check_points
from .exprlib import Call, FunctionExpr, Neg, _cell_signs, _substitute, _walk, evaluate, free_variables, separate
from .operator_uni import DEFAULT_ORDER, central_moments, eval_function, kernel_integrals, raw_moments
from .quadrature import _kernel_rule


@dataclass(frozen=True)
class BivariateParams:
    px: OperatorParams
    py: OperatorParams

    def __post_init__(self):
        for name, axis in (("px", self.px), ("py", self.py)):
            if not isinstance(axis, OperatorParams):
                raise DomainError(f"{name} must be an OperatorParams, got {type(axis).__name__}")


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


def _separated(bp: BivariateParams, F, order: int) -> np.ndarray | None:
    """sum_r outer(K_z[a_r], K_y[b_r]) for an expression F separated into
    terms a_r(z) b_r(y); None for a callable, an inseparable expression, or
    a factor or sum that fails or is not finite, where the per-row loop
    runs and reports the failure (or has none: a regrouped product may
    overflow where F does not)."""
    terms = separate(F) if isinstance(F, FunctionExpr) else None
    if terms is None:
        return None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = sum(np.outer(kernel_integrals(bp.px, a, order).values,
                                  kernel_integrals(bp.py, lambda t: evaluate(b, t, t), order).values)
                         for a, b in terms)
    except (EvaluationError, QuadratureError):
        return None
    return values if np.all(np.isfinite(values)) else None


def _sign_resolved(bp: BivariateParams, F, order: int) -> tuple[np.ndarray, np.ndarray]:
    """(V, rest) for an expression F with abs(g) of one or two distinct g of
    z and y: V on each tensor cell where every g keeps one sign is the
    separated kernel of F with each abs(g) as that sign times g, and rest
    marks the other cells; all cells for any other F, or where the kernel
    of a sign pattern is not separated (_separated gives None)."""
    shape = (bp.px.m + 1, bp.py.m + 1)
    values, rest = np.empty(shape), np.ones(shape, dtype=bool)
    args = () if not isinstance(F, FunctionExpr) else tuple(dict.fromkeys(
        node.arg for node in _walk(F.root)
        if isinstance(node, Call) and node.func == "abs" and len(free_variables(FunctionExpr(node.arg))) == 2))
    if not 1 <= len(args) <= 2:
        return values, rest
    z, y = (np.arange(p.m + 2) / (p.m + 1.0) for p in (bp.px, bp.py))
    signs = np.stack([_cell_signs(FunctionExpr(g), (z[:-1, None], z[1:, None]), (y[:-1], y[1:])) for g in args])
    for pattern in itertools.product((1, -1), repeat=len(args)):
        cells = np.all(signs == np.reshape(pattern, (-1, 1, 1)), axis=0)
        if cells.any():
            resolved = {Call("abs", g): g if sign > 0 else Neg(g) for g, sign in zip(args, pattern)}
            separated = _separated(bp, FunctionExpr(_substitute(F.root, resolved)), order)
            if separated is None:
                return values, rest
            values = np.where(cells, separated, values)
    return values, np.any(signs == 0, axis=0)


def biv_kernel_integrals(bp: BivariateParams, F, order: int = DEFAULT_ORDER) -> BivKernelIntegrals:
    """The (m1+1) x (m2+1) matrix of tensor kernel integrals of F.

    A sum of outer products of univariate kernel integrals where F is an
    expression that separates into terms a_r(z) b_r(y) (equal to the loop
    up to rounding), or the same on the cells _sign_resolved gives; F on
    the tensor rule, one row of V at a time, on the cells that remain.
    """
    values = _separated(bp, F, order)
    if values is None:
        values, rest = _sign_resolved(bp, F, order)
        px, py = bp.px, bp.py
        tg1, w1 = _kernel_rule(px.eta, px.gamma, order)
        tg2, w2 = _kernel_rule(py.eta, py.gamma, order)
        x_args = (np.arange(px.m + 1)[:, None] + tg1[None, :]) / (px.m + 1.0)
        y_args = (np.arange(py.m + 1)[:, None] + tg2[None, :]) / (py.m + 1.0)
        for j1 in np.flatnonzero(rest.any(axis=1)):
            cols = np.flatnonzero(rest[j1])
            vals = eval_function(F, x_args[j1][:, None, None], y_args[None, cols])
            if not np.all(np.isfinite(vals)):
                raise QuadratureError("bivariate kernel integrand produced non-finite values")
            values[j1, cols] = np.einsum("a,abc,c->b", w1, vals, w2)
    values.setflags(write=False)
    return BivKernelIntegrals(bp, values)


def apply_biv_kernel(ki: BivKernelIntegrals, z: float, y: float) -> float:
    """Bivariate operator value at one point (z, y) from a precomputed kernel matrix."""
    y = check_point(y, "y")
    bz = basis_row(ki.bp.px, z).weights
    by = basis_row(ki.bp.py, y).weights
    return float(bz @ ki.values @ by)


def apply_biv(bp: BivariateParams, F, z: float, y: float, order: int = DEFAULT_ORDER) -> float:
    """Bivariate operator value at one point, checked first; use surface_values for grids."""
    y = check_point(y, "y")
    z = check_point(z)
    return apply_biv_kernel(biv_kernel_integrals(bp, F, order), z, y)


def surface_values(bp: BivariateParams, F, zs, ys, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Operator values on the product grid zs x ys, shape (len(zs), len(ys)); the
    basis rows, and so the checks of zs and then ys, come before the kernel."""
    bz, by = basis_matrix(bp.px, zs), basis_matrix(bp.py, check_points(ys, "y"))
    return bz @ biv_kernel_integrals(bp, F, order).values @ by.T


def biv_moments(bp: BivariateParams, z: float, y: float) -> BivMoments:
    """Closed-form images of the monomials z^u y^v, u+v <= 2, which factor
    into products of univariate moments."""
    y = check_point(y, "y")
    mx = raw_moments(bp.px, z)
    my = raw_moments(bp.py, y)
    return BivMoments(1.0, mx.e1, my.e1, mx.e1 * my.e1, mx.e2, my.e2)


def bound_complete(bp: BivariateParams, F, z: float, y: float) -> float:
    """Error bound 4*omega_complete(F; sqrt(xi2_x + xi2_y))."""
    y = check_point(y, "y")
    d = math.sqrt(central_moments(bp.px, z).xi2 + central_moments(bp.py, y).xi2)
    return 4.0 * complete_modulus(F, d)


def bound_partial(bp: BivariateParams, F, z: float, y: float) -> float:
    """Error bound 2*(omega_1(F; sqrt(xi2_x)) + omega_2(F; sqrt(xi2_y)))."""
    y = check_point(y, "y")
    d1 = math.sqrt(central_moments(bp.px, z).xi2)
    d2 = math.sqrt(central_moments(bp.py, y).xi2)
    w1, w2 = partial_moduli(F, d1, d2)
    return 2.0 * (w1 + w2)


def surface_rows(bp: BivariateParams, F, zs, ys, order: int = DEFAULT_ORDER) -> ErrorTable:
    """The ErrorTable of row-major (z, y, exact, approx, abs_error) rows over the grid."""
    approx = surface_values(bp, F, zs, ys, order)
    zv, yv = np.meshgrid(np.asarray(zs, dtype=float), np.asarray(ys, dtype=float), indexing="ij")
    exact = eval_function(F, zv, yv)
    err = np.abs(exact - approx)
    rows = list(zip(*(a.ravel().tolist() for a in (zv, yv, exact, approx, err))))
    return ErrorTable(rows, float(np.max(err)) if rows else 0.0)
