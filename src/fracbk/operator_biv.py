"""Tensor-product bivariate operator, its moments and error bounds.

The kernel integral matrix V is computed once per function and reused for
every point; a product grid is Bz @ V @ By.T for the basis matrices of its
axes.  The tensor rule is the product of the two univariate kernel rules, so
for an expression that is a sum of products a_r(z) b_r(y) (exprlib.separate)
V is the sum of the outer products of the factors' univariate kernel
integrals.  exprlib.separate_cells splits the tensor cells into pieces on
which every abs(g) of one or two g of z and y is +-g (one piece without
them), each with its own such sum: the first piece's sum becomes V, and
each later one is copied into it on its own cells.  A callable, another
inseparable expression, and the cells where some g may change sign are
evaluated on the tensor rule one row of V at a time.  The error bounds read
the partial and complete moduli of continuity, which error_analysis
computes with the same engine as the univariate moduli (re-exported here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import OperatorParams, basis_matrix, basis_row
from .error_analysis import ErrorTable, complete_modulus, partial_moduli
from .errors import EvaluationError, QuadratureError, check_point, check_points, check_type
from .exprlib import FunctionExpr, Var, _substitute, eval_function, separate_cells
from .operator_uni import DEFAULT_ORDER, central_moments, kernel_integrals, raw_moments
from .quadrature import _kernel_rule


@dataclass(frozen=True)
class BivariateParams:
    px: OperatorParams
    py: OperatorParams

    def __post_init__(self):
        for name, axis in (("px", self.px), ("py", self.py)):
            check_type(name, axis, OperatorParams)


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


def _separated(bp: BivariateParams, terms, order: int) -> np.ndarray | None:
    """sum_r outer(K_z[a_r], K_y[b_r]) over the terms (a_r, b_r), y read as z
    in b_r; None where a factor or the sum fails or is not finite, where the
    loop runs and reports the failure (or has none: a regrouped product may overflow)."""
    in_z = {Var("y"): Var("z")}
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = sum(np.outer(kernel_integrals(bp.px, a, order).values,
                                  kernel_integrals(bp.py, FunctionExpr(_substitute(b.root, in_z)), order).values)
                         for a, b in terms)
    except (EvaluationError, QuadratureError):
        return None
    return values if np.all(np.isfinite(values)) else None


def biv_kernel_integrals(bp: BivariateParams, F, order: int = DEFAULT_ORDER) -> BivKernelIntegrals:
    """The (m1+1) x (m2+1) matrix of tensor kernel integrals of F.

    On the cells of each piece of exprlib.separate_cells (every cell without
    abs of a function of z and y) a sum of outer products of univariate
    kernel integrals (the loop's up to rounding), written into the first
    piece's sum; F on the tensor rule, one row of V at a time, on the rest,
    and on every cell for a callable or where a piece is not separated.
    """
    check_type("bp", bp, BivariateParams)
    px, py = bp.px, bp.py
    values, rest = None, True
    z, y = (np.arange(p.m + 2) / (p.m + 1.0) for p in (px, py))
    split = separate_cells(F, (z[:-1, None], z[1:, None]), (y[:-1], y[1:])) if isinstance(F, FunctionExpr) else None
    if split is not None:
        for cells, terms in split[0]:
            if terms is None or (separated := _separated(bp, terms, order)) is None:
                break
            values = separated if values is None else values
            np.copyto(values, separated, where=cells)  # (a copy onto itself returns at once)
        else:
            rest = split[1]
    if np.any(rest):
        rest = np.broadcast_to(rest, (px.m + 1, py.m + 1))
        values = np.empty(rest.shape) if values is None else values
        (x_args, w1), (y_args, w2) = (((np.arange(p.m + 1)[:, None] + t) / (p.m + 1.0), w)
                                      for p in (px, py) for t, w in [_kernel_rule(p.eta, p.gamma, order)])
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
    check_type("ki", ki, BivKernelIntegrals)
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
    check_type("bp", bp, BivariateParams)
    bz, by = basis_matrix(bp.px, zs), basis_matrix(bp.py, check_points(ys, "y"))
    return bz @ biv_kernel_integrals(bp, F, order).values @ by.T


def biv_moments(bp: BivariateParams, z: float, y: float) -> BivMoments:
    """Closed-form images of the monomials z^u y^v, u+v <= 2, which factor
    into products of univariate moments."""
    check_type("bp", bp, BivariateParams)
    y = check_point(y, "y")
    mx = raw_moments(bp.px, z)
    my = raw_moments(bp.py, y)
    return BivMoments(1.0, mx.e1, my.e1, mx.e1 * my.e1, mx.e2, my.e2)


def bound_complete(bp: BivariateParams, F, z: float, y: float) -> float:
    """Error bound 4*omega_complete(F; sqrt(xi2_x + xi2_y))."""
    check_type("bp", bp, BivariateParams)
    y = check_point(y, "y")
    d = math.sqrt(central_moments(bp.px, z).xi2 + central_moments(bp.py, y).xi2)
    return 4.0 * complete_modulus(F, d)


def bound_partial(bp: BivariateParams, F, z: float, y: float) -> float:
    """Error bound 2*(omega_1(F; sqrt(xi2_x)) + omega_2(F; sqrt(xi2_y)))."""
    check_type("bp", bp, BivariateParams)
    y = check_point(y, "y")
    d1 = math.sqrt(central_moments(bp.px, z).xi2)
    d2 = math.sqrt(central_moments(bp.py, y).xi2)
    w1, w2 = partial_moduli(F, d1, d2)
    return 2.0 * (w1 + w2)


def surface_rows(bp: BivariateParams, F, zs, ys, order: int = DEFAULT_ORDER) -> ErrorTable:
    """The ErrorTable of row-major (z, y, exact, approx, abs_error) rows over the grid."""
    approx = surface_values(bp, F, zs, ys, order)
    columns = np.empty((5, *approx.shape))
    columns[0], columns[1] = check_points(zs)[:, None], check_points(ys, "y")
    columns[2], columns[3] = eval_function(F, columns[0], columns[1]), approx
    np.abs(columns[2] - columns[3], out=columns[4])
    return ErrorTable(columns.reshape(5, -1), float(columns[4].max(initial=0.0)))
