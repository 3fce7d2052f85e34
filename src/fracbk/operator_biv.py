"""Tensor-product bivariate operator, its moments and error bounds.

The kernel integral matrix V is computed once per function and reused for
every point; a product grid is Bz @ V @ By.T for the basis matrices of its
axes.  The tensor rule is the product of the two univariate kernel rules, so
for an expression that is a sum of products a_r(z) b_r(y) (exprlib.separate)
V is the sum of the outer products of the factors' univariate kernel
integrals; a callable or an inseparable expression is evaluated on the
tensor rule one row of V at a time.  The error bounds read the partial and
complete moduli of continuity, which error_analysis computes with the same
engine as the univariate moduli (and which this module re-exports).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import OperatorParams, basis_matrix, basis_row
from .error_analysis import complete_modulus, partial_moduli
from .errors import EvaluationError, QuadratureError, check_points
from .exprlib import FunctionExpr, evaluate, separate
from .operator_uni import DEFAULT_ORDER, central_moments, eval_function, kernel_integrals, raw_moments
from .quadrature import _kernel_rule


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


def biv_kernel_integrals(bp: BivariateParams, F, order: int = DEFAULT_ORDER) -> BivKernelIntegrals:
    """The (m1+1) x (m2+1) matrix of tensor kernel integrals of F.

    A sum of outer products of univariate kernel integrals where F is an
    expression that separates into terms a_r(z) b_r(y) (equal to the loop
    up to rounding); else F on the tensor rule, one row of V at a time.
    """
    values = _separated(bp, F, order)
    if values is None:
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
    """Bivariate operator value at one point (z, y) from a precomputed kernel matrix."""
    check_points(y, "y")
    bz = basis_row(ki.bp.px, z).weights
    by = basis_row(ki.bp.py, y).weights
    return float(bz @ ki.values @ by)


def apply_biv(bp: BivariateParams, F, z: float, y: float, order: int = DEFAULT_ORDER) -> float:
    """Bivariate operator value at one point; use surface_values for grids."""
    return apply_biv_kernel(biv_kernel_integrals(bp, F, order), z, y)


def surface_values(bp: BivariateParams, F, zs, ys, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Operator values on the product grid zs x ys, shape (len(zs), len(ys))."""
    ki = biv_kernel_integrals(bp, F, order)
    return basis_matrix(bp.px, zs) @ ki.values @ basis_matrix(bp.py, check_points(ys, "y")).T


def biv_moments(bp: BivariateParams, z: float, y: float) -> BivMoments:
    """Closed-form images of the monomials z^u y^v, u+v <= 2, which factor
    into products of univariate moments."""
    check_points(y, "y")
    mx = raw_moments(bp.px, z)
    my = raw_moments(bp.py, y)
    return BivMoments(1.0, mx.e1, my.e1, mx.e1 * my.e1, mx.e2, my.e2)


def bound_complete(bp: BivariateParams, F, z: float, y: float, grid_n: int | None = None) -> float:
    """Error bound 4*omega_complete(F; sqrt(xi2_x + xi2_y))."""
    check_points(y, "y")
    d = math.sqrt(central_moments(bp.px, z).xi2 + central_moments(bp.py, y).xi2)
    return 4.0 * complete_modulus(F, d, grid_n)


def bound_partial(bp: BivariateParams, F, z: float, y: float, grid_n: int | None = None) -> float:
    """Error bound 2*(omega_1(F; sqrt(xi2_x)) + omega_2(F; sqrt(xi2_y)))."""
    check_points(y, "y")
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
