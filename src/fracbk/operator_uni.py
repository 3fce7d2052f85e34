"""Univariate operator evaluation and closed-form moments.

The operator applies the blending basis row at z to kernel integrals that do
not depend on z, so the integrals are computed once per function and reused
across evaluation points.  Closed forms are provided for the images of
1, t, t^2 and the first two central moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import _BLOCK_ELEMENTS, OperatorParams, _row_blocks, basis_row
from .errors import QuadratureError, UnsupportedOrderError, check_points
from .exprlib import FunctionExpr, evaluate
from .quadrature import _kernel_rule
from .specfun import moment_coeff

DEFAULT_ORDER = 64


@dataclass(frozen=True, eq=False)
class KernelIntegrals:
    params: OperatorParams
    values: np.ndarray


@dataclass(frozen=True)
class MomentSet:
    e0: float
    e1: float
    e2: float


@dataclass(frozen=True)
class CentralMoments:
    zeta: float
    xi2: float


def eval_function(f, *args) -> np.ndarray:
    """An expression or callable at broadcastable arrays z (and y), as floats
    of the broadcast shape, so a constant function gives a full array."""
    vals = np.asarray(evaluate(f, *args) if isinstance(f, FunctionExpr) else f(*args), dtype=float)
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    return vals if vals.shape == shape else np.broadcast_to(vals, shape)


def kernel_integrals(params: OperatorParams, f, order: int = DEFAULT_ORDER) -> KernelIntegrals:
    """The m+1 kernel integrals of f, independent of the evaluation point:
    sums over the order nodes of the kernel rule (graded at t=0 for a
    non-integer gamma, see quadrature), with the integrand evaluated on
    blocks of rows of at most _BLOCK_ELEMENTS values, as the basis rows are."""
    tg, weights = _kernel_rule(params.eta, params.gamma, order)
    values = np.empty(params.m + 1)
    step = max(1, _BLOCK_ELEMENTS // order)
    for start in range(0, params.m + 1, step):
        j = np.arange(start, min(start + step, params.m + 1))
        vals = eval_function(f, (j[:, None] + tg[None, :]) / (params.m + 1.0))
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("kernel integrand produced non-finite values")
        values[start : start + step] = vals @ weights
    values.setflags(write=False)
    return KernelIntegrals(params, values)


def operator_values(ki: KernelIntegrals, zs) -> np.ndarray:
    """Operator values at every point of zs: blocks of basis rows times the
    kernel integrals, so memory stays bounded for long rows."""
    zs = check_points(zs)
    out = np.empty(zs.size)
    for block, rows in _row_blocks(ki.params, zs):
        out[block] = rows @ ki.values
    return out


def apply_kernel(ki: KernelIntegrals, z: float) -> float:
    """Operator value at one point z from precomputed kernel integrals."""
    return float(basis_row(ki.params, z).weights @ ki.values)


def apply(params: OperatorParams, f, z: float, order: int = DEFAULT_ORDER) -> float:
    """Operator value at a single point; see apply_grid for sweeps."""
    return apply_kernel(kernel_integrals(params, f, order), z)


def apply_grid(params: OperatorParams, f, zs, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Operator values over a grid, reusing one set of kernel integrals."""
    return operator_values(kernel_integrals(params, f, order), zs)


def _bracket(params: OperatorParams) -> float:
    """The factor multiplying z(1-z) in the second moment.

    For m >= s it is m + (1-alpha)s(s-1); below the blending threshold the
    basis is the classical Bernstein row, whose second moment uses m alone.
    """
    if params.m >= params.s:
        return params.m + (1.0 - params.alpha) * params.s * (params.s - 1.0)
    return float(params.m)


def raw_moments(params: OperatorParams, z: float) -> MomentSet:
    """Closed-form operator images of e0, e1, e2."""
    check_points(z)
    m = params.m
    mp1 = m + 1.0
    c1 = moment_coeff(params.eta, params.gamma, 1)
    c2 = moment_coeff(params.eta, params.gamma, 2)
    e1 = (m * z + c1) / mp1
    e2 = (m * m * z * z + z * (1.0 - z) * _bracket(params) + 2.0 * m * c1 * z + c2) / mp1**2
    return MomentSet(1.0, e1, e2)


def central_moments(params: OperatorParams, z: float) -> CentralMoments:
    """First and second central moments zeta and xi2.

    xi2 is the combination e2 - 2z*e1 + z^2 regrouped as
    ((z-c1)^2 + (c2-c1^2) + z(1-z)*bracket)/(m+1)^2, which is non-negative
    term by term (c2 >= c1^2 by the Cauchy-Schwarz inequality).
    """
    check_points(z)
    mp1 = params.m + 1.0
    c1 = moment_coeff(params.eta, params.gamma, 1)
    c2 = moment_coeff(params.eta, params.gamma, 2)
    zeta = (c1 - z) / mp1
    xi2 = ((z - c1) ** 2 + (c2 - c1 * c1) + z * (1.0 - z) * _bracket(params)) / mp1**2
    return CentralMoments(zeta, xi2)


def moment_recurrence(params: OperatorParams, i: int, z: float) -> float:
    """Operator image of e_i built from the basis moments and kernel
    coefficients: sum_n C(i,n) m^n L(e_n;z) c_{i-n} / (m+1)^i, where the
    basis part alone (no Kantorovich shift) maps e_0, e_1, e_2 to 1, z and
    z^2 + z(1-z)*bracket/m^2."""
    if i not in (0, 1, 2):
        raise UnsupportedOrderError(f"recurrence limited to i <= 2 by the L-moments, got {i}")
    check_points(z)
    m = params.m
    basis = (1.0, z, z * z + z * (1.0 - z) * _bracket(params) / m**2)
    c = [moment_coeff(params.eta, params.gamma, i - n) for n in range(i + 1)]
    return sum(math.comb(i, n) * m**n * basis[n] * c[n] for n in range(i + 1)) / (m + 1.0) ** i


def special_case(params: OperatorParams) -> str:
    """Tag for parameter settings that reduce to operators from the
    literature; first match wins in the order FBK, OZK, RLBK, BBK."""
    gamma1 = params.gamma == 1.0
    eta1 = params.eta == 1.0
    s2 = params.s == 2
    if gamma1 and eta1 and s2:
        return "FBK"
    if params.alpha == 1.0 and eta1 and s2:
        return "OZK"
    if gamma1 and s2:
        return "RLBK"
    if eta1:
        return "BBK"
    return "none"
