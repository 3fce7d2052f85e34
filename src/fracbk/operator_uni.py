"""Univariate operator evaluation and closed-form moments.

The operator applies the blending basis row at z to kernel integrals that do
not depend on z, so the integrals are computed once per function and reused
across evaluation points.  Closed forms are provided for the images of
every t^i up to i = 16 and the first two central moments.  _certificate
bounds the quadrature error of the kernel integrals from the closed-form
kernel moments and the sups of f's Taylor coefficients on cells
(exprlib.derivative_sup), and _kernel_order picks the lowest order it allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import _BLOCK_ELEMENTS, OperatorParams, _row_blocks, basis_row
from .errors import QuadratureError, check_int, check_point, check_points, check_type
from .exprlib import _TAYLOR_TERMS, FunctionExpr, derivative_sup, eval_function, free_variables
from .quadrature import _kernel_rule
from .specfun import moment_coeff

DEFAULT_ORDER = 64
# Orders a certificate may choose, and the cells of its sups of f^(k)
_CERTIFIED_ORDERS, _DERIVATIVE_CELLS, _EPS = (8, 16, 32), 256, 2.0**-52


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


def kernel_integrals(params: OperatorParams, f, order: int = DEFAULT_ORDER) -> KernelIntegrals:
    """The m+1 kernel integrals of f, independent of the evaluation point:
    sums over the order nodes of the kernel rule (graded at t=0 for a
    non-integer gamma, see quadrature), with the integrand evaluated on
    blocks of rows of at most _BLOCK_ELEMENTS values, as the basis rows are."""
    check_type("params", params, OperatorParams)
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


def _moment_misses(eta: float, gamma: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(e, c) for k <= _TAYLOR_TERMS: c_k = moment_coeff(eta, gamma, k) and
    e_k >= |Q_n(s^k) - c_k| for the order-n rule at its points s: the miss,
    the sum's rounding ((n + 8) eps) and c_k's, eps (1 + sum over the three
    lgamma arguments x >= 1 of 4|lgamma x| + 1 + 2x(0.6 + log x)): exp,
    lgamma, the sums, and x's own rounding, as |digamma x| <= 0.6 + log x."""
    tg, weights = _kernel_rule(eta, gamma, n)
    k = np.arange(_TAYLOR_TERMS + 1)
    sums = weights @ tg[:, None] ** k
    c = np.array([moment_coeff(eta, gamma, i) for i in range(k.size)])
    x = np.array([np.full(k.size, eta + 1.0), gamma * k + 1.0, eta + gamma * k + 1.0])
    lg = np.reshape([abs(math.lgamma(v)) for v in x.ravel().tolist()], x.shape)
    rel = 1.0 + np.sum(4.0 * lg + 1.0 + 2.0 * x * (0.6 + np.log(x)), axis=0)
    return np.abs(sums - c) + (n + 8) * _EPS * sums + rel * _EPS * c, c


def _certificate(f: FunctionExpr, eta: float, gamma: float, m: int, n: int) -> float:
    """A bound on |Q_n - K_j| over the rows j of the order-n kernel integrals
    of the expression f, beyond the rounding of f's values and of the
    weights' sum that every order has.  With h = 1/(m+1), Taylor's theorem
    and weights >= 0 give for any K the bound sum_{1 <= k < K} S_k h^k e_k
    / k! + 2 S_K h^K (c_K + e_K) / K! (derivative_sup, _moment_misses).
    K grows from 1 until a bound is at most half an ulp of S_0, the k < K
    sum (a floor under every larger K) exceeds that, or K passes
    _TAYLOR_TERMS; the least bound, raised 2^-40 for its own rounding."""
    target = 0.5 * math.ulp(derivative_sup(f, 0, _DERIVATIVE_CELLS))
    e, c = _moment_misses(eta, gamma, n)
    h, head, best = 1.0 / (m + 1.0), 0.0, math.inf
    for k in range(1, _TAYLOR_TERMS + 1):
        term = derivative_sup(f, k, _DERIVATIVE_CELLS) * h**k / math.factorial(k)
        best = min(best, head + 2.0 * term * (c[k] + e[k]))
        head += term * e[k]
        if best <= target or head > target:
            break
    return best * (1.0 + 2.0**-40)


def _kernel_order(params: OperatorParams, f) -> int:
    """The least of _CERTIFIED_ORDERS whose _certificate is at most half an
    ulp of S_0, else DEFAULT_ORDER (no bound at all for a callable, an
    expression of y, abs where it may kink or sqrt at 0)."""
    if not isinstance(f, FunctionExpr) or free_variables(f) - {"z"}:
        return DEFAULT_ORDER
    s0 = derivative_sup(f, 0, _DERIVATIVE_CELLS)
    if max(s0, derivative_sup(f, 1, _DERIVATIVE_CELLS)) == math.inf:  # every bound takes S_1
        return DEFAULT_ORDER
    return next((n for n in _CERTIFIED_ORDERS
                 if _certificate(f, params.eta, params.gamma, params.m, n) <= 0.5 * math.ulp(s0)), DEFAULT_ORDER)


def operator_values(ki: KernelIntegrals, zs) -> np.ndarray:
    """Operator values at every point of zs: blocks of basis rows times the
    kernel integrals, so memory stays bounded for long rows."""
    check_type("ki", ki, KernelIntegrals)
    zs = check_points(zs)
    out = np.empty(zs.size)
    for block, rows in _row_blocks(ki.params, zs):
        out[block] = rows @ ki.values
    return out


def apply_kernel(ki: KernelIntegrals, z: float) -> float:
    """Operator value at one point z from precomputed kernel integrals."""
    check_type("ki", ki, KernelIntegrals)
    return float(basis_row(ki.params, z).weights @ ki.values)


def apply(params: OperatorParams, f, z: float, order: int = DEFAULT_ORDER) -> float:
    """Operator value at a single point, checked first; see operator_values
    for sweeps."""
    z = check_point(z)
    return apply_kernel(kernel_integrals(params, f, order), z)


def _bracket(params: OperatorParams) -> float:
    """The factor of z(1-z) in the second moment: m + (1-alpha)s(s-1), or m
    alone below the blending threshold, where the basis is the classical row."""
    m, s = params.m, params.s
    return m + (1.0 - params.alpha) * s * (s - 1.0) if m >= s else float(m)


def raw_moments(params: OperatorParams, z: float) -> MomentSet:
    """Closed-form operator images of e0, e1, e2."""
    check_type("params", params, OperatorParams)
    z = check_point(z)
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
    check_type("params", params, OperatorParams)
    z = check_point(z)
    mp1 = params.m + 1.0
    c1 = moment_coeff(params.eta, params.gamma, 1)
    c2 = moment_coeff(params.eta, params.gamma, 2)
    zeta = (c1 - z) / mp1
    xi2 = ((z - c1) ** 2 + (c2 - c1 * c1) + z * (1.0 - z) * _bracket(params)) / mp1**2
    return CentralMoments(zeta, xi2)


def _power_sums(d: int, i: int, z: float, shift: int = 0) -> list:
    """[sum_j (j + shift)^n B_{d,j}(z) for n <= i], by the binomial theorem
    from sum_j j^t B_{d,j}(z) = sum_l S(t, l) d!/(d-l)! z^l (S: Stirling
    numbers of the second kind), each integer term exact; all terms >= 0."""
    sums, stirling = [], [1]  # S(t, 0..t)
    for _t in range(i + 1):
        sums.append(sum(float(S * math.perm(d, l)) * z**l for l, S in enumerate(stirling)))
        stirling = [l * a + b for l, (a, b) in enumerate(zip(stirling + [0], [0] + stirling))]
    return [sum(float(math.comb(n, t) * shift ** (n - t)) * sums[t] for t in range(n + 1)) for n in range(i + 1)]


def moment_recurrence(params: OperatorParams, i: int, z: float) -> float:
    """Operator image of e_i: sum_n C(i,n) c_{i-n} A_n / (m+1)^i, with A_n
    = sum_j j^n w_j(z) the power sums of the basis row (_power_sums of its
    Bernstein rows, blended as in basis._row_blocks).  Up to i = 16 every
    integer term stays inside the float range for m < 2^53."""
    check_type("params", params, OperatorParams)
    check_int("i", i, 0, 16)
    z = check_point(z)
    m, s, alpha = params.m, params.s, params.alpha
    a = _power_sums(m, i, z)
    if m >= s:  # alpha B_m + (1-alpha) ((1-z) B_{m-s} + z B_{m-s} shifted by s)
        a = [alpha * x + (1.0 - alpha) * ((1.0 - z) * y + z * w)
             for x, y, w in zip(a, _power_sums(m - s, i, z), _power_sums(m - s, i, z, s))]
    c = [moment_coeff(params.eta, params.gamma, k) for k in range(i + 1)]
    return sum(math.comb(i, n) * c[i - n] * a[n] for n in range(i + 1)) / (m + 1.0) ** i


# Operators from the literature, in match order, and the parameter values each fixes
_REDUCTIONS = (("FBK", dict(eta=1.0, gamma=1.0, s=2)), ("OZK", dict(eta=1.0, alpha=1.0, s=2)),
               ("RLBK", dict(gamma=1.0, s=2)), ("BBK", dict(eta=1.0)))


def special_case(params: OperatorParams) -> str:
    """Tag for parameter settings that reduce to operators from the
    literature: the first of _REDUCTIONS whose values params holds."""
    check_type("params", params, OperatorParams)
    return next((tag for tag, fixed in _REDUCTIONS
                 if all(getattr(params, k) == v for k, v in fixed.items())), "none")
