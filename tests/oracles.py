"""Slow, independent implementations that the tests check the library against.

adaptive_reference integrates against the fractional kernel by adaptive
Simpson subdivision, basis_weight evaluates one basis weight from the
three-term formula, window_range takes the range over every run of cells
one offset at a time, and second_difference_max the largest second
difference of grid values one shift at a time; none shares code with the
library paths.
"""

import math

import numpy as np

from fracbk.errors import DomainError, QuadratureError, check_int, check_points, check_real

_MAX_DEPTH = 48


def _simpson(h, a: float, fa: float, fm: float, fb: float, b: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _refine(h, a, b, fa, fm, fb, whole, tol, depth):
    if depth <= 0:
        raise QuadratureError("adaptive refinement budget exceeded; tolerance unreachable")
    mid = 0.5 * (a + b)
    flm = h(0.5 * (a + mid))
    frm = h(0.5 * (mid + b))
    left = _simpson(h, a, fa, flm, fm, mid)
    right = _simpson(h, mid, fm, frm, fb, b)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    return _refine(h, a, mid, fa, flm, fm, left, 0.5 * tol, depth - 1) + _refine(
        h, mid, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def _adaptive_simpson(h, tol: float) -> float:
    fa, fm, fb = h(0.0), h(0.5), h(1.0)
    whole = _simpson(h, 0.0, fa, fm, fb, 1.0)
    return _refine(h, 0.0, 1.0, fa, fm, fb, whole, tol, _MAX_DEPTH)


def adaptive_reference(eta: float, g, tol: float) -> float:
    """Slow adaptive-Simpson evaluation of the kernel integral, for validation.

    For eta < 1 the kernel is singular at t=1; the substitution u = (1-t)^eta
    turns the integral into int_0^1 g(1 - u^(1/eta)) du with a bounded
    integrand, which the subdivision then handles.
    """
    check_real("eta", eta)
    check_real("tol", tol, 1e-13, closed=True)

    if eta >= 1.0:
        def h(t: float) -> float:
            v = eta * (1.0 - t) ** (eta - 1.0) * float(g(t))
            if not math.isfinite(v):
                raise QuadratureError(f"integrand not finite at t={t}")
            return v
    else:
        inv = 1.0 / eta

        def h(u: float) -> float:
            v = float(g(1.0 - u**inv))
            if not math.isfinite(v):
                raise QuadratureError(f"integrand not finite at u={u}")
            return v

    return _adaptive_simpson(h, tol)


def _log_binomial(n: int, k: int) -> float:
    """log C(n, k) from the exact integer; -inf outside 0 <= k <= n."""
    return math.log(math.comb(n, k)) if 0 <= k <= n else -math.inf


def _term(log_coeff: float, z: float, a: int, b: int) -> float:
    """exp(log_coeff) * z^a * (1-z)^b with 0^0 = 1 at the endpoints."""
    if log_coeff == -math.inf:
        return 0.0
    if z == 0.0:
        return math.exp(log_coeff) if a == 0 else 0.0
    if z == 1.0:
        return math.exp(log_coeff) if b == 0 else 0.0
    return math.exp(log_coeff + a * math.log(z) + b * math.log1p(-z))


def basis_weight(params, j: int, z: float) -> float:
    """Single basis weight, evaluated directly from the three-term formula,
    as an independent scalar check on basis_row and basis_matrix."""
    m, s, alpha = params.m, params.s, params.alpha
    if check_int("j", j) > m:
        raise DomainError(f"index j must lie in [0, {m}], got {j}")
    check_points(z)
    if m < s:
        return _term(_log_binomial(m, j), z, j, m - j)
    t1 = (1.0 - alpha) * _term(_log_binomial(m - s, j - s), z, j - s + 1, m - j)
    t2 = (1.0 - alpha) * _term(_log_binomial(m - s, j), z, j, m - s - j + 1)
    t3 = alpha * _term(_log_binomial(m, j), z, j, m - j)
    return t1 + t2 + t3


def window_max(values, width: int, axis: int = -1):
    """Max over every run of `width` consecutive entries along `axis`, one
    np.maximum per offset in the run: O(n * width), NaN kept."""
    a = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    count = a.shape[-1] - width + 1
    out = a[..., :count]
    for j in range(1, width):
        out = np.maximum(out, a[..., j : j + count])
    return np.moveaxis(out, -1, axis)


def window_range(hi, lo, runs: int, axes) -> float:
    """The largest max hi - min lo over every run of `runs` cells (at most
    the whole axis) along each of `axes`: NaN if a value in a run is NaN,
    and inf - inf is NaN."""
    for axis in axes:
        width = min(runs, np.shape(hi)[axis])
        hi, lo = window_max(hi, width, axis), -window_max(-np.asarray(lo), width, axis)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(hi - lo))


def second_difference_max(values, shifts: int) -> float:
    """The largest |f[u+2k] - 2 f[u+k] + f[u]| over grid values f and
    1 <= k <= shifts, one shift at a time: O(n * shifts), inf where a
    difference passes the float range."""
    best = 0.0
    with np.errstate(over="ignore"):
        for k in range(1, shifts + 1):
            best = max(best, float(np.max(np.abs(values[2 * k :] - 2.0 * values[k:-k] + values[: -2 * k]))))
    return best
