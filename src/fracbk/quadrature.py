"""Quadrature for the normalized fractional kernel eta*(1-t)^(eta-1) on [0,1].

The main tool is a Gauss-Jacobi rule built with the Golub-Welsch algorithm:
the nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix of
the weight (1-t)^(eta-1), and the weights are the squared first components
of its eigenvectors.  The matrix is solved densely with numpy.linalg.eigh;
rules are cached, so the O(order^3) solve runs once per (eta, order).  The
eta prefactor is folded into the weights so they sum to one, which makes the
rule a discrete probability measure.  An adaptive Simpson integrator serves
as a slow, independent validation oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureError, check_int, check_real

_MAX_DEPTH = 48


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    eta: float
    order: int
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=256)
def _build_rule(eta: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    # Jacobi weight (1-x)^a (1+x)^b on [-1,1] with a = eta-1, b = 0; the
    # three-term recurrence coefficients below specialize to b = 0.
    a = eta - 1.0
    k = np.arange(1, order)
    diag = np.concatenate(([-a / (a + 2.0)], -a * a / ((2 * k + a) * (2 * k + a + 2.0))))
    off = np.sqrt(4 * k**2 * (k + a) ** 2 / ((2 * k + a) ** 2 * ((2 * k + a) ** 2 - 1.0)))
    jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    try:
        x, vectors = np.linalg.eigh(jacobi)
    except np.linalg.LinAlgError as exc:
        raise QuadratureError(f"eigen-solve failed for eta={eta}, order={order}") from exc
    nodes = (x + 1.0) / 2.0
    weights = vectors[0, :] ** 2
    weights = weights / weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_jacobi_rule(eta: float, order: int) -> QuadratureRule:
    """Gauss rule for eta*(1-t)^(eta-1) dt on [0,1], weights summing to 1."""
    check_real("eta", eta)
    check_int("order", order, 1)
    nodes, weights = _build_rule(float(eta), int(order))
    return QuadratureRule(eta, order, nodes, weights)


def integrate(rule: QuadratureRule, g) -> float:
    """Apply the rule to g, i.e. approximate eta * int_0^1 (1-t)^(eta-1) g(t) dt."""
    nodes = rule.nodes
    vals = None
    try:
        out = g(nodes)
    except (TypeError, ValueError):
        out = None
    if out is not None:
        arr = np.asarray(out, dtype=float)
        if arr.shape == nodes.shape:
            vals = arr
    if vals is None:
        vals = np.array([float(g(t)) for t in nodes])
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("integrand produced non-finite values")
    return float(rule.weights @ vals)


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
