"""Quadrature for the normalized fractional kernel eta*(1-t)^(eta-1) on [0,1].

The tool is a Gauss-Jacobi rule built with the Golub-Welsch algorithm
(Golub & Welsch 1969): the nodes are the eigenvalues of the symmetric
tridiagonal Jacobi matrix of the weight, and the weights are the squared
first components of its eigenvectors.  The matrix is solved densely with
numpy.linalg.eigh; rules are cached, so the O(order^3) solve runs once per
(eta, order, p).  The eta prefactor is folded into the weights so they sum
to one, which makes the rule a discrete probability measure.

The operator's kernel integrals take f((j + t^gamma)/(m+1)) against the
kernel.  For a non-integer gamma, t^gamma is not smooth at t=0 and a plain
Gauss rule converges only algebraically, so the kernel rule is graded
there: with t = u^p the kernel becomes the Jacobi weight
(1-u)^(eta-1) u^(p-1) times the smooth factor (1+u+...+u^(p-1))^(eta-1),
and the argument u^(p*gamma) is smooth enough for fast convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureError, check_int, check_real, check_type
from .exprlib import eval_function


# a rule solves a dense order x order matrix: 128 MB at this bound
_MAX_ORDER = 4096


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=256)
def _build_rule(eta: float, order: int, p: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t = u^p and weights, summing to 1, for eta*(1-t)^(eta-1) dt,
    from the Gauss rule of the Jacobi weight (1-x)^a (1+x)^b on [-1,1] with
    a = eta-1, b = p-1 (Gautschi 2004, the general three-term recurrence)."""
    a, b = eta - 1.0, p - 1.0
    k = np.arange(1, order)
    s = 2 * k + a + b
    # at eta below ~1e-16, eta - 1 rounds to -1 and s**2 - 1 (or k + a) to 0
    with np.errstate(all="ignore"):
        diag = np.concatenate(([(b - a) / (a + b + 2.0)], (b * b - a * a) / (s * (s + 2.0))))
        off = np.sqrt(4 * k * (k + b) * ((k + a) * (k + a + b)) / (s**2 * (s**2 - 1.0)))
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise QuadratureError(f"Jacobi matrix not finite for eta={eta}, order={order}")
    jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    try:
        x, vectors = np.linalg.eigh(jacobi)
    except np.linalg.LinAlgError as exc:
        raise QuadratureError(f"eigen-solve failed for eta={eta}, order={order}") from exc
    nodes = (x + 1.0) / 2.0
    weights = vectors[0, :] ** 2
    if p > 1:
        weights = weights * np.sum(nodes[:, None] ** np.arange(p), axis=1) ** a
        nodes = nodes**p
    weights = weights / weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _kernel_rule(eta: float, gamma: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Points t^gamma and weights of the kernel rule: the plain Gauss rule
    for an integer gamma, else the rule graded with p = ceil(8/(gamma+1))."""
    check_int("order", order, 1, _MAX_ORDER)
    p = 1 if float(gamma).is_integer() else math.ceil(8.0 / (gamma + 1.0))
    nodes, weights = _build_rule(float(eta), int(order), p)
    return nodes**gamma, weights


def gauss_jacobi_rule(eta: float, order: int) -> QuadratureRule:
    """Gauss rule for eta*(1-t)^(eta-1) dt on [0,1], weights summing to 1."""
    check_real("eta", eta)
    check_int("order", order, 1, _MAX_ORDER)
    # p given explicitly: the same cache entry as _kernel_rule's at p = 1
    nodes, weights = _build_rule(float(eta), int(order), 1)
    return QuadratureRule(nodes, weights)


def integrate(rule: QuadratureRule, g) -> float:
    """Apply the rule to g, an expression or a vectorised callable taken at all
    the nodes at once: approximately eta * int_0^1 (1-t)^(eta-1) g(t) dt."""
    vals = eval_function(g, check_type("rule", rule, QuadratureRule).nodes)
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("integrand produced non-finite values")
    return float(rule.weights @ vals)
