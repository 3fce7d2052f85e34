"""Generalized blending basis underlying the operators.

For degree m, shape parameter alpha in [0,1] and blending parameter s >= 0
the basis row at z consists of m+1 non-negative weights forming a partition
of unity.  When m < s the row is the classical Bernstein row; otherwise each
weight blends the classical term (weight alpha) with two degree-(m-s) terms
(weight 1-alpha).  s=1 and alpha=1 both reduce to the classical basis, and
s=2 gives the familiar alpha-Bernstein basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import _check_eta
from .specfun import LOG_ZERO, log_binomial


@dataclass(frozen=True)
class OperatorParams:
    """Parameters (m, eta, gamma, alpha, s) of one univariate operator."""

    m: int
    eta: float
    gamma: float
    alpha: float
    s: int

    def __post_init__(self):
        for name in ("m", "s"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise DomainError(f"{name} must be an int, got {value!r}")
        if self.m < 1:
            raise DomainError(f"degree m must be >= 1, got {self.m}")
        _check_eta(self.eta)
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise DomainError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.s < 0:
            raise DomainError(f"s must be a non-negative integer, got {self.s}")


@dataclass(frozen=True, eq=False)
class BasisRow:
    degree: int
    point: float
    weights: np.ndarray


# log(k!) for k = 0..size-1; read-only, grown on demand by _log_factorials.
_LOG_FACTORIAL = np.array([math.lgamma(k + 1.0) for k in range(256)])
_LOG_FACTORIAL.setflags(write=False)


def _log_factorials(n: int) -> np.ndarray:
    """The log-factorial table, grown first if it does not reach log(n!).

    Growth adds only the missing entries and at least doubles the size, so
    rising degree sweeps amortise it, and the table never holds more than
    2*(n+1) entries for the largest n seen (or the initial 256).
    """
    global _LOG_FACTORIAL
    table = _LOG_FACTORIAL
    if n >= table.size:
        extra = [math.lgamma(k + 1.0) for k in range(table.size, max(n + 1, 2 * table.size))]
        table = np.concatenate((table, extra))
        table.setflags(write=False)
        _LOG_FACTORIAL = table
    return table


def bernstein_row(n: int, z: float) -> np.ndarray:
    """Classical Bernstein row of degree n at z, computed in log space."""
    if n < 0:
        raise DomainError(f"degree n must be >= 0, got {n}")
    if n == 0:
        return np.ones(1)
    if z == 0.0:
        row = np.zeros(n + 1)
        row[0] = 1.0
        return row
    if z == 1.0:
        row = np.zeros(n + 1)
        row[-1] = 1.0
        return row
    lf = _log_factorials(n)
    j = np.arange(n + 1)
    logc = lf[n] - lf[: n + 1] - lf[n::-1]
    return np.exp(logc + j * math.log(z) + (n - j) * math.log1p(-z))


def _check_point(z: float) -> None:
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"z must lie in [0, 1], got {z}")


def basis_row(params: OperatorParams, z: float) -> BasisRow:
    """All m+1 basis weights at z.

    The m >= s branch is assembled from two Bernstein rows: the degree-m row
    and the degree-(m-s) row shifted by s indices (scaled by z) or kept in
    place (scaled by 1-z).  This composition makes partition of unity
    automatic and is numerically stable for large m.
    """
    _check_point(z)
    m, s, alpha = params.m, params.s, params.alpha
    if m < s:
        return BasisRow(m, z, bernstein_row(m, z))
    weights = alpha * bernstein_row(m, z)
    sub = bernstein_row(m - s, z)
    weights[s:] += (1.0 - alpha) * z * sub
    weights[: m - s + 1] += (1.0 - alpha) * (1.0 - z) * sub
    return BasisRow(m, z, weights)


def _term(log_coeff: float, z: float, a: int, b: int) -> float:
    """exp(log_coeff) * z^a * (1-z)^b with 0^0 = 1 at the endpoints."""
    if log_coeff == LOG_ZERO:
        return 0.0
    if z == 0.0:
        return math.exp(log_coeff) if a == 0 else 0.0
    if z == 1.0:
        return math.exp(log_coeff) if b == 0 else 0.0
    return math.exp(log_coeff + a * math.log(z) + b * math.log1p(-z))


def basis_weight(params: OperatorParams, j: int, z: float) -> float:
    """Single basis weight, evaluated directly from the three-term formula.

    Kept separate from basis_row as an independent scalar implementation;
    the two agree to rounding and cross-validate each other.
    """
    m, s, alpha = params.m, params.s, params.alpha
    if not 0 <= j <= m:
        raise DomainError(f"index j must lie in [0, {m}], got {j}")
    _check_point(z)
    if m < s:
        return _term(log_binomial(m, j), z, j, m - j)
    t1 = (1.0 - alpha) * _term(log_binomial(m - s, j - s), z, j - s + 1, m - j)
    t2 = (1.0 - alpha) * _term(log_binomial(m - s, j), z, j, m - s - j + 1)
    t3 = alpha * _term(log_binomial(m, j), z, j, m - j)
    return t1 + t2 + t3
