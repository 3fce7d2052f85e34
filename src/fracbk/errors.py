"""Exception types shared across the package and the argument checks."""

import math
import numbers

import numpy as np


class FracbkError(Exception):
    """Base class for all package-specific errors."""


class ParseError(FracbkError):
    """Lexical or syntactic error in a function expression.

    Carries the character position where scanning or parsing failed.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class EvaluationError(FracbkError):
    """Expression evaluation failed (unbound variable, division by zero,
    non-finite intermediate value)."""


class DomainError(FracbkError):
    """A numeric argument lies outside the mathematical domain of an
    operation (e.g. a non-positive Gamma argument, alpha outside [0,1])."""


class UnsupportedOrderError(FracbkError):
    """A moment order was requested for which no closed form exists."""


class QuadratureError(FracbkError):
    """Quadrature failed: a rule's Jacobi matrix was not finite (eta below
    about 1e-16) or its eigen-solve did not converge, or an integrand
    produced non-finite values."""


def check_int(name: str, value, low: float = 0, high: float = math.inf):
    """value if it is an int or numpy integer (never a bool) in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise DomainError(f"{name} must be an int, got {value!r}")
    if value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")
    if value > high:
        raise DomainError(f"{name} must be <= {high}, got {value}")
    return value


def check_real(name: str, value, low: float = 0.0, high: float = math.inf, closed: bool = False):
    """value if it is a finite real in (low, high], or [low, high] if closed."""
    if not (isinstance(value, (float, numbers.Real)) and math.isfinite(value) and value <= high
            and (low <= value if closed else low < value)):
        bracket, sign = ("[", ">=") if closed else ("(", ">")
        where = f"in {bracket}{low:g}, {high:g}]" if high < math.inf else f"{sign} {low:g}"
        where = {"> 0": "positive", ">= 0": "non-negative"}.get(where, where)
        raise DomainError(f"{name} must be {where} and finite, got {value}")
    return value


def check_points(zs, name: str = "z") -> np.ndarray:
    """The points as a 1-D float array, rejecting NaN and points off [0, 1]
    as values of the variable `name`."""
    zs = np.asarray(zs, dtype=float).reshape(-1)
    # min and max carry a NaN through, so this also rejects NaN
    if zs.size and not (0.0 <= zs.min() and zs.max() <= 1.0):
        bad = zs[~((zs >= 0.0) & (zs <= 1.0))]
        raise DomainError(f"{name} must lie in [0, 1], got {float(bad[0])}")
    return zs
