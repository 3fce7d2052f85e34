"""Gamma, Beta and binomial primitives plus the Gamma-ratio moment
coefficients used by the closed-form operator moments.

Everything is computed in log space so that degrees up to 10^4 stay inside
double range.  Out-of-range binomial coefficients are represented by the
value -inf, whose exponential is an exact zero.
"""

from __future__ import annotations

import math

from .errors import check_int, check_real

#: log of a binomial coefficient that is identically zero.
LOG_ZERO = float("-inf")


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for 0 < x <= 2.5e305 (lgamma overflows)."""
    check_real("log_gamma argument", x, high=2.5e305)
    return math.lgamma(x)


def beta(y: float, z: float) -> float:
    """Euler Beta function B(y, z) = Gamma(y)Gamma(z)/Gamma(y+z)."""
    return math.exp(log_gamma(y) + log_gamma(z) - log_gamma(y + z))


def log_binomial(n: int, k: int) -> float:
    """Log of C(n, k); returns LOG_ZERO (-inf) when k is outside [0, n]."""
    check_int("n", n)
    if check_int("k", k, -math.inf) < 0 or k > n:
        return LOG_ZERO
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def binomial(n: int, k: int) -> float:
    """C(n, k) as a float, exactly zero outside 0 <= k <= n."""
    return math.exp(log_binomial(n, k))


def moment_coeff(eta: float, gamma: float, k: int) -> float:
    """Gamma(eta+1)Gamma(gamma*k+1)/Gamma(eta+gamma*k+1).

    This is the k-th kernel moment: the weighted integral of t^(gamma*k)
    against the normalized kernel eta*(1-t)^(eta-1).  It equals 1 at k=0 and
    decreases strictly with k.
    """
    check_real("eta", eta)
    check_real("gamma", gamma)
    check_int("k", k)
    return math.exp(log_gamma(eta + 1.0) + log_gamma(gamma * k + 1.0) - log_gamma(eta + gamma * k + 1.0))
