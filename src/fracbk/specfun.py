"""Gamma, Beta and binomial primitives plus the Gamma-ratio moment
coefficients used by the closed-form operator moments.

Gamma, Beta and the moments are computed in log space so that degrees up
to 10^4 stay inside double range.  binomial is the exact integer rounded
once to a float, and outside 0 <= k <= n an exact zero (log_binomial -inf).
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
    """Log of C(n, k) for n < 2^53: the log of binomial where C(n, k) is a
    finite float, else from lgamma (absolute error about n log(n) 2^-53);
    LOG_ZERO (-inf) when k is outside [0, n]."""
    c = binomial(check_int("n", n, 0, 2**53 - 1), k)
    if c < math.inf:
        return math.log(c) if c else LOG_ZERO
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def binomial(n: int, k: int) -> float:
    """C(n, k) as a float: math.comb rounded once, inf above the float
    range, exactly zero outside 0 <= k <= n."""
    check_int("n", n)
    if check_int("k", k, -math.inf) < 0 or k > n:
        return 0.0
    j = min(k, n - k)
    if j and j * (math.log(n) - math.log(j)) > 710.0:  # C(n, j) >= (n/j)^j > e^710
        return math.inf
    try:
        return float(math.comb(n, j))
    except OverflowError:
        return math.inf


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
