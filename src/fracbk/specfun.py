"""The Gamma-ratio moment coefficients used by the closed-form operator
moments, computed in log space so that degrees up to 10^4 stay inside
double range.
"""

from __future__ import annotations

import functools
import math

from .errors import check_int, check_real


def _log_gamma(x: float) -> float:
    """Natural log of the Gamma function for 0 < x <= 1e5: past that the lgamma
    differences in moment_coeff cancel (1.2e-9 relative at 2e5, 1.0 at 1e17)."""
    check_real("log_gamma argument", x, high=1e5)
    return math.lgamma(x)


def moment_coeff(eta: float, gamma: float, k: int) -> float:
    """Gamma(eta+1)Gamma(gamma*k+1)/Gamma(eta+gamma*k+1).

    This is the k-th kernel moment: the weighted integral of t^(gamma*k)
    against the normalized kernel eta*(1-t)^(eta-1).  It equals 1 at k=0 and
    decreases strictly with k.
    """
    check_real("eta", eta)
    check_real("gamma", gamma)
    check_int("k", k)
    return _moment_coeff(eta, gamma, k)


@functools.lru_cache(maxsize=1024, typed=True)
def _moment_coeff(eta: float, gamma: float, k: int) -> float:
    return math.exp(_log_gamma(eta + 1.0) + _log_gamma(gamma * k + 1.0) - _log_gamma(eta + gamma * k + 1.0))
