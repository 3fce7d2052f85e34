"""Generalized blending basis underlying the operators.

For degree m, shape parameter alpha in [0,1] and blending parameter s >= 0
the basis row at z consists of m+1 non-negative weights forming a partition
of unity.  When m < s the row is the classical Bernstein row; otherwise it
is one dense row that adds, in this order, alpha times the degree-m row,
(1-alpha)z times the degree-(m-s) row shifted by s columns and (1-alpha)(1-z)
times that row in place.  s=1 and alpha=1 both reduce to the classical basis,
and s=2 gives the familiar alpha-Bernstein basis.  Each Bernstein row is
walked out from its mode by the ratios of neighbouring weights, so the
weights near the mode are right to 2e-13 relative at every degree up to 10**6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_int, check_point, check_points, check_real, check_type


@dataclass(frozen=True)
class OperatorParams:
    """Parameters (m, eta, gamma, alpha, s) of one univariate operator."""

    m: int
    eta: float
    gamma: float
    alpha: float
    s: int

    def __post_init__(self):
        check_int("m", self.m, 1, 2**53 - 1)  # m + 1.0 is exact
        check_real("eta", self.eta)
        check_real("gamma", self.gamma)
        check_real("alpha", self.alpha, 0.0, 1.0, closed=True)
        check_int("s", self.s)


@dataclass(frozen=True, eq=False)
class BasisRow:
    weights: np.ndarray


# Upper bound on the weights held by one block of basis rows (512 KiB of
# float64), so long rows are built a few at a time.
_BLOCK_ELEMENTS = 1 << 16


def _bernstein_rows(degrees: tuple, z: np.ndarray, parts: tuple) -> np.ndarray:
    """One row of degrees[0] + 1 columns per checked point of the column z:
    the sum, in the order of parts (d, shift, scale), of scale (a float or a
    column) times the Bernstein row of degree degrees[d] moved right by shift.

    The degrees are walked together, the largest first.  Each row starts at
    its mode c = min(floor((n+1)z), n) with 2**600, so that every weight
    above 2**-1600 of the mode's stays a normal float (the weights fall away
    from c), and is walked outward with a cumulative product of the ratios
    r(j) = (n-j+1)/j * z/(1-z) of column j to column j-1 above c and of
    their inverses below c, reach = min(n, isqrt(400n)) columns either way,
    then divided by its sum over those 2*reach + 1 columns in a fixed order.
    With only + - * /, a row is the same in every block and beside every
    other degree; rows at 0 and 1 are unit vectors.  Hoeffding (1963) gives
    B_{n,j}(z) <= exp(-2(j-nz)^2/n), and c is within 1 of nz, so columns
    beyond the reach hold less than exp(-796): 0.0 in floats, also where a
    smaller degree is walked as far as the largest.  A part is added over
    its walked window only: the row holds exact zeros elsewhere.
    """
    reaches = [min(n, math.isqrt(400 * n)) for n in degrees]
    reach = reaches[0]
    n = np.array(degrees, dtype=float)[:, None, None]
    mode = np.minimum(np.floor((n + 1.0) * z), n)
    # the ratio at column mode + e is r(t) above the mode (t = mode + e) and
    # 1/r(t) below it (t = mode + e + 1, the column it steps from)
    steps = np.arange(-reach, reach + 1.0)
    steps[:reach] += 1.0
    with np.errstate(all="ignore"):  # z = 0, 1 or subnormal, and steps past 0 or n
        t = mode + steps
        walk = n + 1.0 - t
        walk /= t
        walk *= z / (1.0 - z)
        np.divide(1.0, walk[..., :reach], out=walk[..., :reach])
        np.fmax(0.0, walk, out=walk)
    walk[..., reach] = 2.0**600
    np.multiply.accumulate(walk[..., reach:], axis=-1, out=walk[..., reach:])
    np.multiply.accumulate(walk[..., reach::-1], axis=-1, out=walk[..., reach::-1])
    for d, r in enumerate(reaches):
        walk[d] /= np.add.reduce(walk[d, :, reach - r : reach + r + 1], axis=1, keepdims=True)
    # windows[i, c] holds columns c - reach .. c + reach of row i; the steps
    # past 0 and n land in the reach-wide margins
    rows = np.zeros((z.size, degrees[0] + 1 + 2 * reach))
    windows = np.ndarray((z.size, degrees[0] + 1, 2 * reach + 1), buffer=rows,
                         strides=(*rows.strides, rows.itemsize))
    points, mode = np.arange(z.size), mode[..., 0].astype(np.intp)
    for d, shift, scale in parts:
        windows[points, mode[d] + shift] += scale * walk[d]
    return rows[:, reach : reach + degrees[0] + 1]


def bernstein_row(n: int, z: float) -> np.ndarray:
    """Classical Bernstein row of degree n at z, walked out from its mode."""
    check_int("n", n, 0, 2**53 - 1)  # n + 1.0 is exact
    return _bernstein_rows((n,), np.array([[check_point(z)]]), ((0, 0, 1.0),))[0]


def _row_blocks(params: OperatorParams, zs: np.ndarray):
    """(slice, rows) for consecutive blocks of the checked points zs, each
    block holding at most _BLOCK_ELEMENTS weights (and at least one point).

    For m >= s each row adds the three parts of the blend in the order the
    module docstring gives.  This composition makes partition of unity
    automatic and is numerically stable for large m.
    """
    m, s, alpha = params.m, params.s, params.alpha
    degrees = (m,) if m < s else (m, m - s)
    step = max(1, _BLOCK_ELEMENTS // (m + 1))
    for start in range(0, zs.size, step):
        z = zs[start : start + step, None]
        parts = ((0, 0, 1.0),) if m < s else ((0, 0, alpha), (1, s, (1.0 - alpha) * z),
                                                (1, 0, (1.0 - alpha) * (1.0 - z)))
        yield slice(start, start + step), _bernstein_rows(degrees, z, parts)


def basis_matrix(params: OperatorParams, zs) -> np.ndarray:
    """The basis rows at every point of zs, shape (len(zs), m+1), built in
    blocks of at most _BLOCK_ELEMENTS weights to bound the temporaries."""
    check_type("params", params, OperatorParams)
    zs = check_points(zs)
    out = np.empty((zs.size, params.m + 1))
    for block, rows in _row_blocks(params, zs):
        out[block] = rows
    return out


def basis_row(params: OperatorParams, z: float) -> BasisRow:
    """All m+1 basis weights at z; one row of basis_matrix, taken from its
    one-point block."""
    check_type("params", params, OperatorParams)
    (_block, rows), = _row_blocks(params, np.array([check_point(z)]))
    return BasisRow(rows[0])
