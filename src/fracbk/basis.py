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


# Upper bound on the weights held by one block of basis rows (512 KiB of
# float64), so long rows are built a few at a time.
_BLOCK_ELEMENTS = 1 << 16


def _log_points(z: list):
    """Columns of log z and log1p(-z) at the checked points z, with 0.5
    standing in at 0 and 1, (index, unit column) of each such endpoint, and
    (min z, max z).  math.log per point, not numpy's array logarithm (which
    differs in the last bit at some points), makes a row the same whatever
    block holds it."""
    safe = [v if 0.0 < v < 1.0 else 0.5 for v in z]
    ends = [(i, 0 if v == 0.0 else -1) for i, v in enumerate(z) if v == 0.0 or v == 1.0]
    log_z, log_1mz = np.array([[math.log(v)] for v in safe]), np.array([[math.log1p(-v)] for v in safe])
    return log_z, log_1mz, ends, (min(z), max(z))


def _bernstein_band(n: int, logs) -> tuple[slice, np.ndarray]:
    """(cols, rows): the columns lo:hi of the Bernstein rows of degree n at
    the points of logs = _log_points(z) outside which every entry of the
    full rows is exactly 0.0, each entry computed in log space with the
    operations of the full row; rows at 0 and 1 are unit vectors.

    Hoeffding (1963) gives B_{n,j}(z) <= exp(-2(j-nz)^2/n), so for |j - nz|
    > sqrt(400n) the log-weight is below -800.  The computed exponent is
    off from it by far less than the 55 between -800 and exp's underflow to
    0.0 below -745.13, and the + 1 in h covers the rounding of n*z.  For n
    up to about 1,600 the band is all of 0..n.
    """
    log_z, log_1mz, ends, (zmin, zmax) = logs
    h = math.sqrt(400.0 * n) + 1.0
    lo, hi = max(0, math.floor(n * zmin - h)), min(n, math.ceil(n * zmax + h)) + 1
    lf = _log_factorials(n)
    j = np.arange(lo, hi + 0.0)
    rows = np.exp(lf[n] - lf[lo:hi] - lf[n - lo :: -1][: hi - lo] + j * log_z + (n - j) * log_1mz)
    for i, k in ends:  # a point 0 (1) puts column 0 (n) in the band
        rows[i] = 0.0
        rows[i, k] = 1.0
    return slice(lo, hi), rows


def _bernstein_matrix(n: int, logs) -> tuple[slice, np.ndarray]:
    """(cols, rows): the Bernstein rows of degree n, dense, and the band
    cols of _bernstein_band, outside which they are zeros."""
    cols, band = _bernstein_band(n, logs)
    if band.shape[1] == n + 1:
        return cols, band
    rows = np.zeros((band.shape[0], n + 1))
    rows[:, cols] = band
    return cols, rows


def bernstein_row(n: int, z: float) -> np.ndarray:
    """Classical Bernstein row of degree n at z, computed in log space."""
    check_int("n", n)
    return _bernstein_matrix(n, _log_points([check_point(z)]))[1][0]


def _row_blocks(params: OperatorParams, zs: np.ndarray):
    """(slice, rows) for consecutive blocks of the checked points zs, each
    block holding at most _BLOCK_ELEMENTS weights (and at least one point).

    For m >= s each row is assembled from two Bernstein rows: the degree-m
    row and the degree-(m-s) row shifted by s indices (scaled by z) or kept
    in place (scaled by 1-z).  This composition makes partition of unity
    automatic and is numerically stable for large m.
    """
    m, s, alpha = params.m, params.s, params.alpha
    step = max(1, _BLOCK_ELEMENTS // (m + 1))
    for start in range(0, zs.size, step):
        z = zs[start : start + step]
        logs = _log_points(z.tolist())
        cols, rows = _bernstein_matrix(m, logs)
        if m >= s:  # outside the bands the full rows would scale and add zeros
            rows[:, cols] *= alpha
            cols, sub = _bernstein_band(m - s, logs)
            z = z[:, None]
            rows[:, cols.start + s : cols.stop + s] += (1.0 - alpha) * z * sub
            rows[:, cols] += (1.0 - alpha) * (1.0 - z) * sub
        yield slice(start, start + step), rows


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
