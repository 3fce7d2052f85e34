"""Empirical error measurement and numeric evaluation of the error bounds.

Moduli of continuity are estimated on uniform grids, which gives a lower
bound of the true modulus; the bound checks therefore carry a small
explicit slack.  When no grid size is supplied the grid is sized adaptively
so that the shift window contains a useful number of steps even for very
small radii.

The first modulus over k grid shifts is the largest max - min over windows
of k+1 consecutive grid values, found by sparse-table doubling in
O(n log k) for a grid of n points.  Floating-point subtraction is
monotone, so this equals the largest |f[u+j] - f[u]|, j <= k, bit for bit.
The second modulus is a loop over the k shifts, O(n k): its three-point
difference is not a window range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import OperatorParams
from .dataset import Dataset, to_csv
from .errors import EvaluationError, check_int, check_points, check_real
from .operator_uni import DEFAULT_ORDER, apply_kernel, central_moments, eval_function, kernel_integrals

DEFAULT_MODULUS_GRID = 4001
_ADAPTIVE_TARGET = 32
_ADAPTIVE_CAP = 1_000_001
_SHIFT_EPS = 1e-9


@dataclass(frozen=True)
class ModulusEstimate:
    delta: float
    value: float
    grid_n: int


@dataclass(frozen=True, eq=False)
class ErrorTable:
    params: OperatorParams
    function: object
    rows: list
    max_error: float

    def to_csv(self, comments: tuple[str, ...] = ()) -> str:
        columns = ("z", "exact", "approx", "abs_error")
        footer = (f"max_error={self.max_error!r}",)
        return to_csv(Dataset("error table", tuple(comments), columns, tuple(self.rows), footer))


def _check_finite(values):
    # max() over differences would drop a NaN and report a modulus of 0.0
    if not np.all(np.isfinite(values)):
        raise EvaluationError("function has non-finite values on the modulus grid")
    return values


def _shift_count(delta: float, grid_n: int) -> int:
    return int(min(delta * (grid_n - 1) + _SHIFT_EPS, grid_n - 1))


def _window_extremes(values: np.ndarray, width: int, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Running max and min over every run of `width` consecutive entries
    along `axis`, 1 <= width <= n; the axis shrinks to n - width + 1.

    Sparse-table doubling: after j passes entry i holds the extremes of the
    2**j entries from i on, and one overlapping pair of such spans covers
    any width, so the cost is O(n log width).
    """
    a = np.moveaxis(values, axis, -1)
    hi = lo = a
    span = 1
    while 2 * span <= width:
        hi = np.maximum(hi[..., :-span], hi[..., span:])
        lo = np.minimum(lo[..., :-span], lo[..., span:])
        span *= 2
    if span < width:
        count, rest = a.shape[-1] - width + 1, width - span
        hi = np.maximum(hi[..., :count], hi[..., rest : rest + count])
        lo = np.minimum(lo[..., :count], lo[..., rest : rest + count])
    return np.moveaxis(hi, -1, axis), np.moveaxis(lo, -1, axis)


def _window_range(values: np.ndarray, shifts: int, axis: int = -1) -> float:
    """max |values[u+k] - values[u]| over 0 <= k <= shifts along axis.

    Every entry lies in some window, and max, min and subtraction carry NaN
    and inf through (inf - inf is NaN), so a non-finite entry anywhere
    gives a non-finite range, which raises EvaluationError.
    """
    hi, lo = _window_extremes(values, shifts + 1, axis)
    with np.errstate(invalid="ignore"):
        return float(_check_finite(np.max(hi - lo)))


def modulus_continuity(f, delta: float, grid_n: int = DEFAULT_MODULUS_GRID) -> ModulusEstimate:
    """Grid estimate of sup |f(u+h) - f(u)| over 0 < h <= delta."""
    check_real("delta", delta, closed=True)
    check_int("grid_n", grid_n, 101)
    fs = eval_function(f, np.linspace(0.0, 1.0, grid_n))
    return ModulusEstimate(delta, _window_range(fs, _shift_count(delta, grid_n)), grid_n)


def second_modulus(f, delta: float, grid_n: int = DEFAULT_MODULUS_GRID) -> ModulusEstimate:
    """Grid estimate of sup |f(u+2h) - 2f(u+h) + f(u)| over 0 < h <= delta."""
    check_real("delta", delta, closed=True)
    check_int("grid_n", grid_n, 101)
    fs = _check_finite(eval_function(f, np.linspace(0.0, 1.0, grid_n)))
    best = 0.0
    top = min(_shift_count(delta, grid_n), (grid_n - 1) // 2)
    for k in range(1, top + 1):
        best = max(best, float(np.max(np.abs(fs[2 * k :] - 2.0 * fs[k:-k] + fs[: -2 * k]))))
    return ModulusEstimate(delta, best, grid_n)


def _adaptive_grid_n(delta: float) -> int:
    """Grid size giving about _ADAPTIVE_TARGET shift steps within delta."""
    if delta <= 0.0:
        return DEFAULT_MODULUS_GRID
    n = int(math.ceil(min(_ADAPTIVE_TARGET / delta, _ADAPTIVE_CAP))) + 1
    return max(DEFAULT_MODULUS_GRID, min(n, _ADAPTIVE_CAP))


def bound_t2(params: OperatorParams, f, z: float, grid_n: int | None = None) -> float:
    """Error bound 2*omega(f; sqrt(xi2))."""
    delta = math.sqrt(central_moments(params, z).xi2)
    n = grid_n if grid_n is not None else _adaptive_grid_n(delta)
    return 2.0 * modulus_continuity(f, delta, n).value


def bound_lipschitz(params: OperatorParams, M: float, kappa: float, z: float) -> float:
    """Error bound M * xi2^(kappa/2) for f in the Lipschitz class (M, kappa)."""
    check_real("M", M)
    check_real("kappa", kappa, high=1.0)
    return M * central_moments(params, z).xi2 ** (kappa / 2.0)


def bound_kfunctional(params: OperatorParams, f, z: float, C: float, grid_n: int | None = None) -> float:
    """Error bound C*omega2(f; sqrt(xi2+zeta^2)/2) + omega(f; |zeta|).

    The constant C >= 0 is not determined by the theory and must be supplied.
    """
    check_real("C", C, closed=True)
    cm = central_moments(params, z)
    radius = 0.5 * math.sqrt(cm.xi2 + cm.zeta**2)
    n2 = grid_n if grid_n is not None else _adaptive_grid_n(radius)
    n1 = grid_n if grid_n is not None else _adaptive_grid_n(abs(cm.zeta))
    w2 = second_modulus(f, radius, n2).value
    w1 = modulus_continuity(f, abs(cm.zeta), n1).value
    return C * w2 + w1


def error_table(params: OperatorParams, f, z_values, order: int = DEFAULT_ORDER) -> ErrorTable:
    """Pointwise exact/approximate values and absolute errors over z_values.

    The operator values come from apply_kernel, one point at a time: the
    benchmark's self-test (bench/tests) alters that function to prove that a
    wrong approximation on its bounds workload is caught.
    """
    zs = check_points(z_values).tolist()
    ki = kernel_integrals(params, f, order)
    exact = eval_function(f, np.array(zs)).tolist()
    approx = [apply_kernel(ki, z) for z in zs]
    rows = [(z, e, a, abs(e - a)) for z, e, a in zip(zs, exact, approx)]
    return ErrorTable(params, f, rows, max((row[3] for row in rows), default=0.0))


def max_error(params: OperatorParams, f, grid_n: int = 1001, order: int = DEFAULT_ORDER) -> float:
    """Maximum absolute error over a uniform grid on [0, 1]."""
    check_int("grid_n", grid_n, 101)
    zs = np.linspace(0.0, 1.0, grid_n)
    table = error_table(params, f, zs, order)
    return table.max_error
