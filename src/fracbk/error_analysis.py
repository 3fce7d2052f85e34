"""Empirical error measurement, the moduli of continuity, and numeric
evaluation of the error bounds.

The bounds are built from moduli of continuity: omega and omega_2 of f(z)
on [0, 1], and the partial and complete moduli of F(z, y) on [0, 1]^2.
All but omega_2 run through one window engine, _run_range: the largest
max hi - min lo over runs of k entries along some axes of ends = (hi, -lo),
by sparse-table doubling in O(n log k), one cache-sized block at a time.

For an expression these are certified upper bounds: interval enclosures
(exprlib.enclose) of f on equal cells per axis give, for a run of cells,
an interval holding every value f takes there, and any two points closer
than delta along an axis lie in one run of ceil(delta/h) + 1 cells of
width h along it.  The enclosures are built once per expression, cell
count and number of axes, checked against f at the cell corners, and kept
in a small cache; on one axis they are also merged pairwise into coarser
levels, so that a large radius reads a short array; runs of at least 128
cells read them, so they keep the maxima of their 128-cell runs.  Each
level also keeps the run ranges it has given, keyed by (runs, axes) with
runs clipped to the axis length, so a repeated radius reads a dict: the
values are the ones the engine would recompute, and they leave with the
cache entry.  The two-axis moduli evaluate F at the cell corners and check
them once more on every call, so that a traced run counts those
evaluations.  omega_2 is at most delta^2 * sup |f''| (a symbolic second
derivative, enclosed on fewer cells) and at most twice omega.

For a plain callable, which has no expression tree, the moduli are grid
estimates from below: the grid values enter the engine as zero-width
enclosures, and differ from enclosures only in the run count (k+1 points
for k grid shifts) and in raising on a non-finite grid value where an
enclosure reads inf; a difference of finite values past the float range
reads inf on both.  Subtraction is monotone, so the largest max - min
over runs of k+1 values equals the largest |f[u+j] - f[u]|, j <= k, bit
for bit.  The complete modulus takes the runs in its disc one row offset
at a time; omega_2 is a loop over the k shifts, O(n k).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import _BLOCK_ELEMENTS, OperatorParams
from .dataset import Dataset, to_csv
from .errors import EvaluationError, check_int, check_points, check_real
from .exprlib import FunctionExpr, enclose, second_derivative
from .operator_uni import DEFAULT_ORDER, apply_kernel, central_moments, eval_function, kernel_integrals

# Per axis, for the moduli on one axis and on two: an expression's
# enclosure cells by default and at most, and a callable's grid points by
# default.  The default cell counts are powers of two, so the cell ends i/n
# are exact.
_RESOLUTION = {1: (1 << 16, 1 << 16, 10_001), 2: (256, 320, 256)}
# Enclosure cells of f'' on [0, 1]
_SECOND_CELLS = 1 << 12
# A modulus reads the coarsest merged level on which its runs still span at
# least this many cells, so a run is at most 2/_RUN_CELLS longer than delta.
_RUN_CELLS = 128
_SHIFT_EPS = 1e-9


@dataclass(frozen=True)
class ModulusEstimate:
    """A modulus value: certified (an upper bound, for an expression, on
    grid_n cells) or an estimate from below (a callable on grid_n points)."""

    delta: float
    value: float
    grid_n: int
    certified: bool


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


def _shift_count(delta: float, grid_n: int) -> int:
    return int(min(delta * (grid_n - 1) + _SHIFT_EPS, grid_n - 1))


def _window_max(values: np.ndarray, width: int, axis: int = -1, span: int = 1) -> np.ndarray:
    """Running max over every run of `width` consecutive cells along `axis`
    of a table whose entry i holds the max of the `span` cells from i on
    (span 1: the cells themselves), span <= width <= cells; n entries
    cover n + span - 1 cells, and the axis shrinks to n + span - width.

    Sparse-table doubling: after j passes entry i holds the max of the
    span * 2**j cells from i on, and one overlapping pair of such spans
    covers any width, so the cost is O(n log(width / span)).
    """
    hi = np.moveaxis(values, axis, -1)
    count = hi.shape[-1] + span - width
    while 2 * span <= width:
        hi = np.maximum(hi[..., :-span], hi[..., span:])
        span *= 2
    if span < width:
        rest = width - span
        hi = np.maximum(hi[..., :count], hi[..., rest : rest + count])
    return np.moveaxis(hi, -1, axis)


def _on_axis(u: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    return u.reshape([-1 if i == axis else 1 for i in range(ndim)])


def _grid(f, n: int, ndim: int) -> np.ndarray:
    """f on n equally spaced points per axis of [0, 1]^ndim, axis i holding
    the i-th variable (z, then y); EvaluationError where a value is not
    finite."""
    u = np.linspace(0.0, 1.0, n)
    values = eval_function(f, *(_on_axis(u, i, ndim) for i in range(ndim)))
    # max() over differences would drop a NaN and report a modulus of 0.0
    if not np.all(np.isfinite(values)):
        raise EvaluationError("function has non-finite values on the modulus grid")
    return values


def _check_corners(f: FunctionExpr, ends: np.ndarray) -> None:
    """f at the corners of the cells of ends = (hi, -lo): finite, as a grid
    must be, and inside the enclosure of every cell it bounds."""
    values = _grid(f, ends.shape[-1] + 1, ends.ndim - 1)
    for corner in itertools.product((slice(None, -1), slice(1, None)), repeat=values.ndim):
        v = values[corner]
        if not np.all((v <= ends[0]) & (-v <= ends[1])):
            raise EvaluationError("an interval enclosure misses a value of the function")


def _run_range(ends: np.ndarray, runs: int, axes, span: int = 1) -> float:
    """max hi - min lo over every run of `runs` cells (at most the whole
    axis) along each of the negative axes of ends = (hi, -lo), a table of
    span-cell maxima along them as in _window_max, in blocks of the first
    cell axis of _BLOCK_ELEMENTS values (runs - span cells if more), each
    with the runs - span entries it shares with the next if that axis is
    windowed.  Max, min, addition and np.max carry NaN and inf through
    (inf - inf is NaN), and a range past the float range is inf."""
    widths = {axis: min(runs, ends.shape[axis] + span - 1) for axis in axes}
    shared = widths.get(1 - ends.ndim, span) - span
    step = max(_BLOCK_ELEMENTS * ends.shape[1] // ends.size, shared, 1)
    tops = []
    for i in range(0, ends.shape[1] - shared, step):
        block = ends[:, i : i + step + shared]
        for axis, width in widths.items():
            block = _window_max(block, width, axis, span)
        with np.errstate(over="ignore", invalid="ignore"):
            tops.append(np.max(block[0] + block[1]))
    return float(np.max(tops))


def _resolution(f, grid_n: int | None, ndim: int) -> int:
    """grid_n per axis as enclosure cells for an expression or grid points
    for a callable, with the defaults and the cap of _RESOLUTION[ndim]."""
    cells, most, points = _RESOLUTION[ndim]
    expression = isinstance(f, FunctionExpr)
    if grid_n is None:
        return cells if expression else points
    check_int("grid_n", grid_n, 101)
    return min(grid_n, most) if expression else grid_n


@functools.lru_cache(maxsize=8)
def _levels(f: FunctionExpr, cells: int, ndim: int) -> tuple:
    """(values, width, ranges) per level: read-only enclosures ends = (hi, -lo)
    of f on `cells` equal cells per axis of [0, 1]^ndim, checked against f
    at the cell corners, then, on one axis, while at least 2*_RUN_CELLS
    remain, the maxima of the _RUN_CELLS-cell runs of pairwise merged cells
    (an odd last cell stays alone), built block by block into one array;
    ranges holds the level's _run_range values by (runs, axes)."""
    u = np.linspace(0.0, 1.0, cells + 1)
    lo, hi = enclose(f, *((_on_axis(u[:-1], i, ndim), _on_axis(u[1:], i, ndim)) for i in range(ndim)))
    ends = np.stack((hi, -lo))
    ends.setflags(write=False)
    _check_corners(f, ends)
    levels = [(ends, float(np.min(np.diff(u))), {})]
    n, sizes = cells, []  # table entries per merged level, in one array so the heap does not fragment
    while ndim == 1 and n >= 2 * _RUN_CELLS:
        n = (n + 1) // 2
        sizes.append(n - _RUN_CELLS + 1)
    tables, step = np.empty((2, sum(sizes))), _BLOCK_ELEMENTS // 2
    for start, size in zip(itertools.accumulate(sizes, initial=0), sizes):
        if ends.shape[-1] % 2:
            ends = np.concatenate((ends, ends[:, -1:]), axis=1)
        ends = np.maximum(ends[:, ::2], ends[:, 1::2])
        table = tables[:, start : start + size]
        for i in range(0, size, step):
            table[:, i : i + step] = _window_max(ends[:, i : i + step + _RUN_CELLS - 1], _RUN_CELLS)
        table.setflags(write=False)
        levels.append((table, 2.0 * levels[-1][1], {}))
    return tuple(levels)


def _enclosed_modulus(f: FunctionExpr, delta: float, cells: int, ndim: int, axes) -> float:
    """Upper bound on |f(v) - f(u)| over points u, v closer than delta along
    each of axes, on the coarsest level whose runs still span _RUN_CELLS
    cells at delta (or the finest): on cells at least `width` wide (the
    last may be narrower) such points lie in one run of ceil(delta/width)
    + 1 cells per axis, and the run range bounds the difference."""
    levels = _levels(f, cells, ndim)
    if delta == 0.0:
        return 0.0
    index = next((i for i in reversed(range(len(levels))) if delta >= _RUN_CELLS * levels[i][1]), 0)
    (values, width, ranges), span = levels[index], (_RUN_CELLS if index else 1)
    key = (min(math.ceil(min(delta, 2.0) / width * (1.0 + 2.0**-40)) + 1, values.shape[-1] + span - 1), axes)
    if key not in ranges:
        ranges[key] = _run_range(values, *key, span)
    value = ranges[key]
    return math.inf if math.isnan(value) else math.nextafter(value, math.inf)


@functools.lru_cache(maxsize=8)
def _second_derivative_sup(f: FunctionExpr, cells: int) -> float:
    """sup |f''| over [0, 1] from enclosures on `cells` cells; inf where the
    expression has no second derivative or it is unbounded."""
    d2 = second_derivative(f)
    if d2 is None:
        return math.inf
    edges = np.linspace(0.0, 1.0, cells + 1)
    lo, hi = enclose(d2, (edges[:-1], edges[1:]))
    return float(np.max(np.maximum(np.abs(lo), np.abs(hi))))


def modulus_continuity(f, delta: float, grid_n: int | None = None) -> ModulusEstimate:
    """sup |f(u+h) - f(u)| over 0 < h <= delta.

    Certified for an expression: an upper bound from enclosures on grid_n
    cells (default and at most 65,536).  For a callable, an estimate from
    below on a grid of grid_n points (default 10,001).
    """
    check_real("delta", delta, closed=True)
    n = _resolution(f, grid_n, 1)
    if isinstance(f, FunctionExpr):
        return ModulusEstimate(delta, _enclosed_modulus(f, delta, n, 1, (-1,)), n, True)
    G = _grid(f, n, 1)
    return ModulusEstimate(delta, _run_range(np.stack((G, -G)), _shift_count(delta, n) + 1, (-1,)), n, False)


def second_modulus(f, delta: float, grid_n: int | None = None) -> ModulusEstimate:
    """sup |f(u+2h) - 2f(u+h) + f(u)| over 0 < h <= delta.

    Certified for an expression: the smaller of delta^2 * sup |f''| and
    twice the first modulus, with delta at most 1/2.  For a callable, a
    grid estimate from below as in modulus_continuity.
    """
    check_real("delta", delta, closed=True)
    n = _resolution(f, grid_n, 1)
    if isinstance(f, FunctionExpr):
        d = min(delta, 0.5)  # u and u + 2h both lie in [0, 1]
        if d == 0.0:
            return ModulusEstimate(delta, 0.0, n, True)
        s = _second_derivative_sup(f, min(n, _SECOND_CELLS))
        # d*(d*s) is inf for s = inf at any d > 0; 4 ulps cover its two
        # roundings, an underflow to 0 included
        t = d * (d * s)
        curvature = t + 4.0 * math.ulp(t) if s else 0.0
        return ModulusEstimate(delta, min(curvature, 2.0 * _enclosed_modulus(f, d, n, 1, (-1,))), n, True)
    fs = _grid(f, n, 1)
    best = 0.0
    top = min(_shift_count(delta, n), (n - 1) // 2)
    with np.errstate(over="ignore"):  # a second difference past the float range is inf
        for k in range(1, top + 1):
            best = max(best, float(np.max(np.abs(fs[2 * k :] - 2.0 * fs[k:-k] + fs[: -2 * k]))))
    return ModulusEstimate(delta, best, n, False)


def partial_moduli(F, d1: float, d2: float, grid_n: int | None = None) -> tuple[float, float]:
    """The partial moduli of continuity of F(z, y) in z (radius d1) and in y
    (radius d2): certified for an expression on grid_n cells per axis
    (default 256, at most 320), grid estimates from below for a callable on
    grid_n points per axis (default 256)."""
    check_real("d1", d1, closed=True)
    check_real("d2", d2, closed=True)
    n = _resolution(F, grid_n, 2)
    if isinstance(F, FunctionExpr):
        _check_corners(F, _levels(F, n, 2)[0][0])  # every call: see the module docstring
        return _enclosed_modulus(F, d1, n, 2, (-2,)), _enclosed_modulus(F, d2, n, 2, (-1,))
    ends = np.stack((G := _grid(F, n, 2), -G))
    return tuple(_run_range(ends, _shift_count(d, n) + 1, (axis,)) for d, axis in ((d1, -2), (d2, -1)))


def complete_modulus(F, d: float, grid_n: int | None = None) -> float:
    """sup |F(v) - F(u)| over pairs with |v-u| <= d.

    Certified for an expression: such a pair lies in a square of k+1 by k+1
    cells, k = ceil(d/h), so the largest max hi - min lo over those squares
    bounds it.  For a callable, a grid estimate from below (grid sizes as in
    partial_moduli): the grid offsets (a, b) inside the disc are taken one
    row offset a at a time; the partners F[u+a, v+b], |b| <= B(a), of each
    grid point form a window of 2*B(a)+1 columns, and the term is the
    point's largest distance to that window's max or min.  With k =
    d*(grid_n-1) offsets per axis the cost is O(k * grid_n^2 * log k).
    """
    check_real("d", d, closed=True)
    grid_n = _resolution(F, grid_n, 2)
    if isinstance(F, FunctionExpr):
        _check_corners(F, _levels(F, grid_n, 2)[0][0])  # every call: see the module docstring
        return _enclosed_modulus(F, d, grid_n, 2, (-2, -1))
    ends = np.stack((G := _grid(F, grid_n, 2), -G))
    d = min(d, 2.0)  # a disc of radius 2 already covers the unit square
    h = 1.0 / (grid_n - 1)
    kmax = min(int(d / h + _SHIFT_EPS), grid_n - 1)
    limit = (d / h) ** 2 + _SHIFT_EPS
    best = 0.0
    b = kmax  # the half-width B(a) only shrinks as a grows
    for a in range(0, kmax + 1):
        while b >= 0 and a * a + b * b > limit:
            b -= 1
        if b < 0:
            break
        if a == 0:  # offsets (0, b) and (0, -b) pair the same points
            best = _run_range(ends, b + 1, (-1,))
            continue
        # edge padding repeats a border column the clipped window holds anyway
        partners = np.pad(ends[:, a:], ((0, 0), (0, 0), (b, b)), mode="edge")
        with np.errstate(over="ignore"):
            best = max(best, float(np.max(_window_max(partners, 2 * b + 1) - ends[:, : grid_n - a])))
    return best


def bound_t2(params: OperatorParams, f, z: float, grid_n: int | None = None) -> float:
    """Error bound 2*omega(f; sqrt(xi2)); guaranteed for an expression, an
    estimate for a callable (see modulus_continuity)."""
    delta = math.sqrt(central_moments(params, z).xi2)
    return 2.0 * modulus_continuity(f, delta, grid_n).value


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
    w2 = second_modulus(f, radius, grid_n).value if C else 0.0  # 0 * inf is NaN
    return C * w2 + modulus_continuity(f, abs(cm.zeta), grid_n).value


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
