"""Empirical error measurement, the moduli of continuity, and numeric
evaluation of the error bounds.

The bounds are built from moduli of continuity: omega and omega_2 of f(z)
on [0, 1], and the partial and complete moduli of F(z, y) on [0, 1]^2.
They take an expression (exprlib.FunctionExpr) only, and each is an upper
bound; a plain callable, which has no expression tree, raises DomainError.
The moduli run through one window engine, _run_range: the largest max hi -
min lo over runs of k entries along some axes of ends = (hi, -lo), by
sparse-table doubling in O(n log k), one cache-sized block at a time.

Interval enclosures (exprlib.enclose) of f on equal cells per axis give,
for a run of cells, an interval holding every value f takes there, and any
two points closer than delta along an axis lie in one run of
ceil(delta/h) + 1 cells of width h along it.  The enclosures are built
8,192 cells at a time, each chunk checked against f at its cell corners,
once per expression, cell count and number of axes, and kept in 8 cache
entries (1 MiB each at 65,536 cells or 256 x 256; a miss drops the least
recently used one before it builds) with the run ranges they have given,
by (level, runs, axes) with runs clipped to the axis length: a repeated
radius reads a dict, and the ranges leave with their entry.  On one axis a
radius of at least 128 cells reads a level of pairwise merged cells
through the maxima of its 128-cell runs, and one of 16-127 cells the
finest level through its 16- or 64-cell maxima; only the last one-axis
expression keeps these tables (_finest_tables, about 3 MiB at 65,536
cells).  The two-axis moduli evaluate F at the cell corners and check
them once more on every call, so that a traced run counts those
evaluations.  omega_2 is the smaller of delta^2 * sup |f''| (exprlib._sups
to k = 2, on <= 4,096 cells) and twice omega from the same cached run ranges.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import _BLOCK_ELEMENTS, OperatorParams
from .dataset import Dataset, to_csv
from .errors import DomainError, EvaluationError, check_int, check_points, check_real, check_type
from .exprlib import FunctionExpr, _sups, enclose, eval_function
from .operator_uni import _kernel_order, apply_kernel, central_moments, kernel_integrals

# Enclosure cells of [0, 1] for the moduli on one axis, by default and at
# most, and per axis of [0, 1]^2 for the moduli on two.  Both are powers of
# two, so the cell ends i/n are exact.
_RESOLUTION = 1 << 16
_BIV_CELLS = 256
# Enclosure cells of f'' on [0, 1]
_SECOND_CELLS = 1 << 12
# A modulus reads the coarsest merged level on which its runs still span at
# least this many cells, so a run is at most 2/_RUN_CELLS longer than delta.
_RUN_CELLS = 128
# Cells per enclose call in _levels: its 64 KiB temporaries reuse freed pages
_CHUNK_CELLS = 1 << 13
# _SHIFT_EPS and _shift_count give the grid shifts at radius delta on
# grid_n points.  No modulus reads them: they stay only because the
# benchmark tracer (bench/tracing.py) counts shifts with _shift_count.
_SHIFT_EPS = 1e-9


@dataclass(frozen=True)
class ModulusEstimate:
    """An upper bound on a modulus at radius delta, from enclosures of an
    expression on grid_n cells."""

    delta: float
    value: float
    grid_n: int


@dataclass(frozen=True, eq=False)
class ErrorTable:
    """Columns z, [y,] exact, approx, abs_error (a float array) and their largest error."""

    columns: np.ndarray
    max_error: float

    @property
    def rows(self) -> list:
        """The (z, [y,] exact, approx, abs_error) tuples of floats, built on each call."""
        return list(map(tuple, self.columns.T.tolist()))

    def dataset(self, comments: tuple[str, ...] = ()) -> Dataset:
        """The rows under their column names, then a max_error comment."""
        names = ("z", "y")[: len(self.columns) - 3] + ("exact", "approx", "abs_error")
        return Dataset(tuple(comments), names, self.columns.T, (f"max_error={self.max_error!r}",))

    def to_csv(self, comments: tuple[str, ...] = ()) -> str:
        return to_csv(self.dataset(comments))


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
    lead = (slice(None),) * (axis % values.ndim)
    count = values.shape[axis] + span - width
    hi = values
    while 2 * span <= width:
        hi = np.maximum(hi[lead + (slice(None, -span),)], hi[lead + (slice(span, None),)])
        span *= 2
    if span < width:
        rest = width - span
        hi = np.maximum(hi[lead + (slice(None, count),)], hi[lead + (slice(rest, rest + count),)])
    return hi


def _on_axis(u: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    return u.reshape([-1 if i == axis else 1 for i in range(ndim)])


def _check_corners(f: FunctionExpr, ends: np.ndarray, cuts=None) -> None:
    """f at the corners of the cells of ends = (hi, -lo), axis i holding the
    i-th variable (z, then y) and its cell ends cuts[i] (by default the
    equal cells of [0, 1]): finite, and inside the enclosure of every cell
    it bounds; EvaluationError otherwise."""
    ndim = ends.ndim - 1
    cuts = cuts or [np.linspace(0.0, 1.0, n + 1) for n in ends.shape[1:]]
    values = eval_function(f, *(_on_axis(u, i, ndim) for i, u in enumerate(cuts)))
    if not np.all(np.isfinite(values)):
        raise EvaluationError("function has non-finite values on the modulus grid")
    corners = [values[c] for c in itertools.product((slice(None, -1), slice(1, None)), repeat=ndim)]
    if not (np.all(functools.reduce(np.maximum, corners) <= ends[0])
            and np.all(-functools.reduce(np.minimum, corners) <= ends[1])):
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
        block = window = ends[:, i : i + step + shared]
        for axis, width in widths.items():
            window = _window_max(window, width, axis, span)
        with np.errstate(over="ignore", invalid="ignore"):  # a window past a pass is new: sum in place
            tops.append(np.max(np.add(window[0], window[1], out=None if window is block else window[0])))
    return float(np.max(tops))


def _check_expression(f) -> None:
    """DomainError unless f is an expression."""
    if not isinstance(f, FunctionExpr):
        raise DomainError(f"the moduli and bounds take an expression from parse_source, got {type(f).__name__}")


def _resolution(f, grid_n: int | None) -> int:
    """grid_n enclosure cells of [0, 1] for the expression f, by default
    and at most _RESOLUTION."""
    _check_expression(f)
    return _RESOLUTION if grid_n is None else check_int("grid_n", grid_n, 101, _RESOLUTION)


_ENTRIES = {}  # {(f, cells, ndim): entry} of _levels, at most 8, the most recently used last


def _levels(f: FunctionExpr, cells: int, ndim: int) -> tuple:
    """(ends, width, ranges): read-only enclosures ends = (hi, -lo) of f on
    `cells` equal cells, at least `width` wide, per axis of [0, 1]^ndim, and
    _enclosed_modulus' run ranges by (level, runs, axes).  The ends are
    enclosed and checked at their cell corners _CHUNK_CELLS cells (whole
    rows of the first axis) at a time, which gives one call's ends as every
    interval operation works cell by cell."""
    key = (f, cells, ndim)
    if key in _ENTRIES:
        _ENTRIES[key] = _ENTRIES.pop(key)
        return _ENTRIES[key]
    if len(_ENTRIES) >= 8:  # before the build, so that no 9th enclosure is alive
        del _ENTRIES[next(iter(_ENTRIES))]
    u = np.linspace(0.0, 1.0, cells + 1)
    ends = np.empty((2,) + (cells,) * ndim)
    rows = max(_CHUNK_CELLS // cells ** (ndim - 1), 1)
    for i in range(0, cells, rows):
        cuts = [u[i : i + rows + 1]] + [u] * (ndim - 1)
        lo, hi = enclose(f, *((_on_axis(c[:-1], k, ndim), _on_axis(c[1:], k, ndim)) for k, c in enumerate(cuts)))
        chunk = ends[:, i : i + rows]
        chunk[0], chunk[1] = hi, -lo
        _check_corners(f, chunk, cuts)
    ends.setflags(write=False)
    _ENTRIES[key] = ends, float(np.min(np.diff(u))), {}
    return _ENTRIES[key]


def _cell_counts(cells: int) -> list:
    """The one-axis levels' cells: `cells`, halved (an odd last cell alone) while 2*_RUN_CELLS remain."""
    counts = [cells]
    while counts[-1] >= 2 * _RUN_CELLS:
        counts.append((counts[-1] + 1) // 2)
    return counts


# {(f, cells): {(level, span): table}} of the last one-axis level whose tables were read
_FINEST = {}


def _finest_tables(key, ends: np.ndarray) -> dict:
    """The read-only tables of span-cell maxima (as in _window_max) of the
    finest one-axis level ends of key = (f, cells), by (level, span): its
    16- and 64-cell maxima, then each merged level's _RUN_CELLS-cell maxima
    in one array, the first from the 64-cell table; 128 merged cells from c
    are the 256 cells below from 2c, so a merged table takes entries 2c and
    2c + 128 of the 128-cell table below (the last again at an odd end).
    Kept for the last key only (about 3 MiB at 65,536 cells)."""
    if key not in _FINEST:
        _FINEST.clear()  # first, so the last expression's tables are freed before these are built
        tables = {(0, 16): _window_max(ends, 16)}
        table = tables[0, 64] = _window_max(tables[0, 16], 64, -1, 16)
        sizes = [n - _RUN_CELLS + 1 for n in _cell_counts(ends.shape[-1])[1:]]
        table = _window_max(table, _RUN_CELLS, -1, 64) if sizes else None
        merged = np.empty((2, sum(sizes)))  # one array, so the heap does not fragment
        for level, (start, size) in enumerate(zip(itertools.accumulate(sizes, initial=0), sizes), 1):
            if table.shape[1] % 2 == 0:  # an odd count of cells below
                table = np.concatenate((table, table[:, -1:]), axis=1)
            table = tables[level, _RUN_CELLS] = np.maximum(table[:, : 2 * size : 2], table[:, _RUN_CELLS :: 2],
                                                           out=merged[:, start : start + size])
        for table in tables.values():
            table.setflags(write=False)
        _FINEST[key] = tables
    return _FINEST[key]


def _enclosed_modulus(f: FunctionExpr, delta: float, cells: int, ndim: int, axes) -> float:
    """Upper bound on |f(v) - f(u)| over points u, v closer than delta along
    each of axes, on the coarsest level whose runs still span _RUN_CELLS
    cells at delta (or the finest): on cells at least `width` wide (the
    last may be narrower; width * 2**j at merged level j) such points lie
    in one run of ceil(delta/width) + 1 cells per axis, and the run range
    bounds the difference.  A one-axis run of 16 cells or more reads the
    level's _finest_tables table of the largest span up to it."""
    ends, width, ranges = _levels(f, cells, ndim)
    if delta == 0.0:
        return 0.0
    counts = _cell_counts(cells) if ndim == 1 else [cells]
    level = max(j for j in range(len(counts)) if not j or delta >= _RUN_CELLS * width * 2**j)
    width *= 2**level
    key = (level, min(math.ceil(min(delta, 2.0) / width * (1.0 + 2.0**-40)) + 1, counts[level]), axes)
    if key not in ranges:
        values, span = ends, 1
        if ndim == 1 and (level or key[1] >= 16):
            span = _RUN_CELLS if level else 64 if key[1] >= 64 else 16
            values = _finest_tables((f, cells), ends)[level, span]
        ranges[key] = _run_range(values, *key[1:], span)
    value = ranges[key]
    return math.inf if math.isnan(value) else math.nextafter(value, math.inf)


def modulus_continuity(f, delta: float, grid_n: int | None = None) -> ModulusEstimate:
    """sup |f(u+h) - f(u)| over 0 < h <= delta: an upper bound from
    enclosures of the expression f on grid_n cells (default and at most
    65,536)."""
    check_real("delta", delta, closed=True)
    n = _resolution(f, grid_n)
    return ModulusEstimate(delta, _enclosed_modulus(f, delta, n, 1, (-1,)), n)


def second_modulus(f, delta: float, grid_n: int | None = None) -> ModulusEstimate:
    """sup |f(u+2h) - 2f(u+h) + f(u)| over 0 < h <= delta: an upper bound,
    the smaller of delta^2 * sup |f''| and twice the first modulus, with
    delta at most 1/2."""
    check_real("delta", delta, closed=True)
    n = _resolution(f, grid_n)
    d = min(delta, 0.5)  # u and u + 2h both lie in [0, 1]
    if d == 0.0:
        return ModulusEstimate(delta, 0.0, n)
    s = _sups(f, min(n, _SECOND_CELLS), 2)[2]  # a pass to k = 2: f'' only
    # d*(d*s) is inf for s = inf at any d > 0; 4 ulps cover its two
    # roundings, an underflow to 0 included
    t = d * (d * s)
    curvature = t + 4.0 * math.ulp(t) if s else 0.0
    return ModulusEstimate(delta, min(curvature, 2.0 * _enclosed_modulus(f, d, n, 1, (-1,))), n)


def partial_moduli(F, d1: float, d2: float) -> tuple[float, float]:
    """Upper bounds on the partial moduli of continuity of the expression
    F(z, y) in z (radius d1) and in y (radius d2), from enclosures on
    256 cells per axis."""
    check_real("d1", d1, closed=True)
    check_real("d2", d2, closed=True)
    _check_expression(F)
    _check_corners(F, _levels(F, _BIV_CELLS, 2)[0])  # every call: see the module docstring
    return _enclosed_modulus(F, d1, _BIV_CELLS, 2, (-2,)), _enclosed_modulus(F, d2, _BIV_CELLS, 2, (-1,))


def complete_modulus(F, d: float) -> float:
    """sup |F(v) - F(u)| over pairs with |v-u| <= d, bounded from above:
    such a pair lies in a square of k+1 by k+1 cells, k = ceil(d/h), so the
    largest max hi - min lo over those squares bounds it (256 cells per
    axis, as in partial_moduli)."""
    check_real("d", d, closed=True)
    _check_expression(F)
    _check_corners(F, _levels(F, _BIV_CELLS, 2)[0])  # every call: see the module docstring
    return _enclosed_modulus(F, d, _BIV_CELLS, 2, (-2, -1))


def bound_t2(params: OperatorParams, f, z: float, grid_n: int | None = None) -> float:
    """Error bound 2*omega(f; sqrt(xi2)) for an expression f, an upper bound
    on the error at z (see modulus_continuity)."""
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


def error_table(params: OperatorParams, f, z_values, order: int | None = None) -> ErrorTable:
    """Pointwise exact/approximate values and absolute errors over z_values.

    The kernel integrals take `order` nodes; None takes the lowest order
    whose quadrature error bound is at most half an ulp of sup |f|, and 64
    where there is no such bound (a callable, abs, sqrt at 0).  The operator
    values come from apply_kernel, one point at a time: the benchmark's
    self-test (bench/tests) alters that function to prove that a wrong
    approximation on its bounds workload is caught.
    """
    check_type("params", params, OperatorParams)
    zs = check_points(z_values)
    ki = kernel_integrals(params, f, _kernel_order(params, f) if order is None else order)
    columns = np.empty((4, zs.size))
    columns[0], columns[1] = zs, eval_function(f, zs)
    columns[2] = [apply_kernel(ki, z) for z in zs.tolist()]
    np.abs(columns[1] - columns[2], out=columns[3])
    return ErrorTable(columns, float(columns[3].max(initial=0.0)))


def max_error(params: OperatorParams, f) -> float:
    """The largest absolute error on 1,001 equally spaced points of [0, 1]."""
    return error_table(params, f, np.linspace(0.0, 1.0, 1001)).max_error
