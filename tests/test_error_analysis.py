import functools
import itertools
import math
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbk import (
    BivariateParams,
    DomainError,
    EvaluationError,
    OperatorParams,
    apply,
    biv_kernel_integrals,
    bound_complete,
    bound_partial,
    bound_kfunctional,
    bound_lipschitz,
    bound_t2,
    central_moments,
    complete_modulus,
    error_table,
    evaluate,
    get_function,
    kernel_integrals,
    apply_kernel,
    max_error,
    modulus_continuity,
    parse_source,
    partial_moduli,
    second_modulus,
)

from conftest import draw_params, expression_texts
from fracbk import error_analysis, exprlib
from fracbk.basis import _BLOCK_ELEMENTS
from fracbk.error_analysis import _finest_tables, _levels, _run_range, _shift_count
from fracbk.exprlib import _TAYLOR_TERMS, BinOp, FunctionExpr, Num, Var, derivative_sup, enclose
from fracbk.operator_uni import _kernel_order
from oracles import second_difference_max, window_max, window_range


def _grid_modulus(values, delta: float) -> float:
    """The largest |f[u+j] - f[u]| over grid values f and the grid shifts
    j <= delta*(n-1), from the window engine: an estimate from below."""
    return _run_range(np.stack((values, -values)), _shift_count(delta, values.shape[-1]) + 1, (-1,))


class TestModulusContinuity:
    def test_identity_function(self):
        # a radius of 128 cells or more reads merged cells, on which a run
        # is at most 2/128 longer than delta
        est = modulus_continuity(parse_source("z"), 0.2, grid_n=4001)
        assert 0.2 <= est.value <= 0.2 * (1.0 + 2.0 / 128)
        assert est.delta == 0.2
        assert est.grid_n == 4001

    def test_zero_delta(self):
        assert modulus_continuity(parse_source("sin(z)"), 0.0).value == 0.0

    def test_constant_function(self):
        # the range 0.0, rounded up by one ulp
        assert modulus_continuity(parse_source("3"), 0.5).value == math.nextafter(0.0, math.inf)

    def test_monotone_in_delta(self):
        f = parse_source("z*(z-4/7)*sin(pi*z)")
        values = [modulus_continuity(f, d, grid_n=2001).value for d in (0.05, 0.1, 0.2, 0.4)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_negative_delta_rejected(self):
        with pytest.raises(DomainError):
            modulus_continuity(parse_source("z"), -0.1)

    def test_tiny_grid_rejected(self):
        with pytest.raises(DomainError):
            modulus_continuity(parse_source("z"), 0.1, grid_n=50)

    @pytest.mark.parametrize("modulus", [modulus_continuity, second_modulus])
    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, modulus, delta):
        # nan used to raise a raw ValueError and inf a raw OverflowError
        with pytest.raises(DomainError, match="delta must be non-negative and finite"):
            modulus(parse_source("z"), delta)

    @pytest.mark.parametrize("modulus", [modulus_continuity, second_modulus])
    def test_grid_size_not_an_int(self, modulus):
        # 200.5 used to raise a raw TypeError
        with pytest.raises(DomainError, match="grid_n must be an int"):
            modulus(parse_source("z"), 0.1, grid_n=200.5)

    @pytest.mark.parametrize("call", [
        lambda n: modulus_continuity(get_function("f1"), 0.1, grid_n=n).value,
        lambda n: second_modulus(get_function("f1"), 0.1, grid_n=n).value,
        lambda n: bound_t2(OperatorParams(20, 2.0, 3.0, 0.9, 2), get_function("f1"), 0.3, grid_n=n),
        lambda n: bound_kfunctional(OperatorParams(20, 2.0, 3.0, 0.9, 2), get_function("f1"), 0.3, 2.0,
                                    grid_n=n),
    ], ids=["modulus_continuity", "second_modulus", "bound_t2", "bound_kfunctional"])
    def test_cells_capped_at_65536(self, call):
        # grid_n past the cap used to run silently on 65,536 cells
        assert call(65536) == call(None)
        with pytest.raises(DomainError, match="^grid_n must be <= 65536, got 65537$"):
            call(65537)

    @pytest.mark.parametrize("modulus", [modulus_continuity, second_modulus])
    def test_huge_finite_radius_saturates(self, modulus):
        # 1e307 * 2000 grid steps overflows to inf, which int() rejects
        f = parse_source("(1-z)*cos(2*pi*z)")
        assert modulus(f, 1e307, grid_n=2001).value == modulus(f, 1.0, grid_n=2001).value

    def test_grid_refinement_stable(self):
        f = parse_source("z*(z-4/7)*sin(pi*z)")
        coarse = modulus_continuity(f, 0.1, grid_n=4096).value
        fine = modulus_continuity(f, 0.1, grid_n=8192).value
        assert fine == pytest.approx(coarse, rel=1e-3)
        # halved cells nest in the coarse ones, so the certified value
        # approaches the modulus from above, and a grid estimate from below
        assert fine <= coarse
        assert _grid_modulus(evaluate(f, np.linspace(0.0, 1.0, 100_001)), 0.1) <= fine

    @pytest.mark.parametrize("src", [
        pytest.param("sqrt(z-0.5)", id="nan"),
        pytest.param("exp(1000*z)", id="inf"),
        pytest.param("-exp(1000*z)", id="-inf"),
    ])
    def test_non_finite_grid_value_rejected(self, src):
        # f is NaN past z = 0.5, or overflows past z = 0.71: a non-finite
        # value must not vanish inside max() and leave a finite modulus
        with pytest.raises(EvaluationError):
            modulus_continuity(parse_source(src), 0.1)

    def test_delta_above_one_saturates(self):
        f = parse_source("(1-z)*cos(2*pi*z)")
        full = modulus_continuity(f, 1.0, grid_n=2001).value
        over = modulus_continuity(f, 1.7, grid_n=2001).value
        assert over == pytest.approx(full, abs=1e-15)


class TestOverflowingRange:
    """Finite enclosures whose ranges pass the float range: each modulus
    reads inf, without a warning."""

    # 10^308*cos(40*u) swings from 1e308 to -1e308 within 0.08 of u
    F = "10^308*cos(40*{})"

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_modulus_continuity(self):
        assert modulus_continuity(parse_source(self.F.format("z")), 0.1).value == math.inf
        assert second_modulus(parse_source(self.F.format("z")), 0.1).value == math.inf

    def test_partial_moduli(self):
        # along the other axis a run stays within one cell of the swing
        w1, w2 = partial_moduli(parse_source(self.F.format("z")), 0.1, 0.1)
        assert w1 == math.inf and math.isfinite(w2)
        w1, w2 = partial_moduli(parse_source(self.F.format("y")), 0.1, 0.1)
        assert math.isfinite(w1) and w2 == math.inf

    def test_complete_modulus(self):
        assert complete_modulus(parse_source(self.F.format("z")), 0.1) == math.inf


_PARITY_FUNCS = {
    "constant": lambda u: np.full_like(u, 3.0),
    "abs": lambda u: np.abs(u - 1.0 / 3.0),
    "step": lambda u: np.floor(7.0 * u) / 7.0 + 1e-3 * np.sin(50.0 * u),
}


@functools.lru_cache(maxsize=None)
def _shift_loop_moduli(name, grid_n, top):
    """Entry K is the shift-loop modulus over shifts 1..K, K <= top."""
    fs = _PARITY_FUNCS[name](np.linspace(0.0, 1.0, grid_n))
    best = np.zeros(top + 1)
    for k in range(1, top + 1):
        best[k] = max(best[k - 1], float(np.max(np.abs(fs[k:] - fs[:-k]))))
    return best


def _parity_cases():
    for n in (101, 4001, 100001):
        shifts = [0, 1, 2, 31, 32, 33, 63, 64, 65, n - 2, n - 1]
        for k in shifts:
            # the shift-loop reference costs O(n*K), some 5e9 element
            # operations at n = 100001 and K near n, so K near n is only
            # checked at the smaller grids
            if n < 100001 or k <= 65:
                yield n, k / (n - 1), k
        if n < 100001:
            yield n, 1.5, n - 1


class TestModulusParity:
    """The window engine on grid values equals the shift loop bit for bit."""

    @pytest.mark.parametrize("name", sorted(_PARITY_FUNCS))
    @pytest.mark.parametrize("grid_n, delta, shifts", list(_parity_cases()))
    def test_matches_shift_loop(self, name, grid_n, delta, shifts):
        assert _shift_count(delta, grid_n) == shifts
        top = 65 if grid_n == 100001 else grid_n - 1
        expected = float(_shift_loop_moduli(name, grid_n, top)[shifts])
        assert _grid_modulus(_PARITY_FUNCS[name](np.linspace(0.0, 1.0, grid_n)), delta) == expected


def _memo_radii(cells: int, ndim: int) -> list[float]:
    """Radii that pick every level of the cache entry: 128 * width of each
    level and one ulp either side, where the choice of level flips, with 0
    and radii past the saturation at 2."""
    radii = [0.0, 1e-6, 0.003, 0.05, 0.3, 2.0, 2.5, 7.0]
    f = get_function("f1" if ndim == 1 else "g1")
    ends, width, _ranges = _levels(f, cells, ndim)
    for level in {level for level, _span in _finest_tables((f, cells), ends)} if ndim == 1 else {0}:
        edge = 128.0 * width * 2**level
        radii += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
    return radii


class TestRunRangeMemo:
    """Each cache entry keeps the run ranges of all its levels: a warm value
    is the value computed after the cache is cleared, and the ranges leave
    with the cache entry."""

    @staticmethod
    def _warm_equals_cold(calls):
        for call in calls:
            call()  # fill the ranges of every radius
        warm = [repr(call()) for call in calls]
        for call, value in zip(calls, warm):
            error_analysis._ENTRIES.clear()
            assert repr(call()) == value, call

    @pytest.mark.parametrize("source", ["f1", "abs(z-0.37)", "exp(3*z)*sin(7*z)"])
    @pytest.mark.parametrize("grid_n", [None, 1000])
    def test_one_axis(self, source, grid_n):
        f = get_function(source)
        radii = _memo_radii(grid_n or 65536, 1)
        self._warm_equals_cold([functools.partial(m, f, d, grid_n) for d in radii
                                for m in (modulus_continuity, second_modulus)])

    @pytest.mark.parametrize("source", ["g1", "abs(z-y)", "exp(z*y)"])
    def test_two_axes(self, source):
        F = get_function(source)
        radii = _memo_radii(256, 2)
        calls = [functools.partial(complete_modulus, F, d) for d in radii]
        calls += [functools.partial(partial_moduli, F, d1, d2) for d1, d2 in zip(radii, reversed(radii))]
        self._warm_equals_cold(calls)

    def test_ranges_leave_with_their_cache_entry(self):
        f = parse_source("sin(5*z) + z")
        before = modulus_continuity(f, 0.1).value
        entry = _levels(f, 65536, 1)
        assert len(entry[2]) == 1
        for k in range(1, 9):  # eight other entries evict the least recent
            modulus_continuity(parse_source(f"z^{k}"), 0.1)
        fresh = _levels(f, 65536, 1)
        assert fresh is not entry
        assert not fresh[2]
        assert modulus_continuity(f, 0.1).value == before


def _engine_equals_oracle(hi, lo, runs, axes, span):
    """_run_range on the table of span-cell maxima of (hi, -lo) along axes
    is the direct range of the cells bit for bit, NaN included."""
    table = np.stack((hi, -lo))
    for axis in axes:
        table = window_max(table, span, axis)
    got, expected = _run_range(table, runs, axes, span), window_range(hi, lo, runs, axes)
    assert repr(got) == repr(expected), (runs, axes, span)


def _cells(rng, shape):
    lo = rng.standard_normal(shape)
    return lo + rng.random(shape), lo


# each special value replaces one cell of hi or of lo
_SPECIALS = [(which, value) for which in (0, 1) for value in (math.nan, math.inf, -math.inf)]


class TestWindowEngine:
    """_run_range walks its cells in blocks along the first cell axis; the
    range equals the direct max hi - min lo over every run
    (oracles.window_range) bit for bit, with NaN and inf on block edges."""

    # with 120 values per block, a block holds 60 one-axis cells or 20
    # rows of 3 cells
    @pytest.mark.parametrize("axes", [(-1,), (-2,), (-2, -1)])
    @pytest.mark.parametrize("span", [1, 128])
    @pytest.mark.parametrize("offset", [-1, 0, 1, None])
    def test_small_blocks(self, monkeypatch, axes, span, offset):
        monkeypatch.setattr(error_analysis, "_BLOCK_ELEMENTS", 120)
        ndim = 1 if axes == (-1,) else 2
        step = 60 if ndim == 1 else 20
        n = step + offset if offset is not None else 2 * step + 3  # table entries
        shape = [n, 3][:ndim]
        for axis in axes:
            shape[axis] += span - 1
        rng = np.random.default_rng([ndim, span, n])
        hi, lo = _cells(rng, shape)
        whole = shape[0] if ndim == 1 else max(shape)
        for runs in range(max(2, span), whole + 2):
            _engine_equals_oracle(hi, lo, runs, axes, span)
        edges = {e for e in (0, step - 1, step, step + span - 1, shape[0] - 1) if e < shape[0]}
        tried = sorted({max(2, span), span + 1, (span + whole) // 2, whole - 1, whole})
        for (which, value), edge in itertools.product(_SPECIALS, sorted(edges)):
            cells = [hi.copy(), lo.copy()]
            cells[which][(edge, 1)[:ndim]] = value
            for runs in tried:
                _engine_equals_oracle(*cells, runs, axes, span)

    @pytest.mark.parametrize("span", [1, 128])
    @pytest.mark.parametrize("offset", [-1, 0, 1, None])
    def test_blocks_of_the_budget(self, span, offset):
        step = _BLOCK_ELEMENTS // 2
        n = step + offset if offset is not None else 2 * step + 3
        rng = np.random.default_rng([span, n])
        hi, lo = _cells(rng, n + span - 1)
        whole = n + span - 1
        for runs in sorted({max(2, span), span + 1, 129, 257, 258, whole - 1, whole}):
            _engine_equals_oracle(hi, lo, runs, (-1,), span)
        for edge in sorted({e for e in (step - 1, step, whole - 1) if e < whole}):
            cells = hi.copy()
            cells[edge] = math.nan
            _engine_equals_oracle(cells, lo, 257, (-1,), span)


def _merged_cells(ends, times):
    """ends merged pairwise `times` times, an odd last cell with itself."""
    for _ in range(times):
        if ends.shape[-1] % 2:
            ends = np.concatenate((ends, ends[:, -1:]), axis=1)
        ends = np.maximum(ends[:, 0::2], ends[:, 1::2])
    return ends


class TestMergedLevels:
    """A merged level holds the table of 128-cell maxima of its cells, and
    a modulus read there is the direct range of those cells.  300 and
    1,000 cells merge even counts only, 1,001 an odd last cell each time."""

    @pytest.mark.parametrize("source", ["f1", "abs(z-0.37)"])
    @pytest.mark.parametrize("cells", [65536, 1000, 1001, 300])
    def test_tables_and_moduli(self, source, cells):
        f = get_function(source)
        fine, width, _ranges = _levels(f, cells, 1)
        tables = _finest_tables((f, cells), fine)
        merged = {level: table for (level, span), table in tables.items() if level}
        assert merged and {span for level, span in tables if level} == {128}
        for k, table in merged.items():
            on = _merged_cells(fine, k)
            assert table.shape == (2, on.shape[-1] - 127)
            np.testing.assert_array_equal(table, window_max(on, 128))
            # 128 times the level's width picks it and the ulp below the one before
            edge = 128.0 * width * 2**k
            for delta, level in ((math.nextafter(edge, 0.0), k - 1), (edge, k),
                                 (math.nextafter(edge, math.inf), k), (2.0, max(merged))):
                on = _merged_cells(fine, level)
                w = width * 2**level
                runs = min(math.ceil(min(delta, 2.0) / w * (1.0 + 2.0**-40)) + 1, on.shape[-1])
                expected = math.nextafter(window_range(on[0], -on[1], runs, (-1,)), math.inf)
                assert modulus_continuity(f, delta, cells).value == expected, (k, delta)


def _synthetic_levels(ends):
    """The finest one-axis level _levels makes of ends (enclose and the
    corner check replaced), from a fresh cache and _FINEST slot, and its
    _finest_tables."""
    cells = ends.shape[-1]

    def fake_enclose(f, z_cells):
        at = np.rint(z_cells[0] * cells).astype(int)
        return -ends[1, at], ends[0, at]

    with mock.patch.object(error_analysis, "enclose", fake_enclose), \
            mock.patch.object(error_analysis, "_check_corners", lambda f, ends, cuts=None: None), \
            mock.patch.dict(error_analysis._ENTRIES, clear=True), mock.patch.dict(error_analysis._FINEST, clear=True):
        finest = _levels(parse_source("z"), cells, 1)[0]
        tables = _finest_tables((parse_source("z"), cells), finest)
    return finest, tables


class TestDoublingChain:
    """_finest_tables builds the 16- and 64-cell tables and every merged
    level's table from the 64-cell one, all by _window_max's doubling, the
    merged ones in one array; the tables are those of pairwise merged cells
    and _window_max byte for byte, signed zeros, inf and NaN included."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([101, 127, 255, 256, 257, 511, 1001, 1025, 4097, 65535]), st.integers(0, 2**32 - 1),
           st.booleans(), st.lists(st.tuples(st.integers(0, 1), st.floats(0.0, 1.0, exclude_max=True),
                                             st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])),
                                   max_size=6))
    def test_tables_equal_merge_and_window(self, cells, seed, plateaus, specials):
        rng = np.random.default_rng(seed)
        ends = np.repeat(rng.choice([-1.0, -0.0, 0.0, 2.0], (2, cells // 8 + 1)), 8, axis=1)[:, :cells] if plateaus \
            else rng.standard_normal((2, cells))
        for row, at, value in specials:
            ends[row, int(at * cells)] = value
        finest, tables = _synthetic_levels(ends)
        assert finest.tobytes() == ends.tobytes()
        for span in (16, 64):
            assert tables[0, span].tobytes() == window_max(ends, span).tobytes()
            assert tables[0, span].tobytes() == _tables_of(ends)[0, span].tobytes()
        merged = sorted(key for key in tables if key[0])
        assert merged == [(k, 128) for k in range(1, 20) if -(-cells // 2 ** (k - 1)) >= 256]
        assert len({id(tables[key].base) for key in merged}) <= 1
        for key in merged:
            assert not tables[key].flags.writeable
            assert tables[key].tobytes() == window_max(_merged_cells(ends, key[0]), 128).tobytes(), key


def _tables_of(ends):
    """The tables _finest_tables builds on a finest level holding ends."""
    with mock.patch.dict(error_analysis._FINEST, clear=True):
        return _finest_tables(None, ends)


class TestFinestTables:
    """The finest one-axis level is read through its table of 16- or
    64-cell maxima (a shorter run through its cells): the same sparse-table
    passes from a later start, so the run range is the raw level's bit for
    bit."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(64, 3000), st.integers(0, 2**32 - 1), st.booleans(),
           st.lists(st.tuples(st.integers(0, 1), st.floats(0.0, 1.0, exclude_max=True),
                              st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])), max_size=6),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    def test_tables_read_as_the_raw_level(self, n, seed, plateaus, specials, fractions):
        rng = np.random.default_rng(seed)
        # plateaus: long runs of equal entries, zeros of both signs among them
        ends = np.repeat(rng.choice([-1.0, -0.0, 0.0, 2.0], (2, n // 8 + 1)), 8, axis=1)[:, :n] if plateaus \
            else rng.standard_normal((2, n))
        for row, at, value in specials:
            ends[row, int(at * n)] = value
        tables = _tables_of(ends)
        assert sorted(tables)[:2] == [(0, 16), (0, 64)]
        assert sorted(tables)[2:] == [(k, 128) for k in range(1, 20) if -(-n // 2 ** (k - 1)) >= 256]
        for span in (16, 64):
            assert not tables[0, span].flags.writeable and tables[0, span].shape == (2, n - span + 1)
        for runs in sorted({16, 63, 64, 65, n} | {16 + int(x * (n - 16)) for x in fractions}):
            raw = repr(_run_range(ends, runs, (-1,)))
            for span in (s for s in (16, 64) if s <= runs):
                assert repr(_run_range(tables[0, span], runs, (-1,), span)) == raw, (runs, span)

    def test_largest_span_up_to_the_run_and_one_set_of_tables(self, monkeypatch):
        read, engine = [], error_analysis._run_range
        monkeypatch.setattr(error_analysis, "_run_range", lambda values, runs, axes, span=1:
                            read.append((runs, span, values.shape[-1])) or engine(values, runs, axes, span))
        f, g = parse_source("sin(9*z) + z"), parse_source("cos(9*z) - z")
        expected = [(3, 1), (4, 1), (15, 1), (16, 16), (63, 16), (64, 64), (129, 64)]
        for runs, _span in expected:
            modulus_continuity(f, (runs - 1.5) / 65536)  # runs - 1.5 cell widths: `runs` cells
        assert read == [(runs, span, 65537 - span) for runs, span in expected]
        tables = weakref.ref(_finest_tables((f, 65536), _levels(f, 65536, 1)[0])[0, 64])
        modulus_continuity(g, 20 / 65536)  # 21 cells: the 16-cell table
        assert tables() is None  # f's tables left with g's query
        assert list(error_analysis._FINEST) == [(g, 65536)]


_ONE_AXIS = ["sin(7*z)*cos(3*z)", "exp(2*z)/(1+z)", "sqrt(z) + abs(z-0.37)", "(z-0.2)^3 - 4*z^2",
             "(z+0.5)^0.7 - (1+z)^-1.5"]
_TWO_AXES = ["sin(7*z*y)*cos(3*y)", "exp(z-y)/(1+z*y)", "sqrt(z*y) + abs(z-y)", "(z-y)^3 - 4*z^2*y",
             "(z+y+0.5)^0.7 - (1+z)^-1.5*y"]


class TestChunkedLevels:
    """_levels encloses its finest level in chunks of rows of the first cell
    axis; every interval operation works cell by cell, so the ends are
    those of one enclose call on all cells, bit for bit."""

    @pytest.mark.parametrize("source, ndim, cells", [
        *((s, 1, cells) for s in _ONE_AXIS for cells in (65536, 10001)),
        *((s, 2, cells) for s in _TWO_AXES for cells in (256, 300)),
    ])
    def test_chunks_equal_one_enclose(self, source, ndim, cells):
        f = parse_source(source)
        u = np.linspace(0.0, 1.0, cells + 1)
        z = (u[:-1], u[1:]) if ndim == 1 else (u[:-1, None], u[1:, None])
        lo, hi = enclose(f, z, *[(u[:-1], u[1:])][: ndim - 1])
        ends = _levels(f, cells, ndim)[0]
        assert ends.shape == (2,) + (cells,) * ndim
        assert ends.tobytes() == np.stack((hi, -lo)).tobytes()


class TestCurvatureOrTwiceOmega:
    """omega_2 is min(curvature, 2*omega), omega read from the same cached
    run ranges as modulus_continuity."""

    @staticmethod
    def _cold(call, f, grid_n):
        """repr of call() on cold run ranges, or its EvaluationError's text."""
        try:
            _levels(f, grid_n or 65536, 1)[2].clear()
            return repr(call())
        except EvaluationError as exc:
            return str(exc)

    @staticmethod
    def _curvature(f, d, grid_n):
        # t + 4 ulps, or 0 where sup |f''| is 0
        s = derivative_sup(f, 2, min(grid_n or 65536, 4096))
        t = d * (d * s)
        return t + 4.0 * math.ulp(t) if s else 0.0

    def _expected(self, f, delta, grid_n):
        d = min(delta, 0.5)
        if d == 0.0:  # the second modulus at 0 is 0, without evaluating f
            return 0.0
        return min(self._curvature(f, d, grid_n), 2 * modulus_continuity(f, d, grid_n).value)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(expression_texts(max_leaves=6), st.one_of(st.floats(0.0, 0.6), st.floats(0.0, 0.003)),
           st.sampled_from([None, 1000]))
    def test_equals_the_smaller_bound(self, src, delta, grid_n):
        f = parse_source(src)
        got = self._cold(lambda: second_modulus(f, delta, grid_n).value, f, grid_n)
        assert got == self._cold(lambda: self._expected(f, delta, grid_n), f, grid_n), src

    @pytest.mark.parametrize("source", ["f3", "f4", "exp(z)*sin(5*z)"])
    @pytest.mark.parametrize("delta", [0.0005, 0.01, 0.1])
    def test_the_curvature_decides(self, source, delta):
        f = get_function(source)
        got = self._cold(lambda: second_modulus(f, delta).value, f, None)
        assert got == repr(self._curvature(f, delta, None))


def test_warm_modulus_temporaries_stay_bounded():
    # the engine took two 1 MiB temporaries on the finest level of 65,536
    # cells; a block holds at most _BLOCK_ELEMENTS values (512 KiB)
    f = get_function("f1")
    modulus_continuity(f, 0.003)
    _levels(f, 65536, 1)[2].clear()  # so that the engine runs again
    tracemalloc.start()
    try:
        modulus_continuity(f, 0.003)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_cache_keeps_enclosures_and_the_last_expressions_tables():
    # each of the 8 cache entries keeps its 1 MiB enclosure and only the last
    # expression keeps its 3 MiB of tables; with every entry's merged tables
    # and whole-level corner checks, 18.9 MiB stayed and the peak was 22.5,
    # and with a 4-cell table and a 9th enclosure built before the eviction,
    # 12.0 and 14.3
    fs = [parse_source(f"sin({k}*z) + z^{k}") for k in range(1, 10)]
    error_analysis._ENTRIES.clear()
    error_analysis._FINEST.clear()
    tracemalloc.start()
    try:
        for i, f in enumerate(fs):
            modulus_continuity(f, 0.1)  # a merged level
            modulus_continuity(f, 1e-4)  # the finest level's cells
            if i == 0:
                merged = weakref.ref(_finest_tables((f, 65536), _levels(f, 65536, 1)[0])[1, 128].base)
                assert merged() is not None
            elif i == 1:
                assert merged() is None  # freed when the second expression's tables were built
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained <= 11.5 * 2**20 and peak <= 13 * 2**20, (retained / 2**20, peak / 2**20)


def test_a_miss_drops_the_least_recent_entry_before_it_builds(monkeypatch):
    # the 9th expression is enclosed next to 7 enclosures
    fs = [parse_source(f"cos({k}*z) - z^{k}") for k in range(1, 10)]
    error_analysis._ENTRIES.clear()
    refs = []
    for f in fs[:8]:
        modulus_continuity(f, 0.1)
        refs.append(weakref.ref(_levels(f, 65536, 1)[0]))
    _levels(fs[0], 65536, 1)  # the most recently used: fs[1] is the least
    seen, inner = [], error_analysis.enclose

    def counted(f, *cells):
        seen.append(sum(ref() is not None for ref in refs))
        return inner(f, *cells)

    monkeypatch.setattr(error_analysis, "enclose", counted)
    modulus_continuity(fs[8], 0.1)
    assert seen == [7] * 8  # 8 chunks of 8,192 cells
    assert [ref() is None for ref in refs] == [i == 1 for i in range(8)]
    assert list(error_analysis._ENTRIES) == [(f, 65536, 1) for f in fs[2:8] + fs[:1] + fs[8:]]


class TestSecondModulus:
    def test_square_function(self):
        # (u+2h)^2 - 2(u+h)^2 + u^2 = 2h^2, so the supremum is 2*delta^2.
        est = second_modulus(parse_source("z*z"), 0.25, grid_n=4001)
        assert est.value == pytest.approx(2.0 * 0.25**2, rel=1e-9)

    def test_affine_function_vanishes(self):
        est = second_modulus(parse_source("3*z-1"), 0.3)
        assert est.value == pytest.approx(0.0, abs=1e-13)

    def test_monotone_in_delta(self):
        f = parse_source("(1-z)*cos(2*pi*z)")
        values = [second_modulus(f, d, grid_n=2001).value for d in (0.05, 0.1, 0.2)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_non_finite_grid_value_rejected(self):
        with pytest.raises(EvaluationError):
            second_modulus(parse_source("sqrt(z-0.5)"), 0.1)

    def test_validation(self):
        with pytest.raises(DomainError):
            second_modulus(parse_source("z"), -0.1)
        with pytest.raises(DomainError):
            second_modulus(parse_source("z"), 0.1, grid_n=10)


class TestBoundT2:
    def test_identity_function_formula(self):
        # omega(e1; delta) = delta, so the bound is 2*sqrt(xi2), and the
        # runs of cells are at most 2/128 longer than the radius
        params = OperatorParams(m=25, eta=2.0, gamma=3.0, alpha=0.6, s=2)
        exact = 2.0 * math.sqrt(central_moments(params, 0.4).xi2)
        assert exact <= bound_t2(params, parse_source("z"), 0.4) <= exact * (1.0 + 2.0 / 128)

    def test_dominates_identity_error(self, rng):
        for _ in range(50):
            params = draw_params(rng, eta_range=(0.3, 5.0))
            z = float(rng.uniform(0.0, 1.0))
            cm = central_moments(params, z)
            actual = abs(cm.zeta)  # operator error for f = e1
            assert bound_t2(params, parse_source("z"), z) + 1e-9 >= actual


class TestCertifiedModuli:
    """For an expression the moduli are upper bounds: at least a fine grid
    estimate, and close to it on smooth functions."""

    @pytest.mark.parametrize("src", ["z*(z-4/7)*sin(pi*z)", "(1-z)*cos(2*pi*z)", "abs(z-0.37)",
                                     "sqrt(z)", "exp(-3*z)/(1+z^2)"])
    @pytest.mark.parametrize("delta", [1e-6, 3e-3, 0.05, 0.4])
    def test_between_a_grid_estimate_and_a_little_above(self, src, delta):
        f = parse_source(src)
        values = evaluate(f, np.linspace(0.0, 1.0, 200_001))
        grid = lambda d: _grid_modulus(values, d)
        est = modulus_continuity(f, delta)
        assert est.grid_n == 65536
        # a run of cells reaches at most two cells beyond delta
        assert grid(delta) <= est.value <= 1.02 * grid(delta + 2.5 / 65536)

    def test_second_modulus_of_a_quadratic(self):
        # |(u+2h)^2 - 2(u+h)^2 + u^2| = 2h^2 = delta^2 * sup|f''| at h = delta
        assert second_modulus(parse_source("z^2"), 0.25).value == pytest.approx(0.125, rel=1e-12)
        assert second_modulus(parse_source("z^2"), 0.25).value >= 0.125

    def test_second_modulus_without_a_second_derivative(self):
        # abs has no rule, so omega2 <= 2*omega: here 2*0.1 for slope 1, and
        # the runs span delta plus at most 2 cells of width delta/128
        value = second_modulus(parse_source("abs(z-0.5)"), 0.1).value
        assert 0.2 <= value <= 2.0 * (0.1 + 2.0 * 0.1 / 128)

    @pytest.mark.parametrize("src", ["sqrt(z)", "z^2"])
    def test_second_modulus_at_an_underflowing_radius(self, src):
        # delta^2 underflows to 0, and sup|f''| of sqrt(z) is inf: 0 * inf was NaN
        value = second_modulus(parse_source(src), 1e-180).value
        assert 0.0 < value < 0.02

    def test_unbounded_enclosure_reads_inf(self):
        # 1/(3z-1) is finite at every cell end but unbounded between them
        f = parse_source("1/(3*z-1)")
        assert modulus_continuity(f, 0.1).value == math.inf
        assert second_modulus(f, 0.1).value == math.inf

    def test_non_finite_value_at_a_cell_end_rejected(self):
        with pytest.raises(EvaluationError):
            modulus_continuity(parse_source("1/(z-0.5)"), 0.1)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(expression_texts(max_leaves=6), st.floats(0.0, 0.6))
def test_certified_moduli_at_least_a_grid_estimate(src, delta):
    f = parse_source(src)
    try:
        u = np.linspace(0.0, 1.0, 4097)
        values = np.broadcast_to(evaluate(f, u), u.shape)  # a constant evaluates to a scalar
        # the cell corners are the grid points, and they must be finite
        c1 = modulus_continuity(f, delta, grid_n=4096).value
        c2 = second_modulus(f, delta, grid_n=4096).value
    except EvaluationError:  # f undefined or not finite at a grid point
        return
    w1 = _grid_modulus(values, delta)
    w2 = second_difference_max(values, min(_shift_count(delta, 4097), 2048))
    size = float(np.max(np.abs(values)))
    assert c1 >= w1, src
    # the grid's second differences carry rounding noise that f'' does not
    assert c2 >= w2 - 1e-12 * (1.0 + size), src


class TestCertifiedBounds:
    """Cases where the grid moduli gave bound_t2 = 0.0 below the error."""

    @pytest.mark.parametrize("p, fn", [
        ((100_000, 2.0, 4.0, 0.9, 3), "f1"),
        # a request of the benchmark's bounds workload, seed 1
        ((38747, 5.0, 4.712237935953571, 0.7822168916578188, 0), "f2"),
    ])
    def test_endpoints_at_large_degree(self, p, fn):
        params, f = OperatorParams(*p), get_function(fn)
        ki = kernel_integrals(params, f)
        for z in (0.0, 1.0):
            actual = abs(apply_kernel(ki, z) - evaluate(f, z))
            assert actual > 0.0
            # the library default and the CLI's --grid default
            assert bound_t2(params, f, z) >= actual
            assert bound_t2(params, f, z, grid_n=4001) >= actual

    def test_dominate_over_random_parameters(self, rng):
        sources = ["f1", "f2", "f3", "f4", "abs(z-0.37)", "sqrt(z)", "exp(z)*sin(5*z)"]
        for _ in range(30):
            p = draw_params(rng, eta_range=(0.3, 5.0))
            params = OperatorParams(int(10 ** rng.uniform(0.0, 4.3)), p.eta, p.gamma, p.alpha, p.s)
            f = get_function(sources[int(rng.integers(len(sources)))])
            ki = kernel_integrals(params, f)
            for z in (0.0, float(rng.uniform()), 1.0):
                actual = abs(apply_kernel(ki, z) - evaluate(f, z))
                assert bound_t2(params, f, z) >= actual
                assert bound_kfunctional(params, f, z, C=1.0) >= 0.0


class TestBoundLipschitz:
    def test_formula(self):
        params = OperatorParams(m=10, eta=1.0, gamma=1.0, alpha=1.0, s=2)
        xi2 = central_moments(params, 0.5).xi2
        assert bound_lipschitz(params, 2.0, 1.0, 0.5) == pytest.approx(
            2.0 * math.sqrt(xi2), rel=1e-14
        )

    def test_dominates_kink_function(self, rng):
        # |u - 1/2| is Lipschitz with M=1, kappa=1.
        from fracbk import apply

        f = lambda u: np.abs(u - 0.5)
        for _ in range(100):
            params = draw_params(rng, m_max=80, eta_range=(0.3, 5.0))
            z = float(rng.uniform(0.0, 1.0))
            actual = abs(apply(params, f, z) - abs(z - 0.5))
            assert bound_lipschitz(params, 1.0, 1.0, z) + 1e-12 >= actual

    def test_validation(self):
        params = OperatorParams(m=10, eta=1.0, gamma=1.0, alpha=1.0, s=2)
        with pytest.raises(DomainError):
            bound_lipschitz(params, 0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            bound_lipschitz(params, 1.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            bound_lipschitz(params, 1.0, 1.5, 0.5)

    @pytest.mark.parametrize("M, kappa", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)])
    def test_non_finite_constants_rejected(self, M, kappa):
        # M = nan used to give a nan bound and M = inf an infinite one
        params = OperatorParams(m=10, eta=1.0, gamma=1.0, alpha=1.0, s=2)
        with pytest.raises(DomainError):
            bound_lipschitz(params, M, kappa, 0.5)


class TestBoundKFunctional:
    def test_affine_reduces_to_first_modulus(self):
        # For affine f the second modulus vanishes and the bound is
        # |slope| * |zeta|, with runs at most 2/128 longer than |zeta|.
        params = OperatorParams(m=30, eta=2.0, gamma=4.0, alpha=0.8, s=2)
        exact = 3.0 * abs(central_moments(params, 0.2).zeta)
        bound = bound_kfunctional(params, parse_source("3*z-1"), 0.2, C=5.0)
        assert exact <= bound <= exact * (1.0 + 2.0 / 128)

    def test_nonnegative(self, rng):
        f = parse_source("(1-z)*cos(2*pi*z)")
        for _ in range(10):
            params = draw_params(rng, eta_range=(0.3, 5.0))
            z = float(rng.uniform(0.0, 1.0))
            assert bound_kfunctional(params, f, z, C=2.5) >= 0.0

    @pytest.mark.parametrize("C", [-5.0, math.nan, math.inf])
    def test_invalid_constant_rejected(self, C):
        # C = -5 used to give a negative bound (-0.18) and C = nan a nan one
        params = OperatorParams(m=10, eta=2.0, gamma=2.0, alpha=0.8, s=2)
        with pytest.raises(DomainError, match="C must be non-negative and finite"):
            bound_kfunctional(params, parse_source("sin(3*z)"), 0.5, C)

    @pytest.mark.parametrize("C", [True, np.True_, np.bool_(False)])
    def test_bool_constant_rejected(self, C):
        # True was read as C = 1
        params = OperatorParams(m=10, eta=2.0, gamma=2.0, alpha=0.8, s=2)
        with pytest.raises(DomainError, match="C must be a real number, got"):
            bound_kfunctional(params, parse_source("sin(3*z)"), 0.5, C)
        with pytest.raises(DomainError, match="delta must be a real number, got"):
            modulus_continuity(parse_source("sin(3*z)"), C)

    def test_zero_constant_is_first_modulus(self):
        params = OperatorParams(m=10, eta=2.0, gamma=2.0, alpha=0.8, s=2)
        f = parse_source("sin(3*z)")
        zeta = central_moments(params, 0.5).zeta
        bound = bound_kfunctional(params, f, 0.5, 0.0, grid_n=4001)
        assert bound == modulus_continuity(f, abs(zeta), 4001).value


class TestOneDerivativeChain:
    """The kernel-order certificate (sups to k = 12 on 256 cells) and
    omega_2 (f'' on 4,096) read the Taylor coefficients of one
    exprlib._taylor pass each per expression and cell count."""

    def test_each_tree_is_differentiated_once(self, monkeypatch):
        depth, passes = [0], []
        inner = exprlib._taylor

        def counted(node, cells, K):  # records the top-level passes past coefficient 0
            if not depth[0] and K:
                passes.append((node, cells[0][0].size, K))
            depth[0] += 1
            try:
                return inner(node, cells, K)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(exprlib, "_taylor", counted)
        params = OperatorParams(50802, 0.75, 1.654, 0.5, 2)
        f = parse_source("(1-z)*cos(2*pi*z) + 0.000123*z")  # in no cache yet
        assert _kernel_order(params, f) == 8
        assert passes == [(f.root, 256, 12)]
        bound_kfunctional(params, f, 0.5, 1.0, 4096)
        assert passes == [(f.root, 256, 12), (f.root, 4096, 2)]
        bound_kfunctional(params, f, 0.25, 1.0, 4096)
        second_modulus(f, 0.1, 4096)
        _kernel_order(OperatorParams(100, 0.75, 1.654, 0.5, 2), f)
        assert passes == [(f.root, 256, 12), (f.root, 4096, 2)]  # omega_2 reused the 4,096-cell pass

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(expression_texts())
    def test_a_pass_to_k_2_gives_the_full_passes_sups(self, text):
        # coefficient k of every _taylor rule reads coefficients up to k only
        f = parse_source(text)
        for cells in (256, 4096):
            assert repr(exprlib._sups(f, cells, 2)) == repr(exprlib._sups(f, cells, _TAYLOR_TERMS)[:3]), cells

    def test_a_first_derivative_of_many_nodes(self):
        # z*C for a balanced sum C of 2,048 ones has 4,097 nodes, and its
        # coefficients are C, 1*C and none past them: f' is bounded by C,
        # so there is a certificate, and f'' is 0
        C = Num(1.0)
        for _ in range(11):
            C = BinOp("+", C, C)
        f = FunctionExpr(BinOp("*", Var("z"), C))
        assert _kernel_order(OperatorParams(50802, 0.75, 1.654, 0.5, 2), f) == 8
        assert second_modulus(f, 0.1, 4096).value == 0.0


def test_moduli_and_bounds_take_expressions_and_evaluation_takes_callables():
    # a callable has no expression tree to enclose, so no modulus and no
    # bound built on one can be certified for it
    params = OperatorParams(m=10, eta=2.0, gamma=3.0, alpha=0.9, s=2)
    bp = BivariateParams(params, params)
    f, F = (lambda u: u * u), (lambda z, y: z * y)
    for call in (lambda: modulus_continuity(f, 0.1), lambda: second_modulus(f, 0.1),
                 lambda: partial_moduli(F, 0.1, 0.1), lambda: complete_modulus(F, 0.1),
                 lambda: bound_t2(params, f, 0.5), lambda: bound_kfunctional(params, f, 0.5, 1.0),
                 lambda: bound_partial(bp, F, 0.5, 0.5), lambda: bound_complete(bp, F, 0.5, 0.5)):
        with pytest.raises(DomainError, match="parse_source"):
            call()
    g, G = parse_source("z*z"), parse_source("z*y")
    assert apply(params, f, 0.5) == pytest.approx(apply(params, g, 0.5), rel=1e-12)
    assert error_table(params, f, [0.25]).rows == pytest.approx(error_table(params, g, [0.25]).rows, rel=1e-12)
    assert max_error(params, f) == pytest.approx(max_error(params, g), rel=1e-9, abs=1e-15)
    np.testing.assert_allclose(kernel_integrals(params, f).values, kernel_integrals(params, g).values, rtol=1e-12)
    np.testing.assert_allclose(biv_kernel_integrals(bp, F).values, biv_kernel_integrals(bp, G).values, rtol=1e-12)


class TestErrorTable:
    def test_known_column(self):
        # m=40 column of the first tabulated experiment.
        params = OperatorParams(m=40, eta=2.0, gamma=4.0, alpha=0.9, s=3)
        f = parse_source("z*(z-4/7)*sin(pi*z)")
        zs = [round(0.1 * k, 1) for k in range(1, 10)]
        expected = [
            0.00123805,
            0.00233038,
            0.00639784,
            0.00702828,
            0.00255941,
            0.00540837,
            0.01226355,
            0.01186536,
            0.00107304,
        ]
        table = error_table(params, f, zs)
        got = [row[3] for row in table.rows]
        assert np.allclose(got, expected, atol=5e-6)
        assert table.max_error == pytest.approx(max(got))

    def test_spot_cells(self):
        f2 = parse_source("(1-z)*cos(2*pi*z)")
        p2 = OperatorParams(m=90, eta=3.0, gamma=2.0, alpha=0.95, s=3)
        t2 = error_table(p2, f2, [0.5])
        assert t2.rows[0][3] == pytest.approx(0.02268652, abs=5e-6)

        f3 = parse_source("22*z*(z-0.9)*(z-0.3)")
        p3 = OperatorParams(m=70, eta=3.0, gamma=2.0, alpha=0.75, s=2)
        t3 = error_table(p3, f3, [0.8])
        assert t3.rows[0][3] == pytest.approx(0.00127291, abs=5e-6)

    def test_row_structure(self):
        params = OperatorParams(m=5, eta=1.0, gamma=1.0, alpha=1.0, s=2)
        table = error_table(params, lambda u: u, [0.25, 0.75])
        for z, exact, approx, err in table.rows:
            assert err == pytest.approx(abs(exact - approx), abs=1e-18)
        assert table.rows[0][0] == 0.25
        assert table.rows[0][1] == 0.25

    @pytest.mark.parametrize("zs", [[], [0.5], [0.0, 0.25, 1.0]])
    def test_rows_are_tuples_of_python_floats(self, zs):
        # the table keeps float columns; rows builds the tuples on request
        params = OperatorParams(m=5, eta=2.0, gamma=3.0, alpha=0.9, s=2)
        table = error_table(params, parse_source("z*(1-z)"), zs)
        assert isinstance(table.rows, list) and len(table.rows) == len(zs)
        for row in table.rows:
            assert type(row) is tuple and len(row) == 4
            assert all(type(v) is float for v in row)
        assert [row[0] for row in table.rows] == zs
        with pytest.raises(AttributeError):
            table.rows = []

    def test_csv_round_trip(self):
        params = OperatorParams(m=7, eta=2.0, gamma=3.0, alpha=0.4, s=2)
        f = parse_source("z*(z-2/5)*(z-7/8)")
        table = error_table(params, f, [0.1, 0.37, 0.9])
        text = table.to_csv(comments=("setting: demo",))
        lines = text.strip().split("\n")
        assert lines[0] == "# setting: demo"
        assert lines[1] == "z,exact,approx,abs_error"
        assert lines[-1] == f"# max_error={table.max_error!r}"
        for row, line in zip(table.rows, lines[2:-1]):
            parsed = tuple(float(tok) for tok in line.split(","))
            assert parsed == row


class TestMaxError:
    def test_constant_function_zero(self):
        params = OperatorParams(m=12, eta=2.0, gamma=3.0, alpha=0.5, s=2)
        assert max_error(params, lambda u: np.full_like(u, 2.5)) == pytest.approx(
            0.0, abs=1e-13
        )

    def test_consistent_with_error_table(self):
        params = OperatorParams(m=10, eta=2.0, gamma=3.0, alpha=0.9, s=2)
        f = parse_source("z*(z-2/5)*(z-7/8)")
        table = error_table(params, f, np.linspace(0.0, 1.0, 1001))
        assert max_error(params, f) == table.max_error
        # the 1,001 points hold the 101 up to rounding, so they reveal no smaller error
        coarse = error_table(params, f, np.linspace(0.0, 1.0, 101))
        assert max_error(params, f) >= coarse.max_error - 1e-15
