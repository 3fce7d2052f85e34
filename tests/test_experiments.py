import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbk import (
    DomainError,
    Dataset,
    compare_rows,
    figure_dataset,
    table_dataset,
    to_csv,
)
from fracbk.dataset import BLOCK_ROWS, csv_blocks
from fracbk.experiments import NINE_POINTS, comparator_params
from fracbk import special_case


def column(ds: Dataset, name: str) -> list:
    idx = ds.columns.index(name)
    return [row[idx] for row in ds.rows]


class TestTableShapes:
    def test_first_table(self):
        ds = table_dataset(1)
        assert ds.columns == ("z", "err_m40", "err_m100", "err_m250")
        assert len(ds.rows) == 9
        assert column(ds, "z") == list(NINE_POINTS)

    def test_alpha_sweep_table(self):
        ds = table_dataset(2)
        assert ds.columns == ("z", "err_a035", "err_a065", "err_a095")
        assert len(ds.rows) == 9

    def test_shape_sweep_table(self):
        ds = table_dataset(3)
        assert ds.columns == ("z", "err_s8", "err_s5", "err_s2")

    def test_comparison_table(self):
        ds = table_dataset(4)
        assert ds.columns == ("m", "rlbk", "bbk", "fbk", "rlgbk")
        assert column(ds, "m") == [10, 20, 40, 80]

    def test_bivariate_tables(self):
        ds5 = table_dataset(5)
        assert ds5.columns == ("z", "y", "err_m10", "err_m30", "err_m90")
        assert len(ds5.rows) == 9
        assert all(row[0] == row[1] for row in ds5.rows)
        ds6 = table_dataset(6)
        assert ds6.columns == ("z", "y", "err_a01", "err_a05", "err_a09")
        ds7 = table_dataset(7)
        assert ds7.columns == ("z", "y", "err_s9", "err_s6", "err_s3")

    @pytest.mark.parametrize("which", [1, 2, 3, 5, 6, 7])
    def test_rows_are_one_float_array(self, which):
        # the float path of csv_blocks; table 4 keeps tuples for its int m column
        rows = table_dataset(which).rows
        assert isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            table_dataset(0)
        with pytest.raises(DomainError):
            table_dataset(8)

    @pytest.mark.parametrize("which", [2.0, True, 4.0])
    def test_non_integer_number_rejected(self, which):
        # 2.0 used to return table 2 and True table 1
        with pytest.raises(DomainError, match="which must be an int"):
            table_dataset(which)


class TestTableSpotValues:
    def test_degree_sweep_midpoint(self):
        ds = table_dataset(1)
        assert column(ds, "err_m40")[4] == pytest.approx(0.00255941, abs=5e-6)

    def test_bivariate_alpha_sweep_corner(self):
        ds = table_dataset(6)
        assert column(ds, "err_a09")[8] == pytest.approx(0.736638433, abs=5e-6)

    def test_bivariate_shape_sweep_corner(self):
        # the s=9 column at (0.9, 0.9); the reference tabulation shows this
        # value in the s=3 column of that row (columns transposed there)
        ds = table_dataset(7)
        assert column(ds, "err_s9")[8] == pytest.approx(0.018575111, abs=5e-6)


class TestFigureShapes:
    def test_univariate_figure(self):
        ds = figure_dataset(1)
        assert ds.columns == ("z", "phi", "op_m20", "op_m30", "op_m70")
        assert len(ds.rows) == 201
        zs = column(ds, "z")
        assert zs[0] == 0.0 and zs[-1] == 1.0

    def test_alpha_figure(self):
        ds = figure_dataset(2)
        assert ds.columns == ("z", "phi", "op_a035", "op_a065", "op_a095")
        assert len(ds.rows) == 201

    def test_bivariate_figure(self):
        ds = figure_dataset(4)
        assert ds.columns == ("z", "y", "phi", "op_m10", "op_m30", "op_m90")
        assert len(ds.rows) == 41 * 41

    @pytest.mark.parametrize("which", range(1, 7))
    def test_rows_are_one_float_array(self, which):
        rows = figure_dataset(which).rows
        assert isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            figure_dataset(0)
        with pytest.raises(DomainError):
            figure_dataset(7)

    @pytest.mark.parametrize("which", [3.0, True])
    def test_non_integer_number_rejected(self, which):
        # 3.0 used to return figure 3
        with pytest.raises(DomainError, match="which must be an int"):
            figure_dataset(which)


class TestFigureContent:
    def test_degree_sweep_converges(self):
        ds = figure_dataset(1)
        phi = np.array(column(ds, "phi"))
        errs = [
            np.max(np.abs(np.array(column(ds, c)) - phi))
            for c in ("op_m20", "op_m30", "op_m70")
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_surfaces_bounded_by_function_range(self):
        ds = figure_dataset(5)
        phi = np.array(column(ds, "phi"))
        lo, hi = phi.min(), phi.max()
        for c in ("op_a01", "op_a05", "op_a09"):
            vals = np.array(column(ds, c))
            assert vals.min() >= lo - 1e-9
            assert vals.max() <= hi + 1e-9

    def test_alpha_trend_on_diagonal(self):
        # On the tabulated diagonal points the alpha=0.9 surface is at
        # least as close as alpha=0.1, except at 0.7 and 0.8 where the
        # relation genuinely reverses.
        ds = table_dataset(6)
        a01 = column(ds, "err_a01")
        a09 = column(ds, "err_a09")
        for i, z in enumerate(NINE_POINTS):
            if z in (0.7, 0.8):
                assert a09[i] > a01[i]
            else:
                assert a09[i] <= a01[i] + 1e-12


class TestCompareRows:
    def test_matches_reference_values(self):
        rows = compare_rows(
            "f4", (10, 20, 40, 80), 2.0, 3.0, 0.9, 2, [0.2], bbk_gamma=2.0
        )
        expected = {
            10: (0.00871903, 0.00888781, 0.00921728, 0.00854246),
            20: (0.00495655, 0.00500511, 0.00524502, 0.00470220),
            40: (0.00264793, 0.00266098, 0.00280300, 0.00247096),
            80: (0.00136927, 0.00137266, 0.00144966, 0.00126713),
        }
        for row in rows:
            m, rlbk, bbk, fbk, rlgbk = row
            assert (rlbk, bbk, fbk, rlgbk) == pytest.approx(expected[m], abs=5e-6)

    def test_default_bbk_keeps_base_gamma(self):
        with_default = compare_rows("f4", (10,), 2.0, 3.0, 0.9, 2, [0.2])
        with_override = compare_rows("f4", (10,), 2.0, 3.0, 0.9, 2, [0.2], bbk_gamma=2.0)
        assert with_default[0][2] != pytest.approx(with_override[0][2], abs=1e-6)
        # non-bbk columns do not depend on the override
        assert with_default[0][1] == pytest.approx(with_override[0][1], abs=1e-15)
        assert with_default[0][3] == pytest.approx(with_override[0][3], abs=1e-15)
        assert with_default[0][4] == pytest.approx(with_override[0][4], abs=1e-15)

    @pytest.mark.parametrize("m", [2.5, True, np.float64(3.0), np.bool_(True), "3"])
    def test_non_integer_degree_rejected(self, m):
        # 2.5 gave the row of m = 2 and True that of m = 1
        with pytest.raises(DomainError, match="m must be an int"):
            compare_rows("f4", [10, m], 2.0, 3.0, 0.9, 2, [0.2])

    def test_numpy_integer_degrees_accepted(self):
        rows = compare_rows("f4", [np.int64(10), np.int32(20)], 2.0, 3.0, 0.9, 2, [0.2])
        assert rows == compare_rows("f4", [10, 20], 2.0, 3.0, 0.9, 2, [0.2])
        assert [type(row[0]) for row in rows] == [int, int]

    def test_comparator_tags_match_special_cases(self):
        pairs = comparator_params(12, 2.0, 3.0, 0.9, 3)
        tags = {tag: special_case(p) for tag, p in pairs}
        assert tags["rlbk"] == "RLBK"
        assert tags["bbk"] == "BBK"
        assert tags["fbk"] == "FBK"
        assert tags["rlgbk"] == "none"


class TestCsv:
    def test_deterministic_output(self):
        a = to_csv(table_dataset(4))
        b = to_csv(table_dataset(4))
        assert a == b

    def test_round_trip_numeric_cells(self):
        ds = table_dataset(1)
        text = to_csv(ds)
        lines = [l for l in text.strip().split("\n") if not l.startswith("#")]
        assert lines[0] == ",".join(ds.columns)
        for row, line in zip(ds.rows, lines[1:]):
            values = line.split(",")
            for v, tok in zip(row, values):
                assert float(tok) == float(v)

    def test_meta_comments_first(self):
        text = to_csv(figure_dataset(3))
        lines = text.split("\n")
        assert lines[0].startswith("# figure 3")
        assert any("f3" in l for l in lines[:5])

    @pytest.mark.parametrize("rows,text", [
        (((1, 0.5), (2, "")), "1,0.5\n2,\n"),
        # numpy scalars print as the Python numbers they hold
        (((np.int64(-3), -0.0), (math.inf, 1e16), ("", np.float64(0.1))), "-3,-0.0\ninf,1e+16\n,0.1\n"),
    ])
    def test_footer_lines_follow_rows(self, rows, text):
        ds = Dataset(("first", "second"), ("a", "b"), rows, ("end=1",))
        assert to_csv(ds) == "# first\n# second\na,b\n" + text + "# end=1\n"

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_blocks_join_to_the_line_by_line_text(self, data):
        # int, float, str and empty cells, or floats alone given as a 2-D
        # array; row counts around the block size up to 3,000
        floats = data.draw(st.booleans())
        cells = st.floats() if floats else st.one_of(
            st.integers(-10**20, 10**20), st.floats(), st.text("az_ .-", max_size=3), st.just(""))
        width = data.draw(st.integers(1, 4))
        pool = data.draw(st.lists(st.tuples(*[cells] * width), min_size=1, max_size=5))
        n = data.draw(st.one_of(st.sampled_from([0, 1, 1023, 1024, 1025, 2048, 3000]), st.integers(0, 3000)))
        rows = tuple(pool[i % len(pool)] for i in range(n))
        meta = tuple(data.draw(st.lists(st.text("ab =", max_size=4), max_size=2)))
        footer = tuple(data.draw(st.lists(st.text("ab =", max_size=4), max_size=2)))
        names = tuple(f"c{k}" for k in range(width))
        ds = Dataset(meta, names, np.array(rows, dtype=float).reshape(n, width) if floats else rows, footer)

        blocks = list(csv_blocks(ds))
        lines = [f"# {m}" for m in meta] + [",".join(names)]
        lines += [",".join(v if isinstance(v, str) else repr(v) for v in row) for row in rows]
        lines += [f"# {f}" for f in footer]
        assert "".join(blocks) == to_csv(ds) == "\n".join(lines) + "\n"
        row_blocks = blocks[1:-1]  # then the footer, "" if there is none
        assert len(row_blocks) == -(-n // BLOCK_ROWS)
        assert all(b.endswith("\n") and b.count("\n") <= BLOCK_ROWS for b in row_blocks)


# The preset CSVs as the seed implementation wrote them.  Comment and header
# lines must match byte for byte; numbers may move in their last bits only.
REFERENCE_DIR = Path(__file__).resolve().parents[1] / "bench" / "reference"
PRESETS = [("table", k) for k in range(1, 8)] + [("figure", k) for k in range(1, 7)]


@pytest.mark.parametrize("kind,number", PRESETS)
def test_preset_matches_reference(kind, number):
    build = table_dataset if kind == "table" else figure_dataset
    got = to_csv(build(number)).splitlines()
    ref = (REFERENCE_DIR / f"{kind}{number}.csv").read_text().splitlines()
    assert len(got) == len(ref)
    data_start = next(i for i, line in enumerate(ref) if not line.startswith("#")) + 1
    assert got[:data_start] == ref[:data_start]
    for got_line, ref_line in zip(got[data_start:], ref[data_start:]):
        got_cells, ref_cells = got_line.split(","), ref_line.split(",")
        assert len(got_cells) == len(ref_cells)
        for g, r in zip(got_cells, ref_cells):
            assert abs(float(g) - float(r)) <= 1e-12 + 1e-9 * abs(float(r)), (g, r)
