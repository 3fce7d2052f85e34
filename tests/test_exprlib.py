import copy
import math
import pickle
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbk import (
    BivariateParams,
    DomainError,
    EvaluationError,
    FunctionExpr,
    OperatorParams,
    ParseError,
    apply,
    apply_biv,
    biv_kernel_integrals,
    error_table,
    evaluate,
    gauss_jacobi_rule,
    get_function,
    integrate,
    kernel_integrals,
    max_error,
    parse_source,
    surface_rows,
    surface_values,
)
from fracbk import exprlib
from fracbk.exprlib import (
    _TAYLOR_TERMS, Num, _cell_signs, _corners, _outward, _eval_node, _taylor, derivative_sup, enclose, eval_function,
    free_variables, parse, separate, separate_cells, tokenize,
)

from conftest import expression_texts
from oracles import evaluate_reference, tree_value


class TestTokenize:
    def test_single_variable(self):
        tokens = tokenize("z")
        assert len(tokens) == 1
        assert tokens[0].kind == "identifier"
        assert tokens[0].lexeme == "z"
        assert tokens[0].position == 0

    def test_function_call_token_stream(self):
        tokens = tokenize("sin(pi*z)")
        assert [t.lexeme for t in tokens] == ["sin", "(", "pi", "*", "z", ")"]
        assert len(tokens) == 6

    def test_positions_increase(self):
        tokens = tokenize("1 + 2*sin(z)")
        positions = [t.position for t in tokens]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)

    def test_unexpected_character_reports_position(self):
        with pytest.raises(ParseError) as excinfo:
            tokenize("2$z")
        assert excinfo.value.position == 1
        assert "position 1" in str(excinfo.value)

    def test_whitespace_ignored(self):
        assert len(tokenize("  1  +  z ")) == 3

    def test_number_forms(self):
        kinds = {t.lexeme for t in tokenize("1 2.5 .5 22")}
        assert kinds == {"1", "2.5", ".5", "22"}

    @pytest.mark.parametrize("source, position", [("2*\u00b2", 2), ("z+\u0663", 2), ("\uff11", 0), ("z\u00e9", 1)])
    def test_non_ascii_digits_and_letters_rejected(self, source, position):
        # str.isdigit holds for all three digits: the superscript used to
        # crash float() and the other two were read as 3 and 1
        with pytest.raises(ParseError, match="unexpected character") as excinfo:
            tokenize(source)
        assert excinfo.value.position == position


class TestParse:
    def test_precedence_mul_over_add(self):
        expr = parse_source("1+2*3")
        assert evaluate(expr, 0.0) == pytest.approx(7.0)

    def test_power_right_associative(self):
        expr = parse_source("2^3^2")
        assert evaluate(expr, 0.0) == pytest.approx(512.0)

    def test_unary_minus_binds_below_power(self):
        assert evaluate(parse_source("-2^2"), 0.0) == pytest.approx(-4.0)

    def test_literal_overflowing_a_float_rejected(self):
        # it used to parse to inf, and fracbk eval exited 3 on a non-finite kernel
        with pytest.raises(ParseError, match="too large") as excinfo:
            parse_source("z+1" + "0" * 400)
        assert excinfo.value.position == 2

    def test_parse_accepts_token_sequence(self):
        expr = parse(tokenize("z*(1-z)"))
        assert evaluate(expr, 0.25) == pytest.approx(0.1875)

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse_source("sin(z")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_source("1+2 3")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse_source("w+1")

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse_source("tan(z)")

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse_source("")

    def test_function_requires_parentheses(self):
        with pytest.raises(ParseError):
            parse_source("sin z")

    @pytest.mark.parametrize(
        "source, position",
        [
            ("(" * 200 + "z" + ")" * 200, 100),
            ("-" * 1000 + "z", 100),
            ("z^" * 1000 + "z", 200),
            ("sin(" * 150 + "z" + ")" * 150, 400),
            ("z+" * 3000 + "z", 200),
            ("z*" * 3000 + "z", 200),
        ],
        ids=["parentheses", "unary-minus", "power-chain", "calls", "sum-chain", "product-chain"],
    )
    def test_deep_nesting_rejected_at_the_offending_token(self, source, position):
        # each of these used to overflow the stack with a RecursionError
        with pytest.raises(ParseError, match="nested deeper than 100 levels") as excinfo:
            parse_source(source)
        assert excinfo.value.position == position

    @pytest.mark.parametrize(
        "source",
        ["(" * 99 + "z" + ")" * 99, "-" * 99 + "z", "z^" * 99 + "z", "sin(" * 99 + "z" + ")" * 99,
         "z+" * 99 + "z", "(" * 50 + "z" + ")" * 50 + "*z" * 49],
    )
    def test_nesting_up_to_the_limit_accepted(self, source):
        expr = parse_source(source)
        assert free_variables(expr) == frozenset({"z"})
        assert math.isfinite(evaluate(expr, 0.5))


class TestEvaluate:
    def test_cubic_times_sine(self):
        expr = parse_source("z*(z-4/7)*sin(pi*z)")
        assert evaluate(expr, 0.5) == pytest.approx(-1.0 / 28.0, rel=1e-15)

    def test_cosine_factor_vanishes(self):
        expr = parse_source("(1-z)*cos(2*pi*z)")
        assert evaluate(expr, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_two_variable_expression(self):
        # (0.25*0.5^2 - 1) * sin(pi/2) = -0.9375
        expr = parse_source("(y*z^2-1)*sin(2*pi*y)")
        assert evaluate(expr, 0.5, 0.25) == pytest.approx(-0.9375, rel=1e-15)

    def test_two_variable_expression_second_point(self):
        # (0.25*0.25^2 - 1) * sin(pi/2) = -63/64
        expr = parse_source("(y*z^2-1)*sin(2*pi*y)")
        assert evaluate(expr, 0.25, 0.25) == pytest.approx(-0.984375, rel=1e-15)

    def test_missing_second_variable(self):
        expr = parse_source("z+y")
        with pytest.raises(EvaluationError):
            evaluate(expr, 0.5)

    def test_array_broadcast(self):
        expr = parse_source("z^2+1")
        z = np.linspace(0.0, 1.0, 11)
        out = evaluate(expr, z)
        assert out.shape == z.shape
        assert np.allclose(out, z**2 + 1.0)

    def test_two_variable_broadcast(self):
        expr = parse_source("z*y")
        z = np.linspace(0.0, 1.0, 5)[:, None]
        y = np.linspace(0.0, 1.0, 3)[None, :]
        out = evaluate(expr, z, y)
        assert out.shape == (5, 3)
        assert np.allclose(out, z * y)

    def test_division_by_zero_scalar(self):
        expr = parse_source("1/z")
        with pytest.raises(EvaluationError):
            evaluate(expr, 0.0)

    def test_division_by_zero_array(self):
        expr = parse_source("1/z")
        with pytest.raises(EvaluationError):
            evaluate(expr, np.array([0.5, 0.0, 1.0]))

    def test_fractional_power_of_negative(self):
        expr = parse_source("z^0.5")
        with pytest.raises(EvaluationError):
            evaluate(expr, -4.0)

    def test_sqrt_and_abs(self):
        expr = parse_source("sqrt(abs(z))")
        assert evaluate(expr, -4.0) == pytest.approx(2.0)

    def test_pi_constant(self):
        assert parse_source("pi") == FunctionExpr(Num(math.pi))
        assert evaluate(parse_source("pi"), 0.0) == math.pi
        assert enclose(parse_source("pi"), (0.0, 1.0)) == (math.pi, math.pi)

    def test_points_are_read_as_check_points_reads_them(self):
        # a list came back as the list object itself for "z", and "2*z" on
        # it raised a raw TypeError
        out = evaluate(parse_source("z"), [0.1, 0.2])
        assert isinstance(out, np.ndarray) and out.dtype == float
        assert np.array_equal(out, [0.1, 0.2])
        assert np.array_equal(evaluate(parse_source("2*z"), [0.1, 0.2]), [0.2, 0.4])
        assert evaluate(parse_source("z*y"), [[0.5], [1.0]], [2.0, -3.0]).tolist() == [[1.0, -1.5], [2.0, -3.0]]

    def test_scalars_give_floats_and_arrays_their_shape(self):
        for z in (0.5, np.float64(0.5), 1, np.array(0.5)):
            out = evaluate(parse_source("z^2"), z)
            assert type(out) is float, z
        assert evaluate(parse_source("z^2"), np.zeros((2, 3))).shape == (2, 3)
        # neither [0, 1] nor NaN is a rule of evaluate
        assert evaluate(parse_source("z+1"), -4.0) == -3.0
        assert math.isnan(evaluate(parse_source("z+1"), math.nan))

    @pytest.mark.parametrize("z, y", [("abc", None), (1j, None), (None, None), ([0.1, "a"], None),
                                      ([[0.1], [0.2, 0.3]], None), (10**400, None), (0.5, "abc"),
                                      (0.5, [0.5j])])
    def test_points_that_are_not_reals_are_a_domain_error(self, z, y):
        name = "y" if y is not None else "z"
        with pytest.raises(DomainError, match=rf"^{name} must be real numbers, got "):
            evaluate(parse_source("z*y"), z, y)


def _points(rng, kind):
    """z and y of one kind: floats, 1-D arrays, an (n, 1) by (1, m) grid,
    read-only broadcast views, or shapes that do not broadcast; values in
    [-1, 1], a quarter of them 0, so that x/0 and a negative base to a real
    power occur."""
    def draw(shape):
        values = rng.uniform(-1.0, 1.0, shape)
        return np.where(rng.random(shape) < 0.25, 0.0, values)
    if kind == "scalar":
        return float(draw(())), float(draw(()))
    shapes = {"1-D": [(7,), (7,)], "grid": [(5, 1), (1, 4)], "view": [(1, 6), (1, 6)], "mismatch": [(3,), (4,)]}
    z, y = (draw(shape) for shape in shapes[kind])
    return (np.broadcast_to(z, (4, 6)), np.broadcast_to(y, (4, 6))) if kind == "view" else (z, y)


def _outcome(walk, expr, z, y):
    """type and bytes of walk's value, or its error's type and text."""
    try:
        out = walk(expr, z, y)
    except EvaluationError as exc:
        return type(exc), str(exc)
    return type(out), np.shape(out), np.asarray(out).tobytes()


def _assert_as_the_reference(text, kind, seed):
    z, y = _points(np.random.default_rng(seed), kind)
    before = [np.asarray(v).tobytes() for v in (z, y)]
    expr = parse_source(text)
    assert _outcome(evaluate, expr, z, y) == _outcome(evaluate_reference, expr, z, y), (text, kind)
    assert [np.asarray(v).tobytes() for v in (z, y)] == before


class TestInPlaceEvaluation:
    """evaluate writes each operation into an operand array that its walk
    made; oracles.evaluate_reference takes a new array for every operation.
    The values, their bytes and the errors are the same, and z and y are
    left as they were."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.one_of(expression_texts(12), expression_texts(12, variables=("z", "y"))).filter(lambda t: "z" in t),
           st.sampled_from(["scalar", "1-D", "grid", "view", "mismatch"]), st.integers(0, 2**32 - 1))
    def test_matches_the_allocating_walk(self, text, kind, seed):
        _assert_as_the_reference(text, kind, seed)

    # each operation with a made array on the left, on the right, on both,
    # and of a shape the other operand widens
    @pytest.mark.parametrize("text", ["sin(z)+y", "cos(y)-sin(z)", "2-sin(z)", "(z*y)*(y+1)", "(z+y)/(z-y)",
                                      "2/(z*y)", "abs(z)^0.5", "(z+y)^2", "2^(z*y)", "(z-y)^(z+y)", "-(z*y)",
                                      "exp(z-y)", "(z-1)^0.5 + y", "sqrt(z*z - y)", "abs(sin(z)*y)^1.5"])
    @pytest.mark.parametrize("kind", ["scalar", "1-D", "grid", "view", "mismatch"])
    def test_each_operation_on_either_side(self, text, kind):
        _assert_as_the_reference(text, kind, 7)

    def test_a_product_of_subtrees_holds_no_third_array(self):
        # z*(z-4/7)*sin(pi*z): the allocating walk holds z*(z-4/7), pi*z and
        # its sine at once (three arrays of 8 MB); in place, two
        f, z = get_function("f1"), np.linspace(0.0, 1.0, 10**6)
        peaks = []
        for walk in (evaluate, evaluate_reference):
            tracemalloc.start()
            try:
                walk(f, z)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 2 * z.nbytes + 2**16 and peaks[1] - peaks[0] >= z.nbytes - 2**12, peaks


_F_ENTRY_POINTS = {
    "apply": lambda p, f: apply(p, f, 0.5),
    "kernel_integrals": lambda p, f: kernel_integrals(p, f),
    "error_table": lambda p, f: error_table(p, f, [0.5]),
    "max_error": lambda p, f: max_error(p, f),
    "apply_biv": lambda p, f: apply_biv(BivariateParams(p, p), f, 0.5, 0.5),
    "biv_kernel_integrals": lambda p, f: biv_kernel_integrals(BivariateParams(p, p), f),
    "surface_values": lambda p, f: surface_values(BivariateParams(p, p), f, [0.5], [0.5]),
    "surface_rows": lambda p, f: surface_rows(BivariateParams(p, p), f, [0.5], [0.5]),
    "integrate": lambda p, f: integrate(gauss_jacobi_rule(p.eta, 8), f),
}
_TWO_ARGUMENTS = ("apply_biv", "biv_kernel_integrals", "surface_values", "surface_rows")


class TestEvalFunction:
    """eval_function is where every operator, table and quadrature meets f."""

    P = OperatorParams(10, 2.0, 3.0, 0.9, 2)

    @pytest.mark.parametrize("entry", sorted(_F_ENTRY_POINTS))
    @pytest.mark.parametrize("f", ["f1", 3.0, None, [1.0], np.ones(3)])
    def test_non_function_is_a_domain_error(self, entry, f):
        # each of these ended in a raw TypeError ("'str' object is not callable")
        with pytest.raises(DomainError, match="^f must be an expression or a callable, got "):
            _F_ENTRY_POINTS[entry](self.P, f)

    @pytest.mark.parametrize("entry", sorted(_F_ENTRY_POINTS))
    @pytest.mark.parametrize("values", [lambda t: np.ones(3), lambda t: 1j * t, lambda t: None,
                                        lambda t: "abc", lambda t: [t, t[:1]]])
    def test_values_that_are_not_reals_of_the_points_shape_are_an_evaluation_error(self, entry, values):
        # a wrong shape ended in a raw ValueError; complex values lost their
        # imaginary part; None read as NaN
        f = (lambda z, y: values(z)) if entry in _TWO_ARGUMENTS else values
        with pytest.raises(EvaluationError, match="^(the values of f must be real numbers|f must be vectorised)"):
            _F_ENTRY_POINTS[entry](self.P, f)

    def test_a_shape_error_states_the_contract_and_both_shapes(self):
        # it used to name only the internal block: "f must give values of
        # shape (11, 64), got shape (3,)"
        with pytest.raises(EvaluationError) as info:
            kernel_integrals(self.P, lambda t: np.ones(3))
        assert str(info.value) == ("f must be vectorised and give one value per point: "
                                   "expected shape (11, 64), got shape (3,)")

    @pytest.mark.parametrize("entry", sorted(_F_ENTRY_POINTS))
    def test_what_the_callable_raises_propagates(self, entry):
        class Raised(Exception):
            pass

        def f(*args):
            raise Raised("from f")

        with pytest.raises(Raised, match="^from f$"):
            _F_ENTRY_POINTS[entry](self.P, f)

    def test_constants_broadcast_and_values_are_unchanged(self):
        z = np.linspace(0.0, 1.0, 5)
        assert np.array_equal(eval_function(parse_source("3"), z), np.full(5, 3.0))
        assert np.array_equal(eval_function(lambda t, y: 3, z[:, None], z), np.full((5, 5), 3.0))
        expr = parse_source("z*(z-4/7)*sin(pi*z)")
        assert np.array_equal(eval_function(expr, z), evaluate(expr, z))
        assert np.array_equal(eval_function(lambda t: t * t, z), z * z)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet=list("0123456789.+-*/^(),_ \tzypisncoexqrtab") + ["\u00b2", "\u0663", "\uff11", "\u00e9"]))
def test_parse_source_returns_a_tree_or_raises_parse_error(source):
    try:
        expr = parse_source(source)
    except ParseError:
        return
    assert isinstance(expr, FunctionExpr)


ROUND_TRIP_SOURCES = [
    "z*(z-4/7)*sin(pi*z)",
    "(1-z)*cos(2*pi*z)",
    "22*z*(z-0.9)*(z-0.3)",
    "z*(z-2/5)*(z-7/8)",
    "(y*z^2-1)*sin(2*pi*y)",
    "(y*z+2)*cos(2*pi*z)",
    "2*cos(pi*z)+3*sin(2*pi*y)",
    "-(z+1)^2",
    "2^-z",
    "z-(y-1)",
    "-z^2",
    "(z/2)/y",
    "z/(2/y)",
    "z^(y+1)",
    "-(-z)",
    # literals the grammar has no exponent notation for
    "0.00001*z",
    "9999999999999999+z",
    "1" + "0" * 300 + "*z",
]


def _values(expr, z, y):
    return evaluate(expr, z, y) if "y" in free_variables(expr) else evaluate(expr, z)


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_round_trip_preserves_values(source, rng):
    # source -> lexemes -> source again: the scanner keeps every literal's text,
    # and spacing between tokens changes neither the tree nor its values
    expr = parse_source(source)
    reparsed = parse_source(" ".join(token.lexeme for token in tokenize(source)))
    assert reparsed == expr
    z = rng.uniform(0.1, 1.0, size=8)
    y = rng.uniform(0.1, 1.0, size=8)
    assert np.array_equal(_values(expr, z, y), _values(reparsed, z, y))


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_values_match_python_reading(source, rng):
    # Python reads the same text with ^ as ** under the same precedence
    # (unary minus below power, power right-associative), so it is an
    # independent reference for how the parser groups each case
    z = rng.uniform(0.1, 1.0, size=8)
    y = rng.uniform(0.1, 1.0, size=8)
    namespace = {"__builtins__": {}, "z": z, "y": y, "pi": math.pi, "sin": np.sin, "cos": np.cos}
    expected = eval(source.replace("^", "**"), namespace) + np.zeros_like(z)
    assert np.allclose(_values(parse_source(source), z, y), expected, rtol=1e-15, atol=0.0)


def test_free_variables():
    assert free_variables(parse_source("sin(pi*z)")) == frozenset({"z"})
    assert free_variables(parse_source("z*y+1")) == frozenset({"z", "y"})
    assert free_variables(parse_source("pi+1")) == frozenset()


def _random_cells(rng, n, low=-3.0, high=3.0):
    a, b = rng.uniform(low, high, n), rng.uniform(low, high, n) * rng.uniform(0.0, 1.0, n) ** 4
    return np.minimum(a, a + b), np.maximum(a, a + b)


class TestEnclose:
    def test_affine_is_exact_up_to_rounding(self):
        lo, hi = enclose(parse_source("2*z+1"), (np.array([0.0, 0.5]), np.array([0.5, 1.0])))
        assert lo == pytest.approx([1.0, 2.0], abs=1e-14) and hi == pytest.approx([2.0, 3.0], abs=1e-14)
        assert np.all(lo <= [1.0, 2.0]) and np.all(hi >= [2.0, 3.0])

    def test_even_power_of_a_cell_holding_zero_starts_at_zero(self):
        lo, hi = enclose(parse_source("(z-0.5)^2"), (np.array([0.25]), np.array([1.0])))
        assert lo[0] == 0.0 and 0.25 <= hi[0] < 0.25 + 1e-15

    def test_sin_and_cos_reach_their_extremes_inside_a_cell(self):
        cells = (np.array([1.0, 3.0]), np.array([2.0, 3.5]))
        lo, hi = enclose(parse_source("sin(z)"), cells)
        assert hi[0] == 1.0 and lo[0] == pytest.approx(math.sin(1.0), abs=1e-15)
        assert lo[1] == pytest.approx(math.sin(3.5), abs=1e-15) and hi[1] == pytest.approx(math.sin(3.0))
        lo, hi = enclose(parse_source("cos(z)"), cells)
        assert lo[1] == -1.0 and hi[1] == pytest.approx(math.cos(3.5), abs=1e-15)

    @pytest.mark.parametrize("src", ["1/(z-0.3)", "sqrt(z-0.3)", "(z-0.3)^0.5", "z^-1"])
    def test_singular_or_undefined_cells_are_unbounded(self, src):
        lo, hi = enclose(parse_source(src), (np.array([0.0, 0.9]), np.array([0.5, 1.0])))
        assert lo[0] == -math.inf and hi[0] == math.inf
        assert np.isfinite(lo[1]) and np.isfinite(hi[1])

    def test_two_variables_broadcast(self):
        u = np.linspace(0.0, 1.0, 5)
        lo, hi = enclose(parse_source("z*y"), (u[:-1, None], u[1:, None]), (u[None, :-1], u[None, 1:]))
        assert lo.shape == hi.shape == (4, 4)
        assert np.all(lo <= np.outer(u[:-1], u[:-1])) and np.all(hi >= np.outer(u[1:], u[1:]))

    def test_cell_signs(self):
        # on one axis, the kinks of abs(g) lie in the cells of sign 0, and a
        # cell where g is unbounded (or only bounded on one side) has sign 0
        cells = (np.array([0.0, 0.25, 0.5, 0.9]), np.array([0.25, 0.5, 0.9, 1.0]))
        assert _cell_signs(parse_source("z-0.3"), cells).tolist() == [-1, 0, 1, 1]
        assert _cell_signs(parse_source("1/(z-0.7)"), cells).tolist() == [-1, -1, 0, 1]
        assert _cell_signs(parse_source("exp(1000*z)-1"), cells).tolist() == [0, 1, 0, 0]
        # on two: z - y keeps its sign off the diagonal cells and their
        # neighbours, which share a corner of the diagonal
        u = np.linspace(0.0, 1.0, 9)
        signs = _cell_signs(parse_source("z-y"), (u[:-1, None], u[1:, None]), (u[None, :-1], u[None, 1:]))
        d = np.subtract.outer(np.arange(8), np.arange(8))
        assert signs.dtype == np.int8 and np.array_equal(signs, np.sign(d) * (abs(d) >= 2))

    def test_y_without_y_cells_rejected(self):
        with pytest.raises(EvaluationError):
            enclose(parse_source("z+y"), (np.zeros(1), np.ones(1)))

    @pytest.mark.parametrize("op", [np.multiply, np.divide, np.power])
    def test_point_operand_takes_two_products(self, op, rng):
        # a Num or an integer exponent is a point: its two products give the
        # hull of the four bit for bit, signed zeros, inf and NaN included
        lo = rng.standard_normal(64)
        cells = [lo, lo + rng.random(64)]
        for i, value in enumerate([0.0, -0.0, math.inf, -math.inf, math.nan]):
            cells[i % 2][i] = value
        with np.errstate(all="ignore"):
            for c in (2.0, -3.0, 0.5, 0.0, 4.0):
                for a, b in ((cells, (c, c)), ((c, c), cells)):
                    got = _corners(op, a, b)
                    c0, c1, c2, c3 = (op(a[i], b[j]) for i in (0, 1) for j in (0, 1))
                    want = _outward(np.minimum(np.minimum(c0, c1), np.minimum(c2, c3)),
                                    np.maximum(np.maximum(c0, c1), np.maximum(c2, c3)))
                    assert all(np.asarray(g).tobytes() == np.asarray(w).tobytes() for g, w in zip(got, want)), c


class TestFunctionExprHash:
    def test_hash_is_the_trees_and_taken_once(self):
        f = parse_source("(1-z)*cos(2*pi*z)")
        assert hash(f) == hash(f.root) == hash(parse_source("(1-z)*cos(2*pi*z)"))
        assert f.__dict__["_hash"] == hash(f.root)
        assert f == parse_source("(1-z)*cos(2*pi*z)") and repr(f).startswith("FunctionExpr(root=")

    def test_pickle_leaves_the_hash_behind(self):
        f = parse_source("sin(z) + y")
        hash(f)
        state = pickle.dumps(f)
        assert b"_hash" not in state
        g = pickle.loads(state)
        assert g == f and hash(g) == hash(f) and copy.deepcopy(f) == f


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(expression_texts(), st.integers(0, 2**32 - 1))
def test_enclosure_holds_every_sampled_point(src, seed):
    """Points sampled inside each cell, ends included, evaluate inside its
    [lo, hi] wherever the expression is defined."""
    expr = parse_source(src)
    rng = np.random.default_rng(seed)
    cell_lo, cell_hi = cells = _random_cells(rng, 64)
    lo, hi = enclose(expr, cells)
    for t in (0.0, 1.0, *rng.uniform(0.0, 1.0, 6)):
        points = np.clip(cell_lo + t * (cell_hi - cell_lo), cell_lo, cell_hi)
        with np.errstate(all="ignore"):
            try:
                values = np.broadcast_to(_eval_node(expr.root, points, None), points.shape)
            except (ArithmeticError, TypeError):  # e.g. 1/0 in Python floats
                return
        if np.iscomplexobj(values):  # a constant subtree such as (0-2)^0.5
            return
        outside = ~np.isnan(values) & ((values < lo) | (values > hi))
        assert not np.any(outside), (src, points[outside], values[outside])


def _coefficients(src, lo, hi, K):
    """_taylor's coefficients of src on the cells (lo, hi) of z, k <= K."""
    with np.errstate(all="ignore"):
        return _taylor(parse_source(src).root, ((lo, hi),), K)


class TestDerivative:
    """_taylor's coefficients f_k = f^(k)/k! and derivative_sup's k! max |f_k|."""

    @pytest.mark.parametrize("src, expected", [
        ("z^3", lambda z: 6.0 * z),
        ("sin(2*z)", lambda z: -4.0 * np.sin(2.0 * z)),
        ("exp(z)/(z+1)", lambda z: np.exp(z) * (z * z + 1.0) / (z + 1.0) ** 3),
        ("sqrt(z+1)", lambda z: -0.25 * (z + 1.0) ** -1.5),
        ("z*(z-4/7)*sin(pi*z)", lambda z: (2.0 * np.sin(np.pi * z)
                                          + 2.0 * np.pi * (2.0 * z - 4.0 / 7.0) * np.cos(np.pi * z)
                                          - np.pi**2 * z * (z - 4.0 / 7.0) * np.sin(np.pi * z))),
        ("2^z", None),
        ("abs(z-0.3)", None),
    ])
    def test_second_derivative_matches_closed_form(self, src, expected):
        if expected is None:
            # no rule: f_2 is unbounded on every cell of 2^z, and on the
            # cell of abs(z-0.3) that holds its kink (0 elsewhere)
            u = np.linspace(0.0, 1.0, 257)
            lo, hi = np.broadcast_arrays(*_coefficients(src, u[:-1], u[1:], 2)[2], u[1:])[:2]
            kink = (u[:-1] <= 0.3) & (u[1:] >= 0.3) if src.startswith("abs") else np.ones(256, bool)
            assert np.array_equal(lo == -math.inf, kink) and np.array_equal(hi == math.inf, kink)
            assert not np.any(lo[~kink]) and not np.any(hi[~kink])
            return
        z = np.linspace(0.05, 0.95, 19)  # degenerate cells [z, z]
        lo, hi = _coefficients(src, z, z, 2)[2]
        assert np.all(lo <= hi)
        assert 2.0 * lo == pytest.approx(expected(z), rel=1e-12, abs=1e-12)
        assert 2.0 * hi == pytest.approx(expected(z), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("src, degree", [("abs(-2)*z + 3", 1), ("z^4 - 2*z", 4), ("2*z+1", 1)])
    def test_exactly_zero_past_the_degree(self, src, degree):
        u = np.linspace(0.0, 1.0, 257)
        assert len(_coefficients(src, u[:-1], u[1:], 12)) == degree + 1
        f = parse_source(src)
        assert [derivative_sup(f, k, cells) for cells in (256, 4096) for k in range(degree + 1, 13)] == \
            [0.0] * 2 * (12 - degree)

    def test_coefficients_start_at_the_enclosure(self):
        f, z = parse_source("z^4 - 2*z"), np.array([0.5])
        coeffs = _coefficients("z^4 - 2*z", z, z, 12)
        assert [a.tobytes() for a in np.broadcast_arrays(*coeffs[0], z)[:2]] == \
            [a.tobytes() for a in enclose(f, (z, z))]
        assert len(coeffs) == 5  # f^(5) = 0
        for k, want in enumerate([-1.5, 3.0, 12.0, 24.0], 1):
            lo, hi = (math.factorial(k) * np.asarray(end).item() for end in coeffs[k])
            assert lo <= want <= hi and hi - lo <= 1e-14 * abs(want)

    @pytest.mark.parametrize("src, k, sup", [("z^3", 1, 3.0), ("sin(2*z)", 2, 4.0), ("z^3", 4, 0.0),
                                             ("abs(z-0.3)", 1, math.inf), ("sqrt(z)", 1, math.inf)])
    def test_sup_bounds_the_derivative(self, src, k, sup):
        # at least the true sup, and within 1% of it on 256 cells
        got = derivative_sup(parse_source(src), k, 256)
        assert sup <= got <= 1.01 * sup


def _sampled_sups(f, points=33):
    """max |f^(k)| for k <= _TAYLOR_TERMS over `points` equal steps of [0, 1]
    (one-sided at the ends) by mpmath.diffs at 30 digits; a point where f
    is not real is skipped."""
    mpmath = pytest.importorskip("mpmath")
    best = [mpmath.mpf(0)] * (_TAYLOR_TERMS + 1)
    with mpmath.workdps(30):
        for j in range(points):
            direction = 1 if j == 0 else -1 if j == points - 1 else 0
            try:
                ds = list(mpmath.diffs(lambda z: tree_value(f.root, z), mpmath.mpf(j) / (points - 1),
                                       _TAYLOR_TERMS, direction=direction))
            except (ZeroDivisionError, ValueError, OverflowError):
                continue
            if all(isinstance(d, mpmath.mpf) and mpmath.isfinite(d) for d in ds):
                best = [max(b, abs(d)) for b, d in zip(best, ds)]
    return best


def _assert_at_least_sampled(f):
    mpmath = pytest.importorskip("mpmath")
    sampled = _sampled_sups(f)
    for cells in (256, 4096):
        for k, low in enumerate(sampled):
            s = derivative_sup(f, k, cells)
            # mpmath's differences err by about 1e-30 (an exact 0 reads about 1e-33)
            assert low <= mpmath.mpf(s) * (1 + mpmath.mpf(1e-20)) + mpmath.mpf(1e-20), (k, cells, s, low)


# derivative_sup(f, k, cells) for k = 0..12 from the enclosures of the
# symbolic derivative trees that _taylor replaced (inf past their
# 2,000-node cap)
inf = math.inf
_CHAIN_SUPS = {
    "f1": {
        256: (0.1115155592886885, 1.3463968515384859, 9.02788553665923, 30.20255707096463, 177.69102076885693,
             757.6643741249026, 3041.588762726557, 14362.021481110323, 55071.13358268173, 233409.80851243506,
             866617.7949093541, inf, inf),
        4096: (0.10944309201911431, 1.3463968515384859, 8.979223249267479, 29.887345090695593, 177.21074324304823,
              751.5528365017648, 3033.30764822823, 14270.545046633426, 54961.25577435247, 232197.02111144926,
              865239.5297986746, inf, inf),
    },
    "f2": {
        256: (1.0000000000000004, 5.145693831706118, 39.4784176043575, 243.30510942715915, 1558.5454565440448,
             11735.146738871686, 72256.00260160021, 559941.756909267, 3538150.5278727487, 26224194.10532977,
             167768765.9110624, 1205430841.6443756, 7757212092.785133),
        4096: (1.0000000000000004, 5.102982082306523, 39.4784176043575, 240.40931204912334, 1558.5454565440448,
              11589.98713639367, 71456.31442606308, 553441.5009863977, 3504024.23710048, 25946484.618321367,
              166357554.78455108, 1193922397.9312181, 7699799233.018798),
    },
    "f3": {
        256: (1.5400000000000014, 19.14000000000002, 79.20000000000006, 132.00000000000006, 0.0, 0.0, 0.0, 0.0,
             0.0, 0.0, 0.0, 0.0, 0.0),
        4096: (1.5400000000000014, 19.14000000000002, 79.20000000000006, 132.00000000000006, 0.0, 0.0, 0.0, 0.0,
              0.0, 0.0, 0.0, 0.0, 0.0),
    },
    "f4": {
        256: (0.0750000000000002, 0.800000000000001, 3.450000000000003, 6.0000000000000036, 0.0, 0.0, 0.0, 0.0,
             0.0, 0.0, 0.0, 0.0, 0.0),
        4096: (0.0750000000000002, 0.800000000000001, 3.450000000000003, 6.0000000000000036, 0.0, 0.0, 0.0, 0.0,
              0.0, 0.0, 0.0, 0.0, 0.0),
    },
    "exp(sin(3*z))": {
        256: (2.7182818284590473, 4.415823990907875, 24.464669436601167, 111.82672095490052, 880.7352806695131,
             6174.065965378297, inf, inf, inf, inf, inf, inf, inf),
        4096: (2.7182818284590473, 4.3781052451694835, 24.464539398651404, 110.03048795780808, 880.7235772475321,
              6038.097303087164, inf, inf, inf, inf, inf, inf, inf),
    },
    "1/(1+25*z^2)": {
        256: (1.0000000000000004, 3.3586645081165827, 50.00000000000016, 625.1412616685284, 15000.000000000087,
             346636.7393415383, inf, inf, inf, inf, inf, inf, inf),
        4096: (1.0000000000000004, 3.254465580581386, 50.00000000000016, 586.1596548907249, 15000.000000000087,
              315967.36585647735, inf, inf, inf, inf, inf, inf, inf),
    },
    "sqrt(1+z)": {
        256: (1.4142135623730954, 0.5000000000000003, 0.25000000000000067, 0.37500000000000167,
             0.9375000000000062, 3.2812500000000293, inf, inf, inf, inf, inf, inf, inf),
        4096: (1.4142135623730954, 0.5000000000000003, 0.25000000000000067, 0.37500000000000167,
              0.9375000000000062, 3.2812500000000293, inf, inf, inf, inf, inf, inf, inf),
    },
    "exp(z)*sin(5*z)": {
        256: (2.6280024680266334, 10.218558954751295, 70.64398220778372, 289.29348668045435, 1622.586921454341,
             8175.088185428892, 31706.59486898747, inf, inf, inf, inf, inf, inf),
        4096: (2.6184713283459113, 10.147060786411476, 70.29389102962682, 285.61084373511636, 1611.6204404458795,
              8038.211858074909, 31144.64554759718, inf, inf, inf, inf, inf, inf),
    },
    "(1+z)^0.5*cos(3*z)": {
        256: (1.4000608153399534, 3.7956088487555486, 12.388947381134761, 37.22124120235341, 112.79569948439939,
             375.26066531670193, 1127.4399577671816, inf, inf, inf, inf, inf, inf),
        4096: (1.4000608153399534, 3.787136291768615, 12.388706419907312, 37.07668975074191, 112.77334851760838,
              373.35435713579864, 1118.3933809517666, inf, inf, inf, inf, inf, inf),
    },
}


class TestDerivativeSupReferee:
    """derivative_sup against mpmath's derivatives and against the sups of
    the symbolic derivative trees it replaced."""

    @pytest.mark.parametrize("src", sorted(_CHAIN_SUPS))
    def test_at_least_the_sampled_derivative(self, src):
        _assert_at_least_sampled(get_function(src))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(expression_texts().filter(lambda text: "z" in text))
    def test_at_least_the_sampled_derivative_drawn(self, text):
        _assert_at_least_sampled(parse_source(text))

    @pytest.mark.parametrize("src", sorted(_CHAIN_SUPS))
    def test_within_one_percent_of_the_symbolic_chain(self, src):
        f = get_function(src)
        for cells, chain in _CHAIN_SUPS[src].items():
            got = [derivative_sup(f, k, cells) for k in range(_TAYLOR_TERMS + 1)]
            assert all(s <= 1.01 * c for s, c in zip(got, chain) if c < inf), (cells, got)

    def test_a_kink_is_unbounded_past_the_values(self):
        f = parse_source("abs(z-0.37)")
        assert [derivative_sup(f, k, cells) for cells in (256, 4096) for k in range(1, 13)] == [inf] * 24

    def test_all_sups_of_nested_expressions_are_fast(self):
        # the symbolic trees took 319 s for sqrt(z) alone
        exprlib._sups.cache_clear()
        start = time.perf_counter()
        for src in ("sqrt(z)", "exp(sin(3*z))", "1/(1+25*z^2)"):
            f = parse_source(src)
            [derivative_sup(f, k, 256) for k in range(_TAYLOR_TERMS + 1)]
        assert time.perf_counter() - start < 2.0


class TestSeparate:
    @pytest.mark.parametrize("name", ["g1", "g2", "g3"])
    def test_builtins_have_rank_two(self, name):
        assert len(separate(get_function(name))) == 2

    def test_six_coefficient_quadratic_merges_its_pure_terms(self):
        # the form of the benchmark's bivariate quadratic
        F = parse_source("0.5 + -1.25*z + 0.75*y + 1.5*z*y + -0.25*z^2 + 2.000000*y^2")
        assert len(separate(F)) <= 4

    @pytest.mark.parametrize("src", [
        "abs(z-y)", "sin(z*y)", "exp(z*y)", "(z+y)^0.5",
        "(z+y)^0",  # 1, but the loop reports a base that fails
        "z/(z+y)", "z^y", "(z+y)^17",
    ])
    def test_inseparable(self, src):
        assert separate(parse_source(src)) is None

    def test_like_terms_combine(self):
        # terms with the same z-factor were kept apart: (z+y)^2 gave 4 terms,
        # and the other two passed 16 terms and gave None
        assert len(separate(parse_source("(z+y)^2"))) == 3
        assert len(separate(parse_source("(z+y)^5"))) <= 6
        # a pure-z term joins the mixed terms of its z-factor: (z+y)^4*(1+z*y)
        # gave 7 terms and z*y+z 2
        assert len(separate(parse_source("(z+y)^4*(1+z*y)"))) == 6
        assert separate(parse_source("z*y+z")) == separate(parse_source("z*(y+1)"))
        # equal products built in another order (z*(z*z), (z*z)*z) stayed apart: 11 terms
        assert len(separate(parse_source("(z-y)^3*(z+y)^3"))) <= 7

    @pytest.mark.parametrize("src", [
        "g1", "g2", "g3", "z", "y", "pi", "(z+y)^2", "(z+y)^5", "(z+y)^4*(1+z*y)", "z/y", "-(z-y)*y",
        "(2*z-y)^3/(1+y) - cos(z)/exp(y)", "((z+1)*(y-2) - z*y)/sqrt(z+1)",
    ])
    def test_factors_have_one_variable_and_sum_to_the_expression(self, src, rng):
        F = get_function(src)
        terms = separate(F)
        assert terms and len(terms) <= 16
        for a, b in terms:
            assert "y" not in free_variables(a) and "z" not in free_variables(b)
        z, y = rng.uniform(0.0, 1.0, 50), rng.uniform(0.0, 1.0, 50)
        total = sum(evaluate(a, z, y) * evaluate(b, z, y) for a, b in terms)
        assert total == pytest.approx(evaluate(F, z, y) + 0.0 * z, rel=1e-13, abs=1e-13)


class TestSeparateCells:
    u = np.linspace(0.0, 1.0, 9)
    CELLS = ((u[:-1, None], u[1:, None]), (u[None, :-1], u[None, 1:]))
    D = np.subtract.outer(np.arange(8), np.arange(8))  # z cell minus y cell

    def pieces(self, F):
        """The pieces of F, checked to be disjoint from its rest."""
        pieces, rest = separate_cells(F, *self.CELLS)
        assert not np.any(rest & np.logical_or.reduce([cells for cells, _terms in pieces]))
        return pieces

    @pytest.mark.parametrize("src", ["z*y", "g1", "abs(z-0.5)*y", "sin(z*y)", "3"])
    def test_without_abs_of_both_variables_one_piece_covers_every_cell(self, src):
        # as scalars True and False: no mask of the cells' shape is built
        F = get_function(src)
        (cells, terms), = self.pieces(F)
        assert np.broadcast_to(cells, (8, 8)).all() and terms == separate(F)
        rest = separate_cells(F, *self.CELLS)[1]
        assert np.shape(cells) == np.shape(rest) == () and not np.any(rest)

    def test_each_sign_of_g_is_one_piece(self):
        # abs(z-y) is z-y below the diagonal cells and their neighbours,
        # y-z above them, and keeps no sign on them
        F = parse_source("2*abs(z-y)")
        (below, plus), (above, minus) = self.pieces(F)
        assert np.array_equal(below, self.D >= 2) and np.array_equal(above, self.D <= -2)
        assert plus == separate(parse_source("2*(z-y)")) and minus == separate(parse_source("2*-(z-y)"))
        assert np.array_equal(separate_cells(F, *self.CELLS)[1], abs(self.D) <= 1)

    def test_two_g_give_a_piece_per_sign_pattern_that_holds_somewhere(self):
        F = parse_source("abs(z-y)*abs(z+y-3)")  # z+y-3 < 0 on every cell
        (below, plus), (above, minus) = self.pieces(F)
        assert np.array_equal(below, self.D >= 2) and np.array_equal(above, self.D <= -2)
        assert plus == separate(parse_source("(z-y)*-(z+y-3)"))
        assert len(self.pieces(parse_source("abs(z-y)+abs(z+y-1)"))) == 4

    def test_a_piece_that_does_not_separate_has_no_terms(self):
        assert [terms for _cells, terms in self.pieces(parse_source("abs(z-y)+sin(z*y)"))] == [None, None]
        # the inner abs is not resolved where the outer one is
        assert {terms for _cells, terms in self.pieces(parse_source("abs(abs(z-y)-0.5)"))} == {None}

    def test_more_than_two_g_give_none(self):
        assert separate_cells(parse_source("abs(z-y)*abs(z-0.5*y)+abs(2*z-y)"), *self.CELLS) is None
        assert separate_cells(parse_source("abs(z-y)+abs(2*(z-y))+abs(z-y)"), *self.CELLS) is not None
