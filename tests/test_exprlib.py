import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbk import (
    EvaluationError,
    FunctionExpr,
    ParseError,
    evaluate,
    free_variables,
    get_function,
    parse_source,
)
from fracbk.exprlib import Num, _eval_node, enclose, parse, second_derivative, separate, tokenize

from conftest import expression_texts


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
        assert evaluate(parse_source("pi"), 0.0) == pytest.approx(math.pi)


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

    def test_y_without_y_cells_rejected(self):
        with pytest.raises(EvaluationError):
            enclose(parse_source("z+y"), (np.zeros(1), np.ones(1)))


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


class TestSecondDerivative:
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
    def test_matches_closed_form(self, src, expected):
        d2 = second_derivative(parse_source(src))
        if expected is None:
            assert d2 is None
            return
        z = np.linspace(0.05, 0.95, 19)
        assert evaluate(d2, z) == pytest.approx(expected(z), rel=1e-12, abs=1e-12)

    def test_constant_subtrees_vanish(self):
        assert second_derivative(parse_source("abs(-2)*z + 3")) == FunctionExpr(Num(0.0))


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
        assert separate(parse_source("(z+y)^4*(1+z*y)")) is not None

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
