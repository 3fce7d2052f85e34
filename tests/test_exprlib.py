import math

import numpy as np
import pytest

from fracbk import (
    EvaluationError,
    ParseError,
    evaluate,
    free_variables,
    parse,
    parse_source,
    to_source,
    tokenize,
)


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


class TestParse:
    def test_precedence_mul_over_add(self):
        expr = parse_source("1+2*3")
        assert evaluate(expr, 0.0) == pytest.approx(7.0)

    def test_power_right_associative(self):
        expr = parse_source("2^3^2")
        assert evaluate(expr, 0.0) == pytest.approx(512.0)

    def test_unary_minus_binds_below_power(self):
        assert evaluate(parse_source("-2^2"), 0.0) == pytest.approx(-4.0)

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
        assert parse_source(to_source(expr)) == expr
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
]


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_to_source_round_trip(source):
    expr = parse_source(source)
    printed = to_source(expr)
    assert parse_source(printed) == expr


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_round_trip_preserves_values(source, rng):
    expr = parse_source(source)
    reparsed = parse_source(to_source(expr))
    z = rng.uniform(0.1, 1.0, size=8)
    y = rng.uniform(0.1, 1.0, size=8)
    if "y" in free_variables(expr):
        assert np.allclose(evaluate(expr, z, y), evaluate(reparsed, z, y), rtol=1e-15)
    else:
        assert np.allclose(evaluate(expr, z), evaluate(reparsed, z), rtol=1e-15)


def test_free_variables():
    assert free_variables(parse_source("sin(pi*z)")) == frozenset({"z"})
    assert free_variables(parse_source("z*y+1")) == frozenset({"z", "y"})
    assert free_variables(parse_source("pi+1")) == frozenset()
