import numpy as np
import pytest

from fracbk import (
    BIVARIATE,
    BUILTINS,
    DomainError,
    UNIVARIATE,
    ParseError,
    evaluate,
    get_function,
    is_bivariate,
    parse_source,
)

CLOSURES_UNI = {
    "f1": lambda z: z * (z - 4.0 / 7.0) * np.sin(np.pi * z),
    "f2": lambda z: (1.0 - z) * np.cos(2.0 * np.pi * z),
    "f3": lambda z: 22.0 * z * (z - 0.9) * (z - 0.3),
    "f4": lambda z: z * (z - 2.0 / 5.0) * (z - 7.0 / 8.0),
}

CLOSURES_BIV = {
    "g1": lambda z, y: (y * z**2 - 1.0) * np.sin(2.0 * np.pi * y),
    "g2": lambda z, y: (y * z + 2.0) * np.cos(2.0 * np.pi * z),
    "g3": lambda z, y: 2.0 * np.cos(np.pi * z) + 3.0 * np.sin(2.0 * np.pi * y),
}


def test_registry_contents():
    assert UNIVARIATE == ("f1", "f2", "f3", "f4")
    assert BIVARIATE == ("g1", "g2", "g3")
    assert set(BUILTINS) == set(UNIVARIATE) | set(BIVARIATE)


@pytest.mark.parametrize("name", UNIVARIATE)
def test_univariate_builtins_match_closures(name):
    expr = get_function(name)
    zs = np.linspace(0.0, 1.0, 101)
    assert np.allclose(evaluate(expr, zs), CLOSURES_UNI[name](zs), atol=1e-15)


@pytest.mark.parametrize("name", BIVARIATE)
def test_bivariate_builtins_match_closures(name):
    expr = get_function(name)
    zs = np.linspace(0.0, 1.0, 101)[:, None]
    ys = np.linspace(0.0, 1.0, 101)[None, :]
    assert np.allclose(evaluate(expr, zs, ys), CLOSURES_BIV[name](zs, ys), atol=1e-15)


def test_expression_passthrough():
    expr = get_function("z^2+1")
    assert evaluate(expr, 0.5) == pytest.approx(1.25)


def test_builtin_name_takes_priority_over_parsing():
    # "f1" is not valid expression syntax, so reaching the parser with it
    # would fail; the registry must intercept it.
    expr = get_function("f1")
    assert evaluate(expr, 0.5) == pytest.approx(-1.0 / 28.0, rel=1e-14)


def test_invalid_expression_raises_parse_error():
    with pytest.raises(ParseError):
        get_function("q+1")
    with pytest.raises(ParseError):
        get_function("sin(")


@pytest.mark.parametrize("source", [3, None, 2.5, b"z", ["f1"]])
def test_non_string_source_is_a_domain_error(source):
    # 3 ended in a raw AttributeError and None in ParseError "empty expression"
    for read in (get_function, parse_source):
        with pytest.raises(DomainError, match="expression must be a string"):
            read(source)


def test_is_bivariate():
    assert is_bivariate(get_function("g1"))
    assert is_bivariate(get_function("z*y"))
    assert not is_bivariate(get_function("f2"))
    assert not is_bivariate(get_function("sin(pi*z)"))
