"""The polynomial presets against the closed form of the operator.

For p(z) = sum_k a_k z^k the operator image is R(p; z) = sum_k a_k R(e_k; z),
with R(e_k; z) = moment_recurrence(params, k, z).  Every cell of tables 3
and 4 and figure 3 (f3, f4), error_table of f4 at large m, and drawn
polynomials must lie within 1e-14 * sum_k |a_k| R(e_k; z) of it: the scale
of the sum's terms, since every R(e_k; z) is positive.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbk import (
    OperatorParams,
    error_table,
    evaluate,
    figure_dataset,
    get_function,
    kernel_integrals,
    moment_recurrence,
    operator_values,
    table_dataset,
)
from fracbk.experiments import PRESETS, _sweep, comparator_params

# Power-basis coefficients a_0, a_1, ... of the cubic builtins
F3 = (0.0, 5.94, -26.4, 22.0)  # 22*z*(z-0.9)*(z-0.3)
F4 = (0.0, 0.35, -1.275, 1.0)  # z*(z-2/5)*(z-7/8)
_RTOL = 1e-14


def _image(params, coeffs, z):
    """(R(p; z), sum_k |a_k| R(e_k; z)) for p with the given coefficients."""
    images = [moment_recurrence(params, k, z) for k in range(len(coeffs))]
    return (math.fsum(a * r for a, r in zip(coeffs, images)),
            math.fsum(abs(a) * r for a, r in zip(coeffs, images)))


def _check_error(cell, fn, params, coeffs, z):
    """A printed |f(z) - L(f; z)| against |f(z) - R(f; z)|, f(z) as the tables take it."""
    closed, scale = _image(params, coeffs, z)
    want = abs(evaluate(get_function(fn), z) - closed)
    assert abs(cell - want) <= _RTOL * scale, (fn, params, z, cell, want, scale)


def _spec(kind, number):
    return next(spec for spec in PRESETS if spec[:2] == (kind, number))


@pytest.mark.parametrize("fn,coeffs", [("f3", F3), ("f4", F4)])
def test_coefficients_are_the_builtins(fn, coeffs):
    zs = np.linspace(0.0, 1.0, 101)
    got = np.polynomial.polynomial.polyval(zs, coeffs)
    np.testing.assert_allclose(got, evaluate(get_function(fn), zs), rtol=0.0, atol=1e-14)


def test_table_3_cells():
    ds = table_dataset(3)
    sweep = _sweep(_spec("table", 3))
    for z, *cells in ds.rows:
        for cell, params in zip(cells, sweep, strict=True):
            _check_error(cell, "f3", params, F3, z)


def test_table_4_cells():
    # base parameters and the bbk gamma of table 4; the error is taken at z = 0.2
    ds = table_dataset(4)
    for m, *cells in ds.rows:
        comparators = comparator_params(m, 2.0, 3.0, 0.9, 2, bbk_gamma=2.0)
        assert tuple(tag for tag, _params in comparators) == ds.columns[1:]
        for cell, (_tag, params) in zip(cells, comparators, strict=True):
            _check_error(cell, "f4", params, F4, 0.2)


def test_figure_3_cells():
    ds = figure_dataset(3)
    sweep = _sweep(_spec("figure", 3))
    for z, _phi, *values in ds.rows:
        for value, params in zip(values, sweep, strict=True):
            closed, scale = _image(params, F3, z)
            assert abs(value - closed) <= _RTOL * scale, (params, z, value, closed)


@pytest.mark.parametrize("m", [10**4, 10**5])
def test_f4_error_table_at_large_degree(m):
    params = OperatorParams(m, 2.0, 3.0, 0.6, 3)
    table = error_table(params, get_function("f4"), np.linspace(0.0, 1.0, 11))
    for z, _exact, approx, _err in table.rows:
        closed, scale = _image(params, F4, z)
        assert abs(approx - closed) <= _RTOL * scale, (m, z, approx, closed)


@st.composite
def _polynomial_cases(draw):
    """Coefficients of degree <= 6 and parameters with m <= 250 and an
    integer gamma, so the order-64 kernel rule is exact on the polynomial."""
    coeffs = draw(st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=7))
    m = draw(st.integers(1, 250))
    params = OperatorParams(m, draw(st.sampled_from((0.5, 1.0, 2.0, 3.5))), float(draw(st.integers(1, 5))),
                            draw(st.sampled_from((0.0, 0.35, 0.6, 1.0))), draw(st.integers(0, m + 1)))
    return coeffs, params


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_polynomial_cases())
def test_drawn_polynomials(case):
    coeffs, params = case
    zs = np.linspace(0.0, 1.0, 9)
    ki = kernel_integrals(params, lambda t: np.polynomial.polynomial.polyval(t, coeffs), 64)
    for z, value in zip(zs.tolist(), operator_values(ki, zs)):
        closed, scale = _image(params, coeffs, z)
        assert abs(value - closed) <= _RTOL * scale, (coeffs, params, z, value, closed)
