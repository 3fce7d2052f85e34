import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fracbk import (
    BivariateParams,
    DomainError,
    EvaluationError,
    FracbkError,
    OperatorParams,
    QuadratureError,
    apply,
    apply_biv,
    apply_biv_kernel,
    apply_kernel,
    basis_row,
    bernstein_row,
    biv_kernel_integrals,
    biv_moments,
    bound_complete,
    bound_kfunctional,
    bound_lipschitz,
    bound_partial,
    bound_t2,
    central_moments,
    complete_modulus,
    evaluate,
    get_function,
    kernel_integrals,
    modulus_continuity,
    moment_recurrence,
    parse_source,
    partial_moduli,
    raw_moments,
    surface_rows,
    surface_values,
)

from fracbk import error_analysis, operator_biv, operator_uni
from fracbk.error_analysis import _enclosed_modulus, _run_range, _shift_count
from fracbk.exprlib import eval_function, separate, separate_cells
from fracbk.operator_uni import DEFAULT_ORDER
from fracbk.quadrature import _kernel_rule

from conftest import draw_params, expression_texts


def make_biv(mx=10, my=10, eta=2.0, gamma=3.0, alpha=0.9, s=2):
    px = OperatorParams(m=mx, eta=eta, gamma=gamma, alpha=alpha, s=s)
    py = OperatorParams(m=my, eta=eta, gamma=gamma, alpha=alpha, s=s)
    return BivariateParams(px, py)


def draw_biv(rng, m_max=20, eta_range=(0.3, 5.0)):
    return BivariateParams(
        draw_params(rng, m_max=m_max, eta_range=eta_range),
        draw_params(rng, m_max=m_max, eta_range=eta_range),
    )


class TestApplyBiv:
    def test_reproduces_constants(self):
        bp = make_biv()
        F = lambda z, y: np.broadcast_to(4.5, np.broadcast_shapes(np.shape(z), np.shape(y)))
        assert apply_biv(bp, F, 0.3, 0.7) == pytest.approx(4.5, abs=1e-13)

    def test_function_of_z_reduces_to_univariate(self):
        bp = make_biv(mx=8, my=13)
        f = parse_source("z*(z-2/5)*(z-7/8)")
        F = parse_source("z*(z-2/5)*(z-7/8)+0*y")
        for z, y in [(0.2, 0.9), (0.55, 0.1)]:
            assert apply_biv(bp, F, z, y) == pytest.approx(
                apply(bp.px, f, z), abs=1e-13
            )

    def test_known_surface_cell(self):
        # (0.5, 0.5) cell of the first bivariate tabulated experiment.
        bp = make_biv(mx=10, my=10, eta=2.0, gamma=3.0, alpha=0.9, s=2)
        F = parse_source("(y*z^2-1)*sin(2*pi*y)")
        exact = float((0.5 * 0.25 - 1.0) * math.sin(math.pi))
        err = abs(apply_biv(bp, F, 0.5, 0.5) - exact)
        assert err == pytest.approx(0.152540436, abs=5e-6)

    def test_tensor_consistency_separable(self, rng):
        # For F(z,y) = f(z)*g(y) the operator factors into the product of
        # the univariate operators.
        f_src = "z*(z-4/7)*sin(pi*z)"
        g_src = "(1-z)*cos(2*pi*z)"
        F = parse_source("(z*(z-4/7)*sin(pi*z))*((1-y)*cos(2*pi*y))")
        f = parse_source(f_src)
        g = parse_source(g_src)
        for _ in range(5):
            bp = draw_biv(rng, m_max=15)
            z = float(rng.uniform(0.0, 1.0))
            y = float(rng.uniform(0.0, 1.0))
            expected = apply(bp.px, f, z) * apply(bp.py, g, y)
            assert apply_biv(bp, F, z, y) == pytest.approx(expected, abs=1e-10)

    def test_separable_kernel_is_outer_product(self):
        from fracbk import kernel_integrals

        bp = make_biv(mx=6, my=9, eta=1.5, gamma=2.0, alpha=0.4, s=3)
        F = parse_source("(z^2)*(1-y)")
        ki = biv_kernel_integrals(bp, F)
        kx = kernel_integrals(bp.px, parse_source("z^2")).values
        ky = kernel_integrals(bp.py, parse_source("1-z")).values
        assert np.allclose(ki.values, np.outer(kx, ky), atol=1e-13)

    def test_kernel_read_only(self):
        bp = make_biv(mx=3, my=3)
        ki = biv_kernel_integrals(bp, parse_source("z*y"))
        with pytest.raises(ValueError):
            ki.values[0, 0] = 1.0

    def test_kernel_reuse_matches_direct(self):
        bp = make_biv(mx=7, my=5)
        F = parse_source("2*cos(pi*z)+3*sin(2*pi*y)")
        ki = biv_kernel_integrals(bp, F)
        for z, y in [(0.0, 0.5), (0.3, 0.8), (1.0, 1.0)]:
            assert apply_biv_kernel(ki, z, y) == pytest.approx(
                apply_biv(bp, F, z, y), abs=1e-15
            )

    def test_surface_values_matches_pointwise(self):
        bp = make_biv(mx=5, my=6)
        F = parse_source("(y*z+2)*cos(2*pi*z)")
        zs = [0.0, 0.25, 0.5, 1.0]
        ys = [0.1, 0.6]
        surf = surface_values(bp, F, zs, ys)
        assert surf.shape == (4, 2)
        for i, z in enumerate(zs):
            for k, y in enumerate(ys):
                assert surf[i, k] == pytest.approx(apply_biv(bp, F, z, y), abs=1e-13)

    def test_surface_rows_structure(self):
        bp = make_biv(mx=4, my=4)
        F = parse_source("z*y")
        table = surface_rows(bp, F, [0.2, 0.8], [0.1, 0.5, 0.9])
        assert len(table.rows) == 6
        errors = [r[4] for r in table.rows]
        assert table.max_error == pytest.approx(max(errors))
        assert table.to_csv().splitlines()[0] == "z,y,exact,approx,abs_error"
        for z, y, exact, approx, err in table.rows:
            assert exact == pytest.approx(z * y, abs=1e-15)
            assert err == pytest.approx(abs(exact - approx), abs=1e-18)
        assert all(type(row) is tuple and all(type(v) is float for v in row) for row in table.rows)
        assert [row[:2] for row in table.rows] == [(z, y) for z in (0.2, 0.8) for y in (0.1, 0.5, 0.9)]


def _extended_tensor_sum(bp, F, order=64):
    """The loop's tensor sum with F evaluated and summed in long double, on
    the same float nodes and weights: a reference for the rounding of both
    paths."""
    ld = np.longdouble
    axes = []
    for p in (bp.px, bp.py):
        t, w = _kernel_rule(p.eta, p.gamma, order)
        axes.append((((np.arange(p.m + 1)[:, None] + t) / (p.m + 1.0)).astype(ld), w.astype(ld)))
    (x, w1), (y, w2) = axes
    return np.einsum("a,jakc,c->jk", w1, eval_function(F, x[:, :, None, None], y[None, None]), w2)


_TWO_VARIABLE = expression_texts(max_leaves=6, variables=("z", "y"))
_G = st.builds("({})*({})+({})".format, _TWO_VARIABLE, _TWO_VARIABLE, _TWO_VARIABLE)


def _scale(bp, terms):
    """sum_r max|K[a_r]| max|K[b_r]| over the terms (a_r, b_r): the size of
    the outer products whose sum the separated kernel rounds."""
    return sum(np.max(np.abs(kernel_integrals(bp.px, a).values))
               * np.max(np.abs(kernel_integrals(bp.py, lambda t: evaluate(b, t, t)).values))
               for a, b in terms)


def _tensor_cells(bp):
    """The tensor cells of bp, as biv_kernel_integrals passes them to
    separate_cells."""
    z, y = (np.arange(p.m + 2) / (p.m + 1.0) for p in (bp.px, bp.py))
    return (z[:-1, None], z[1:, None]), (y[:-1], y[1:])


class TestSeparatedKernel:
    """V = sum_r outer(K[a_r], K[b_r]) for F = sum_r a_r(z) b_r(y), against
    the per-row loop, which a callable wrapping F always takes."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_G, st.integers(1, 12), st.integers(1, 12))
    def test_matches_the_row_loop(self, src, m1, m2):
        F = parse_source(src)
        if separate(F) is None:
            return
        bp = BivariateParams(OperatorParams(m1, 1.5, 2.3, 0.4, 2), OperatorParams(m2, 3.0, 1.0, 0.7, 3))
        outcomes = []
        for f in (F, lambda z, y: evaluate(F, z, y)):
            try:
                outcomes.append(biv_kernel_integrals(bp, f).values)
            except FracbkError as exc:
                outcomes.append(type(exc))
        separated, looped = outcomes
        if isinstance(separated, type) or isinstance(looped, type):
            assert separated is looped, src
            return
        scale = _scale(bp, separate(F))
        # the loop rounds F's intermediate values, which may dwarf its
        # factors' kernel integrals ((y/y-3/z)*(z/z)+3/z is off by 2.6e-7
        # near z = 0): held to a long double sum, the separated V may miss
        # it by 1e-14 * scale plus the loop's own error
        with np.errstate(all="ignore"):
            exact = _extended_tensor_sum(bp, F)
        loop_error = float(np.max(np.abs(looped - exact)))
        assert float(np.max(np.abs(separated - exact))) <= 1e-14 * scale + loop_error, src

    @pytest.mark.parametrize("src", ["sin(z*y)", "(z+y)^0.5", "abs(z-y)+abs(z-2*y)+abs(y-z*z)",
                                     "abs(sin(z*y))", "abs(abs(z-y)-0.5)"])
    def test_inseparable_expression_takes_the_loop_bit_for_bit(self, src):
        # three abs arguments, an argument that does not separate and a
        # nested abs keep the loop on every cell
        bp = make_biv(mx=7, my=4, gamma=2.3)
        F = parse_source(src)
        looped = biv_kernel_integrals(bp, lambda z, y: evaluate(F, z, y)).values
        assert np.array_equal(biv_kernel_integrals(bp, F).values, looped)

    @pytest.mark.parametrize("src, error", [
        ("exp(800*z)*y", QuadratureError),  # a factor overflows
        ("exp(400*z)*exp(400*y)", QuadratureError),  # only the product does
        ("exp(800*z)*(y/(y-y))", EvaluationError),  # the loop fails in its first row
        ("(z-z)*exp(800*y)", EvaluationError),  # 0 * inf in the loop
    ])
    def test_failures_are_the_loops(self, src, error):
        bp = make_biv(mx=5, my=5)
        F = parse_source(src)
        for f in (F, lambda z, y: evaluate(F, z, y)):
            with pytest.raises(FracbkError) as info:
                biv_kernel_integrals(bp, f)
            assert type(info.value) is error


# abs(g), g of the form of TestSeparatedKernel's expressions, next to any
# two-variable text h
_ABS_OF_SEPARABLE = st.one_of(
    st.builds("abs({})".format, _G),
    st.builds("abs({})+({})".format, _G, _TWO_VARIABLE),
    st.builds("abs({})*abs({})".format, _G, _G),
)


class TestSignResolvedKernel:
    """abs(g) of a separable g of z and y: the separated kernel of +-g on
    the tensor cells where g keeps one sign, the row loop on the others."""

    # most drawn texts separate, or keep no sign on any cell: only the
    # others count, about one in six
    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(_ABS_OF_SEPARABLE, st.integers(1, 12), st.integers(1, 12))
    def test_matches_the_row_loop(self, src, m1, m2):
        F = parse_source(src)
        bp = BivariateParams(OperatorParams(m1, 1.5, 2.3, 0.4, 2), OperatorParams(m2, 3.0, 1.0, 0.7, 3))
        # the draws whose every piece gives a finite separated kernel
        split = separate_cells(F, *_tensor_cells(bp))
        pieces = split[0] if split is not None and separate(F) is None else []
        assume(pieces and all(terms is not None and operator_biv._separated(bp, terms, DEFAULT_ORDER) is not None
                              for _cells, terms in pieces))
        outcomes = []
        for f in (F, lambda z, y: evaluate(F, z, y)):
            try:
                outcomes.append(biv_kernel_integrals(bp, f).values)
            except FracbkError as exc:
                outcomes.append(type(exc))
        signed, looped = outcomes
        if isinstance(signed, type) or isinstance(looped, type):
            assert signed is looped, src
            return
        # the bound of TestSeparatedKernel, with the largest scale of the
        # pieces' separated kernels
        scale = max(_scale(bp, terms) for _cells, terms in pieces)
        with np.errstate(all="ignore"):
            exact = _extended_tensor_sum(bp, F)
        loop_error = float(np.max(np.abs(looped - exact)))
        assert float(np.max(np.abs(signed - exact))) <= 1e-14 * scale + loop_error, src

    @pytest.mark.parametrize("m", [15, 120])
    def test_mixed_cells_are_the_loops_bit_for_bit(self, m):
        p = OperatorParams(m, 2.0, 2.3, 0.6, 3)
        bp, F = BivariateParams(p, OperatorParams(m, 1.5, 3.0, 0.8, 2)), parse_source("abs(z-y)")
        rest = separate_cells(F, *_tensor_cells(bp))[1]
        assert 0 < rest.sum() <= 3 * (m + 1)  # the cells along the diagonal
        signed = biv_kernel_integrals(bp, F).values
        looped = biv_kernel_integrals(bp, lambda z, y: evaluate(F, z, y)).values
        assert np.array_equal(signed[rest], looped[rest])
        assert np.max(np.abs(signed - looped)) <= 1e-14 * np.max(np.abs(looped))

    @pytest.mark.parametrize("src, calls", [
        ("z*y", 1), ("abs(z-y+2)", 1), ("abs(z-y)", 2), ("abs(z-y)+abs(z+y-1)", 4),
        ("abs(z-y)*abs(z-0.5*y)+abs(2*z-y)", 0),  # three g: the loop on every cell
        ("abs(z-y)+sin(z*y)", 0),  # the pieces do not separate
        ("exp(800*z)*abs(z-y+2)", 1),  # the one piece overflows
    ])
    def test_one_separated_kernel_per_piece(self, src, calls):
        bp, F = make_biv(mx=7, my=5), parse_source(src)
        spy = mock.Mock(wraps=operator_biv._separated)
        with mock.patch.object(operator_biv, "_separated", spy), contextlib.suppress(QuadratureError):
            biv_kernel_integrals(bp, F)
        assert spy.call_count == calls
        split = separate_cells(F, *_tensor_cells(bp))
        if calls:
            assert [c.args[1] for c in spy.call_args_list] == [terms for _cells, terms in split[0]]

    @pytest.mark.parametrize("src, error", [
        ("exp(800*z)*abs(z-y+2)", QuadratureError),  # a factor overflows
        ("exp(400*z)*exp(400*y)*abs(z-y)", QuadratureError),  # only the product does
        ("abs(z-y)*(y/(y-y))", EvaluationError),  # the loop fails in its first row
        ("(z-z)*exp(800*y)*abs(z-y)", EvaluationError),  # 0 * inf in the loop
        ("exp(800*z)*abs(z-y)", EvaluationError),  # inf * 0 at nodes on the diagonal
        ("abs(z-y)*abs(z-2*y)*sqrt(0.5-z)", EvaluationError),  # a later row, on signed cells
    ])
    def test_failures_are_the_loops(self, src, error):
        bp = make_biv(mx=5, my=5)
        F = parse_source(src)
        for f in (F, lambda z, y: evaluate(F, z, y)):
            with pytest.raises(FracbkError) as info:
                biv_kernel_integrals(bp, f)
            assert type(info.value) is error


class TestBivMoments:
    def test_constant_moment(self, rng):
        bp = draw_biv(rng)
        assert biv_moments(bp, 0.3, 0.6).e00 == 1.0

    def test_product_moment_factorizes_exactly(self, rng):
        for _ in range(20):
            bp = draw_biv(rng)
            z = float(rng.uniform(0.0, 1.0))
            y = float(rng.uniform(0.0, 1.0))
            bm = biv_moments(bp, z, y)
            assert bm.e11 == bm.e10 * bm.e01

    def test_matches_univariate_moments(self, rng):
        bp = draw_biv(rng)
        z, y = 0.37, 0.81
        bm = biv_moments(bp, z, y)
        assert bm.e10 == raw_moments(bp.px, z).e1
        assert bm.e01 == raw_moments(bp.py, y).e1
        assert bm.e20 == raw_moments(bp.px, z).e2
        assert bm.e02 == raw_moments(bp.py, y).e2

    def test_against_quadrature(self, rng):
        exprs = {
            "1": lambda bm: bm.e00,
            "z": lambda bm: bm.e10,
            "y": lambda bm: bm.e01,
            "z*y": lambda bm: bm.e11,
            "z^2": lambda bm: bm.e20,
            "y^2": lambda bm: bm.e02,
        }
        for _ in range(8):
            bp = draw_biv(rng, m_max=15)
            z = float(rng.uniform(0.0, 1.0))
            y = float(rng.uniform(0.0, 1.0))
            bm = biv_moments(bp, z, y)
            for src, pick in exprs.items():
                got = apply_biv(bp, parse_source(src), z, y, order=192)
                assert got == pytest.approx(pick(bm), abs=1e-10)


class TestPartialModuli:
    def test_affine_exact(self):
        # certified: at least the exact 0.1 and 0.2, and at most two cells
        # more along the axis plus the other variable's change in one cell
        F = parse_source("z+2*y")
        h = 1.0 / 256
        w1, w2 = partial_moduli(F, 0.1, 0.1)
        assert 0.1 <= w1 <= 0.1 + 5 * h
        assert 0.2 <= w2 <= 0.2 + 7 * h

    def test_separable_sum_matches_univariate(self):
        from fracbk import modulus_continuity

        F = parse_source("2*cos(pi*z)+3*sin(2*pi*y)")
        w1, w2 = partial_moduli(F, 0.15, 0.08)
        u1 = modulus_continuity(parse_source("2*cos(pi*z)"), 0.15, grid_n=256).value
        u2 = modulus_continuity(parse_source("3*sin(2*pi*z)"), 0.08, grid_n=256).value
        # the same runs of cells, plus the other term's change within one cell
        assert u1 - 1e-12 <= w1 <= u1 + 3 * 2 * math.pi / 256 + 1e-12
        assert u2 - 1e-12 <= w2 <= u2 + 2 * math.pi / 256 + 1e-12

    def test_zero_radius(self):
        F = parse_source("z*y")
        w1, w2 = partial_moduli(F, 0.0, 0.0)
        assert w1 == 0.0 and w2 == 0.0

    def test_non_finite_grid_value_rejected(self):
        with pytest.raises(EvaluationError):
            partial_moduli(parse_source("sqrt(z-0.5)+y"), 0.1, 0.1)

    def test_validation(self):
        F = parse_source("z*y")
        with pytest.raises(DomainError):
            partial_moduli(F, -0.1, 0.1)

    @pytest.mark.parametrize("d1, d2", [(math.nan, 0.1), (0.1, math.inf)])
    def test_non_finite_radius_rejected(self, d1, d2):
        # nan used to raise a raw ValueError and inf a raw OverflowError
        with pytest.raises(DomainError, match="must be non-negative and finite"):
            partial_moduli(parse_source("z*y"), d1, d2)

    def test_huge_finite_radius_saturates(self):
        F = parse_source("(y*z+2)*cos(2*pi*z)")
        assert partial_moduli(F, 1e307, 1e307) == partial_moduli(F, 1.0, 1.0)
        # a denormal radius reaches into the neighbouring cell only
        assert partial_moduli(F, 5e-324, 5e-324) == partial_moduli(F, 0.5 / 256, 0.5 / 256)

    def test_unbounded_or_undefined_function(self):
        assert partial_moduli(parse_source("1/(3*z-1)+y"), 0.1, 0.1)[0] == math.inf
        with pytest.raises(EvaluationError):  # undefined at the cell corner z = 0.5
            partial_moduli(parse_source("1/(z-0.5)+y"), 0.1, 0.1)


class TestCompleteModulus:
    def test_linear_in_z_capped_by_radius(self):
        # sup |F(v)-F(u)| over |v-u| <= d for F=z is d; the certified value
        # adds at most two cells of the 256
        F = parse_source("z+0*y")
        assert 0.24 <= complete_modulus(F, 0.24) <= 0.24 + 2.0 / 256

    def test_diagonal_function_uses_euclidean_radius(self):
        # F = z + y grows fastest along the diagonal: sup = d*sqrt(2); the
        # squares of cells holding the disc give at most 2*(d + 2 cells)
        F = parse_source("z+y")
        got = complete_modulus(F, 0.2)
        assert 0.2 * math.sqrt(2.0) <= got <= 2.0 * (0.2 + 2.0 / 256)

    def test_dominates_partial_moduli(self):
        F = parse_source("(y*z+2)*cos(2*pi*z)")
        d = 0.1
        w1, w2 = partial_moduli(F, d, d)
        wc = complete_modulus(F, d)
        assert wc + 1e-12 >= max(w1, w2)

    def test_grid_refinement_stable(self):
        # Halved cells nest in the coarse ones, and so do the squares of
        # cells, so the certified value can only shrink, and not by much.
        F = parse_source("(y*z+2)*cos(2*pi*z)")
        coarse = _enclosed_modulus(F, 0.1, 128, 2, (-2, -1))
        fine = complete_modulus(F, 0.1)  # on 256 cells per axis
        assert fine <= coarse
        assert fine == pytest.approx(coarse, rel=0.12)

    def test_zero_radius(self):
        assert complete_modulus(parse_source("z*y"), 0.0) == 0.0

    @pytest.mark.parametrize("src", [
        pytest.param("sqrt(z-0.5)+y", id="nan"),
        pytest.param("exp(1000*z)+y", id="inf"),
    ])
    def test_non_finite_grid_value_rejected(self, src):
        with pytest.raises(EvaluationError):
            complete_modulus(parse_source(src), 0.1)

    @pytest.mark.parametrize("d", [math.nan, math.inf, -0.1])
    def test_invalid_radius_rejected(self, d):
        # nan used to raise a raw ValueError and inf a raw OverflowError
        with pytest.raises(DomainError, match="d must be non-negative and finite"):
            complete_modulus(parse_source("z*y"), d)

    def test_huge_finite_radius_saturates(self):
        # beyond sqrt(2) the disc holds every pair; 1e160 used to overflow
        F = parse_source("(y*z+2)*cos(2*pi*z)")
        full = complete_modulus(F, 1.5)
        assert complete_modulus(F, 1e160) == full
        assert complete_modulus(F, 1e300) == full
        assert complete_modulus(F, 5e-324) == complete_modulus(F, 0.5 / 256)
        assert complete_modulus(F, 0.0) == 0.0


_PARITY_SOURCES = {
    "abs_diff": "abs(z-y)",
    "sin_cos": "sin(3*z)*cos(5*y)",
    # falls with z, so every largest difference has the base point above
    # its row-offset partners
    "falling_z": "cos(2*y)-3*z",
}


def _parity_grid(name, grid_n):
    u = np.linspace(0.0, 1.0, grid_n)
    return eval_function(parse_source(_PARITY_SOURCES[name]), u[:, None], u[None, :])


def _shift_loop_partial(G, d1, d2):
    n = G.shape[0]
    k1 = min(int(d1 * (n - 1) + 1e-9), n - 1)
    k2 = min(int(d2 * (n - 1) + 1e-9), n - 1)
    w1 = w2 = 0.0
    for k in range(1, k1 + 1):
        w1 = max(w1, float(np.max(np.abs(G[k:, :] - G[:-k, :]))))
    for k in range(1, k2 + 1):
        w2 = max(w2, float(np.max(np.abs(G[:, k:] - G[:, :-k]))))
    return w1, w2


def _offset_loop_complete(G, d):
    """The largest |G[p + (a, b)] - G[p]| over grid offsets with |a|, |b|
    <= d/h, h the grid step, one offset at a time: (over the disc a^2 + b^2
    <= (d/h)^2, over the whole square)."""
    n = G.shape[0]
    h = 1.0 / (n - 1)
    kmax = min(int(d / h + 1e-9), n - 1)
    limit = (d / h) ** 2 + 1e-9
    disc = square = 0.0
    for a in range(0, kmax + 1):
        for b in range(1, kmax + 1) if a == 0 else range(-kmax, kmax + 1):
            if b >= 0:
                diff = G[a:, b:] - G[: n - a, : n - b]
            else:
                diff = G[a:, : n + b] - G[: n - a, -b:]
            top = float(np.max(np.abs(diff)))
            square = max(square, top)
            if a * a + b * b <= limit:
                disc = max(disc, top)
    return disc, square


class TestModuliParity:
    """The window engine on a grid of F equals the shift loops bit for bit."""

    @pytest.mark.parametrize("name", sorted(_PARITY_SOURCES))
    @pytest.mark.parametrize(
        "grid_n, d1, d2",
        [(101, 0.0, 0.0), (101, 0.01, 0.3), (101, 0.32, 0.64), (101, 1.0, 0.99),
         (101, 1.5, 2.0), (241, 0.13, 0.05), (241, 1.0, 1.0)],
    )
    def test_partial_matches_shift_loop(self, name, grid_n, d1, d2):
        G = _parity_grid(name, grid_n)
        expected = _shift_loop_partial(G, d1, d2)
        ends = np.stack((G, -G))
        assert tuple(_run_range(ends, _shift_count(d, grid_n) + 1, (axis,))
                     for d, axis in ((d1, -2), (d2, -1))) == expected

    @pytest.mark.parametrize("name", sorted(_PARITY_SOURCES))
    @pytest.mark.parametrize(
        "grid_n, d",
        # 0.72 and 1.0: disc offsets run past the grid border; 1.0 and 1.5:
        # kmax reaches the last grid point; 1.5: every row offset keeps all columns
        [(101, 0.0), (101, 0.03), (101, 0.5), (101, 0.72), (101, 1.0), (101, 1.5),
         (241, 0.05), (None, 0.02), (None, 0.1)],
    )
    def test_complete_matches_offset_loop(self, name, grid_n, d):
        # on the n + 1 corners of n cells: the engine's squares equal the
        # square offset loop, and the certified modulus is at least the
        # disc offset loop, the grid estimate from below
        n = grid_n if grid_n is not None else 256
        G = _parity_grid(name, n + 1)
        disc, square = _offset_loop_complete(G, d)
        assert _run_range(np.stack((G, -G)), _shift_count(d, n + 1) + 1, (-2, -1)) == square
        assert _enclosed_modulus(parse_source(_PARITY_SOURCES[name]), d, n, 2, (-2, -1)) >= disc


_Z_ONLY = ("f1", "f2", "f3", "f4", "abs(z-0.37)", "sqrt(z)")
_RADII = (0.0, 0.003, 0.05, 0.2, 0.5, 0.9, 1.0, 2.0)


class TestOneEngine:
    """The moduli on one axis and on two share one engine: for a function of
    z alone, the partial modulus in z is the univariate modulus."""

    @pytest.mark.parametrize("source", _Z_ONLY)
    @pytest.mark.parametrize("n", [101, 128, 200, 255])
    def test_partial_in_z_is_the_univariate_modulus(self, source, n):
        f = get_function(source)
        for d in _RADII:
            assert _enclosed_modulus(f, d, n, 2, (-2,)) == modulus_continuity(f, d, n).value, d

    @pytest.mark.parametrize("source", _Z_ONLY)
    @pytest.mark.parametrize("n", [256, 300, 320])
    def test_merged_levels_only_loosen_the_univariate_modulus(self, source, n):
        # from 256 cells on, a large radius reads merged cells on one axis
        f = get_function(source)
        for d in _RADII:
            assert modulus_continuity(f, d, n).value >= _enclosed_modulus(f, d, n, 2, (-2,)), d

    @pytest.mark.parametrize("n", [101, 256, 257, 501])
    def test_callable_grids_agree(self, n):
        # grid values of f(z) spread over y: the engine along z on two axes,
        # in blocks of rows from 257 points on, gives its one-axis value
        v = np.abs(np.sin(5.0 * np.linspace(0.0, 1.0, n)) - 0.3)
        G = np.broadcast_to(v[:, None], (n, n))
        for d in _RADII:
            runs = _shift_count(d, n) + 1
            assert _run_range(np.stack((G, -G)), runs, (-2,)) == _run_range(np.stack((v, -v)), runs, (-1,)), d


class TestBivariateBounds:
    def test_partial_bound_affine_formula(self):
        bp = make_biv(mx=12, my=18, eta=2.0, gamma=2.0, alpha=0.5, s=2)
        F = parse_source("z+2*y")
        d1 = math.sqrt(central_moments(bp.px, 0.4).xi2)
        d2 = math.sqrt(central_moments(bp.py, 0.7).xi2)
        got = bound_partial(bp, F, 0.4, 0.7)
        # the exact moduli d1 and 2*d2, plus at most 4 and 5 cells of change
        exact = 2.0 * (d1 + 2.0 * d2)
        assert exact <= got <= exact + 2.0 * 9.0 / 256

    def test_complete_bound_diagonal_formula(self):
        bp = make_biv(mx=12, my=12, eta=2.0, gamma=2.0, alpha=0.5, s=2)
        F = parse_source("z+y")
        d = math.sqrt(
            central_moments(bp.px, 0.5).xi2 + central_moments(bp.py, 0.5).xi2
        )
        got = bound_complete(bp, F, 0.5, 0.5)
        assert 4.0 * d * math.sqrt(2.0) <= got <= 8.0 * (d + 2.0 / 256)

    def test_corner_bounds_dominate_at_large_degree(self):
        # grid moduli gave 0.0 here, below the actual error 2.1e-3
        p = OperatorParams(200, 2.0, 4.0, 0.9, 3)
        bp, F = BivariateParams(p, p), get_function("g1")
        actual = abs(apply_biv(bp, F, 0.0, 0.0) - evaluate(F, 0.0, 0.0))
        assert actual > 1e-3
        assert bound_partial(bp, F, 0.0, 0.0) >= actual
        assert bound_complete(bp, F, 0.0, 0.0) >= actual

    def test_bounds_dominate_actual_error(self, rng):
        F = parse_source("(y*z+2)*cos(2*pi*z)")
        for _ in range(15):
            bp = draw_biv(rng, m_max=15)
            z = float(rng.uniform(0.0, 1.0))
            y = float(rng.uniform(0.0, 1.0))
            exact = (y * z + 2.0) * math.cos(2.0 * math.pi * z)
            actual = abs(apply_biv(bp, F, z, y) - exact)
            assert bound_partial(bp, F, z, y) + 1e-9 >= actual
            assert bound_complete(bp, F, z, y) + 1e-9 >= actual


_F1, _G1 = get_function("f1"), get_function("g1")


@pytest.mark.parametrize("call", [
    lambda bp, F: apply_biv(bp, F, 0.5, 2.0),
    lambda bp, F: apply_biv_kernel(biv_kernel_integrals(bp, F), 0.5, 2.0),
    lambda bp, F: surface_values(bp, F, [0.5], [0.0, 2.0]),
    lambda bp, F: surface_rows(bp, F, [0.5], [math.nan]),
    lambda bp, F: biv_moments(bp, 0.5, 2.0),
    lambda bp, F: bound_partial(bp, F, 0.5, 2.0),
    lambda bp, F: bound_complete(bp, F, 0.5, -1.0),
], ids=["apply_biv", "apply_biv_kernel", "surface_values", "surface_rows", "biv_moments",
        "bound_partial", "bound_complete"])
def test_a_bad_y_point_is_reported_as_y(call):
    # these said "z must lie in [0, 1]" of a y point
    with pytest.raises(DomainError, match=r"^y must lie in \[0, 1\], got "):
        call(make_biv(mx=3, my=3), parse_source("z*y"))


@pytest.mark.parametrize("points", ["x", [[0.1], [0.2, 0.3]], 1j, np.array([0.5 + 1j]), np.array([0.5 + 0j])],
                         ids=["text", "ragged", "complex", "complex-array", "complex-array-real-valued"])
@pytest.mark.parametrize("call, name", [
    (lambda bp, v: basis_row(bp.px, v), "z"),
    (lambda bp, v: operator_uni.operator_values(kernel_integrals(bp.px, _F1), v), "z"),
    (lambda bp, v: apply(bp.px, _F1, v), "z"),
    (lambda bp, v: surface_values(bp, _G1, [0.5], v), "y"),
], ids=["basis_row", "operator_values", "apply", "surface_values"])
def test_points_numpy_cannot_convert_are_a_domain_error(call, name, points):
    # these raised numpy's own ValueError or TypeError; a complex array lost
    # its imaginary part with only a ComplexWarning
    with pytest.raises(DomainError, match=rf"^{name} must be real numbers, got "):
        call(make_biv(mx=3, my=3), points)


@pytest.mark.parametrize("call, name", [
    (lambda bp: apply(bp.px, parse_source("z"), 2.0), "z"),
    (lambda bp: error_analysis.error_table(bp.px, parse_source("z"), [0.5, 2.0]), "z"),
    (lambda bp: apply_biv(bp, parse_source("z*y"), 2.0, 0.5), "z"),
    (lambda bp: apply_biv(bp, parse_source("z*y"), 2.0, 2.0), "y"),
    (lambda bp: surface_values(bp, parse_source("z*y"), [2.0], [2.0]), "z"),
    (lambda bp: surface_rows(bp, parse_source("abs(z-y)"), [0.5], [0.0, 2.0]), "y"),
], ids=["apply", "error_table", "apply_biv", "apply_biv_y_first", "surface_values_z_first",
        "surface_rows"])
def test_a_bad_point_reaches_no_kernel(monkeypatch, call, name):
    # a bad point used to be found only after the whole kernel was built
    def build(*args, **kwargs):
        raise AssertionError("a kernel was built before the points were checked")

    for module in (operator_uni, operator_biv, error_analysis):
        monkeypatch.setattr(module, "kernel_integrals", build)
    monkeypatch.setattr(operator_biv, "biv_kernel_integrals", build)
    with pytest.raises(DomainError, match=rf"^{name} must lie in \[0, 1\], got 2.0$"):
        call(make_biv(mx=3, my=3))


# Every function of one point, as (call of the bivariate parameters and a
# point, the variable the point is passed as); the other variable is 0.4.
_ONE_POINT = {
    "bernstein_row": (lambda bp, v: bernstein_row(5, v), "z"),
    "basis_row": (lambda bp, v: basis_row(bp.px, v).weights, "z"),
    "apply": (lambda bp, v: apply(bp.px, _F1, v), "z"),
    "apply_kernel": (lambda bp, v: apply_kernel(kernel_integrals(bp.px, _F1), v), "z"),
    "raw_moments": (lambda bp, v: raw_moments(bp.px, v), "z"),
    "central_moments": (lambda bp, v: central_moments(bp.px, v), "z"),
    "moment_recurrence": (lambda bp, v: moment_recurrence(bp.px, 2, v), "z"),
    "bound_t2": (lambda bp, v: bound_t2(bp.px, _F1, v, grid_n=1024), "z"),
    "bound_lipschitz": (lambda bp, v: bound_lipschitz(bp.px, 1.0, 1.0, v), "z"),
    "bound_kfunctional": (lambda bp, v: bound_kfunctional(bp.px, _F1, v, 2.0, grid_n=1024), "z"),
    "apply_biv": (lambda bp, v: apply_biv(bp, _G1, v, 0.4), "z"),
    "apply_biv_y": (lambda bp, v: apply_biv(bp, _G1, 0.4, v), "y"),
    "apply_biv_kernel": (lambda bp, v: apply_biv_kernel(biv_kernel_integrals(bp, _G1), v, 0.4), "z"),
    "apply_biv_kernel_y": (lambda bp, v: apply_biv_kernel(biv_kernel_integrals(bp, _G1), 0.4, v), "y"),
    "biv_moments": (lambda bp, v: biv_moments(bp, v, 0.4), "z"),
    "biv_moments_y": (lambda bp, v: biv_moments(bp, 0.4, v), "y"),
    "bound_partial_y": (lambda bp, v: bound_partial(bp, _G1, 0.4, v), "y"),
    "bound_complete_y": (lambda bp, v: bound_complete(bp, _G1, 0.4, v), "y"),
}


@pytest.mark.parametrize("case", list(_ONE_POINT))
@pytest.mark.parametrize("points", [[0.1, 0.9], []], ids=["two", "none"])
def test_a_one_point_function_takes_one_point(case, points):
    # two points gave the result at the first one, a raw TypeError or
    # fields that are arrays, and no point a raw IndexError
    call, name = _ONE_POINT[case]
    bp = make_biv(mx=6, my=6)
    with pytest.raises(DomainError, match=rf"^{name} must be one point, got {len(points)} values$"):
        call(bp, points)
    assert repr(call(bp, np.array([0.3]))) == repr(call(bp, 0.3))


@pytest.mark.parametrize("px, py", [(1, 2), (make_biv().px, None), ((10, 2.0, 3.0, 0.9, 2), make_biv().py)])
def test_bivariate_params_take_operator_params(px, py):
    # BivariateParams(1, 2) ended in a raw AttributeError at the first use
    with pytest.raises(DomainError, match="^p[xy] must be an OperatorParams, got "):
        BivariateParams(px, py)
