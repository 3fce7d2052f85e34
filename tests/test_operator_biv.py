import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    biv_kernel_integrals,
    biv_moments,
    bound_complete,
    bound_partial,
    central_moments,
    complete_modulus,
    evaluate,
    get_function,
    kernel_integrals,
    modulus_continuity,
    parse_source,
    partial_moduli,
    raw_moments,
    surface_rows,
    surface_values,
)

from fracbk.exprlib import separate
from fracbk.operator_uni import eval_function
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
        rows, max_err = surface_rows(bp, F, [0.2, 0.8], [0.1, 0.5, 0.9])
        assert len(rows) == 6
        errors = [r[4] for r in rows]
        assert max_err == pytest.approx(max(errors))
        for z, y, exact, approx, err in rows:
            assert exact == pytest.approx(z * y, abs=1e-15)
            assert err == pytest.approx(abs(exact - approx), abs=1e-18)


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


class TestSeparatedKernel:
    """V = sum_r outer(K[a_r], K[b_r]) for F = sum_r a_r(z) b_r(y), against
    the per-row loop, which a callable wrapping F always takes."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.builds("({})*({})+({})".format, _TWO_VARIABLE, _TWO_VARIABLE, _TWO_VARIABLE),
           st.integers(1, 12), st.integers(1, 12))
    def test_matches_the_row_loop(self, src, m1, m2):
        F = parse_source(src)
        terms = separate(F)
        if terms is None:
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
        scale = sum(np.max(np.abs(kernel_integrals(bp.px, a).values))
                    * np.max(np.abs(kernel_integrals(bp.py, lambda t: evaluate(b, t, t)).values))
                    for a, b in terms)
        # the loop rounds F's intermediate values, which may dwarf its
        # factors' kernel integrals ((y/y-3/z)*(z/z)+3/z is off by 2.6e-7
        # near z = 0): held to a long double sum, the separated V may miss
        # it by 1e-14 * scale plus the loop's own error
        with np.errstate(all="ignore"):
            exact = _extended_tensor_sum(bp, F)
        loop_error = float(np.max(np.abs(looped - exact)))
        assert float(np.max(np.abs(separated - exact))) <= 1e-14 * scale + loop_error, src

    @pytest.mark.parametrize("src", ["abs(z-y)", "sin(z*y)", "(z+y)^0.5"])
    def test_inseparable_expression_takes_the_loop_bit_for_bit(self, src):
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
        h = 1.0 / 320
        w1, w2 = partial_moduli(F, 0.1, 0.1, grid_n=501)  # 320 cells at most
        assert 0.1 <= w1 <= 0.1 + 5 * h
        assert 0.2 <= w2 <= 0.2 + 7 * h

    def test_separable_sum_matches_univariate(self):
        from fracbk import modulus_continuity

        F = parse_source("2*cos(pi*z)+3*sin(2*pi*y)")
        w1, w2 = partial_moduli(F, 0.15, 0.08, grid_n=320)
        u1 = modulus_continuity(parse_source("2*cos(pi*z)"), 0.15, grid_n=320).value
        u2 = modulus_continuity(parse_source("3*sin(2*pi*z)"), 0.08, grid_n=320).value
        # the same runs of cells, plus the other term's change within one cell
        assert u1 - 1e-12 <= w1 <= u1 + 3 * 2 * math.pi / 320 + 1e-12
        assert u2 - 1e-12 <= w2 <= u2 + 2 * math.pi / 320 + 1e-12

    def test_zero_radius(self):
        F = parse_source("z*y")
        w1, w2 = partial_moduli(F, 0.0, 0.0, grid_n=241)
        assert w1 == 0.0 and w2 == 0.0

    def test_non_finite_grid_value_rejected(self):
        F = lambda z, y: np.where(z < 0.5, z * y, np.nan)
        with pytest.raises(EvaluationError):
            partial_moduli(F, 0.1, 0.1, grid_n=241)

    def test_validation(self):
        F = parse_source("z*y")
        with pytest.raises(DomainError):
            partial_moduli(F, -0.1, 0.1)
        with pytest.raises(DomainError):
            partial_moduli(F, 0.1, 0.1, grid_n=5)

    @pytest.mark.parametrize("d1, d2", [(math.nan, 0.1), (0.1, math.inf)])
    def test_non_finite_radius_rejected(self, d1, d2):
        # nan used to raise a raw ValueError and inf a raw OverflowError
        with pytest.raises(DomainError, match="must be non-negative and finite"):
            partial_moduli(parse_source("z*y"), d1, d2)

    def test_grid_size_not_an_int(self):
        with pytest.raises(DomainError, match="grid_n must be an int"):
            partial_moduli(parse_source("z*y"), 0.1, 0.1, grid_n=200.5)

    def test_huge_finite_radius_saturates(self):
        F = parse_source("(y*z+2)*cos(2*pi*z)")
        assert partial_moduli(F, 1e307, 1e307, grid_n=121) == partial_moduli(F, 1.0, 1.0, grid_n=121)
        # a denormal radius reaches into the neighbouring cell only
        assert partial_moduli(F, 5e-324, 5e-324) == partial_moduli(F, 0.5 / 256, 0.5 / 256)

    def test_unbounded_or_undefined_function(self):
        assert partial_moduli(parse_source("1/(3*z-1)+y"), 0.1, 0.1)[0] == math.inf
        with pytest.raises(EvaluationError):  # undefined at the cell corner z = 0.5
            partial_moduli(parse_source("1/(z-0.5)+y"), 0.1, 0.1)


class TestCompleteModulus:
    def test_linear_in_z_capped_by_radius(self):
        # sup |F(v)-F(u)| over |v-u| <= d for F=z is d; the certified value
        # adds at most two cells of the 201
        F = parse_source("z+0*y")
        assert 0.24 <= complete_modulus(F, 0.24, grid_n=201) <= 0.24 + 2.0 / 201

    def test_diagonal_function_uses_euclidean_radius(self):
        # F = z + y grows fastest along the diagonal: sup = d*sqrt(2); the
        # squares of cells holding the disc give at most 2*(d + 2 cells)
        F = parse_source("z+y")
        got = complete_modulus(F, 0.2, grid_n=201)
        assert 0.2 * math.sqrt(2.0) <= got <= 2.0 * (0.2 + 2.0 / 201)

    def test_dominates_partial_moduli(self):
        F = parse_source("(y*z+2)*cos(2*pi*z)")
        d = 0.1
        w1, w2 = partial_moduli(F, d, d, grid_n=321)
        wc = complete_modulus(F, d, grid_n=321)
        assert wc + 1e-12 >= max(w1, w2)

    def test_grid_refinement_stable(self):
        # Halved cells nest in the coarse ones, and so do the squares of
        # cells, so the certified value can only shrink, and not by much.
        F = parse_source("(y*z+2)*cos(2*pi*z)")
        coarse = complete_modulus(F, 0.1, grid_n=128)
        fine = complete_modulus(F, 0.1, grid_n=256)
        assert fine <= coarse
        assert fine == pytest.approx(coarse, rel=0.12)

    def test_zero_radius(self):
        assert complete_modulus(parse_source("z*y"), 0.0, grid_n=241) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_grid_value_rejected(self, bad):
        F = lambda z, y: np.where(z < 0.5, z * y, bad)
        with pytest.raises(EvaluationError):
            complete_modulus(F, 0.1, grid_n=241)

    @pytest.mark.parametrize("d", [math.nan, math.inf, -0.1])
    def test_invalid_radius_rejected(self, d):
        # nan used to raise a raw ValueError and inf a raw OverflowError
        with pytest.raises(DomainError, match="d must be non-negative and finite"):
            complete_modulus(parse_source("z*y"), d)

    def test_grid_size_not_an_int(self):
        with pytest.raises(DomainError, match="grid_n must be an int"):
            complete_modulus(parse_source("z*y"), 0.1, grid_n=200.5)

    def test_huge_finite_radius_saturates(self):
        # beyond sqrt(2) the disc holds every pair; 1e160 used to overflow
        F = parse_source("(y*z+2)*cos(2*pi*z)")
        full = complete_modulus(F, 1.5, grid_n=121)
        assert complete_modulus(F, 1e160, grid_n=121) == full
        assert complete_modulus(F, 1e300, grid_n=121) == full
        assert complete_modulus(F, 5e-324) == complete_modulus(F, 0.5 / 256)
        assert complete_modulus(F, 0.0) == 0.0


_PARITY_FUNCS = {
    "abs_diff": lambda z, y: np.abs(z - y),
    "sin_cos": lambda z, y: np.sin(3.0 * z) * np.cos(5.0 * y),
    # falls with z, so every largest difference has the base point above
    # its row-offset partners
    "falling_z": lambda z, y: np.cos(2.0 * y) - 3.0 * z,
}


def _parity_grid(name, grid_n):
    u = np.linspace(0.0, 1.0, grid_n)
    return _PARITY_FUNCS[name](u[:, None], u[None, :])


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
    n = G.shape[0]
    h = 1.0 / (n - 1)
    kmax = min(int(d / h + 1e-9), n - 1)
    limit = (d / h) ** 2 + 1e-9
    best = 0.0
    for a in range(0, kmax + 1):
        for b in range(1, kmax + 1) if a == 0 else range(-kmax, kmax + 1):
            if a * a + b * b > limit:
                continue
            if b >= 0:
                diff = G[a:, b:] - G[: n - a, : n - b]
            else:
                diff = G[a:, : n + b] - G[: n - a, -b:]
            best = max(best, float(np.max(np.abs(diff))))
    return best


class TestModuliParity:
    """The window-extreme moduli equal the offset loops bit for bit."""

    @pytest.mark.parametrize("name", sorted(_PARITY_FUNCS))
    @pytest.mark.parametrize(
        "grid_n, d1, d2",
        [(101, 0.0, 0.0), (101, 0.01, 0.3), (101, 0.32, 0.64), (101, 1.0, 0.99),
         (101, 1.5, 2.0), (241, 0.13, 0.05), (241, 1.0, 1.0)],
    )
    def test_partial_matches_shift_loop(self, name, grid_n, d1, d2):
        expected = _shift_loop_partial(_parity_grid(name, grid_n), d1, d2)
        assert partial_moduli(_PARITY_FUNCS[name], d1, d2, grid_n) == expected

    @pytest.mark.parametrize("name", sorted(_PARITY_FUNCS))
    @pytest.mark.parametrize(
        "grid_n, d",
        # 0.72 and 1.0: disc offsets run past the grid border; 1.0 and 1.5:
        # kmax reaches grid_n - 1; 1.5: every row offset keeps all columns
        [(101, 0.0), (101, 0.03), (101, 0.5), (101, 0.72), (101, 1.0), (101, 1.5),
         (241, 0.05), (None, 0.02), (None, 0.1)],
    )
    def test_complete_matches_offset_loop(self, name, grid_n, d):
        n = grid_n if grid_n is not None else 256
        expected = _offset_loop_complete(_parity_grid(name, n), d)
        assert complete_modulus(_PARITY_FUNCS[name], d, grid_n) == expected


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
            assert partial_moduli(f, d, 0.0, n)[0] == modulus_continuity(f, d, n).value, d

    @pytest.mark.parametrize("source", _Z_ONLY)
    @pytest.mark.parametrize("n", [256, 300, 320])
    def test_merged_levels_only_loosen_the_univariate_modulus(self, source, n):
        # from 256 cells on, a large radius reads merged cells on one axis
        f = get_function(source)
        for d in _RADII:
            assert modulus_continuity(f, d, n).value >= partial_moduli(f, d, 0.0, n)[0], d

    @pytest.mark.parametrize("n", [101, 256, 257, 501])
    def test_callable_grids_agree(self, n):
        def f(z, *y):
            return np.abs(np.sin(5.0 * z) - 0.3)

        for d in _RADII:
            assert partial_moduli(f, d, 0.0, n)[0] == modulus_continuity(f, d, n).value, d


class TestBivariateBounds:
    def test_partial_bound_affine_formula(self):
        bp = make_biv(mx=12, my=18, eta=2.0, gamma=2.0, alpha=0.5, s=2)
        F = parse_source("z+2*y")
        d1 = math.sqrt(central_moments(bp.px, 0.4).xi2)
        d2 = math.sqrt(central_moments(bp.py, 0.7).xi2)
        got = bound_partial(bp, F, 0.4, 0.7, grid_n=320)
        # the exact moduli d1 and 2*d2, plus at most 4 and 5 cells of change
        exact = 2.0 * (d1 + 2.0 * d2)
        assert exact <= got <= exact + 2.0 * 9.0 / 320

    def test_complete_bound_diagonal_formula(self):
        bp = make_biv(mx=12, my=12, eta=2.0, gamma=2.0, alpha=0.5, s=2)
        F = parse_source("z+y")
        d = math.sqrt(
            central_moments(bp.px, 0.5).xi2 + central_moments(bp.py, 0.5).xi2
        )
        got = bound_complete(bp, F, 0.5, 0.5, grid_n=201)
        assert 4.0 * d * math.sqrt(2.0) <= got <= 8.0 * (d + 2.0 / 201)

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
