import inspect
import itertools
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from fracbk import (
    DEFAULT_ORDER,
    BivariateParams,
    DomainError,
    EvaluationError,
    OperatorParams,
    QuadratureError,
    apply,
    apply_kernel,
    biv_kernel_integrals,
    central_moments,
    error_table,
    evaluate,
    gauss_jacobi_rule,
    get_function,
    kernel_integrals,
    moment_coeff,
    moment_recurrence,
    operator_values,
    parse_source,
    raw_moments,
    special_case,
)

from fracbk.exprlib import derivative_sup, enclose, eval_function
from fracbk.operator_uni import _DERIVATIVE_CELLS, _certificate, _kernel_order, _moment_misses
from fracbk.quadrature import _kernel_rule
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_params, expression_texts
from oracles import binomial_power_polys


class TestKernelIntegrals:
    def test_constant_function(self):
        params = OperatorParams(m=6, eta=2.0, gamma=3.0, alpha=0.5, s=2)
        ki = kernel_integrals(params, lambda t: np.ones_like(t))
        assert np.allclose(ki.values, 1.0, atol=1e-14)

    def test_identity_function(self):
        params = OperatorParams(m=5, eta=2.0, gamma=4.0, alpha=0.5, s=2)
        ki = kernel_integrals(params, lambda t: t)
        c1 = moment_coeff(2.0, 4.0, 1)
        j = np.arange(6)
        assert np.allclose(ki.values, (j + c1) / 6.0, atol=1e-14)

    def test_square_function_first_entry(self):
        params = OperatorParams(m=40, eta=2.0, gamma=4.0, alpha=0.9, s=2)
        ki = kernel_integrals(params, lambda t: t * t)
        assert ki.values[0] == pytest.approx((1.0 / 45.0) / 1681.0, rel=1e-12)

    def test_accepts_parsed_expression(self):
        params = OperatorParams(m=4, eta=1.0, gamma=1.0, alpha=1.0, s=2)
        ki_expr = kernel_integrals(params, parse_source("z^2"))
        ki_call = kernel_integrals(params, lambda t: t**2)
        assert np.allclose(ki_expr.values, ki_call.values, atol=1e-15)

    @pytest.mark.parametrize("m", [2_000, 10_000, 100_000])
    def test_row_blocks_match_one_shot(self, m):
        # the integrand is evaluated a block of rows at a time
        params = OperatorParams(m=m, eta=2.0, gamma=4.0, alpha=0.9, s=3)
        f = parse_source("z*(z-2/5)*(z-7/8)")
        rule = gauss_jacobi_rule(2.0, DEFAULT_ORDER)
        args = (np.arange(m + 1)[:, None] + rule.nodes[None, :] ** 4.0) / (m + 1.0)
        one_shot = evaluate(f, args) @ rule.weights
        assert np.max(np.abs(kernel_integrals(params, f).values - one_shot)) <= 1e-15

    def test_values_read_only(self):
        params = OperatorParams(m=4, eta=1.0, gamma=1.0, alpha=1.0, s=2)
        ki = kernel_integrals(params, lambda t: t)
        with pytest.raises(ValueError):
            ki.values[0] = 0.0

    def test_order_not_an_int(self):
        params = OperatorParams(m=4, eta=1.0, gamma=1.0, alpha=1.0, s=2)
        with pytest.raises(DomainError, match="order must be an int"):
            kernel_integrals(params, lambda t: t, order=2.5)

    @pytest.mark.parametrize("eta", [0.25, 0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.6, 0.7, 1.3, 1.5, 2.3, 4.7])
    def test_non_integer_gamma_matches_closed_form(self, gamma, eta):
        # the kernel integral of z^n at row j is
        # sum_k C(n,k) j^(n-k) c_k / (m+1)^n with the kernel moments c_k;
        # t^gamma is singular at t=0 here, which the graded rule absorbs.
        # The error is relative to the largest entry: the j=0 entries,
        # c_n/(m+1)^n, are small, and the rounding of the rule's weights
        # alone moves them by up to about 1e-14 of themselves.
        def closed_form(p, n):
            j = np.arange(p.m + 1.0)
            return sum(math.comb(n, k) * j ** (n - k) * moment_coeff(eta, gamma, k)
                       for k in range(n + 1)) / (p.m + 1.0) ** n

        def assert_close(got, expected):
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

        px = OperatorParams(m=7, eta=eta, gamma=gamma, alpha=0.7, s=2)
        py = OperatorParams(m=4, eta=eta, gamma=gamma, alpha=0.3, s=3)
        for n in (1, 2, 3):
            assert_close(kernel_integrals(px, parse_source(f"z^{n}")).values, closed_form(px, n))
            biv = biv_kernel_integrals(BivariateParams(px, py), parse_source(f"z^{n}*y^{n}"))
            assert_close(biv.values, np.outer(closed_form(px, n), closed_form(py, n)))


class TestApply:
    def test_reproduces_constants(self):
        params = OperatorParams(m=12, eta=2.0, gamma=3.0, alpha=0.4, s=3)
        assert apply(params, lambda t: 5.0 * np.ones_like(t), 0.37) == pytest.approx(
            5.0, abs=1e-13
        )

    def test_identity_fixed_midpoint(self):
        params = OperatorParams(m=10, eta=1.0, gamma=1.0, alpha=1.0, s=2)
        assert apply(params, lambda t: t, 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_grid_matches_pointwise(self):
        params = OperatorParams(m=9, eta=2.0, gamma=2.0, alpha=0.3, s=2)
        f = parse_source("z*(1-z)")
        zs = np.linspace(0.0, 1.0, 7)
        grid = operator_values(kernel_integrals(params, f), zs)
        pointwise = [apply(params, f, float(z)) for z in zs]
        assert np.allclose(grid, pointwise, atol=1e-15)

    def test_bounded_by_sup_norm(self, rng):
        f = parse_source("z*(z-4/7)*sin(pi*z)")
        sup = float(np.max(np.abs(evaluate(f, np.linspace(0.0, 1.0, 2001)))))
        for _ in range(10):
            params = draw_params(rng, m_max=60)
            z = float(rng.uniform(0.0, 1.0))
            assert abs(apply(params, f, z)) <= sup + 1e-9

    def test_positive_function_positive_image(self, rng):
        f = lambda t: t * t + 0.1
        for _ in range(10):
            params = draw_params(rng, m_max=40)
            z = float(rng.uniform(0.0, 1.0))
            assert apply(params, f, z) > 0.0

    def test_matches_independent_construction(self):
        # Independent pipeline: Gauss-Legendre with the kernel written out
        # (eta integer keeps the weight polynomial) and the literal
        # three-term weight formula via math.comb.
        params = OperatorParams(m=7, eta=2.0, gamma=2.5, alpha=0.35, s=3)
        f = lambda t: np.sin(np.pi * t)
        x, w = leggauss(200)
        t = (x + 1.0) / 2.0
        w = w / 2.0
        m, eta, gamma, alpha, s = params.m, params.eta, params.gamma, params.alpha, params.s

        def comb(n, k):
            return math.comb(n, k) if 0 <= k <= n else 0

        def term(c, z, a, b):
            return c * z**a * (1.0 - z) ** b if c else 0.0

        for z in [0.0, 0.17, 0.5, 0.83, 1.0]:
            expected = 0.0
            for j in range(m + 1):
                kernel = float(
                    np.sum(w * eta * (1.0 - t) ** (eta - 1.0) * f((j + t**gamma) / (m + 1.0)))
                )
                q = (
                    (1.0 - alpha) * term(comb(m - s, j - s), z, j - s + 1, m - j)
                    + (1.0 - alpha) * term(comb(m - s, j), z, j, m - s - j + 1)
                    + alpha * term(comb(m, j), z, j, m - j)
                )
                expected += q * kernel
            assert apply(params, f, float(z)) == pytest.approx(expected, abs=1e-12)

    def test_kernel_reuse_matches_apply(self):
        params = OperatorParams(m=15, eta=3.0, gamma=2.0, alpha=0.75, s=5)
        f = parse_source("22*z*(z-0.9)*(z-0.3)")
        ki = kernel_integrals(params, f)
        for z in [0.1, 0.4, 0.9]:
            assert apply_kernel(ki, z) == pytest.approx(apply(params, f, z), abs=1e-15)


class TestLMoments:
    # moment_recurrence over the basis part's moments L(e_n; z); at
    # eta = gamma = 1 the kernel coefficients are c1 = 1/2 and c2 = 1/3
    def test_order_zero_and_one(self):
        params = OperatorParams(m=10, eta=1.0, gamma=1.0, alpha=0.3, s=4)
        assert moment_recurrence(params, 0, 0.62) == 1.0
        assert moment_recurrence(params, 1, 0.62) == pytest.approx((10 * 0.62 + 0.5) / 11, rel=1e-14)

    def test_order_two_classical(self):
        params = OperatorParams(m=10, eta=1.0, gamma=1.0, alpha=1.0, s=2)
        # L(e2; 1/2) = 0.275
        expected = (100 * 0.275 + 2 * 10 * 0.5 * 0.5 + 1 / 3) / 121
        assert moment_recurrence(params, 2, 0.5) == pytest.approx(expected, rel=1e-14)

    def test_order_two_blended(self):
        params = OperatorParams(m=10, eta=1.0, gamma=1.0, alpha=0.5, s=3)
        # L(e2; 1/2) = 0.2825
        expected = (100 * 0.2825 + 2 * 10 * 0.5 * 0.5 + 1 / 3) / 121
        assert moment_recurrence(params, 2, 0.5) == pytest.approx(expected, rel=1e-14)

    def test_unsupported_order(self):
        params = OperatorParams(m=10, eta=1.0, gamma=1.0, alpha=0.5, s=2)
        with pytest.raises(DomainError, match="i must be <= 16, got 17"):
            moment_recurrence(params, 17, 0.5)

    def test_point_validation(self):
        params = OperatorParams(m=10, eta=1.0, gamma=1.0, alpha=0.5, s=2)
        with pytest.raises(DomainError):
            moment_recurrence(params, 1, 1.2)

    @pytest.mark.parametrize("i", [True, 1.0, -1, 17])
    def test_order_must_be_an_int_in_0_to_16(self, i):
        # True was read as i = 1 and 1.0 ended in a raw TypeError
        params = OperatorParams(m=10, eta=1.0, gamma=1.0, alpha=0.5, s=2)
        with pytest.raises(DomainError, match="^i must be "):
            moment_recurrence(params, i, 0.3)


class TestRawMoments:
    def test_first_moment_left_endpoint(self):
        params = OperatorParams(m=40, eta=1.0, gamma=1.0, alpha=0.5, s=2)
        assert raw_moments(params, 0.0).e1 == pytest.approx(0.5 / 41.0, rel=1e-14)

    def test_first_moment_right_endpoint(self):
        params = OperatorParams(m=40, eta=2.0, gamma=4.0, alpha=0.5, s=2)
        expected = 40.0 / 41.0 + (1.0 / 15.0) / 41.0
        assert raw_moments(params, 1.0).e1 == pytest.approx(expected, rel=1e-14)

    def test_second_moment_left_endpoint(self):
        params = OperatorParams(m=10, eta=1.0, gamma=1.0, alpha=1.0, s=2)
        assert raw_moments(params, 0.0).e2 == pytest.approx((1.0 / 3.0) / 121.0, rel=1e-14)

    def test_e0_is_one(self, rng):
        for _ in range(20):
            params = draw_params(rng)
            assert raw_moments(params, float(rng.uniform(0, 1))).e0 == 1.0

    def test_jensen_inequality(self, rng):
        for _ in range(100):
            params = draw_params(rng)
            ms = raw_moments(params, float(rng.uniform(0.0, 1.0)))
            assert ms.e2 >= ms.e1**2 - 1e-12

    def test_degree_below_shape_order_uses_classical_bracket(self):
        # m < s: verified against direct operator evaluation of e2.
        params = OperatorParams(m=2, eta=2.0, gamma=3.0, alpha=0.4, s=5)
        for z in [0.0, 0.3, 0.8]:
            direct = apply(params, lambda t: t * t, z, order=384)
            assert raw_moments(params, z).e2 == pytest.approx(direct, abs=1e-13)


class TestCentralMoments:
    def test_zeta_vanishes_at_kernel_mean(self):
        params = OperatorParams(m=17, eta=1.0, gamma=1.0, alpha=0.6, s=2)
        assert central_moments(params, 0.5).zeta == pytest.approx(0.0, abs=1e-16)

    def test_xi2_left_endpoint(self):
        for m in [3, 10, 50]:
            params = OperatorParams(m=m, eta=1.0, gamma=1.0, alpha=1.0, s=2)
            expected = 1.0 / (3.0 * (m + 1.0) ** 2)
            assert central_moments(params, 0.0).xi2 == pytest.approx(expected, rel=1e-13)

    def test_xi2_nonnegative(self, rng):
        for _ in range(1000):
            params = draw_params(rng)
            assert central_moments(params, float(rng.uniform(0.0, 1.0))).xi2 >= 0.0

    def test_consistent_with_raw_moments(self, rng):
        for _ in range(100):
            params = draw_params(rng)
            z = float(rng.uniform(0.0, 1.0))
            ms = raw_moments(params, z)
            cm = central_moments(params, z)
            assert cm.zeta == pytest.approx(ms.e1 - z, abs=1e-14)
            assert cm.xi2 == pytest.approx(ms.e2 - 2.0 * z * ms.e1 + z * z, abs=1e-12)


class TestMomentRecurrence:
    def test_matches_raw_moments(self, rng):
        for _ in range(50):
            params = draw_params(rng)
            z = float(rng.uniform(0.0, 1.0))
            ms = raw_moments(params, z)
            assert moment_recurrence(params, 0, z) == pytest.approx(ms.e0, abs=1e-13)
            assert moment_recurrence(params, 1, z) == pytest.approx(ms.e1, abs=1e-13)
            assert moment_recurrence(params, 2, z) == pytest.approx(ms.e2, abs=1e-13)

    def test_unsupported_order(self):
        params = OperatorParams(m=10, eta=1.0, gamma=1.0, alpha=0.5, s=2)
        with pytest.raises(DomainError, match="i must be <= 16, got 17"):
            moment_recurrence(params, 17, 0.5)

    def test_against_mpmath(self):
        # every image up to e_8 within 1e-15 relative of the same sum taken
        # to 40 digits with the same c_k, from the binomial power sums of
        # oracles.binomial_power_polys; (eta, gamma) cycles through five pairs
        mpmath = pytest.importorskip("mpmath")
        grid = itertools.product(_MPMATH_DEGREES, (0, 1, 2, 3, 9, None), (0.0, 0.35, 1.0), _MPMATH_POINTS)
        with mpmath.workdps(40):
            for (m, s, alpha, z), (eta, gamma) in zip(grid, itertools.cycle(_MPMATH_KERNELS)):
                params = OperatorParams(m, eta, gamma, alpha, m + 1 if s is None else s)
                for k, ref in enumerate(_mpmath_images(mpmath, params, 8, z)):
                    got = moment_recurrence(params, k, z)
                    assert abs(got - ref) <= 1e-15 * ref, (params, k, z, got, ref)

    @pytest.mark.parametrize("s", [3, 2**52, 2**53 - 1])
    def test_highest_order_finite_at_largest_degree(self, s):
        params = OperatorParams(2**53 - 1, 2.0, 3.0, 0.35, s)
        for z in (0.0, 0.37, 1.0):
            assert 0.0 < moment_recurrence(params, 16, z) < math.inf


_MPMATH_DEGREES = (1, 2, 5, 40, 250, 4437, 10**5, 10**6)
_MPMATH_POINTS = (0.0, 1e-9, 0.01, 0.37, 0.5, 0.9, 1.0)
_MPMATH_KERNELS = ((2.0, 3.0), (0.75, 1.654), (1.0, 1.0), (3.0, 2.0), (0.5, 4.71))


def _mpmath_images(mpmath, params, k, z):
    """R(e_i; z) for i <= k at the working precision: the basis power sums
    A_n from the binomial ones (the degree-(m-s) row's shifted by s by the
    binomial theorem), blended as the basis rows are, then
    sum_n C(i,n) c_{i-n} A_n / (m+1)^i."""
    m, s, z = params.m, params.s, mpmath.mpf(z)

    def power_sums(d, shift):
        raw = [mpmath.polyval(p[::-1], z) for p in binomial_power_polys(d, k)]
        return [mpmath.fsum(math.comb(n, t) * mpmath.mpf(shift) ** (n - t) * raw[t] for t in range(n + 1))
                for n in range(k + 1)]

    a = power_sums(m, 0)
    if m >= s:
        alpha = mpmath.mpf(params.alpha)
        a = [alpha * x + (1 - alpha) * ((1 - z) * y + z * w)
             for x, y, w in zip(a, power_sums(m - s, 0), power_sums(m - s, s))]
    c = [mpmath.mpf(moment_coeff(params.eta, params.gamma, n)) for n in range(k + 1)]
    return [mpmath.fsum(math.comb(i, n) * c[i - n] * a[n] for n in range(i + 1)) / mpmath.mpf(m + 1) ** i
            for i in range(k + 1)]


class TestClosedFormsAgainstQuadrature:
    def test_monomials_high_order(self, rng):
        monomials = [lambda t: np.ones_like(t), lambda t: t, lambda t: t * t]
        for _ in range(25):
            params = draw_params(rng, m_max=100)
            z = float(rng.uniform(0.0, 1.0))
            ms = raw_moments(params, z)
            for f, closed in zip(monomials, (ms.e0, ms.e1, ms.e2)):
                assert apply(params, f, z, order=384) == pytest.approx(closed, abs=1e-11)


class TestSpecialCase:
    @pytest.mark.parametrize(
        "kwargs,tag",
        [
            ({"eta": 1.0, "gamma": 1.0, "alpha": 0.9, "s": 2}, "FBK"),
            ({"eta": 1.0, "gamma": 2.0, "alpha": 1.0, "s": 2}, "OZK"),
            ({"eta": 2.0, "gamma": 1.0, "alpha": 0.5, "s": 2}, "RLBK"),
            ({"eta": 1.0, "gamma": 3.0, "alpha": 0.5, "s": 3}, "BBK"),
            ({"eta": 2.0, "gamma": 3.0, "alpha": 0.9, "s": 2}, "none"),
        ],
    )
    def test_tags(self, kwargs, tag):
        assert special_case(OperatorParams(m=10, **kwargs)) == tag

    def test_fbk_wins_over_ozk(self):
        # alpha=1, eta=1, gamma=1, s=2 satisfies both; FBK is checked first.
        params = OperatorParams(m=10, eta=1.0, gamma=1.0, alpha=1.0, s=2)
        assert special_case(params) == "FBK"


# The bench's eta values, and gammas and degrees from integer to non-integer,
# from 11 to 100,001 rows
_ETAS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0)
_GAMMAS = (1.0, 1.654, 2.3, 3.0, 3.88, 4.71)
_MS = (10, 40, 250, 2000, 22539, 100000)
_EPS = 2.0**-52


def _rows_and_rounding(f, eta, gamma, m, order, rows):
    """The points and weights of rows of the order-`order` kernel
    integrals, and a bound on the rounding of those rows as kernel_integrals
    sums them: the width of f's enclosure at each point (the same operations
    widened outward, so it holds the computed and the exact value), the
    points' own rounding (2 eps S_1), the sum of order products
    ((order + 2) eps S_0) and the weights' sum off 1."""
    tg, w = _kernel_rule(eta, gamma, order)
    x = (rows[:, None] + tg) / (m + 1.0)
    lo, hi = enclose(f, (x, x))
    s0, s1 = derivative_sup(f, 0, _DERIVATIVE_CELLS), derivative_sup(f, 1, _DERIVATIVE_CELLS)
    rounding = float(np.max(hi - lo)) + 2 * _EPS * s1 + ((order + 2) * _EPS + abs(math.fsum(w) - 1.0)) * s0
    return x, w, rounding


def _check_auto_order(f, eta, gamma, m):
    """|K(auto) - K(256)| <= certificate + rounding on 17 rows, the order-256
    rows summed in long double; returns the order chosen."""
    params = OperatorParams(m, eta, gamma, 0.5, 2)
    order = _kernel_order(params, f)
    if order == DEFAULT_ORDER:
        return order
    rows = np.unique(np.linspace(0, m, 17).astype(int))
    x, w, ref_rounding = _rows_and_rounding(f, eta, gamma, m, 256, rows)
    reference = (eval_function(f, x).astype(np.longdouble) * w).sum(axis=1)
    rounding = _rows_and_rounding(f, eta, gamma, m, order, rows)[2] + ref_rounding
    cert = _certificate(f, eta, gamma, m, order)
    assert cert <= 0.5 * math.ulp(derivative_sup(f, 0, _DERIVATIVE_CELLS))
    diff = float(np.max(np.abs(kernel_integrals(params, f, order).values[rows] - reference)))
    assert diff <= cert + rounding, (eta, gamma, m, order, diff, cert, rounding)
    return order


class TestCertifiedOrder:
    """error_table integrates at the lowest order whose moment-based bound on
    the quadrature error (_certificate) is at most half an ulp of sup |f|."""

    @pytest.mark.parametrize("source", ["f1", "f2", "f3", "f4", "0.3 - 1.2*z + 0.7*z^2",
                                        "-1.752353 + -1.101878*z + 0.133*z^2"])
    def test_auto_order_within_the_certificate(self, source):
        f = get_function(source)
        orders = [_check_auto_order(f, eta, gamma, m) for eta in _ETAS for gamma in _GAMMAS for m in _MS]
        assert set(orders) >= {8, 16, DEFAULT_ORDER}  # certified at large m, not at m = 10

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(expression_texts(), st.sampled_from(_ETAS), st.sampled_from(_GAMMAS), st.sampled_from(_MS))
    def test_auto_order_within_the_certificate_drawn(self, text, eta, gamma, m):
        f = parse_source(text)
        try:
            kernel_integrals(OperatorParams(10, eta, gamma, 0.5, 2), f, 8)
        except (EvaluationError, QuadratureError):
            return  # not integrable on [0, 1]
        _check_auto_order(f, eta, gamma, m)

    @pytest.mark.parametrize("f", [parse_source("abs(z-0.37)"), parse_source("sqrt(z)"),
                                   parse_source("exp(z)*abs(z-0.5)"), lambda t: np.cos(t)])
    def test_no_certificate_keeps_order_64_bit_for_bit(self, f):
        params = OperatorParams(100000, 2.0, 3.0, 0.5, 2)
        assert _kernel_order(params, f) == DEFAULT_ORDER
        zs = np.linspace(0.0, 1.0, 11)
        assert error_table(params, f, zs).columns.tobytes() == error_table(params, f, zs, 64).columns.tobytes()

    def test_large_m_takes_a_low_order(self):
        f2 = get_function("f2")
        assert _kernel_order(OperatorParams(50802, 0.75, 1.654, 0.5, 2), f2) == 8
        assert _kernel_order(OperatorParams(10, 0.75, 1.654, 0.5, 2), f2) == DEFAULT_ORDER
        params = OperatorParams(22539, 2.0, 2.816, 0.5, 2)
        zs = np.linspace(0.0, 1.0, 5)
        auto = error_table(params, f2, zs)
        assert auto.columns.tobytes() == error_table(params, f2, zs, _kernel_order(params, f2)).columns.tobytes()

    def test_explicit_orders_and_kernel_integrals_keep_64(self):
        assert inspect.signature(kernel_integrals).parameters["order"].default == DEFAULT_ORDER == 64
        assert inspect.signature(error_table).parameters["order"].default is None

    @pytest.mark.parametrize("order", [8, 16, 32, 64])
    def test_moment_misses_hold_the_exact_misses(self, order):
        # e_k is at least |Q_n(s^k) - c_k| with the rule's float points and
        # weights summed exactly and c_k to 40 digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for eta in _ETAS:
                for gamma in (*_GAMMAS, 4.999):
                    e, c = _moment_misses(eta, gamma, order)
                    tg, w = _kernel_rule(eta, gamma, order)
                    for k in range(len(e)):
                        q = mpmath.fsum(mpmath.mpf(wi) * mpmath.mpf(ti) ** k for wi, ti in zip(w, tg))
                        g = mpmath.mpf(gamma) * k + 1
                        exact = mpmath.gamma(mpmath.mpf(eta) + 1) * mpmath.gamma(g) / mpmath.gamma(mpmath.mpf(eta) + g)
                        assert abs(q - exact) <= e[k], (eta, gamma, k)
                        assert c[k] == moment_coeff(eta, gamma, k)


# _kernel_order at _ORDER_MS with (eta, gamma, alpha, s) = (2, 2.3, 0.6, 3)
# when the sups came from symbolic derivative trees, which read S_k = inf
# past 2,000 nodes and so kept the nested expressions at order 64
_ORDER_MS = (10, 40, 100, 250, 1000, 4437, 10**5)
_CHAIN_ORDERS = {
    "exp(sin(3*z))": (64, 64, 64, 64, 64, 8, 8),
    "1/(1+25*z^2)": (64, 64, 64, 64, 64, 16, 8),
    "sqrt(1+z)": (64, 64, 64, 64, 8, 8, 8),
    "exp(z)*sin(5*z)": (64, 64, 64, 64, 16, 16, 8),
    "(1+z)^0.5*cos(3*z)": (64, 64, 64, 64, 16, 8, 8),
    "f1": (64, 64, 64, 64, 16, 16, 8),
    "f2": (64, 64, 64, 16, 16, 16, 8),
    "f3": (64, 64, 64, 64, 16, 16, 8),
}


class TestTaylorOrders:
    """The sups of the Taylor coefficients lower the order of nested
    expressions and raise none."""

    @pytest.mark.parametrize("source", sorted(_CHAIN_ORDERS))
    def test_no_order_rises(self, source):
        f = get_function(source)
        orders = [_kernel_order(OperatorParams(m, 2.0, 2.3, 0.6, 3), f) for m in _ORDER_MS]
        assert all(new <= old for new, old in zip(orders, _CHAIN_ORDERS[source])), orders
        if source in ("f1", "f2", "f3"):
            assert orders == list(_CHAIN_ORDERS[source])

    @pytest.mark.parametrize("source, m", [("exp(sin(3*z))", 100), ("sqrt(1+z)", 40)])
    def test_nested_expressions_take_order_16(self, source, m):
        assert _CHAIN_ORDERS[source][_ORDER_MS.index(m)] == DEFAULT_ORDER
        assert _kernel_order(OperatorParams(m, 2.0, 2.3, 0.6, 3), get_function(source)) == 16
        assert _check_auto_order(get_function(source), 2.0, 2.3, m) == 16  # within the certificate
