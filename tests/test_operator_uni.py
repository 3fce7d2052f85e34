import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from fracbk import (
    DEFAULT_ORDER,
    BivariateParams,
    DomainError,
    OperatorParams,
    UnsupportedOrderError,
    apply,
    apply_grid,
    apply_kernel,
    biv_kernel_integrals,
    central_moments,
    evaluate,
    gauss_jacobi_rule,
    kernel_integrals,
    moment_coeff,
    moment_recurrence,
    parse_source,
    raw_moments,
    special_case,
)

from conftest import draw_params


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
        grid = apply_grid(params, f, zs)
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
        with pytest.raises(UnsupportedOrderError):
            moment_recurrence(params, 3, 0.5)

    def test_point_validation(self):
        params = OperatorParams(m=10, eta=1.0, gamma=1.0, alpha=0.5, s=2)
        with pytest.raises(DomainError):
            moment_recurrence(params, 1, 1.2)


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
        with pytest.raises(UnsupportedOrderError):
            moment_recurrence(params, 3, 0.5)


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
