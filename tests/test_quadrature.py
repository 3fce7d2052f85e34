import math
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_jacobi

from fracbk import (
    DomainError,
    EvaluationError,
    QuadratureError,
    gauss_jacobi_rule,
    integrate,
    moment_coeff,
    parse_source,
    quadrature,
)
from fracbk.quadrature import _build_rule, _kernel_rule

from oracles import adaptive_reference


class TestRuleConstruction:
    def test_order_one_uniform_weight(self):
        rule = gauss_jacobi_rule(1.0, 1)
        assert rule.nodes == pytest.approx([0.5])
        assert rule.weights == pytest.approx([1.0])

    def test_invalid_eta(self):
        with pytest.raises(DomainError):
            gauss_jacobi_rule(0.0, 8)
        with pytest.raises(DomainError):
            gauss_jacobi_rule(-2.0, 8)

    def test_invalid_order(self):
        with pytest.raises(DomainError):
            gauss_jacobi_rule(1.0, 0)

    @pytest.mark.parametrize("order", [2.5, 2.0, True])
    def test_order_not_an_int(self, order):
        # 2.5 used to build an order-2 rule and True an order-1 rule
        with pytest.raises(DomainError, match="order must be an int"):
            gauss_jacobi_rule(2.0, order)

    def test_order_above_the_bound_rejected_before_the_build(self, monkeypatch):
        # a dense order x order solve: order 32768 would ask for 8 GiB
        monkeypatch.setattr(quadrature, "_build_rule", None)
        for build in (lambda: gauss_jacobi_rule(2.0, 4097), lambda: _kernel_rule(2.0, 0.5, 4097)):
            with pytest.raises(DomainError, match="order must be <= 4096, got 4097"):
                build()

    def test_numpy_integer_order_accepted(self):
        rule = gauss_jacobi_rule(2.0, np.int64(8))
        assert np.array_equal(rule.nodes, gauss_jacobi_rule(2.0, 8).nodes)

    @pytest.mark.parametrize("eta", [0.25, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 3.7, 5.0])
    def test_order_one_is_the_kernel_mean(self, eta):
        # one node at the kernel mean 1/(eta+1), written as the Jacobi
        # matrix entry, with weight 1, both bit for bit
        a = eta - 1.0
        rule = gauss_jacobi_rule(eta, 1)
        assert rule.nodes.tolist() == [(-a / (a + 2.0) + 1.0) / 2.0]
        assert rule.weights.tolist() == [1.0]

    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0, 3.7])
    @pytest.mark.parametrize("order", [1, 2, 4, 16, 64])
    def test_weights_form_probability_measure(self, eta, order):
        rule = gauss_jacobi_rule(eta, order)
        assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-13)
        assert np.all(rule.weights > 0.0)

    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0, 3.7])
    def test_nodes_interior_and_increasing(self, eta):
        rule = gauss_jacobi_rule(eta, 32)
        assert np.all(rule.nodes > 0.0)
        assert np.all(rule.nodes < 1.0)
        assert np.all(np.diff(rule.nodes) > 0.0)

    def test_arrays_read_only(self):
        rule = gauss_jacobi_rule(2.0, 8)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0

    def test_matches_scipy_at_moderate_order(self):
        # scipy parametrizes the weight on [-1,1]; map and renormalize.
        eta, n = 2.5, 32
        x, w = roots_jacobi(n, eta - 1.0, 0.0)
        rule = gauss_jacobi_rule(eta, n)
        assert np.allclose(rule.nodes, (x + 1.0) / 2.0, atol=1e-12)
        assert np.allclose(rule.weights, w / w.sum(), atol=1e-12)


def _tridiagonal_rule(eta, order):
    """Golub-Welsch with scipy's tridiagonal eigensolver, for reference."""
    a = eta - 1.0
    k = np.arange(1, order)
    diag = np.concatenate(([-a / (a + 2.0)], -a * a / ((2 * k + a) * (2 * k + a + 2.0))))
    off = np.sqrt(4 * k**2 * (k + a) ** 2 / ((2 * k + a) ** 2 * ((2 * k + a) ** 2 - 1.0)))
    x, vectors = eigh_tridiagonal(diag, off)
    weights = vectors[0, :] ** 2
    return (x + 1.0) / 2.0, weights / weights.sum()


def _b0_rule(eta, order):
    """The Golub-Welsch rule for b = 0 as the recurrence was first written,
    before the general (a, b) form, solved with the same dense eigh."""
    a = eta - 1.0
    k = np.arange(1, order)
    diag = np.concatenate(([-a / (a + 2.0)], -a * a / ((2 * k + a) * (2 * k + a + 2.0))))
    off = np.sqrt(4 * k**2 * (k + a) ** 2 / ((2 * k + a) ** 2 * ((2 * k + a) ** 2 - 1.0)))
    x, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    weights = vectors[0, :] ** 2
    return (x + 1.0) / 2.0, weights / weights.sum()


class TestDenseEigensolver:
    @pytest.mark.parametrize("eta", [0.25, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.7, 5.0, 8.0])
    @pytest.mark.parametrize("order", [1, 2, 3, 8, 12, 16, 64, 128, 256])
    def test_general_recurrence_at_b0_is_bitwise_the_b0_rule(self, eta, order):
        # the paper's presets (integer gamma) use p = 1, so they must not move
        nodes, weights = _build_rule(eta, order)
        ref_nodes, ref_weights = _b0_rule(eta, order)
        assert nodes.tolist() == ref_nodes.tolist()
        assert weights.tolist() == ref_weights.tolist()

    @pytest.mark.parametrize("eta", [0.25, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("order", [1, 2, 8, 12, 64, 128, 256, 512])
    def test_matches_tridiagonal_reference(self, eta, order):
        nodes, weights = _build_rule(eta, order)
        ref_nodes, ref_weights = _tridiagonal_rule(eta, order)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(weights, ref_weights, rtol=0.0, atol=1e-15)

    def test_solver_failure_is_quadrature_error(self, monkeypatch):
        def fail(_matrix):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(QuadratureError):
            _build_rule.__wrapped__(2.0, 8)

    @pytest.mark.parametrize("eta", [1e-16, 1e-300])
    @pytest.mark.parametrize("order", [8, 16, 32, 64])
    def test_tiny_eta_is_quadrature_error(self, eta, order):
        # eta - 1 rounds to -1, and the recurrence divides 0 by 0: this used
        # to solve a matrix holding NaN or inf after a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="not finite"):
                gauss_jacobi_rule(eta, order)

    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_eta_rejected(self, eta):
        with pytest.raises(DomainError):
            gauss_jacobi_rule(eta, 8)
        with pytest.raises(DomainError):
            adaptive_reference(eta, lambda t: t, 1e-12)


class TestKernelRule:
    @pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0, 4.0])
    def test_integer_gamma_is_the_gauss_rule(self, gamma):
        rule = gauss_jacobi_rule(2.5, 64)
        points, weights = _kernel_rule(2.5, gamma, 64)
        assert points.tolist() == (rule.nodes**gamma).tolist()
        assert weights is rule.weights

    @pytest.mark.parametrize("eta", [0.25, 2.5])
    @pytest.mark.parametrize("p", [2, 5, 8])
    def test_graded_rule_matches_scipy(self, eta, p):
        # scipy's Gauss-Jacobi rule for b = p-1, mapped to u in [0,1], with
        # t = u^p and the factor (1+u+...+u^(p-1))^(eta-1) in the weights
        x, w = roots_jacobi(32, eta - 1.0, p - 1.0)
        u = (x + 1.0) / 2.0
        w = w * np.polynomial.polynomial.polyval(u, np.ones(p)) ** (eta - 1.0)
        nodes, weights = _build_rule(eta, 32, p)
        np.testing.assert_allclose(nodes, u**p, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(weights, w / w.sum(), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("eta", [0.25, 1.0, 5.0])
    @pytest.mark.parametrize("gamma", [0.3, 0.7, 1.5, 2.3, 6.5])
    @pytest.mark.parametrize("order", [1, 8, 64, 256])
    def test_graded_rule_is_a_probability_measure(self, eta, gamma, order):
        points, weights = _kernel_rule(eta, gamma, order)
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-14)
        assert np.all(weights > 0.0)
        assert np.all((points > 0.0) & (points < 1.0))
        assert np.all(np.diff(points) > 0.0)

    @pytest.mark.parametrize("eta", [0.5, 2.0])
    @pytest.mark.parametrize("gamma", [0.3, 1.3])
    def test_graded_rule_integrates_powers_of_t(self, eta, gamma):
        # t^k = u^(pk) is a polynomial in u, but the weights carry the
        # factor (1+u+...+u^(p-1))^(eta-1), so the rule is not exact; its
        # error at order 32 still sits at rounding level
        points, weights = _kernel_rule(eta, gamma, 32)
        t = points ** (1.0 / gamma)
        for k in range(8):
            assert weights @ t**k == pytest.approx(moment_coeff(eta, 1.0, k), rel=1e-14)

    @pytest.mark.parametrize("order", [0, 2.5, True])
    def test_order_checked(self, order):
        with pytest.raises(DomainError, match="order must be"):
            _kernel_rule(2.0, 0.5, order)


class TestExactness:
    def test_linear_moment(self):
        rule = gauss_jacobi_rule(2.0, 8)
        assert integrate(rule, lambda t: t) == pytest.approx(1.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0, 3.7])
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_polynomial_exactness(self, eta, order):
        # Degree up to 2*order-1 must integrate exactly; the reference
        # moment is eta * B(k+1, eta) from the closed-form coefficient.
        rule = gauss_jacobi_rule(eta, order)
        for k in range(2 * order):
            exact = moment_coeff(eta, 1.0, k)
            got = integrate(rule, lambda t, k=k: t**k)
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-15)

    def test_smooth_integrand_vs_adaptive(self):
        eta = 3.0
        rule = gauss_jacobi_rule(eta, 64)
        g = lambda t: math.sin(math.pi * t)
        got = integrate(rule, lambda t: np.sin(np.pi * t))
        ref = adaptive_reference(eta, g, 1e-13)
        assert got == pytest.approx(ref, abs=1e-12)

    def test_small_eta_smooth_integrand(self):
        eta = 0.4
        rule = gauss_jacobi_rule(eta, 96)
        got = integrate(rule, lambda t: np.cos(2.0 * np.pi * t))
        ref = adaptive_reference(eta, lambda t: math.cos(2.0 * math.pi * t), 1e-13)
        assert got == pytest.approx(ref, abs=1e-11)


class TestIntegrate:
    def test_scalar_only_callable(self):
        # g is called once with every node; what it raises reaches the
        # caller (a scalar-only integrand used to be retried node by node)
        rule = gauss_jacobi_rule(2.0, 16)

        def g(t):
            if isinstance(t, np.ndarray):
                raise TypeError("scalar only")
            return t * t

        with pytest.raises(TypeError, match="^scalar only$"):
            integrate(rule, g)

    def test_expression_and_constant_integrands(self):
        rule = gauss_jacobi_rule(2.0, 16)
        assert integrate(rule, parse_source("z^2")) == pytest.approx(moment_coeff(2.0, 1.0, 2), rel=1e-13)
        assert integrate(rule, lambda t: 3.0) == pytest.approx(3.0, rel=1e-15)

    @pytest.mark.parametrize("g", ["z", 2.0, None, lambda t: t[:2], lambda t: t + 1j])
    def test_bad_integrand_is_a_fracbk_error(self, g):
        with pytest.raises(DomainError if not callable(g) else EvaluationError):
            integrate(gauss_jacobi_rule(2.0, 8), g)

    def test_non_finite_values_rejected(self):
        rule = gauss_jacobi_rule(1.0, 8)
        with pytest.raises(QuadratureError):
            integrate(rule, lambda t: np.full_like(t, np.nan))


class TestAdaptiveReference:
    def test_singular_weight_linear(self):
        # eta=0.5 kernel is singular at t=1; the substitution removes it.
        assert adaptive_reference(0.5, lambda t: t, 1e-13) == pytest.approx(
            moment_coeff(0.5, 1.0, 1), abs=1e-12
        )

    def test_two_tolerance_self_consistency(self):
        g = lambda t: math.cos(2.0 * math.pi * t)
        v1 = adaptive_reference(2.0, g, 1e-10)
        v2 = adaptive_reference(2.0, g, 1e-13)
        assert v1 == pytest.approx(v2, abs=1e-9)

    def test_constant(self):
        assert adaptive_reference(3.2, lambda t: 1.0, 1e-13) == pytest.approx(1.0, abs=1e-13)

    def test_tolerance_floor(self):
        with pytest.raises(DomainError):
            adaptive_reference(1.0, lambda t: t, 1e-14)

    def test_invalid_eta(self):
        with pytest.raises(DomainError):
            adaptive_reference(0.0, lambda t: t, 1e-12)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tolerance_rejected(self, tol):
        # nan used to end in "refinement budget exceeded" (QuadratureError)
        with pytest.raises(DomainError, match="tol must be"):
            adaptive_reference(2.0, lambda t: t, tol)

    def test_budget_exceeded_on_noise(self):
        # A deterministic hash-valued integrand never smooths out, so the
        # subdivision depth budget must trip instead of looping forever.
        g = lambda t: float(hash(round(t, 12)) % 1000) / 1000.0
        with pytest.raises(QuadratureError):
            adaptive_reference(1.0, g, 1e-13)

    def test_non_finite_integrand(self):
        with pytest.raises(QuadratureError):
            adaptive_reference(1.0, lambda t: float("nan"), 1e-12)


def test_rule_cache_returns_consistent_values():
    r1 = gauss_jacobi_rule(2.0, 32)
    r2 = gauss_jacobi_rule(2.0, 32)
    assert np.array_equal(r1.nodes, r2.nodes)
    assert np.array_equal(r1.weights, r2.weights)
