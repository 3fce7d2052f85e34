import math

import numpy as np
import pytest

from fracbk import (
    DomainError,
    beta,
    binomial,
    log_binomial,
    log_gamma,
    moment_coeff,
)
from fracbk.specfun import LOG_ZERO


class TestLogGamma:
    def test_integer_argument(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)

    def test_half_argument(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)

    def test_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_nonpositive_rejected(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)

    @pytest.mark.parametrize("x", [math.nan, math.inf, 1e308])
    def test_non_finite_or_overflowing_rejected(self, x):
        # nan used to return nan and 1e308 to raise a raw OverflowError
        with pytest.raises(DomainError):
            log_gamma(x)

    def test_largest_argument(self):
        assert math.isfinite(log_gamma(2.5e305))


class TestBeta:
    def test_known_value(self):
        assert beta(2.5, 1.5) == pytest.approx(math.pi / 16.0, rel=1e-14)

    def test_symmetry(self, rng):
        a = rng.uniform(0.1, 10.0, size=50)
        b = rng.uniform(0.1, 10.0, size=50)
        for ai, bi in zip(a, b):
            assert beta(ai, bi) == pytest.approx(beta(bi, ai), rel=1e-14)

    def test_gamma_identity(self, rng):
        for _ in range(1000):
            a = float(rng.uniform(0.0, 10.0)) or 1e-3
            b = float(rng.uniform(0.0, 10.0)) or 1e-3
            if a <= 0.0 or b <= 0.0:
                continue
            expected = math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))
            assert beta(a, b) == pytest.approx(expected, rel=1e-13)


    @pytest.mark.parametrize("y, z", [(math.inf, 1.0), (1.0, math.nan), (0.0, 1.0)])
    def test_invalid_rejected(self, y, z):
        # beta(inf, 1) used to return nan
        with pytest.raises(DomainError):
            beta(y, z)


class TestBinomial:
    def test_small_coefficient(self):
        assert log_binomial(5, 2) == pytest.approx(math.log(10.0), rel=1e-14)
        assert binomial(5, 2) == pytest.approx(10.0, rel=1e-13)

    def test_out_of_range_is_log_zero(self):
        assert log_binomial(3, 5) == LOG_ZERO
        assert log_binomial(3, -1) == LOG_ZERO
        assert binomial(3, 5) == 0.0

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            log_binomial(-1, 0)

    @pytest.mark.parametrize("n, k", [(5.5, 2), (5, 2.5), (True, 0), (5, 2.0)])
    def test_non_integer_rejected(self, n, k):
        with pytest.raises(DomainError, match="must be an int"):
            binomial(n, k)

    def test_edges(self):
        assert log_binomial(7, 0) == pytest.approx(0.0, abs=1e-15)
        assert log_binomial(7, 7) == pytest.approx(0.0, abs=1e-15)

    def test_exact_below_60(self):
        # exp(log_binomial) gave binomial(2, 1) = 1.9999999999999993
        for n in range(60):
            for k in range(n + 1):
                assert binomial(n, k) == float(math.comb(n, k)), (n, k)

    @pytest.mark.parametrize("n, k", [(1030, 515), (2000, 1000), (10**300, 2), (10**300, 10**150)])
    def test_overflow_is_inf(self, n, k):
        # math.exp raised OverflowError; the last would not finish in math.comb
        assert binomial(n, k) == math.inf

    @pytest.mark.parametrize("n", [2**53, 10**300, 10**400])
    def test_log_of_n_past_2_53_rejected(self, n):
        # lgamma sees n + 1 as n (log_binomial(10**300, 1) was 0.0), and
        # 10**400 raised a raw OverflowError
        with pytest.raises(DomainError, match="n must be <="):
            log_binomial(n, 1)

    def test_log_below_2_53_without_cancellation(self):
        # the lgamma difference gave 64.0 here
        n = 2**53 - 1
        assert log_binomial(n, 1) == math.log(n)
        assert log_binomial(10**6, 3) == pytest.approx(math.log(math.comb(10**6, 3)), rel=1e-15)
        assert log_binomial(2000, 1000) == pytest.approx(math.log(math.comb(2000, 1000)), rel=1e-13)

    def test_huge_n_fits(self):
        # lgamma sees 10**300 + 1 as 10**300, so exp(log_binomial) gave 1.0
        assert binomial(10**300, 1) == 1e300
        assert binomial(10**400, 1) == math.inf  # was a raw OverflowError

    def test_pascal_row(self):
        row = [binomial(6, k) for k in range(7)]
        assert row == pytest.approx([1, 6, 15, 20, 15, 6, 1], rel=1e-12)


class TestMomentCoeff:
    def test_order_zero(self):
        assert moment_coeff(3.0, 2.0, 0) == pytest.approx(1.0, rel=1e-15)

    def test_simple_weight(self):
        assert moment_coeff(1.0, 1.0, 1) == pytest.approx(0.5, rel=1e-14)

    def test_first_order(self):
        assert moment_coeff(2.0, 4.0, 1) == pytest.approx(1.0 / 15.0, rel=1e-13)

    def test_second_order(self):
        assert moment_coeff(2.0, 4.0, 2) == pytest.approx(1.0 / 45.0, rel=1e-13)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            moment_coeff(2.0, 4.0, -1)

    @pytest.mark.parametrize(
        "eta, gamma, k",
        [(math.nan, 1.0, 1), (1.0, math.inf, 1), (1e308, 1.0, 1), (1.0, 1e308, 2), (1.0, 1.0, 1.5)],
    )
    def test_invalid_rejected(self, eta, gamma, k):
        # nan used to return nan, 1e308 to raise a raw OverflowError (and so
        # to crash `fracbk bounds --eta 1e308`), and gamma*k = inf to give nan
        with pytest.raises(DomainError):
            moment_coeff(eta, gamma, k)

    def test_bounded_on_random_draws(self, rng):
        for _ in range(200):
            eta = float(rng.uniform(0.05, 8.0))
            gamma = float(rng.uniform(0.05, 8.0))
            k = int(rng.integers(0, 6))
            c = moment_coeff(eta, gamma, k)
            assert 0.0 < c <= 1.0

    def test_decreasing_in_order(self, rng):
        for _ in range(100):
            eta = float(rng.uniform(0.2, 6.0))
            gamma = float(rng.uniform(0.2, 6.0))
            values = [moment_coeff(eta, gamma, k) for k in range(5)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_quadrature_moment_identity(self):
        # eta * integral of t^(gamma*k) * (1-t)^(eta-1) equals
        # eta * B(gamma*k + 1, eta), which the coefficient encodes.
        eta, gamma, k = 2.5, 3.0, 2
        expected = eta * beta(gamma * k + 1.0, eta)
        assert moment_coeff(eta, gamma, k) == pytest.approx(expected, rel=1e-13)
