import math

import pytest

from fracbk import DomainError, moment_coeff
from fracbk.specfun import _log_gamma

from oracles import adaptive_reference


class TestLogGamma:
    def test_integer_argument(self):
        assert _log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)

    def test_half_argument(self):
        assert _log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)

    def test_one(self):
        assert _log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_nonpositive_rejected(self, x):
        with pytest.raises(DomainError, match="log_gamma argument must be"):
            _log_gamma(x)

    @pytest.mark.parametrize("x", [math.nan, math.inf, 1e308])
    def test_non_finite_or_overflowing_rejected(self, x):
        # nan used to return nan and 1e308 to raise a raw OverflowError
        with pytest.raises(DomainError, match="log_gamma argument must be"):
            _log_gamma(x)

    def test_largest_argument(self):
        assert math.isfinite(_log_gamma(2.5e305))


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
        # the coefficient is eta * integral of t^(gamma*k) * (1-t)^(eta-1)
        for eta, gamma, k in [(2.5, 3.0, 2), (1.0, 1.0, 1), (0.5, 2.3, 1)]:
            expected = adaptive_reference(eta, lambda t: t ** (gamma * k), 1e-13)
            assert moment_coeff(eta, gamma, k) == pytest.approx(expected, rel=1e-13)
