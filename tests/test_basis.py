import math

import numpy as np
import pytest
from scipy.special import gammaln

from fracbk import DomainError, OperatorParams, basis_row, basis_weight, bernstein_row
from fracbk import basis


def make_params(m, s, alpha, eta=1.0, gamma=1.0):
    return OperatorParams(m=m, eta=eta, gamma=gamma, alpha=alpha, s=s)


class TestOperatorParams:
    def test_valid_construction(self):
        p = OperatorParams(m=10, eta=2.0, gamma=3.0, alpha=0.9, s=2)
        assert (p.m, p.eta, p.gamma, p.alpha, p.s) == (10, 2.0, 3.0, 0.9, 2)

    def test_integer_kernel_exponents_accepted(self):
        p = OperatorParams(m=10, eta=2, gamma=3, alpha=1, s=2)
        assert (p.eta, p.gamma, p.alpha) == (2, 3, 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0},
            {"m": -3},
            {"eta": 0.0},
            {"eta": -1.0},
            {"gamma": 0.0},
            {"alpha": -0.1},
            {"alpha": 1.5},
            {"s": -1},
            {"m": True},
            {"m": 10.5},
            {"s": False},
            {"s": 2.0},
            {"eta": float("nan")},
            {"eta": float("inf")},
            {"gamma": float("inf")},
            {"gamma": float("nan")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        base = {"m": 5, "eta": 1.0, "gamma": 1.0, "alpha": 0.5, "s": 2}
        base.update(kwargs)
        with pytest.raises(DomainError):
            OperatorParams(**base)


def _gammaln_row(n, z):
    """The Bernstein row as computed from scipy's gammaln, for reference."""
    j = np.arange(n + 1)
    logc = math.lgamma(n + 1) - gammaln(j + 1.0) - gammaln(n - j + 1.0)
    return np.exp(logc + j * math.log(z) + (n - j) * math.log1p(-z))


@pytest.fixture
def fresh_log_factorials(monkeypatch):
    """Start from a small log-factorial table so growth is exercised."""
    monkeypatch.setattr(basis, "_LOG_FACTORIAL", basis._LOG_FACTORIAL[:16].copy())


class TestLogFactorialRows:
    @pytest.mark.parametrize("n", [1, 2, 10, 250, 10**4, 10**5])
    @pytest.mark.parametrize("z", [1e-3, 0.1, 0.37, 0.5, 0.9, 0.999])
    def test_matches_gammaln_formula(self, n, z):
        # math.lgamma and gammaln may disagree by an ulp of log(k!), which is
        # an absolute error in the exponent and so a relative one in the
        # weight: up to 3 ulp of log(n!) (1e-10 relative at n=1e5).
        got = bernstein_row(n, z)
        ref = _gammaln_row(n, z)
        live = ref > 1e-300
        rel = np.abs(got[live] - ref[live]) / ref[live]
        assert np.max(rel) <= 1e-13 + 4.0 * np.spacing(math.lgamma(n + 1.0))
        assert np.all(got[~live] <= 1e-290)

    def test_table_entries_are_lgamma(self, fresh_log_factorials):
        table = basis._log_factorials(300)
        assert table.size >= 301
        assert all(table[k] == math.lgamma(k + 1.0) for k in range(table.size))

    def test_growth_order_does_not_change_rows(self, fresh_log_factorials):
        big = bernstein_row(10**5, 0.37)
        small = bernstein_row(10, 0.37)
        assert np.array_equal(bernstein_row(10**5, 0.37), big)
        basis._LOG_FACTORIAL = basis._LOG_FACTORIAL[:16].copy()
        assert np.array_equal(bernstein_row(10, 0.37), small)
        bernstein_row(5000, 0.37)
        assert np.array_equal(bernstein_row(10**5, 0.37), big)

    def test_growth_is_bounded_and_amortised(self, fresh_log_factorials):
        basis._log_factorials(20)
        assert basis._LOG_FACTORIAL.size == 32
        basis._log_factorials(100)
        assert basis._LOG_FACTORIAL.size == 101
        basis._log_factorials(10**5)
        assert basis._LOG_FACTORIAL.size == 10**5 + 1
        basis._log_factorials(10**5 + 1)
        assert basis._LOG_FACTORIAL.size == 2 * (10**5 + 1)

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            basis._log_factorials(10)[3] = 0.0

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            bernstein_row(-1, 0.5)


class TestBernsteinRow:
    def test_degree_zero(self):
        assert np.allclose(bernstein_row(0, 0.37), [1.0])

    def test_degree_one(self):
        assert np.allclose(bernstein_row(1, 0.3), [0.7, 0.3], atol=1e-15)

    def test_midpoint_degree_two(self):
        assert np.allclose(bernstein_row(2, 0.5), [0.25, 0.5, 0.25], atol=1e-15)

    def test_endpoints_exact(self):
        row0 = bernstein_row(8, 0.0)
        row1 = bernstein_row(8, 1.0)
        assert row0[0] == 1.0 and np.all(row0[1:] == 0.0)
        assert row1[-1] == 1.0 and np.all(row1[:-1] == 0.0)

    def test_partition_of_unity(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 60))
            z = float(rng.uniform(0.0, 1.0))
            assert np.sum(bernstein_row(n, z)) == pytest.approx(1.0, abs=1e-13)

    def test_large_degree_stable(self):
        row = bernstein_row(500, 0.37)
        assert np.all(np.isfinite(row))
        assert np.all(row >= 0.0)
        assert np.sum(row) == pytest.approx(1.0, abs=1e-12)


class TestBasisRow:
    def test_degree_below_shape_order_is_classical(self):
        # m < s leaves no room for the blended terms.
        row = basis_row(make_params(1, 3, 0.2), 0.3)
        assert np.allclose(row.weights, bernstein_row(1, 0.3), atol=1e-15)

    def test_shape_order_one_reduces_to_classical(self):
        row = basis_row(make_params(3, 1, 0.5), 0.25)
        expected = [27.0 / 64.0, 27.0 / 64.0, 9.0 / 64.0, 1.0 / 64.0]
        assert np.allclose(row.weights, expected, atol=1e-15)

    def test_alpha_one_reduces_to_classical(self, rng):
        for _ in range(25):
            m = int(rng.integers(1, 40))
            s = int(rng.integers(0, m + 3))
            z = float(rng.uniform(0.0, 1.0))
            row = basis_row(make_params(m, s, 1.0), z)
            assert np.allclose(row.weights, bernstein_row(m, z), atol=1e-13)

    def test_pure_blend_degree_two(self):
        row = basis_row(make_params(2, 2, 0.0), 0.4)
        assert np.allclose(row.weights, [0.6, 0.0, 0.4], atol=1e-15)

    def test_blend_midpoint_single_entry(self):
        assert basis_weight(make_params(2, 2, 1.0), 1, 0.5) == pytest.approx(0.5)

    def test_endpoint_rows(self):
        for m, s, alpha in [(6, 2, 0.3), (6, 4, 0.0), (9, 3, 0.8)]:
            w0 = basis_row(make_params(m, s, alpha), 0.0).weights
            w1 = basis_row(make_params(m, s, alpha), 1.0).weights
            assert w0[0] == pytest.approx(1.0, abs=1e-14)
            assert np.allclose(w0[1:], 0.0, atol=1e-14)
            assert w1[-1] == pytest.approx(1.0, abs=1e-14)
            assert np.allclose(w1[:-1], 0.0, atol=1e-14)

    def test_matches_scalar_weights(self, rng):
        for _ in range(30):
            m = int(rng.integers(1, 35))
            s = int(rng.integers(0, m + 3))
            alpha = float(rng.uniform(0.0, 1.0))
            z = float(rng.uniform(0.0, 1.0))
            params = make_params(m, s, alpha)
            row = basis_row(params, z)
            scalar = [basis_weight(params, j, z) for j in range(m + 1)]
            assert np.allclose(row.weights, scalar, atol=1e-13)

    def test_weight_index_out_of_range(self):
        params = make_params(4, 2, 0.5)
        with pytest.raises(DomainError):
            basis_weight(params, 5, 0.3)
        with pytest.raises(DomainError):
            basis_weight(params, -1, 0.3)

    def test_point_out_of_range(self):
        params = make_params(4, 2, 0.5)
        with pytest.raises(DomainError):
            basis_row(params, 1.5)
        with pytest.raises(DomainError):
            basis_weight(params, 0, -0.2)

    def test_row_metadata(self):
        row = basis_row(make_params(7, 3, 0.4), 0.6)
        assert row.degree == 7
        assert row.point == 0.6
        assert row.weights.shape == (8,)


# Partition of unity and pointwise non-negativity, swept over a sampled
# grid of degrees and shape orders.  Small degrees are covered densely;
# larger ones use a fixed subset of shape orders.
SMALL_DEGREES = list(range(1, 26))
LARGE_DEGREES = [40, 60, 90, 131, 200]
ALPHAS = [0.0, 0.25, 0.75, 1.0]


def _shape_orders(m):
    if m <= 25:
        return range(0, m + 3)
    candidates = {0, 1, 2, 3, 5, 8, 13, 21, m - 1, m, m + 1, m + 2}
    return sorted(c for c in candidates if c >= 0)


@pytest.mark.parametrize("m", SMALL_DEGREES + LARGE_DEGREES)
def test_partition_and_nonnegativity(m):
    zs = np.linspace(0.0, 1.0, 101)
    for s in _shape_orders(m):
        for alpha in ALPHAS:
            params = make_params(m, s, alpha)
            for z in zs:
                w = basis_row(params, float(z)).weights
                assert np.all(w >= -1e-15)
                assert abs(np.sum(w) - 1.0) <= 1e-12
