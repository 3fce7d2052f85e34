import math
import tracemalloc

import numpy as np
import pytest

from fracbk import (
    DomainError,
    KernelIntegrals,
    OperatorParams,
    basis_matrix,
    basis_row,
    bernstein_row,
    error_table,
    operator_values,
    parse_source,
)
from fracbk import basis

from oracles import basis_weight


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
            {"alpha": float("nan")},
            {"m": np.float64(5.0)},
            {"m": 2**53},  # m + 1.0 would round
            {"s": np.bool_(True)},
            {"eta": True},  # built an operator with eta = 1
            {"gamma": np.bool_(True)},
            {"alpha": np.True_},  # said "alpha must be in [0, 1] and finite"
            {"alpha": False},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        base = {"m": 5, "eta": 1.0, "gamma": 1.0, "alpha": 0.5, "s": 2}
        base.update(kwargs)
        with pytest.raises(DomainError):
            OperatorParams(**base)

    def test_largest_exact_degree_accepted(self):
        assert OperatorParams(m=2**53 - 1, eta=1.0, gamma=1.0, alpha=0.5, s=2).m + 1.0 == 2.0**53

    def test_numpy_integers_accepted(self):
        p = OperatorParams(m=np.int64(10), eta=2.0, gamma=3.0, alpha=0.5, s=np.int32(2))
        plain = OperatorParams(m=10, eta=2.0, gamma=3.0, alpha=0.5, s=2)
        assert p == plain
        assert np.array_equal(basis_row(p, 0.3).weights, basis_row(plain, 0.3).weights)


def _mpmath_weights(n, z, j0, j1):
    """Bernstein weights of degree n at the float z for columns j0..j1,
    to 40 digits: the weight at j0 from mpmath's binomial, the rest by the
    exact ratios of neighbouring weights."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        z, w = mpmath.mpf(z), 1 - mpmath.mpf(z)
        weight = mpmath.binomial(n, j0) * z**j0 * w ** (n - j0)
        weights = [weight]
        for j in range(j0 + 1, j1 + 1):
            weight = weight * (n - j + 1) / j * z / w
            weights.append(weight)
        return weights


MPMATH_DEGREES = [1, 2, 10, 100, 1000, 10**4, 10**5, 10**6]


def _check_against_mpmath(n, z):
    """Every weight within 6 sd of the mode within 1e-13 relative of 40
    digits (5e-13 at n = 10**6), and the row's exact sum within 4 ulps of 1."""
    row = bernstein_row(n, z)
    mode, sd = min(math.floor((n + 1) * z), n), math.sqrt(n * z * (1.0 - z))
    j0, j1 = max(0, math.floor(mode - 6.0 * sd)), min(n, math.ceil(mode + 6.0 * sd))
    exact = _mpmath_weights(n, z, j0, j1)
    rel = max(float(abs(row[j] - ref) / ref) for j, ref in zip(range(j0, j1 + 1), exact))
    assert rel <= (1e-13 if n <= 10**5 else 5e-13), (z, rel)
    assert abs(math.fsum(row) - 1.0) <= 4.0 * np.spacing(1.0), z


class TestBernsteinRow:
    @pytest.mark.parametrize("z", [1e-300, 0.01, 0.1, 0.37, 0.5, 0.9, 1.0 - 1e-16])
    @pytest.mark.parametrize("n", MPMATH_DEGREES)
    def test_matches_mpmath_weights(self, n, z):
        _check_against_mpmath(n, z)

    @pytest.mark.parametrize("n", MPMATH_DEGREES)
    def test_matches_mpmath_weights_at_band_edges(self, n):
        for z in _band_edges(n):
            _check_against_mpmath(n, z)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            bernstein_row(-1, 0.5)

    def test_degree_past_exact_floats_rejected(self):
        # the walk computes n + 1.0; at n = 2**53 this spent seconds building
        # a table of log(k!) before it ran out of memory
        with pytest.raises(DomainError, match="n must be <="):
            bernstein_row(2**53, 0.5)

    @pytest.mark.parametrize("n", [2.5, 2.0, True])
    def test_degree_not_an_int(self, n):
        # 2.5 used to raise a raw IndexError and True a raw ValueError
        with pytest.raises(DomainError, match="n must be an int"):
            bernstein_row(n, 0.3)

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
            batched = basis_matrix(params, [0.0, z, 1.0])
            assert np.allclose(batched[1], scalar, atol=1e-13)
            assert np.allclose(batched[[0, 2]], [
                [basis_weight(params, j, e) for j in range(m + 1)] for e in (0.0, 1.0)
            ], atol=1e-13)

    @pytest.mark.parametrize("j", [1.5, 1.0, True])
    def test_weight_index_not_an_int(self, j):
        # 1.5 used to give a weight of 0.182
        with pytest.raises(DomainError, match="j must be an int"):
            basis_weight(make_params(4, 2, 0.5), j, 0.3)

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
        for z in (float("nan"), 1.5, -0.2):
            with pytest.raises(DomainError, match=r"z must lie in \[0, 1\], got"):
                basis_row(params, z)
            with pytest.raises(DomainError, match=r"z must lie in \[0, 1\], got"):
                basis_weight(params, 0, z)
            with pytest.raises(DomainError, match=f"got {z}$"):
                basis_matrix(params, [0.0, 0.3, z, 1.0])
        ki = KernelIntegrals(params, np.linspace(0.0, 1.0, 5))
        f = parse_source("z^2")
        with pytest.raises(DomainError, match="got nan$"):
            operator_values(ki, np.array([0.1, np.nan, 0.9]))
        with pytest.raises(DomainError, match="got nan$"):
            error_table(params, f, [0.2, float("nan")])
        with pytest.raises(DomainError, match="got 1.5$"):
            error_table(params, f, np.array([[0.2], [1.5]]))

    def test_row_is_one_row_of_basis_matrix(self):
        params = make_params(7, 3, 0.4)
        row = basis_row(params, 0.6)
        assert row.weights.shape == (8,)
        assert np.array_equal(row.weights, basis_matrix(params, [0.6])[0])


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
            W = basis_matrix(params, zs)
            assert W.shape == (zs.size, m + 1)
            assert np.all(W >= -1e-15)
            assert np.all(np.abs(W.sum(axis=1) - 1.0) <= 1e-12)


# The basis row assembled in place from one-point Bernstein rows, each
# walked alone.  Every block of basis_matrix, whatever its points, and every
# path to a row must give these rows bit for bit.
def _reference_basis_row(params, z):
    m, s, alpha = params.m, params.s, params.alpha
    if m < s:
        return bernstein_row(m, z)
    weights = alpha * bernstein_row(m, z)
    sub = bernstein_row(m - s, z)
    weights[s:] += (1.0 - alpha) * z * sub
    weights[: m - s + 1] += (1.0 - alpha) * (1.0 - z) * sub
    return weights


PARITY_POINTS = [0.0, 1.0, 1e-300, 1.0 - 1e-16, 1e-5, 0.1, 0.37, 0.5, 0.9, 0.999999]


def _band_edges(n):
    """Points one ulp either side of where the degree-n band, sqrt(400n) + 1
    either side of n*z, starts or stops reaching column 0 or n."""
    h = math.sqrt(400.0 * n) + 1.0
    edges = [e for c in (h / n, (h + 1.0) / n) for e in (c, 1.0 - c) if 0.0 < e < 1.0]
    return [p for e in edges for p in (math.nextafter(e, 0.0), math.nextafter(e, 1.0))]


class TestBasisMatrix:
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 15, 40, 90, 250, 1000, 1600, 1700, 10**4, 3 * 10**4,
                                   10**5, 2 * 10**5])
    def test_bitwise_equal_to_reference_rows(self, m):
        for s in (0, 1, 2, 3, 5, 9, 40, 300):
            points = PARITY_POINTS + _band_edges(max(m - s, 1))
            for alpha in (0.0, 0.35, 1.0):
                params = make_params(m, s, alpha)
                ref = np.array([_reference_basis_row(params, z) for z in points])
                assert np.array_equal(basis_matrix(params, points), ref)
                for z, row in zip(points, ref):
                    assert np.array_equal(basis_row(params, z).weights, row)
        # m < s: the classical rows, walked as one block
        points = PARITY_POINTS + _band_edges(m)
        ref = np.array([bernstein_row(m, z) for z in points])
        assert np.array_equal(basis_matrix(make_params(m, m + 1, 0.5), points), ref)

    @pytest.mark.parametrize("m", [1, 4, 15, 250, 1700, 4437, 87333])
    def test_basis_row_is_the_matrix_row(self, m):
        # basis_row takes its one-point block of _row_blocks; the matrix
        # copies the same block into its rows
        for s, alpha in ((0, 0.5), (2, 0.35), (3, 0.0), (m + 1, 0.9)):
            params = make_params(m, s, alpha)
            for z in (0.0, 1.0, 0.5, 1e-300, 0.3, 1.0 - 2.0**-53, 0.876):
                row = basis_row(params, z).weights
                assert row.shape == (m + 1,)
                assert row.tobytes() == basis_matrix(params, [z])[0].tobytes(), (s, alpha, z)

    @pytest.mark.parametrize("n", [1600, 1700, 3 * 10**4, 2 * 10**5])
    def test_reference_rows_vanish_outside_the_band(self, n):
        # each row is walked only near its mode, so it must hold exactly 0.0
        # beyond sqrt(400n) + 1 of n*z
        h = math.sqrt(400.0 * n) + 1.0
        zs = np.concatenate((np.linspace(0.0, 1.0, 41), _band_edges(n), [1e-300, 1.0 - 1e-16]))
        j = np.arange(n + 1)
        for z in zs.tolist():
            ref = bernstein_row(n, z)
            assert ref.shape == (n + 1,) and ref.any(), z
            assert not ref[np.abs(j - n * z) > h].any(), z
        # two points walk as each alone; two degrees walk together, one part
        # each, as each degree alone, and the smaller leaves its tail 0.0
        pair = np.array([0.25, 0.3])
        for d, k in enumerate((n, n // 2)):
            rows = basis._bernstein_rows((n, n // 2), pair[:, None], ((d, 0, 1.0),))
            assert rows.shape == (2, n + 1)
            assert np.array_equal(rows[:, : k + 1], np.array([bernstein_row(k, z) for z in (0.25, 0.3)]))
            assert not rows[:, k + 1 :].any()

    def test_bitwise_equal_on_many_points(self):
        # 2,502 points walked as one block (or as a few blocks) give the
        # rows each point gets alone
        rng = np.random.default_rng(7)
        zs = np.concatenate((rng.uniform(0.0, 1.0, 2000), rng.uniform(0.0, 1e-3, 500), [0.0, 1.0]))
        for m, s, alpha in ((40, 3, 0.35), (7, 0, 0.9), (5, 9, 0.5)):
            params = make_params(m, s, alpha)
            ref = np.array([_reference_basis_row(params, z) for z in zs.tolist()])
            assert np.array_equal(basis_matrix(params, zs), ref)

    def test_blocks_do_not_change_rows(self, monkeypatch):
        zs = np.linspace(0.0, 1.0, 37)
        params = make_params(12, 3, 0.4)
        whole = basis_matrix(params, zs)
        ki = KernelIntegrals(params, np.linspace(-1.0, 2.0, 13))
        values = operator_values(ki, zs)
        monkeypatch.setattr(basis, "_BLOCK_ELEMENTS", 40)  # three points per block
        assert np.array_equal(basis_matrix(params, zs), whole)
        assert np.allclose(operator_values(ki, zs), values, rtol=0.0, atol=1e-15)
        assert np.allclose(values, whole @ ki.values, rtol=0.0, atol=1e-15)

    def test_empty_and_scalar_points(self):
        params = make_params(6, 2, 0.5)
        assert basis_matrix(params, []).shape == (0, 7)
        assert np.array_equal(basis_matrix(params, 0.3), basis_matrix(params, [0.3]))
        assert operator_values(KernelIntegrals(params, np.ones(7)), []).shape == (0,)

    def test_operator_values_memory_is_blocked(self):
        # 51 points at m=1e5: the full basis matrix alone would take
        # 51 * 100001 * 8 B = 40.8 MB; blocks keep the peak at a few MB.
        params = OperatorParams(m=10**5, eta=2.0, gamma=4.0, alpha=0.9, s=3)
        ki = KernelIntegrals(params, np.linspace(-1.0, 1.0, params.m + 1))
        zs = np.linspace(0.0, 1.0, 51)
        tracemalloc.start()
        try:
            values = operator_values(ki, zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert values[0] == -1.0 and values[-1] == 1.0
        assert np.allclose(values[[10, 25]], [basis_row(params, z).weights @ ki.values
                                              for z in zs[[10, 25]]], rtol=0.0, atol=1e-14)
