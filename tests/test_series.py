"""Series arithmetic against independent oracles: binomial and Mercator
expansions, factorial reciprocals, extended-precision sparse sums, and the
exp/log round-trip identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logmeans import (
    DenseSeries,
    NearZeroConstantTerm,
    OutsideDisc,
    SparseSeries,
    evaluate,
    exp_series,
    log_series,
)

# Oracle (mpmath, 60 digits): (i/2) * sum_{k<=30} 0.9^(2^k) / k^2.
F_STAR_AT_09 = 0.5174211592951295290948963j


class TestLogSeries:
    def test_mercator(self):
        p = DenseSeries([1, 1]).dense(5)
        out = log_series(p)
        expected = [0] + [(-1) ** (n + 1) / n for n in range(1, 6)]
        assert np.allclose(out.coeffs, expected, atol=1e-15)

    def test_constant(self):
        out = log_series(DenseSeries([2.0 + 1.0j]))
        assert out.coeffs.tolist() == [pytest.approx(np.log(abs(2 + 1j)) + 1j * np.angle(2 + 1j))]

    def test_mobius_log(self):
        # log((1+z)/(1-z)) has coefficients 2/n at odd n, 0 at even n
        coeffs = np.full(10, 2.0)
        coeffs[0] = 1.0
        out = log_series(DenseSeries(coeffs))
        expected = np.zeros(10)
        expected[1::2] = 2.0 / np.arange(1, 10, 2)
        assert np.allclose(out.coeffs, expected, atol=1e-14)

    def test_near_zero_constant_term(self):
        with pytest.raises(NearZeroConstantTerm):
            log_series(DenseSeries([0.0, 1.0]))


class TestExpSeries:
    def test_exp_zero(self):
        out = exp_series(DenseSeries(np.zeros(6)))
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.allclose(out.coeffs, expected)

    def test_exp_z(self):
        out = exp_series(DenseSeries([0, 1]).dense(4))
        assert np.allclose(out.coeffs, [1, 1, 0.5, 1 / 6, 1 / 24])

    def test_exp_log_round_trip_mobius(self):
        coeffs = np.full(65, 2.0 + 0j)
        coeffs[0] = 1.0
        p = DenseSeries(coeffs)
        back = exp_series(log_series(p))
        assert np.max(np.abs(back.coeffs - p.coeffs)) < 1e-12

    @pytest.mark.parametrize("degree", [64, 256, 1024])
    def test_exp_log_round_trip_scaled_bound(self, degree):
        # per-coefficient error within N*eps*max|b| on inputs whose log stays
        # bounded (sum of |b_n| over n >= 1 below 1, as for every certified
        # construction); series with zeros inside the disc are out of scope
        # because their log coefficients grow geometrically
        eps = np.finfo(float).eps
        for seed in range(3):
            rng = np.random.default_rng(seed)
            b = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            b[0] = 0.0
            b *= 0.8 / np.sum(np.abs(b))
            b[0] = 1.0
            p = DenseSeries(b)
            back = exp_series(log_series(p))
            err = np.max(np.abs(back.coeffs - p.coeffs))
            assert err <= degree * eps * np.max(np.abs(p.coeffs))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(4, 96), st.integers(0, 2 ** 32 - 1))
    def test_log_exp_round_trip_random(self, degree, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        total = np.sum(np.abs(a))
        if total > 0:
            a = a / total  # keep sum of |a_n| <= 1 so exp stays tame
        f = DenseSeries(a)
        back = log_series(exp_series(f), branch_base=complex(a[0]))
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-10


class TestDensify:
    def test_placement(self):
        out = SparseSeries([(2, 0.5j)]).dense(4)
        assert out.coeffs.tolist() == [0, 0, 0.5j, 0, 0]

    def test_dyadic_exponents(self):
        s = SparseSeries([(2 ** k, 0.5j / k ** 2) for k in range(1, 31)])
        out = s.dense(16)
        nonzero = np.nonzero(out.coeffs)[0].tolist()
        assert nonzero == [2, 4, 8, 16]

    def test_empty(self):
        out = SparseSeries([]).dense(3)
        assert out.coeffs.tolist() == [0, 0, 0, 0]


class TestEvaluate:
    def test_partial_geometric(self):
        assert evaluate(DenseSeries([1, 1, 1]), 0.5) == pytest.approx(1.75)

    def test_center_value(self):
        assert evaluate(DenseSeries([2.5, 9, 9]), 0) == 2.5
        assert evaluate(SparseSeries([(5, 1j)]), 0) == 0

    def test_sparse_extended_precision_oracle(self):
        s = SparseSeries([(2 ** k, 0.5j / k ** 2) for k in range(1, 31)])
        got = evaluate(s, 0.9)
        assert abs(got - F_STAR_AT_09) < 1e-15

    def test_outside_disc(self):
        with pytest.raises(OutsideDisc):
            evaluate(DenseSeries([1, 1]), 1.0 + 1e-9)
        with pytest.raises(OutsideDisc):
            evaluate(SparseSeries([(1, 1)]), 2.0)

    def test_densify_consistency(self):
        s = SparseSeries([(1, 0.3), (4, -0.2j), (9, 0.1 + 0.1j), (40, 1.0)])
        for z in (0.35, -0.8, 0.6 + 0.6j):
            dense_val = evaluate(s.dense(16), z)
            sparse_val = evaluate(SparseSeries([t for t in s.terms if t[0] <= 16]), z)
            assert abs(dense_val - sparse_val) <= 1e-14 * max(1.0, abs(dense_val))


class TestValidation:
    def test_zero_coefficients_dropped(self):
        s = SparseSeries([(1, 0.0), (3, 2.0)])
        assert s.terms == ((3, 2.0 + 0j),)

    def test_exponent_order_enforced(self):
        with pytest.raises(ValueError):
            SparseSeries([(3, 1.0), (2, 1.0)])
        with pytest.raises(ValueError):
            SparseSeries([(0, 1.0)])

    def test_dense_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DenseSeries([1.0, math.inf])

    def test_dense_immutable(self):
        s = DenseSeries([1.0, 2.0])
        with pytest.raises((ValueError, AttributeError)):
            s.coeffs[0] = 5.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_resized_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        s = DenseSeries(rng.standard_normal(12))
        assert s.dense(20).dense(11) == s
