"""Means computations against the closed form of the Mobius example, the
cross-method identity, the coefficient-sum ceiling, and the tail machinery."""

import math

import numpy as np
import pytest

from logmeans import (
    DenseSeries,
    Herglotz,
    LacunaryExp,
    MeansProfile,
    RadiusOutOfRange,
    SparseSeries,
    UNIFORM_CONSTANT,
    geometric_radii,
    mobius,
    parseval_means,
    quadrature_means,
    tail_bound,
)
from logmeans.cli import MAX_TRUNC
from logmeans.means import fft_length, parseval_log_value_at_inv_n

PI = math.pi

# Oracle (mpmath, 50 digits): 2*pi*sum_{j<=30} 4^(j-1)/j^4 * exp(-2^(j-4)),
# the 30-term dyadic series at r = exp(-2^-5).
STAR30_AT_R5 = 8.541696161679595798876
STAR30_FLOOR_R5 = 0.3482978972365916802573


def mobius_closed_form(r):
    return 8.0 * PI * r * r / (1.0 - r ** 4)


def star_series(k_max):
    return SparseSeries([(2 ** k, 0.5j / k ** 2) for k in range(1, k_max + 1)])


class TestParseval:
    def test_mobius_against_closed_form(self):
        f = mobius().log_taylor(2048)
        profile = parseval_means(f, [0.5])
        exact = mobius_closed_form(0.5)
        assert profile.values[0] == pytest.approx(exact, rel=1e-13)
        assert profile.tail_bounds[0] < 1e-300

    def test_zero_series(self):
        profile = parseval_means(DenseSeries(np.zeros(16)), [0.2, 0.5, 0.8])
        assert profile.values == (0.0, 0.0, 0.0)

    def test_sparse_dyadic_at_adapted_radius(self):
        r5 = math.exp(-(2.0 ** -5))
        profile = parseval_means(star_series(30), [r5])
        assert profile.values[0] >= STAR30_FLOOR_R5
        assert profile.values[0] == pytest.approx(STAR30_AT_R5, rel=1e-12)

    def test_radius_validation(self):
        f = mobius().log_taylor(16)
        with pytest.raises(RadiusOutOfRange):
            parseval_means(f, [0.5, 1.0])
        with pytest.raises(ValueError):
            parseval_means(f, [0.5, 0.5])

    def test_monotone_in_radius(self):
        p = Herglotz([(0.4, 0.8), (2.2, 1.3)])
        profile = parseval_means(p.log_taylor(256), geometric_radii(0.3, 0.5, 12))
        assert all(a <= b for a, b in zip(profile.values, profile.values[1:]))

    def test_log_variant_matches_direct(self):
        f = star_series(12)
        for n in (3, 10, 1000, 10 ** 9):
            direct = f.parseval_value(1.0 / n)
            via_log = math.exp(parseval_log_value_at_inv_n(f, n))
            assert via_log == pytest.approx(direct, rel=1e-12)


class TestTailBound:
    def test_flag_value_where_terms_still_grow(self):
        # n^2 r^(2n) keeps growing when (N+1)*log(1/r) <= 1
        assert tail_bound(4, 0.1) == math.inf

    def test_formula(self):
        s = 0.25
        expected = PI ** 3 * 101 ** 2 * math.exp(-2 * s * 101)
        assert tail_bound(100, s) == pytest.approx(expected, rel=1e-12)

    def test_covers_truncation_error(self):
        # exact mobius means minus a short truncation stays under the bound;
        # N = 8 keeps the truncation error far above float noise
        f = mobius().log_taylor(8)
        for r in (0.3, 0.5, 0.6):
            profile = parseval_means(f, [r])
            err = mobius_closed_form(r) - profile.values[0]
            assert 0.0 < err <= profile.tail_bounds[0]


class TestQuadrature:
    def test_mobius_cross_method(self):
        p = mobius()
        quad = quadrature_means(p.log_taylor(1024), [0.5], 4096)
        pv = parseval_means(p.log_taylor(1024), [0.5])
        assert quad[0] == pytest.approx(pv.values[0], rel=1e-12)

    def test_constant_function(self):
        p = LacunaryExp(SparseSeries([]))
        quad = quadrature_means(p.log_taylor(8), [0.3, 0.6], 64)
        assert quad == (0.0, 0.0)

    def test_herglotz_two_atom(self):
        p = Herglotz([(0.0, 0.5), (math.pi, 0.5)])
        quad = quadrature_means(p.log_taylor(512), [0.5], 1025)
        pv = parseval_means(p.log_taylor(512), [0.5])
        assert quad[0] == pytest.approx(pv.values[0], rel=1e-10)

    def test_exactness_at_minimal_points(self):
        # z*F' has frequencies 1..N, so M = N+1 samples alias none of them
        f = mobius().log_taylor(128)
        small = quadrature_means(f, [0.6], 128 + 1)
        large = quadrature_means(f, [0.6], 4096)
        assert small[0] == pytest.approx(large[0], rel=1e-13)

    def test_fft_length_is_smallest_five_smooth(self):
        # trial division marks every 5-smooth m up to 2^17, which holds the
        # answer for every n <= 70,000; a backward sweep gives the next >= n
        limit = 70_000
        assert MAX_TRUNC + 1 <= limit
        top = 2 ** 17
        smooth = []
        for m in range(1, top + 1):
            for prime in (2, 3, 5):
                while m % prime == 0:
                    m //= prime
            smooth.append(m == 1)
        expected = [top] * (top + 1)
        for m in range(top - 1, 0, -1):
            expected[m] = m if smooth[m - 1] else expected[m + 1]
        assert [fft_length(n) for n in range(1, limit + 1)] == expected[1:limit + 1]

    def test_too_few_points_rejected(self):
        # below N+1 points the zero-padded FFT would drop coefficients
        f = mobius().log_taylor(128)
        with pytest.raises(ValueError):
            quadrature_means(f, [0.6], 128)
        assert quadrature_means(f, [0.6], 129)[0] > 0.0


class TestH2Sum:
    def test_mobius_partial(self):
        # 4 * sum of 1/n^2 over odd n <= N approaches pi^2/2 from below
        f = mobius().log_taylor(10 ** 4)
        total = f.h2_sum()
        assert total < PI ** 2 / 2
        assert PI ** 2 / 2 - total == pytest.approx(2e-4, rel=0.01)

    def test_zero(self):
        assert DenseSeries([0.0]).h2_sum() == 0.0
        assert SparseSeries([]).h2_sum() == 0.0

    def test_star_equals_zeta4_quarter(self):
        # partial sum of (1/4)*zeta(4) with integral tail bound 1/(12*K^3)
        total = star_series(60).h2_sum()
        assert total < PI ** 4 / 360.0 < total + 1.0 / (12.0 * 59 ** 3)

    def test_suite_under_ceiling(self, certified_suite):
        for p in certified_suite:
            f = p.log_coeffs(512)
            assert f.h2_sum() <= PI ** 2 / 2 + 1e-12


class TestClassBounds:
    def test_uniform_bound_over_suite(self, certified_suite, dyadic_grid):
        for p in certified_suite:
            f = p.log_coeffs(2048)
            profile = parseval_means(f, dyadic_grid)
            for r, value, tail in zip(dyadic_grid, profile.values, profile.tail_bounds):
                assert (1 - r) ** 2 * value <= UNIFORM_CONSTANT + tail

    def test_per_term_bound(self):
        # (1-r)^2 n^2 r^(2n) <= e^-2 everywhere
        sup = math.exp(-2.0)
        radii = np.concatenate(
            [np.linspace(0.001, 0.999, 999), 1.0 - np.logspace(-10, -3, 50)]
        )
        for n in range(1, 401):
            values = (1.0 - radii) ** 2 * n ** 2 * radii ** (2 * n)
            assert values.max() <= sup + 1e-15

    def test_cross_method_identity_over_suite(self, certified_suite):
        for p in certified_suite:
            trunc = 256
            if isinstance(p.log_coeffs(trunc), SparseSeries):
                continue  # dense materialization covered separately
            radii = [0.3, 0.6, 0.9]
            pv = parseval_means(p.log_taylor(trunc), radii)
            quad = quadrature_means(p.log_taylor(trunc), radii, 2 * trunc + 1)
            for a, b in zip(pv.values, quad):
                assert abs(a - b) / max(a, 1e-30) < 1e-9


class TestGrids:
    def test_geometric_radii(self):
        grid = geometric_radii(0.5, 0.5, 20)
        assert grid[0] == 0.5
        assert grid[-1] == 1.0 - 2.0 ** -20
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_geometric_validation(self):
        with pytest.raises(RadiusOutOfRange):
            geometric_radii(1.5, 0.5, 3)
        with pytest.raises(ValueError):
            geometric_radii(0.5, 1.5, 3)

    def test_geometric_stall(self):
        # 1 - 0.5*factor rounds back to 0.5: the grid would repeat a radius
        with pytest.raises(RadiusOutOfRange, match="stalled"):
            geometric_radii(0.5, 0.9999999999999999, 2)

    def test_profile_invariants(self):
        with pytest.raises(RadiusOutOfRange):
            MeansProfile((0.5, 1.5), (1.0, 1.0), (0.0, 0.0))
        with pytest.raises(ValueError):
            MeansProfile((0.5, 0.4), (1.0, 1.0), (0.0, 0.0))
        with pytest.raises(ValueError):
            MeansProfile((0.5,), (-1.0,), (0.0,))
