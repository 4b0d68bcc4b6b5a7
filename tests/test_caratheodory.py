"""Constructor contracts: closed-form coefficients, certification routes,
rotation covariance, and the advisory positivity grid."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logmeans import (
    HerglotzSpec,
    ImaginaryBoundViolated,
    InvalidMeasure,
    SparseSeries,
    certify_numeric,
    evaluate,
    from_herglotz,
    from_lacunary,
    mobius,
    parse_function_spec,
)
from logmeans.caratheodory import (
    ByConstruction,
    ByImaginaryBound,
    CaratheodoryFunction,
    Herglotz,
)


def star_series(k_max):
    return SparseSeries([(2 ** k, 0.5j / k ** 2) for k in range(1, k_max + 1)])


class TestMobius:
    def test_point_values(self):
        p = mobius()
        assert p(0) == 1
        assert p(0.5) == pytest.approx(3.0)

    def test_log_coefficient(self):
        a = mobius().log_taylor(5).coeffs
        assert a[3] == pytest.approx(2.0 / 3.0)
        assert a[0] == 0 and a[2] == 0

    def test_certificate(self):
        assert isinstance(mobius().certificate, ByConstruction)


class TestHerglotz:
    def test_single_atom_matches_mobius(self):
        p = from_herglotz(HerglotzSpec([(0.0, 1.0)]))
        assert np.array_equal(p.taylor(32).coeffs, mobius().taylor(32).coeffs)

    def test_two_atoms(self):
        # equal atoms at 1 and -1 average to (1+z^2)/(1-z^2)
        p = from_herglotz(HerglotzSpec([(0.0, 0.5), (math.pi, 0.5)]))
        b = p.taylor(10).coeffs
        assert b[0] == pytest.approx(1.0)
        assert np.allclose(b[2::2], 2.0, atol=1e-12)
        assert np.allclose(b[1::2], 0.0, atol=1e-12)
        z = 0.4 + 0.3j
        assert p(z) == pytest.approx((1 + z * z) / (1 - z * z))

    def test_invalid_weight(self):
        with pytest.raises(InvalidMeasure):
            HerglotzSpec([(0.0, -1.0)])
        with pytest.raises(InvalidMeasure):
            HerglotzSpec([])
        with pytest.raises(InvalidMeasure):  # total mass overflows
            HerglotzSpec([(0.5, 1e308), (2.5, 1e308)])
        with pytest.raises(InvalidMeasure):
            HerglotzSpec([(math.inf, 1.0)])
        with pytest.raises(InvalidMeasure):
            HerglotzSpec([(0.0, 1.0)], im_p0=math.nan)

    def test_coefficient_bound(self):
        spec = HerglotzSpec([(0.1, 0.7), (2.5, 1.1), (5.0, 0.2)], im_p0=-0.4)
        p = from_herglotz(spec)
        b = p.taylor(64).coeffs
        assert np.all(np.abs(b[1:]) <= 2.0 * spec.total_mass + 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-math.pi, math.pi))
    def test_rotation_covariance(self, phi):
        # relative to the coefficient scale 2*total_mass; per-coefficient
        # relative error is not meaningful where atoms nearly cancel
        atoms = [(0.3, 1.2), (2.0, 0.4), (4.4, 0.9)]
        spec = HerglotzSpec(atoms)
        base = from_herglotz(spec).taylor(32).coeffs
        rotated = from_herglotz(
            HerglotzSpec([(t + phi, w) for t, w in atoms])
        ).taylor(32).coeffs
        n = np.arange(33)
        expected = base * np.exp(-1j * n * phi)
        expected[0] = base[0]
        scale = 2.0 * spec.total_mass
        assert np.max(np.abs(rotated - expected)) < 1e-13 * scale


class TestLacunary:
    def test_star_certificate_bound(self):
        p = from_lacunary(star_series(30))
        bound = p.certificate.bound
        assert bound == pytest.approx(0.5 * sum(1 / k ** 2 for k in range(1, 31)))
        assert bound <= math.pi ** 2 / 12 < math.pi / 2

    def test_violation(self):
        with pytest.raises(ImaginaryBoundViolated):
            from_lacunary(SparseSeries([(1, 2j)]))

    def test_empty_is_one(self):
        p = from_lacunary(SparseSeries([]))
        assert p.certificate == ByImaginaryBound(0.0)
        assert p(0.7j) == pytest.approx(1.0)
        t = p.taylor(5).coeffs
        assert t[0] == pytest.approx(1.0) and np.allclose(t[1:], 0.0)

    def test_sampled_imaginary_part_within_bound(self):
        f = star_series(30)
        p = from_lacunary(f)
        bound = p.certificate.bound
        for r in (0.2, 0.7, 0.95, 1.0):
            for j in range(16):
                z = r * cmath.exp(2j * math.pi * j / 16)
                assert abs(evaluate(f, z).imag) <= bound + 1e-9

    def test_log_taylor_is_densified_series(self):
        p = from_lacunary(star_series(5))
        dense = p.log_taylor(40).coeffs
        assert dense[2] == 0.5j and dense[32] == pytest.approx(0.5j / 25)
        assert np.count_nonzero(dense) == 5


class TestCertifyNumeric:
    def test_mobius_grid(self):
        report = certify_numeric(mobius(), 50, 256)
        assert report.passed and report.min_re > 0
        # worst point sits at the outer radius, opposite the boundary pole
        assert report.argmin_radius == pytest.approx(0.999)
        assert abs(report.argmin_theta - math.pi) < 2 * math.pi / 256 + 1e-12
        expected = (1 - 0.999 ** 2) / abs(1 - 0.999 * cmath.exp(1j * report.argmin_theta)) ** 2
        assert report.min_re == pytest.approx(expected, rel=1e-12)

    def test_constant_one(self):
        report = certify_numeric(from_lacunary(SparseSeries([])), 3, 8)
        assert report.min_re == pytest.approx(1.0)

    def test_lacunary_grid(self):
        report = certify_numeric(from_lacunary(star_series(30)), 20, 128)
        assert report.passed and report.min_re > 0

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            certify_numeric(mobius(), 0, 4)


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "mobius"},
            {
                "type": "herglotz",
                "atoms": [{"theta": 0.25, "weight": 1.5}, {"theta": 3.0, "weight": 0.5}],
                "im_p0": -0.2,
            },
            {
                "type": "lacunary",
                "terms": [
                    {"exponent": 2, "re": 0.0, "im": 0.5},
                    {"exponent": 7, "re": 0.1, "im": -0.1},
                ],
            },
            {"type": "theorem2_star", "k_max": 8},
            {"type": "theorem3_gauge", "gauge": "pow:1.0", "k_max": 5},
        ],
    )
    def test_emitted_spec_reparses_equivalent(self, spec):
        p = parse_function_spec(spec)
        again = parse_function_spec(p.spec_dict)
        assert np.allclose(
            p.log_taylor(64).coeffs, again.log_taylor(64).coeffs, atol=1e-15
        )

    def test_spec_is_required(self):
        construction = Herglotz(HerglotzSpec([(0.0, 1.0)]))
        with pytest.raises(TypeError, match="spec_dict"):
            CaratheodoryFunction(construction, ByConstruction())
