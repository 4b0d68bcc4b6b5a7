"""Growth fitting, normalized-decay sequences, and the optimality report."""

import math

import pytest

from logmeans import (
    DegenerateProfile,
    Gauge,
    LacunaryExp,
    MeansProfile,
    SparseSeries,
    UNIFORM_CONSTANT,
    build_p_star,
    corollary_report,
    critical_radii_star,
    fit_exponent,
    little_o_check,
    mobius,
    parseval_means,
    validity_horizon,
)

PI = math.pi


def synthetic_profile(beta, c=3.0, count=12):
    radii = [1.0 - 2.0 ** -j for j in range(2, 2 + count)]
    values = [c * (1.0 - r) ** -beta for r in radii]
    return MeansProfile(tuple(radii), tuple(values), tuple(0.0 for _ in radii))


class TestFitExponent:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_synthetic_power_profiles(self, beta):
        fit = fit_exponent(synthetic_profile(beta))
        assert fit.slope == pytest.approx(beta, abs=1e-12)
        assert fit.residual < 1e-12

    def test_mobius_slope_near_one(self):
        radii = [1.0 - 2.0 ** -j for j in range(4, 15)]
        profile = parseval_means(mobius().log_taylor(2 ** 17), radii)
        fit = fit_exponent(profile)
        assert abs(fit.slope - 1.0) <= 0.02

    def test_star_slope_window(self):
        p = build_p_star(40)
        radii = critical_radii_star(35)[14:]  # k = 15..35
        profile = parseval_means(p.log_coeffs(2 ** 40), radii)
        fit = fit_exponent(profile)
        assert 1.6 <= fit.slope <= 2.0

    def test_degenerate_zero_values(self):
        profile = MeansProfile((0.3, 0.5, 0.7), (0.0, 1.0, 2.0), (0, 0, 0))
        with pytest.raises(DegenerateProfile):
            fit_exponent(profile)

    def test_degenerate_too_short(self):
        profile = MeansProfile((0.3, 0.5), (1.0, 2.0), (0, 0))
        with pytest.raises(DegenerateProfile):
            fit_exponent(profile)


class TestLittleO:
    def test_mobius_closed_form_algebra(self, dyadic_grid):
        profile = parseval_means(mobius().log_taylor(2 ** 17), dyadic_grid)
        seq = little_o_check(profile)
        for r, value in zip(dyadic_grid, seq):
            full = (1 - r) ** 2 * 8 * PI * r * r / (1 - r ** 4)
            assert value <= full * (1 + 1e-12)
        # strictly decreasing from r = 1/2 and vanishing at the far end
        assert all(a > b for a, b in zip(seq, seq[1:]))
        assert seq[-1] < 1e-4

    def test_constant_function(self):
        p = LacunaryExp(SparseSeries([]))
        profile = parseval_means(p.log_taylor(8), [0.3, 0.6, 0.9])
        assert little_o_check(profile) == [0.0, 0.0, 0.0]

    def test_truncated_star_eventually_decreases(self):
        p = build_p_star(20)
        radii = [1.0 - 2.0 ** -j for j in range(1, 31)]
        profile = parseval_means(p.log_coeffs(2 ** 20), radii)
        seq = little_o_check(profile)
        tail = seq[-6:]
        assert all(a > b for a, b in zip(tail, tail[1:]))

    def test_validity_horizon(self, dyadic_grid):
        # dense truncation at N = 2048 certifies radii with gap >> 1/N only
        profile = parseval_means(mobius().log_taylor(2048), dyadic_grid)
        horizon = validity_horizon(profile)
        assert 3 <= horizon < len(dyadic_grid)
        assert profile.tail_bounds[horizon] > profile.values[horizon]


class TestCorollaryReport:
    def test_full_suite_passes(self, certified_suite):
        phi = Gauge(1.9)
        from logmeans import build_p_phi, choose_schedule

        suite = certified_suite + [build_p_phi(choose_schedule(phi, 10))]
        report = corollary_report(suite, phi)
        parts = report.parts
        assert parts["uniform_bound"]["pass"] is True
        assert parts["little_o"]["pass"] is True
        assert parts["gauge_divergence"]["pass"] is True
        assert parts["least_exponent"]["pass"] is True
        assert parts["least_exponent"]["slope"] > 1.5

    def test_trivial_suite_marks_not_applicable(self):
        suite = [LacunaryExp(SparseSeries([]))]
        report = corollary_report(suite, Gauge(1.9))
        parts = report.parts
        assert parts["uniform_bound"]["pass"] is True
        assert parts["little_o"]["pass"] is True
        assert parts["gauge_divergence"]["status"] == "not_applicable"
        assert parts["least_exponent"]["status"] == "not_applicable"

    def test_halved_constant_fails_with_witness(self, certified_suite):
        report = corollary_report(
            certified_suite, Gauge(1.9), constant=UNIFORM_CONSTANT / 2
        )
        part = report.parts["uniform_bound"]
        assert part["pass"] is False
        assert part["margin"] < 0
        # the witness is found by the sweep, not assumed
        assert part["witness_function"]
        assert 0 < part["witness_radius"] < 1

    def test_report_deterministic(self, certified_suite):
        phi = Gauge(1.9)
        a = corollary_report(certified_suite, phi).to_json()
        b = corollary_report(certified_suite, phi).to_json()
        assert a == b and a.endswith("\n")

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError):
            corollary_report([], Gauge(1.0))
