"""Growth fitting, normalized-decay sequences, the constructions' decay
bounds, and the optimality report."""

import cmath
import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from logmeans import (
    DegenerateProfile,
    DenseSeries,
    Gauge,
    Herglotz,
    LacunaryExp,
    MeansProfile,
    SparseSeries,
    UNIFORM_CONSTANT,
    build_p_star,
    corollary_report,
    critical_radii_star,
    fit_exponent,
    mobius,
    parse_function_spec,
    parseval_means,
)
from logmeans.analysis import DECAY_SLACK
from logmeans.cli import canonical_suite
from oracles import (
    kernel_decay_bound,
    kernel_means,
    lacunary_decay_bound,
    parseval_oracle,
)

PI = math.pi
GOLDEN_REPORT = Path(__file__).resolve().parent / "golden" / "report.json"

# 20 radii 1 - 2^-j, j = 1, 3, ..., 39
DEEP_RADII = [1.0 - 2.0 ** -j for j in range(1, 40, 2)]

# SHA-256 of the report text under Gauge(1.5) on suites the golden report
# does not reach.  Never regenerated: a new digest is a changed report.
EDGE_SUITES = {
    # no radius has a finite tail
    "no_finite_tail": (
        lambda: [LacunaryExp(SparseSeries([]))],
        "fe5f65ef870c4b514d97763f1ca249d1d1be819def255d973fe39edb260a54a0",
    ),
    # two members tie on part (i)
    "tie": (
        lambda: [mobius(), mobius()],
        "139afc84b0edfcb0407ddc5f23204056d05188fcacef5ac9abccaa03fa390146",
    ),
    # parts (iii) and (iv) not applicable
    "short_star": (
        lambda: [build_p_star(4)],
        "2579c1bb0c1e6ce7d0a43ce4dd4f65fd284181db62f6de6d258f17871af6680a",
    ),
    "gauge_member": (
        lambda: [
            parse_function_spec(
                {"type": "theorem3_gauge", "gauge": "pow:1.5", "k_max": 3}
            )
        ],
        "076b2e838882547b7001d741159a33b45d188ec8026844b965f412d08da162fd",
    ),
    "star_and_mobius": (
        lambda: [build_p_star(30), mobius()],
        "705a69260bf6e4b30a96920623e289794c59e7dbd2572acc8df7777e47ef337c",
    ),
}


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
        seq = [(1 - r) ** 2 * v for r, v in zip(dyadic_grid, profile.values)]
        for r, value in zip(dyadic_grid, seq):
            full = (1 - r) ** 2 * 8 * PI * r * r / (1 - r ** 4)
            assert value <= full * (1 + 1e-12)
        # strictly decreasing from r = 1/2 and vanishing at the far end
        assert all(a > b for a, b in zip(seq, seq[1:]))
        assert seq[-1] < 1e-4

    def test_truncated_star_eventually_decreases(self):
        p = build_p_star(20)
        radii = [1.0 - 2.0 ** -j for j in range(1, 31)]
        profile = parseval_means(p.log_coeffs(2 ** 20), radii)
        seq = [(1 - r) ** 2 * v for r, v in zip(radii, profile.values)]
        tail = seq[-6:]
        assert all(a > b for a, b in zip(tail, tail[1:]))


class TestDecayBound:
    """Each construction's closed-form bound on (1-r)^2 * means holds for the
    40-digit means and for the computed ones, and agrees with its formula at
    40 digits."""

    def test_kernel_sums(self):
        rng = random.Random(26)
        for _ in range(200):
            p = Herglotz(
                [
                    (rng.uniform(0.0, 2.0 * PI), math.exp(rng.uniform(-2.3, 2.3)))
                    for _ in range(rng.randint(1, 4))
                ],
                rng.uniform(-1.0, 1.0),
            )
            exact = [float(v) for v in kernel_means(p, DEEP_RADII)]
            computed = parseval_means(p.log_coeffs(256), DEEP_RADII).values
            # at r = 1/2 the truncation past degree 256 is below 2^-500
            assert math.isclose(computed[0], exact[0], rel_tol=1e-13)
            for r, x, v in zip(DEEP_RADII, exact, computed):
                bound = p.decay_bound(r)
                want = float(kernel_decay_bound(p.atoms, r))
                assert math.isclose(bound, want, rel_tol=1e-14)
                assert (1 - r) ** 2 * x <= bound * (1 + DECAY_SLACK)
                assert (1 - r) ** 2 * v <= bound * (1 + DECAY_SLACK)

    def test_lacunary_series(self):
        rng = random.Random(27)
        for _ in range(200):
            count = rng.randint(1, 6)
            exponents = sorted({int(2.0 ** rng.uniform(0.0, 60.0)) for _ in range(count)})
            sizes = [rng.random() for _ in exponents]
            scale = rng.uniform(0.05, 1.5) / sum(sizes)
            terms = [
                (e, cmath.rect(scale * m, rng.uniform(0.0, 2.0 * PI)))
                for e, m in zip(exponents, sizes)
            ]
            p = LacunaryExp(SparseSeries(terms))
            computed = parseval_means(p.series, DEEP_RADII).values
            for r, v in zip(DEEP_RADII, computed):
                exact, rel = parseval_oracle(p.series.terms, -math.log(r))
                # a few of the smallest subnormals where the terms underflow
                assert abs(v - exact) <= rel * exact + 4 * 5e-324
                bound = p.decay_bound(r)
                want = float(lacunary_decay_bound(p.series.terms, r))
                assert math.isclose(bound, want, rel_tol=1e-14)
                assert (1 - r) ** 2 * exact <= bound * (1 + DECAY_SLACK)
                assert (1 - r) ** 2 * v <= bound * (1 + DECAY_SLACK)

    def test_golden_report_bounds(self):
        # the golden report is the report command's defaults
        members = json.loads(GOLDEN_REPORT.read_text())["parts"]["little_o"]["members"]
        r = 1.0 - 2.0 ** -20  # the last radius of the report's grid
        for member, p in zip(members.values(), canonical_suite(Gauge(1.9), 25, 12)):
            if isinstance(p, Herglotz):
                want = kernel_decay_bound(p.atoms, r)
            else:
                want = lacunary_decay_bound(p.series.terms, r)
            assert math.isclose(member["bound"], float(want), rel_tol=1e-14)


class TripledA1(Herglotz):
    """A kernel sum whose a_1 is wrong by a factor 3."""

    def _log_coeffs(self, degree):
        coeffs = super()._log_coeffs(degree).coeffs.copy()
        coeffs[1] *= 3
        return DenseSeries(coeffs)


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

    def test_wrong_coefficient_fails_part_ii(self):
        # Mobius with a_1 = 6: its normalized means still fall from r = 1/2,
        # but 2*pi*36*r^2 alone passes 8*pi*r^2/(1-r^2) there
        atoms = [(0.0, 1.0)]
        part = corollary_report([Herglotz(atoms), TripledA1(atoms)], Gauge(1.5)).parts
        members = part["little_o"]["members"]
        assert part["little_o"]["pass"] is False
        assert members["0:herglotz"]["pass"] is True
        assert members["1:herglotz"]["pass"] is False
        assert members["1:herglotz"]["max_ratio"] > 1.0

    @pytest.mark.parametrize("c", [1e-150, 1e-155, 1e-158, 1e-160, 1e-162])
    def test_subnormal_means_pass_part_ii(self, c):
        # (1-r)^2 * means and the decay bound fall below 2^-1022 here, where
        # rounding is absolute and DECAY_SLACK alone failed 1e-155..1e-160
        p = LacunaryExp(SparseSeries([(1, c)]))
        assert corollary_report([p], Gauge(1.5)).parts["little_o"]["pass"] is True

    def test_report_deterministic(self, certified_suite):
        phi = Gauge(1.9)
        a = corollary_report(certified_suite, phi).to_json()
        b = corollary_report(certified_suite, phi).to_json()
        assert a == b and a.endswith("\n")

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError):
            corollary_report([], Gauge(1.0))

    @pytest.mark.parametrize("name", list(EDGE_SUITES))
    def test_edge_suite_digest(self, name):
        build, digest = EDGE_SUITES[name]
        text = corollary_report(build(), Gauge(1.5)).to_json()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_witness_without_finite_tail_and_on_a_tie(self):
        suite = [LacunaryExp(SparseSeries([]))]
        part = corollary_report(suite, Gauge(1.5)).parts["uniform_bound"]
        assert (part["witness_function"], part["witness_radius"]) == ("", 0.0)
        assert part["margin"] == math.inf
        # the first of equal excesses stays the witness
        part = corollary_report([mobius(), mobius()], Gauge(1.5)).parts["uniform_bound"]
        assert part["witness_function"] == "0:mobius"
