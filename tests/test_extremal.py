"""Extremal constructions: dyadic exponent series, adapted radii, minimal
exponent schedules against brute-force oracles, and the divergence floors."""

import hashlib
import math
import time

import pytest
from mpmath import expm1, log1p, mp, mpf
from mpmath import exp as mpexp
from mpmath import log as mplog

from logmeans import (
    ExponentOverflow,
    ExponentSchedule,
    Gauge,
    GaugeHypothesisError,
    ParseError,
    RadiusOutOfRange,
    build_p_phi,
    build_p_star,
    choose_schedule,
    critical_radii_star,
    gauge_sweep,
    mobius,
    ratio_at_schedule,
    star_sweep,
)

PI = math.pi

# Oracle-frozen band for the full-sum / single-term ratio over k <= 40
# (mpmath, 60 digits): minimum 1.03432... at k = 1, maximum 30.8774... at
# k = 4.  The sum of the neighbors of the dominant term peaks at small k.
STAR_RATIO_LOW = 1.0
STAR_RATIO_HIGH = 31.0


def oracle_admissible(phi, n, k):
    """Independent admissibility predicate: gauge(e^(-1/n)) <= n^2/k^8."""
    r = math.exp(-1.0 / n)
    return phi.value_from_gap(1.0 - r) <= (n * n) / (k ** 8)


def oracle_schedule(phi, k_max, scan_limit=100_000):
    """Brute-force linear scan for the minimal schedule."""
    out = []
    prev = 0
    for k in range(1, k_max + 1):
        n = prev + 1
        while not oracle_admissible(phi, n, k):
            n += 1
            assert n <= scan_limit, "oracle scan blew its limit"
        out.append(n)
        prev = n
    return out


class TestBuildStar:
    def test_first_term(self):
        p = build_p_star(1)
        assert p.log_coeffs(2).terms == ((2, 0.5j),)

    def test_three_terms(self):
        terms = build_p_star(3).log_coeffs(8).terms
        assert [e for e, _ in terms] == [2, 4, 8]
        coeffs = [c for _, c in terms]
        assert coeffs == [0.5j, 0.125j, pytest.approx(1j / 18)]

    def test_certificate_bound(self):
        bound = build_p_star(30).bound
        assert bound == pytest.approx(0.5 * sum(1.0 / k ** 2 for k in range(1, 31)))
        assert bound < PI ** 2 / 12

    def test_overflow_guard(self):
        with pytest.raises(ExponentOverflow):
            build_p_star(63)
        with pytest.raises(ValueError):
            build_p_star(0)
        assert build_p_star(62).log_coeffs(2 ** 62).truncation_degree == 2 ** 62


class TestCriticalRadii:
    def test_first_radius(self):
        assert critical_radii_star(1)[0] == pytest.approx(math.exp(-0.5))

    def test_bracketing(self):
        radii = critical_radii_star(40)
        for k, r in enumerate(radii, start=1):
            gap = -math.expm1(-(2.0 ** -k))  # accurate 1 - r_k
            assert 2.0 ** -(k + 1) <= gap <= 2.0 ** -k

    def test_adapted_power_identity_real_arithmetic(self):
        # r_k^(2^(k+1)) = e^-2 exactly; checked in 50-digit arithmetic
        mp.dps = 50
        target = mpexp(-2)
        for k in range(1, 41):
            rk = mpexp(-mpf(2) ** (-k))
            value = rk ** (2 ** (k + 1))
            assert abs(value - target) / target < mpf("1e-13")

    def test_adapted_power_identity_floats(self):
        # double arithmetic amplifies the stored-radius rounding by 2^(k+1),
        # so the float identity is only clean for small k
        for k in range(1, 13):
            r = critical_radii_star(k)[-1]
            assert r ** (2 ** (k + 1)) == pytest.approx(math.exp(-2), rel=1e-12)

    def test_float_representability_guard(self):
        with pytest.raises(RadiusOutOfRange):
            critical_radii_star(54)


class TestChooseSchedule:
    def test_pow_one_first_exponent(self):
        # gauge (1-r)^-1: value 1.582 at n=1 exceeds 1, value 2.541 at n=2
        # stays under 4
        schedule = choose_schedule(Gauge(1.0), 4)
        assert schedule.n_k[0] == 2
        assert list(schedule.n_k) == oracle_schedule(Gauge(1.0), 4)

    def test_constant_gauge_fourth_powers(self):
        schedule = choose_schedule(Gauge(0.0, 0.0), 8)
        assert list(schedule.n_k) == [k ** 4 for k in range(1, 9)]
        assert list(schedule.n_k) == oracle_schedule(Gauge(0.0, 0.0), 8)

    def test_pow_15_matches_oracle(self):
        # exponents grow like k^16 here, so the full scan stops at k = 2 and
        # k = 3 is checked through the boundary pair instead
        schedule = choose_schedule(Gauge(1.5), 3)
        assert list(schedule.n_k[:2]) == oracle_schedule(Gauge(1.5), 2)
        n3 = schedule.n_k[2]
        assert oracle_admissible(Gauge(1.5), n3, 3)
        assert not oracle_admissible(Gauge(1.5), n3 - 1, 3)

    def test_minimality(self):
        for phi in (Gauge(1.0), Gauge(1.5), Gauge(0.0, 0.0)):
            schedule = choose_schedule(phi, 3)
            prev = 0
            for k, n in enumerate(schedule.n_k, start=1):
                assert oracle_admissible(phi, n, k)
                if n > prev + 1:
                    assert not oracle_admissible(phi, n - 1, k)
                prev = n

    def test_hypothesis_gate(self):
        with pytest.raises(GaugeHypothesisError):
            choose_schedule(Gauge(2.0, 0.0), 3)
        with pytest.raises(GaugeHypothesisError):
            choose_schedule(Gauge(2.5), 3)
        # boundary case with the log correction is admitted
        assert Gauge(2.0, 2.0).satisfies_hypothesis

    def test_size_cap_fails_fast(self):
        # no exponent below 2^MAX_SCHEDULE_BITS is admissible at k_max
        for phi, k_max in ((Gauge(2.0, 0.5), 6), (Gauge(2.0, 1.0), 5)):
            start = time.perf_counter()
            with pytest.raises(ExponentOverflow):
                choose_schedule(phi, k_max)
            assert time.perf_counter() - start < 1.0

    def test_determinism(self):
        a = choose_schedule(Gauge(1.9), 6)
        b = choose_schedule(Gauge(1.9), 6)
        assert a.n_k == b.n_k

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ExponentSchedule((3, 3))


FLOAT_DECISION_SLACK = 1e-12


def mp_log_margin(phi, n, k):
    """2 log n - 8 log k - log gauge(e^(-1/n)) in 50-digit arithmetic, with
    the gauge in its log form a*L - b*log(1+L), L = -log(1 - e^(-1/n))."""
    with mp.workdps(50):
        big_l = -mplog(-expm1(-1 / mpf(n)))
        log_gauge = phi.a * big_l - phi.b * log1p(big_l)
        return 2 * mplog(n) - 8 * mplog(k) - log_gauge


class TestScheduleRegression:
    # First 16 hex digits of sha256(",".join(map(str, n_k))), pinned from the
    # search before it became a plain bisection.
    @pytest.mark.parametrize(
        "gauge, k_max, digest",
        [
            ("pow:1.9", 12, "4137131f68c8ddf5"),
            ("pow:1.99", 12, "4cc59461dddbf4be"),
            ("pow:1.985", 12, "1b5ba3eb3e8848c1"),
            ("powlog:2,2", 8, "b53c179fb50175d3"),
            ("powlog:1.7,1", 12, "3c06663ffac5bcf1"),
            ("pow:0", 12, "56d37514019e7cf9"),
        ],
    )
    def test_schedule_digest(self, gauge, k_max, digest):
        n_k = choose_schedule(Gauge.from_string(gauge), k_max).n_k
        text = ",".join(map(str, n_k))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    # Gauges whose margin n^2/k^8 - gauge is not monotone in n although its
    # sign is; the schedule must still be admissible and minimal.  The search
    # decides in double arithmetic, so the 50-digit log margin is allowed a
    # slack far above double rounding (about 1e-15 here) and far below the
    # step between consecutive n wherever n < 10^12.
    @pytest.mark.parametrize(
        "gauge, k_max",
        [("pow:1.8", 6), ("powlog:2,4", 6), ("powlog:1.95,0.5", 10)],
    )
    def test_admissible_and_minimal_mpmath(self, gauge, k_max):
        phi = Gauge.from_string(gauge)
        schedule = choose_schedule(phi, k_max)
        assert len(schedule.n_k) == k_max
        prev = 0
        for k, n in enumerate(schedule.n_k, start=1):
            assert mp_log_margin(phi, n, k) >= -FLOAT_DECISION_SLACK
            if n - 1 > prev:
                assert mp_log_margin(phi, n - 1, k) < FLOAT_DECISION_SLACK
            prev = n


class TestBuildPhi:
    def test_single_term(self):
        p = build_p_phi(ExponentSchedule((2,)))
        assert p.log_coeffs(2).terms == ((2, 0.5j),)

    def test_exponents_transported(self):
        schedule = ExponentSchedule((2, 5, 17, 1000))
        p = build_p_phi(schedule)
        assert [e for e, _ in p.log_coeffs(1000).terms] == [2, 5, 17, 1000]
        assert p.schedule is schedule

    def test_certificate_partial_zeta(self):
        schedule = choose_schedule(Gauge(1.0), 10)
        p = build_p_phi(schedule)
        assert p.bound == pytest.approx(
            0.5 * sum(1.0 / k ** 2 for k in range(1, 11))
        )


class TestRatios:
    def test_star_band_oracle_frozen(self):
        rows = star_sweep(40)
        ratios = [row["ratio_to_lower"] for row in rows]
        assert min(ratios) >= STAR_RATIO_LOW
        assert max(ratios) <= STAR_RATIO_HIGH
        assert ratios[3] == pytest.approx(30.87745109240774, rel=1e-10)

    def test_power_scale_growth(self):
        # oracle-derived finite restatements of the power-scale divergence:
        # normalized means g_k = means(r_k) * gap^beta grow without bound,
        # monotonically past a beta-dependent onset
        rows = star_sweep(40)
        for beta, onset, factor_floor in ((1.0, 9, 1e6), (1.5, 13, 50.0)):
            g = []
            for row in rows:
                gap = -math.expm1(-(2.0 ** -row["k"]))
                g.append(row["means"] * gap ** beta)
            tail = g[onset - 1 :]
            assert all(a < b for a, b in zip(tail, tail[1:]))
            assert g[39] / g[9] > factor_floor

    def test_gauge_floor_pow(self):
        schedule, rows = gauge_sweep(Gauge(1.9), 12)
        for row in rows:
            assert row["ratio"] >= row["floor"] * (1.0 - 1e-10)

    def test_gauge_floor_powlog(self):
        schedule, rows = gauge_sweep(Gauge(2.0, 2.0), 12)
        for row in rows:
            assert row["ratio"] >= row["floor"] * (1.0 - 1e-10)

    def test_ratio_at_schedule_requires_sparse(self):
        with pytest.raises(ValueError):
            ratio_at_schedule(mobius(), Gauge(1.0))


class TestGaugeStrings:
    def test_parse_pow(self):
        assert Gauge.from_string("pow:1.5") == Gauge(1.5, 0.0)

    def test_parse_powlog(self):
        assert Gauge.from_string("powlog:2,2") == Gauge(2.0, 2.0)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            Gauge.from_string("pow:x")
        with pytest.raises(ParseError):
            Gauge.from_string("linear:1")
        with pytest.raises(ParseError):
            Gauge.from_string("powlog:1")
        with pytest.raises(ParseError):
            Gauge.from_string("pow:nan")
        with pytest.raises(ValueError):
            Gauge(math.nan)

    def test_label_round_trip(self):
        for phi in (Gauge(1.9), Gauge(2.0, 2.0), Gauge(0.0, 0.0)):
            assert Gauge.from_string(phi.label()) == phi
