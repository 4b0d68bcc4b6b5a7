"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; oracle-derived constants carry a comment
naming the oracle that produced them.
"""

import json
import math
import time

import numpy as np

from logmeans import (
    DenseSeries,
    Gauge,
    Herglotz,
    MeansProfile,
    build_p_star,
    critical_radii_star,
    fit_exponent,
    gauge_sweep,
    little_o_check,
    mobius,
    parseval_means,
    quadrature_means,
    star_sweep,
)
from logmeans.analysis import UNIFORM_CONSTANT
from logmeans.cli import main as cli_main
from logmeans.series import log_series
from recurrences import exp_series

PI = math.pi
GOLDEN_REPORT = "tests/golden/report.json"


def report_line(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(
        f"ACCEPTANCE {num:02d}: {status} [{elapsed:.2f}s < {budget:.0f}s] {detail}"
    )


def mobius_closed_form(r):
    return 8.0 * PI * r * r / (1.0 - r ** 4)


def test_criterion_01_mobius_closed_form():
    """Coefficient-route means reproduce 8*pi*r^2/(1-r^4)."""
    budget = 1.0
    t0 = time.perf_counter()
    f = mobius().log_taylor(4096)
    radii = [0.1, 0.3, 0.5, 0.7, 0.9]
    profile = parseval_means(f, radii)
    worst = 0.0
    ok = True
    for r, value in zip(radii, profile.values):
        exact = mobius_closed_form(r)
        rel = abs(value - exact) / exact
        tol = 1e-6 if r == 0.9 else 1e-10
        ok = ok and rel < tol
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < budget
    report_line(1, ok, f"worst rel err {worst:.2e} over 5 radii", elapsed, budget)
    assert ok


def test_criterion_02_parseval_equals_quadrature():
    """25 random kernel sums: coefficient route vs circle quadrature."""
    budget = 10.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260808)
    radii = [0.1, 0.3, 0.5, 0.7, 0.9]
    worst = 0.0
    for _ in range(25):
        count = int(rng.integers(2, 6))
        atoms = [
            (float(rng.uniform(0, 2 * PI)), float(rng.uniform(0.1, 2.0)))
            for _ in range(count)
        ]
        p = Herglotz(atoms, im_p0=float(rng.uniform(-1, 1)))
        pv = parseval_means(p.log_taylor(512), radii)
        quad = quadrature_means(p.log_taylor(512), radii, 1025)
        for a, b in zip(pv.values, quad):
            worst = max(worst, abs(a - b) / max(a, 1e-30))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < budget
    report_line(2, ok, f"worst rel disagreement {worst:.2e}", elapsed, budget)
    assert ok


def test_criterion_03_h2_ceiling_and_saturation(certified_suite):
    """Squared-coefficient sums stay under pi^2/2 and saturate for mobius."""
    budget = 5.0
    t0 = time.perf_counter()
    ceiling = PI ** 2 / 2.0
    ok = True
    for p in certified_suite:
        f = p.log_coeffs(512)
        ok = ok and f.h2_sum() <= ceiling + 1e-12
    # saturation: 10^6 coefficients of the mobius log-series
    big = mobius().log_taylor(10 ** 6).h2_sum()
    gap = ceiling - big
    ok = ok and 0.0 < gap < 2.1e-6
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < budget
    report_line(3, ok, f"saturation gap {gap:.3e} < 2.1e-6", elapsed, budget)
    assert ok


def test_criterion_04_uniform_bound(certified_suite, dyadic_grid):
    """(1-r)^2 * means - tail <= pi^3*e^-2 over suite and 20-radius grid."""
    budget = 10.0
    t0 = time.perf_counter()
    worst = -math.inf
    for p in certified_suite:
        f = p.log_coeffs(2048)
        profile = parseval_means(f, dyadic_grid)
        for normalized, tail in zip(little_o_check(profile), profile.tail_bounds):
            excess = normalized - tail if math.isfinite(tail) else -math.inf
            worst = max(worst, excess)
    elapsed = time.perf_counter() - t0
    ok = worst <= UNIFORM_CONSTANT and elapsed < budget
    report_line(
        4,
        ok,
        f"suite max {worst:.4f} <= {UNIFORM_CONSTANT:.4f}",
        elapsed,
        budget,
    )
    assert ok


def test_criterion_05_little_o_for_mobius(dyadic_grid):
    """(1-r)^2 * means strictly decreasing from r = 1/2, tiny at the end."""
    budget = 1.0
    t0 = time.perf_counter()
    profile = parseval_means(mobius().log_taylor(2 ** 17), dyadic_grid)
    seq = little_o_check(profile)
    decreasing = all(a > b for a, b in zip(seq, seq[1:]))
    final = seq[-1]
    elapsed = time.perf_counter() - t0
    ok = decreasing and final < 1e-4 and elapsed < budget
    report_line(
        5, ok, f"strictly decreasing, final value {final:.3e} < 1e-4", elapsed, budget
    )
    assert ok


def test_criterion_06_single_term_floor():
    """Full sparse sums against the single-term floor 2*pi*e^-2*4^(k-1)/k^4.

    The upper band factor is oracle-derived (mpmath, 60 digits): the
    full-sum/floor ratio over k <= 40 lies in [1.0343, 30.8775], peaking at
    k = 4; frozen band [1, 31]."""
    budget = 1.0
    t0 = time.perf_counter()
    rows = star_sweep(40)
    ratios = [row["ratio_to_lower"] for row in rows]
    lo, hi = min(ratios), max(ratios)
    elapsed = time.perf_counter() - t0
    ok = lo >= 1.0 and hi <= 31.0 and elapsed < budget
    report_line(
        6, ok, f"ratio band [{lo:.4f}, {hi:.4f}] inside [1, 31]", elapsed, budget
    )
    assert ok


def test_criterion_07_power_scale_divergence():
    """Stated criterion: means(r_k)*(1-r_k)^1.5 grows by > 10^3 from k = 10
    to k = 40.

    The exact sparse sums give a factor of 68.34 (mpmath oracle agrees):
    the normalized sequence scales like 2^(k/2)/k^4, which yields
    2^15 * (10/40)^4 * (band drift) = 68.3 over this window, so the pinned
    target exceeds what the construction attains here.  A factor above 10^3
    first appears around index 50, past the pinned window.  The criterion
    is asserted exactly as pinned rather than weakened, and reports FAIL."""
    budget = 1.0
    t0 = time.perf_counter()
    rows = star_sweep(40)
    g = {}
    for row in rows:
        if row["k"] in (10, 40):
            gap = -math.expm1(-(2.0 ** -row["k"]))
            g[row["k"]] = row["means"] * gap ** 1.5
    factor = g[40] / g[10]
    elapsed = time.perf_counter() - t0
    ok = factor > 1e3 and elapsed < budget
    report_line(
        7, ok, f"growth factor {factor:.2f} vs required > 1e3", elapsed, budget
    )
    assert ok


def test_criterion_08_gauge_floor():
    """means/gauge >= (pi*e^-2/2)*k^4 along both 12-term schedules."""
    budget = 5.0
    t0 = time.perf_counter()
    worst = math.inf
    for phi in (Gauge(1.9), Gauge(2.0, 2.0)):
        _, rows = gauge_sweep(phi, 12)
        for row in rows:
            worst = min(worst, row["ratio"] / row["floor"])
    elapsed = time.perf_counter() - t0
    ok = worst >= 1.0 - 1e-10 and elapsed < budget
    report_line(
        8, ok, f"min ratio/floor - 1 = {worst - 1:.2e} >= -1e-10", elapsed, budget
    )
    assert ok


def test_criterion_09_schedule_correctness():
    """Constant gauge: n_k = max(k^4, n_(k-1)+1) for k <= 8, by linear scan."""
    budget = 1.0
    t0 = time.perf_counter()
    from logmeans import choose_schedule

    phi = Gauge(0.0, 0.0)
    schedule = choose_schedule(phi, 8)
    expected, prev = [], 0
    for k in range(1, 9):
        expected.append(max(k ** 4, prev + 1))
        prev = expected[-1]
    scanned, prev = [], 0
    for k in range(1, 9):
        n = prev + 1
        while not (phi.value_from_gap(1.0 - math.exp(-1.0 / n)) <= (n * n) / k ** 8):
            n += 1
        scanned.append(n)
        prev = n
    elapsed = time.perf_counter() - t0
    ok = (
        list(schedule.n_k) == expected == scanned
        and elapsed < budget
    )
    report_line(9, ok, f"schedule {list(schedule.n_k)}", elapsed, budget)
    assert ok


def test_criterion_10_exponent_fits():
    """Fit recovery on synthetic powers, the mobius example, and the dyadic
    extremal window."""
    budget = 1.0
    t0 = time.perf_counter()
    ok = True
    worst_residual = 0.0
    for beta in (0.5, 1.0, 2.0):
        radii = [1.0 - 2.0 ** -j for j in range(2, 14)]
        values = [3.0 * (1.0 - r) ** -beta for r in radii]
        profile = MeansProfile(tuple(radii), tuple(values), tuple(0.0 for _ in radii))
        fit = fit_exponent(profile)
        ok = ok and abs(fit.slope - beta) < 1e-10 and fit.residual < 1e-12
        worst_residual = max(worst_residual, fit.residual)
    radii = [1.0 - 2.0 ** -j for j in range(4, 15)]
    fit0 = fit_exponent(parseval_means(mobius().log_taylor(2 ** 17), radii))
    ok = ok and abs(fit0.slope - 1.0) <= 0.02
    star = build_p_star(40)
    fit_star = fit_exponent(
        parseval_means(star.log_coeffs(2 ** 40), critical_radii_star(35)[14:])
    )
    ok = ok and 1.6 <= fit_star.slope <= 2.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < budget
    report_line(
        10,
        ok,
        f"residual {worst_residual:.1e}, mobius {fit0.slope:.3f}, "
        f"dyadic {fit_star.slope:.3f}",
        elapsed,
        budget,
    )
    assert ok


def test_criterion_11_series_round_trips():
    """exp(log(p)) = p and log(exp(f)) = f at N = 256, 100 random inputs."""
    budget = 5.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        a = rng.standard_normal(257) + 1j * rng.standard_normal(257)
        a /= np.sum(np.abs(a))  # sum of |a_n| = 1 keeps exp well scaled
        f = DenseSeries(a)
        p = exp_series(f)
        back_f = log_series(p)
        back_p = exp_series(back_f)
        worst = max(
            worst,
            float(np.max(np.abs(back_f.coeffs - f.coeffs))),
            float(np.max(np.abs(back_p.coeffs - p.coeffs))),
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < budget
    report_line(11, ok, f"max coefficient error {worst:.2e}", elapsed, budget)
    assert ok


def test_criterion_12_cli_determinism(tmp_path, capsys):
    """report command: byte-identical across runs and equal to the golden."""
    budget = 30.0
    t0 = time.perf_counter()
    outputs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        code = cli_main(["report", "--out", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    with open(GOLDEN_REPORT, "rb") as handle:
        golden = handle.read()
    identical = outputs[0] == outputs[1]
    matches_golden = outputs[0] == golden
    parts = json.loads(outputs[0])["parts"]
    all_pass = all(
        part["pass"] is True for part in parts.values() if part["status"] == "ok"
    )
    elapsed = time.perf_counter() - t0
    ok = identical and matches_golden and all_pass and elapsed < budget
    capsys.readouterr()  # drop CLI stdout noise from the criterion line
    report_line(
        12,
        ok,
        f"two runs identical={identical}, golden match={matches_golden}",
        elapsed,
        budget,
    )
    assert ok
