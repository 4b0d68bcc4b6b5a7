"""Constructor contracts: closed-form coefficients against a 40-digit
oracle and against the kernel sum itself, certification routes, rotation
covariance, and positivity sampled on a polar grid."""

import cmath
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logmeans import (
    CaratheodoryFunction,
    DenseSeries,
    Herglotz,
    ImaginaryBoundViolated,
    InvalidMeasure,
    LacunaryExp,
    SparseSeries,
    mobius,
    parse_function_spec,
)
from logmeans import caratheodory, series


def star_series(k_max):
    return SparseSeries([(2 ** k, 0.5j / k ** 2) for k in range(1, k_max + 1)])


def dense_log_values(coeffs, r, steps):
    """sum_n a_n z^n at z = r*e^{2*pi*i*j/steps}, j < steps: the terms
    folded modulo steps, then one inverse FFT."""
    a = coeffs * r ** np.arange(coeffs.size)
    a = np.pad(a, (0, -a.size % steps)).reshape(-1, steps).sum(axis=0)
    return steps * np.fft.ifft(a)


def sparse_log_values(f, r, steps):
    """sum c z^e over the terms of f at z = r*e^{2*pi*i*j/steps}, j < steps,
    with the phase e*j reduced modulo steps exactly, for any exponent."""
    j = np.arange(steps)
    out = np.zeros(steps, dtype=complex)
    for e, c in f.terms:
        out += c * r ** e * np.exp(2j * np.pi * ((e % steps) * j % steps) / steps)
    return out


def kernel_value(p, z):
    """i*im_p0 + sum_j w_j*(zeta_j+z)/(zeta_j-z), summed directly."""
    acc = 1j * p.im_p0
    for theta, w in p.atoms:
        zeta = cmath.exp(1j * theta)
        acc = acc + w * (zeta + z) / (zeta - z)
    return acc


def certify_numeric(log_values, radial_steps, angular_steps):
    """(min Re p, its radius, its angle) over a polar grid with r <= 0.999,
    where p = exp(log_values(r, steps)) at r*e^{2*pi*i*j/steps}; a finite
    grid only cross-checks the analytic certificate."""
    best = None
    for i in range(1, radial_steps + 1):
        r = 0.999 * i / radial_steps
        re = np.exp(log_values(r, angular_steps)).real
        j = int(np.argmin(re))
        here = (float(re[j]), r, 2.0 * math.pi * j / angular_steps)
        best = here if best is None else min(best, here)
    return best


def oracle_log_coeffs(p, ns, dps=40):
    """a_n of log p for a kernel sum at the given n, with mpmath at dps
    digits: zeros of p on the circle by bracketed findroot on each arc
    between atoms (an unbracketed start can land on a neighbouring arc),
    each checked by a sign change of p/i across it."""
    with mpmath.workdps(dps):
        merged = {}
        for t, w in p.atoms:
            merged[t] = merged.get(t, 0) + mpmath.mpf(w)
        thetas = [mpmath.mpf(t) for t in sorted(merged)]
        weights = [merged[t] for t in sorted(merged)]
        c = mpmath.mpf(p.im_p0)

        def g(x):  # p(e^{ix}) / i
            return c + mpmath.fsum(
                w * mpmath.cot((x - t) / 2) for t, w in zip(thetas, weights)
            )

        zeros = []
        eps = mpmath.mpf(10) ** (6 - dps)
        for lo, hi in zip(thetas, thetas[1:] + [thetas[0] + 2 * mpmath.pi]):
            gap = (hi - lo) * eps
            z = mpmath.findroot(g, (lo + gap, hi - gap), solver="anderson", verify=False)
            assert lo < z < hi and g(z - eps) > 0 > g(z + eps)
            zeros.append(z)
        return {
            n: complex(
                (mpmath.fsum(mpmath.expj(-n * t) for t in thetas)
                 - mpmath.fsum(mpmath.expj(-n * z) for z in zeros)) / n
            )
            for n in ns
        }


class TestMobius:
    def test_log_coefficient(self):
        a = mobius().log_taylor(5).coeffs
        assert a[3] == pytest.approx(2.0 / 3.0)
        assert a[0] == 0

    def test_certificate(self):
        assert isinstance(mobius(), Herglotz)


class TestHerglotz:
    def test_single_atom_matches_mobius(self):
        p = Herglotz([(0.0, 1.0)])
        assert np.array_equal(p.log_taylor(4096).coeffs, mobius().log_taylor(4096).coeffs)
        assert mobius().spec_dict == {"type": "mobius"}

    def test_two_atoms(self):
        # equal atoms at 1 and -1 average to (1+z^2)/(1-z^2), whose
        # log-coefficients are a_2m = 2/m at odd m and 0 elsewhere
        p = Herglotz([(0.0, 0.5), (math.pi, 0.5)])
        a = p.log_taylor(4096).coeffs
        n = np.arange(4097)
        exact = np.where(n % 4 == 2, 4.0 / np.maximum(n, 1), 0.0)
        assert np.all(np.abs(n * (a - exact)) <= 2 * n * np.spacing(2 * math.pi))

    def test_invalid_weight(self):
        with pytest.raises(InvalidMeasure):
            Herglotz([(0.0, -1.0)])
        with pytest.raises(InvalidMeasure):
            Herglotz([])
        with pytest.raises(InvalidMeasure):  # total mass overflows
            Herglotz([(0.5, 1e308), (2.5, 1e308)])
        with pytest.raises(InvalidMeasure):
            Herglotz([(math.inf, 1.0)])
        with pytest.raises(InvalidMeasure):
            Herglotz([(0.0, 1.0)], im_p0=math.nan)

    def test_atoms_normalised(self):
        # angles reduced mod 2*pi, integers stored as floats, order kept
        p = Herglotz([(7.0, 0.5), (1.0, 2)], im_p0=-1)
        assert p.atoms == ((7.0 - 2 * math.pi, 0.5), (1.0, 2.0))
        assert all(type(x) is float for atom in p.atoms for x in atom)
        assert type(p.im_p0) is float and p.im_p0 == -1.0
        assert p.total_mass == 2.5

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-math.pi, math.pi))
    def test_rotation_covariance(self, phi):
        # rotating every atom by phi multiplies a_n by e^{-i n phi}; the
        # bound counts the rounding of the angles and of the phases n*angle
        atoms = [(0.3, 1.2), (2.0, 0.4), (4.4, 0.9)]
        base = Herglotz(atoms).log_taylor(32).coeffs
        rotated = Herglotz([(t + phi, w) for t, w in atoms]).log_taylor(32).coeffs
        n = np.arange(33)
        expected = base * np.exp(-1j * n * phi)
        assert rotated[0] == base[0]
        assert np.all(np.abs(n * (rotated - expected)) <= 8 * n * np.spacing(2 * math.pi))


def random_kernel_sum(atoms, seed):
    rng = random.Random(seed)
    return Herglotz(
        [
            (rng.uniform(0.0, 2.0 * math.pi), math.exp(rng.uniform(-2.3, 2.3)))
            for _ in range(atoms)
        ],
        rng.uniform(-1.0, 1.0),
    )


class TestHerglotzLogCoefficients:
    """Log-coefficients in closed form from the zeros of p on the circle."""

    @pytest.mark.parametrize(
        "p",
        [
            Herglotz([(0.1, 0.7), (2.5, 1.1), (5.0, 0.2)], -0.4),
            random_kernel_sum(64, 5),
        ],
        ids=["3-atom", "64-atom"],
    )
    def test_at_least_as_accurate_as_the_recurrence(self, p):
        # max |n (a_n - oracle)| / max n |oracle| over n sampled up to 2^16
        degree = 2 ** 16
        ns = sorted({round(2 ** (16 * k / 40)) for k in range(41)})
        oracle = oracle_log_coeffs(p, ns)
        scale = max(n * abs(oracle[n]) for n in ns)
        closed = p.log_coeffs(degree).coeffs
        # Taylor coefficients of p: b_n = 2 * sum_j w_j * zeta_j^-n
        taylor = 2.0 * caratheodory._power_sums(*p._merged_atoms(), degree)
        taylor[0] = p.total_mass + 1j * p.im_p0
        recurrence = series.log_series(DenseSeries(taylor)).coeffs
        closed_err = max(n * abs(closed[n] - oracle[n]) for n in ns) / scale
        recurrence_err = max(n * abs(recurrence[n] - oracle[n]) for n in ns) / scale
        assert closed_err <= recurrence_err
        assert closed[0] == recurrence[0]  # same principal branch of log p(0)

    @pytest.mark.parametrize(
        "theta, weight, im_p0", [(0.0, 1.0, 0.0), (2.0, 0.3, 0.9), (5.5, 4.0, -2.5)]
    )
    def test_one_atom_exact(self, theta, weight, im_p0):
        # the zero is -zeta*(w + i*c)/(w - i*c), so a_n = zeta^-n (1 - (-q)^n)/n
        # with q = (w - i*c)/(w + i*c)
        a = Herglotz([(theta, weight)], im_p0).log_coeffs(2 ** 16).coeffs
        with mpmath.workdps(40):
            q = mpmath.mpc(weight, -im_p0) / mpmath.mpc(weight, im_p0)
            for n in (1, 2, 3, 10, 999, 4096, 50001, 2 ** 16):
                exact = mpmath.expj(-n * mpmath.mpf(theta)) * (1 - (-q) ** n) / n
                # rounding of the zero's angle and of the phase n*angle
                bound = 4 * n * np.spacing(2 * math.pi)
                assert abs(n * (a[n] - complex(exact))) <= bound
        assert a[0] == cmath.log(complex(weight, im_p0))

    def test_duplicate_angle_merges(self):
        split = Herglotz([(1.0, 0.25), (4.0, 2.0), (1.0, 0.5)], 0.3)
        merged = Herglotz([(1.0, 0.75), (4.0, 2.0)], 0.3)
        a, b = split.log_coeffs(5000).coeffs, merged.log_coeffs(5000).coeffs
        assert np.array_equal(a, b)

    def test_zeros_interlace_with_atoms(self):
        p = random_kernel_sum(64, 11)
        thetas = np.sort([t for t, _ in p.atoms])
        psi = p.boundary_zeros()
        assert np.all(thetas < psi)
        assert np.all(psi[:-1] < thetas[1:]) and psi[-1] < thetas[0] + 2 * math.pi

    def test_never_runs_the_recurrence(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("log_series called")

        monkeypatch.setattr(caratheodory, "log_series", refuse)
        monkeypatch.setattr(series, "log_series", refuse)
        p = Herglotz([(0.5, 1.0), (3.0, 2.0)])
        assert p.log_taylor(4096).truncation_degree == 4096


class TestLacunary:
    def test_star_certificate_bound(self):
        p = LacunaryExp(star_series(30))
        bound = p.bound
        assert bound == pytest.approx(0.5 * sum(1 / k ** 2 for k in range(1, 31)))
        assert bound <= math.pi ** 2 / 12 < math.pi / 2

    def test_violation(self):
        with pytest.raises(ImaginaryBoundViolated):
            LacunaryExp(SparseSeries([(1, 2j)]))

    def test_empty_is_one(self):
        p = LacunaryExp(SparseSeries([]))
        assert p.bound == 0.0
        assert not np.any(p.log_taylor(5).coeffs)

    def test_sampled_imaginary_part_within_bound(self):
        p = LacunaryExp(star_series(30))
        f = p.log_coeffs(2 ** 30)
        bound = p.bound
        for r in (0.2, 0.7, 0.95, 1.0):
            log_p = sparse_log_values(f, r, 16)
            assert np.all(np.abs(log_p.imag) <= bound + 1e-9)
            assert np.all(np.exp(log_p).real > 0)

    def test_log_taylor_is_densified_series(self):
        p = LacunaryExp(star_series(5))
        dense = p.log_taylor(40).coeffs
        assert dense[2] == 0.5j and dense[32] == pytest.approx(0.5j / 25)
        assert np.count_nonzero(dense) == 5


class TestKernelSumValues:
    """exp of the truncated log-series, from log_taylor(N), against the
    kernel sum evaluated here: the closed-form coefficients checked against
    an independent value.  The radii keep r^N below 1e-18, so truncation
    is invisible; the tolerance grows like the sum of r^n, 1/(1-r)."""

    @pytest.mark.parametrize(
        "p",
        [
            mobius(),
            Herglotz([(0.0, 0.5), (math.pi, 0.5)]),
            Herglotz([(0.3, 1.2), (2.0, 0.4), (4.4, 0.9)], 0.25),
            random_kernel_sum(64, 5),
        ],
        ids=["mobius", "2-atom", "3-atom", "64-atom"],
    )
    def test_exp_of_log_series_is_the_kernel_sum(self, p):
        degree, steps = 4096, 64
        a = p.log_taylor(degree).coeffs
        for r in (0.0, 0.5, 0.9, 0.99):
            got = np.exp(dense_log_values(a, r, steps))
            z = r * np.exp(2j * np.pi * np.arange(steps) / steps)
            expected = kernel_value(p, z)
            tol = 32 * np.finfo(float).eps / (1.0 - r)
            assert np.max(np.abs(got / expected - 1.0)) <= tol


class TestCertifyNumeric:
    def test_mobius_grid(self):
        a = mobius().log_taylor(2 ** 16).coeffs  # 0.999^(2^16) < 1e-28
        min_re, radius, theta = certify_numeric(
            lambda r, steps: dense_log_values(a, r, steps), 50, 256
        )
        assert min_re > 0
        # worst point sits at the outer radius, opposite the boundary pole
        assert radius == pytest.approx(0.999)
        assert abs(theta - math.pi) < 2 * math.pi / 256 + 1e-12
        expected = (1 - 0.999 ** 2) / abs(1 - 0.999 * cmath.exp(1j * theta)) ** 2
        assert min_re == pytest.approx(expected, rel=1e-12)

    def test_constant_one(self):
        f = LacunaryExp(SparseSeries([])).log_coeffs(8)
        min_re, _, _ = certify_numeric(
            lambda r, steps: sparse_log_values(f, r, steps), 3, 8
        )
        assert min_re == pytest.approx(1.0)

    def test_lacunary_grid(self):
        f = LacunaryExp(star_series(30)).log_coeffs(2 ** 30)
        min_re, _, _ = certify_numeric(
            lambda r, steps: sparse_log_values(f, r, steps), 20, 128
        )
        assert min_re > 0


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
        with pytest.raises(TypeError, match="spec_dict"):
            CaratheodoryFunction()
