"""numerics.exact_sum against math.fsum, bit for bit, and the dense Parseval
and H^2 sums that call it against the fsum formula they replace."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logmeans import Herglotz, geometric_radii
from logmeans.cli import MAX_TRUNC
from logmeans.numerics import exact_sum

TINY = 2.0 ** -1074


class NoFallback(np.ndarray):
    """An array whose tolist fails: exact_sum reaches its math.fsum fallback
    only through tolist, so a certified sum must never call it."""

    def tolist(self):
        raise AssertionError("exact_sum fell back to math.fsum")


def fsum_list(x):
    return math.fsum(x.tolist())


def outcome(total, x):
    """total(x), or the type of the exception it raises."""
    try:
        return total(x)
    except (OverflowError, ValueError) as exc:
        return type(exc)


def same(got, want):
    """Equal as doubles, sign of zero included, or both NaN, or both the
    same exception type."""
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want):
            return math.isnan(got)
        return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    return got == want


def assert_matches_fsum(x):
    got, want = outcome(exact_sum, x), outcome(fsum_list, x)
    assert same(got, want), (got, want)


@st.composite
def seeded_arrays(draw):
    """Arrays of 1 to 2^16+1 terms with binary exponents drawn from a window
    inside [-1074, 1000]; some terms zero, some subnormal."""
    size = draw(st.integers(1, 2 ** 16 + 1))
    lo = draw(st.integers(-1074, 1000))
    hi = draw(st.integers(lo, 1000))
    zero_share = draw(st.sampled_from([0.0, 0.1, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = np.ldexp(rng.uniform(0.5, 1.0, size), rng.integers(lo, hi + 1, size))
    x[rng.random(size) < zero_share] = 0.0
    return x


@settings(max_examples=150, deadline=None)
@given(seeded_arrays())
def test_exact_sum_matches_fsum_on_seeded_arrays(x):
    assert_matches_fsum(x)


finite_terms = st.floats(min_value=0.0, max_value=2.0 ** 1000, allow_subnormal=True)


@settings(max_examples=300, deadline=None)
@given(st.lists(finite_terms, min_size=1, max_size=64))
def test_exact_sum_matches_fsum_on_drawn_terms(terms):
    assert_matches_fsum(np.array(terms, dtype=np.float64))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4096), st.floats(1e-4, 2.0), st.integers(0, 2 ** 32 - 1))
def test_exact_sum_matches_fsum_on_parseval_terms(size, s, seed):
    # the dense Parseval shape: n^2 |c_n|^2 r^(2n) with |c_n| <= 2/n
    rng = np.random.default_rng(seed)
    n = np.arange(1, size + 1, dtype=np.float64)
    x = (2.0 * rng.random(size)) ** 2 * np.exp(-2.0 * s * n)
    assert_matches_fsum(x)


# (terms, how exact_sum must reach fsum's value)
PATHS = {
    # one extraction level leaves the residual 2^-53 with a bound of 2^-47;
    # the second level takes it whole, and the sum rounds up to 1 + 2^-52
    "second-level": ([1.0, 2.0 ** -53, 2.0 ** -80], "certified"),
    # 1 + 2^-53 + 2^-200 lies 2^-200 above a tie: after two levels the
    # residual bound straddles the tie, so the sum is not certified
    "near-tie": ([1.0, 2.0 ** -53, 2.0 ** -200], "fallback"),
    # a sum exactly on a tie: no nonzero residual bound can certify it
    "exact-tie": ([1.0, 2.0 ** -53], "fallback"),
    # after two levels the parts sum to 2^-80 below the tie 2048 + 2^-42,
    # and the 1000 residual terms of 2^-83 lift the sum past it: only a
    # bound that counts every residual term refuses the rounding down
    "residuals-cross-a-tie": (
        [1.0] * 2048 + [2.0 ** -42 - 2.0 ** -80] + [2.0 ** -83] * 1000,
        "fallback",
    ),
    # the second level's residual lies below 2^-1021, where the subnormal
    # grid extracts it whole
    "subnormal-residual": ([2.0 ** -1000, 2.0 ** -1053, TINY], "certified"),
    "subnormal": ([TINY, 3 * TINY, 2.0 ** -1030], "certified"),
    "empty": ([], "certified"),
    "zeros": ([0.0, 0.0], "certified"),
    "negative-zero": ([-0.0], "certified"),
    "one": ([0.1], "certified"),
    # sigma = 2^(exponent + m) would pass the double range
    "large": ([1e308], "fallback"),
    "overflow": ([2.0 ** 1023, 2.0 ** 1023], "fallback"),
    "nan": ([1.0, math.nan], "fallback"),
    "inf": ([math.inf, 1.0], "fallback"),
    "inf-minus-inf": ([math.inf, -math.inf], "fallback"),
}


@pytest.mark.parametrize("name", sorted(PATHS))
def test_exact_sum_path(name):
    terms, path = PATHS[name]
    x = np.array(terms, dtype=np.float64)
    assert_matches_fsum(x)
    if path == "certified":
        assert same(exact_sum(x.view(NoFallback)), fsum_list(x))
    else:
        with pytest.raises(AssertionError, match="fell back"):
            exact_sum(x.view(NoFallback))


# --- the dense call sites against the formula they replaced ---------------

DEFAULT_RADII = geometric_radii(0.5, 0.5, 20)


def old_parseval_value(series, neglog_r):
    n = np.arange(1, series.coeffs.size, dtype=np.float64)
    c = series.coeffs
    w = (n * n) * (c.real[1:] ** 2 + c.imag[1:] ** 2)
    return 2.0 * math.pi * math.fsum((w * np.exp(-2.0 * neglog_r * n)).tolist())


def old_h2_sum(series):
    c = series.coeffs
    return math.fsum((c.real[1:] ** 2 + c.imag[1:] ** 2).tolist())


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("degree", [1, 17, 2048, 16384, MAX_TRUNC])
def test_exact_sum_dense_sites_match_the_fsum_formula(seed, degree):
    rng = np.random.default_rng(seed)
    atoms = tuple(
        (float(t), float(w))
        for t, w in zip(rng.uniform(0.0, 2.0 * math.pi, 3), rng.uniform(0.1, 2.0, 3))
    )
    p = Herglotz(atoms, im_p0=float(rng.uniform(-1.0, 1.0)))
    series = p.log_taylor(degree)
    assert series.h2_sum() == old_h2_sum(series)
    for r in DEFAULT_RADII:
        s = -math.log(r)
        assert series.parseval_value(s) == old_parseval_value(series, s)
