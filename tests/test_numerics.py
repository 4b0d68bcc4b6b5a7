"""float_product, the one place a float scale meets an integer of any size,
against 50-digit mpmath, and the two means sites that call it across its
1000-bit switch; neglog_gap_from_inv_n against the same oracle."""

import math
import random

import mpmath
import pytest

from logmeans import SparseSeries, tail_bound
from logmeans.numerics import LOG_MAX, float_product, neglog_gap_from_inv_n

EPS = 2.0 ** -52
SCALES = [1e-300, 2.0 ** -62, 1e-16, 0.5, 745.0]
INTEGERS = [1, 2 ** 53 + 1, 2 ** 999, 2 ** 1000, 2 ** 1001, 2 ** 1023, 3 ** 2863]


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(50):
        yield


# Relative error bound of float_product: one rounding of e and one of the
# product up to 1000 bits; past that e is cut to its 53-bit head, off by
# under one ulp, and the product is rounded once.
PRODUCT_REL = 4 * EPS


def close(got, want, rel):
    """got within rel of want, or both +inf; subnormal results get an
    absolute slack of a few of the smallest subnormals."""
    if math.inf in (got, want):
        return got == want
    return abs(got - want) <= rel * abs(want) + 4 * 5e-324


def test_integer_sizes_straddle_the_switch():
    assert [e.bit_length() for e in INTEGERS] == [1, 54, 1000, 1001, 1002, 1024, 4538]


@pytest.mark.parametrize("e", INTEGERS, ids=lambda e: f"{e.bit_length()}bits")
@pytest.mark.parametrize("s", SCALES)
def test_float_product_against_mpmath(s, e):
    exact = mpmath.mpf(s) * e
    got = float_product(s, e)
    if got == math.inf:
        # saturation only where the product leaves the double range
        assert mpmath.log(exact) > LOG_MAX - 1e-9
    else:
        assert close(got, float(exact), PRODUCT_REL)


@pytest.mark.parametrize("e", INTEGERS, ids=lambda e: f"{e.bit_length()}bits")
@pytest.mark.parametrize("s", SCALES)
def test_exp_of_negated_product_against_mpmath(s, e):
    exact = mpmath.mpf(s) * e
    want = float(mpmath.exp(-exact))
    got = math.exp(-float_product(s, e))
    if want == 0.0:
        assert got == 0.0
    else:
        # exp(-x) turns the relative error of x into x times that error
        assert close(got, want, float(exact) * PRODUCT_REL + 4 * EPS)


def tail_oracle(trunc_degree, s):
    """(pi^3 (N+1)^2 exp(-2(N+1)s) at 50 digits, relative tolerance), with
    +inf where (N+1)s <= 1 or where the log of the bound passes LOG_MAX, as
    tail_bound caps it.  exp(-2x) scales the relative error of x by 2x."""
    np1 = trunc_degree + 1
    x = mpmath.mpf(s) * np1
    if x <= 1:
        return math.inf, 0.0
    ln_tail = 3 * mpmath.log(mpmath.pi) + 2 * mpmath.log(np1) - 2 * x
    if ln_tail > LOG_MAX:
        return math.inf, 0.0
    rel = 2 * float(x) * PRODUCT_REL
    rel += 8 * EPS * float(2 * mpmath.log(np1) + 2 * x + 4)
    return float(mpmath.exp(ln_tail)), rel


# at 3.3e-299, x = (N+1)s is near 353: a finite, nonzero bound
@pytest.mark.parametrize("s", [1e-300, 3.3e-299, 1e-298, 1e-16])
@pytest.mark.parametrize(
    "trunc_degree",
    [2 ** 1000 - 2, 2 ** 1000 - 1, 2 ** 1000 + 1],
    ids=["np1-1000bits", "np1-2^1000", "np1-2^1000+2"],
)
def test_tail_bound_across_the_switch(trunc_degree, s):
    want, rel = tail_oracle(trunc_degree, s)
    assert close(tail_bound(trunc_degree, s), want, rel)


STRADDLE = [(2 ** 999 - 1, 0.3 + 0.1j), (2 ** 999 + 1, 0.5j)]


def parseval_oracle(terms, s):
    """(2 pi sum e^2 |c|^2 exp(-2es) at 50 digits, relative tolerance)."""
    want = 2 * mpmath.pi * mpmath.fsum(
        mpmath.mpf(e) ** 2 * abs(mpmath.mpc(c)) ** 2 * mpmath.exp(-2 * e * mpmath.mpf(s))
        for e, c in terms
    )
    # exp(-x) scales the relative error of x = 2es by x; forming each term
    # in log space adds a few ulp of 2 log e + x, and of 2 log|c| where
    # |c|^2 is below the normal range and the term takes that log instead
    rel = 0.0
    for e, c in terms:
        x = float(2 * e * mpmath.mpf(s))
        log_c2 = 2 * abs(math.log(abs(c))) if abs(c) ** 2 < 2.0 ** -1022 else 0.0
        rel = max(rel, x * PRODUCT_REL + 8 * EPS * (2 * math.log(e) + x + 4 + log_c2))
    return float(want), rel


# at 6.5e-299 both terms are finite and nonzero, near e^687
@pytest.mark.parametrize("s", [6.5e-299, 1e-16])
def test_sparse_parseval_straddling_the_switch(s):
    # 2*e has 1000 bits for the first term and 1001 for the second, so the
    # two powers r^(2e) are formed on opposite sides of the switch
    assert [(2 * e).bit_length() for e, _ in STRADDLE] == [1000, 1001]
    want, rel = parseval_oracle(STRADDLE, s)
    assert close(SparseSeries(STRADDLE).parseval_value(s), want, rel)


# 2es is about 740 in the first two cases: r^(2e) is subnormal, with a few
# bits left, while the terms are near e^642 (exponents past 500 bits) and
# e^-652 (a 62-bit exponent at r = 1 - 2^-53).  In the last two r^(2e) is
# normal but |c|^2 is 0.0 (1e-163 squared) or subnormal (1e-158 squared)
# while the term is a normal double: e = 2^53 at r = 1 - 2^-53, the last
# radius of `means --radii critical-star:53`, and e = 2^16 at r = 0.99999.
@pytest.mark.parametrize("terms, s", [
    (STRADDLE, 6.9e-299),
    ([(3332663724254167040, 1.0)], -math.log1p(-2.0 ** -53)),
    ([(2 ** 53, 1e-163)], -math.log1p(-2.0 ** -53)),
    ([(2 ** 16, 1e-158)], -math.log(0.99999)),
])
def test_sparse_parseval_where_the_power_is_subnormal(terms, s):
    want, rel = parseval_oracle(terms, s)
    assert close(SparseSeries(terms).parseval_value(s), want, rel)


# The log of the term (e = 2^508) and of the tail bound (N+1 = 2^508,
# (N+1)s = 1.5) is near 705, in (700, LOG_MAX]: both are finite doubles.
def test_sparse_parseval_just_below_exp_overflow():
    terms = [(2 ** 508, 1.5)]
    want, rel = parseval_oracle(terms, 1e-300)
    assert 700 < math.log(want / (2 * math.pi)) <= LOG_MAX
    assert close(SparseSeries(terms).parseval_value(1e-300), want, rel)


def test_tail_bound_just_below_exp_overflow():
    want, rel = tail_oracle(2 ** 508 - 1, 1.5 / 2 ** 508)
    assert 700 < math.log(want) <= LOG_MAX
    assert close(tail_bound(2 ** 508 - 1, 1.5 / 2 ** 508), want, rel)


def test_sparse_parseval_after_the_power_underflows():
    # 2es is about 1071 here: r^(2e) underflows, the terms are near e^314
    want, rel = parseval_oracle(STRADDLE, 1e-298)
    assert close(SparseSeries(STRADDLE).parseval_value(1e-298), want, rel)


# neglog_gap_from_inv_n on both sides of its switch at 10^15, past the
# double range, and at seeded random sizes up to 4,000 bits
GAP_INTEGERS = [
    1, 2, 10, 10 ** 15 - 1, 10 ** 15, 10 ** 15 + 1,
    2 ** 53, 10 ** 150, 2 ** 1024, 2 ** 1100, 3 ** 2863,
] + [random.Random(bits).getrandbits(bits) | 1 << (bits - 1) for bits in range(40, 4001, 120)]


@pytest.mark.parametrize("n", GAP_INTEGERS, ids=lambda n: f"{n.bit_length()}bits")
def test_neglog_gap_against_mpmath(n):
    want = float(-mpmath.log(-mpmath.expm1(-1 / mpmath.mpf(n))))
    assert close(neglog_gap_from_inv_n(n), want, 2 * EPS)
