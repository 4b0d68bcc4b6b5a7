"""Low-level numeric helpers: log-domain arithmetic, a correctly rounded
array sum, and radius representations that stay meaningful when 1 - r
underflows a double.

Two radius encodings are used throughout the package:

* an ordinary float r in (0, 1), carried together with s = -log(r);
* an exact integer n >= 1 standing for r = exp(-1/n).  The integer form is
  required for exponent schedules whose terms grow far beyond 2**53, where
  the float form would collapse to 1.0.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

# Largest n for which exp(-1/n), 1 - exp(-1/n) and n**2 are all safely
# representable as doubles.  Beyond it, computations move to log space.
DIRECT_N_LIMIT = 10 ** 150

LOG_MAX = 709.0  # exp overflows past this


def logsumexp(values: Iterable[float]) -> float:
    """log(sum(exp(v))) without overflow; -inf for an empty or all -inf input."""
    vals = [v for v in values if v != -math.inf]
    m = max(vals, default=-math.inf)
    if math.isinf(m):
        return m
    return m + math.log(math.fsum(math.exp(v - m) for v in vals))


def float_ratio(num: int, den: int) -> float:
    """num/den for big integers, saturating to +inf instead of raising."""
    if num.bit_length() - den.bit_length() > 1100:
        return math.inf
    try:
        return num / den
    except OverflowError:
        return math.inf


def float_product(s: float, e: int) -> float:
    """s*e for a float s > 0 and an integer e >= 1 of any size; past 1000
    bits it is s times the 53-bit head of e, scaled by the power of two that
    e drops, saturating to +inf from exp(LOG_MAX) on."""
    if e.bit_length() <= 1000:
        return s * float(e)
    if math.log(s) + math.log(e) > LOG_MAX:
        return math.inf
    k = e.bit_length() - 53
    return math.ldexp(s * float(e >> k), k)


def exact_sum(x: np.ndarray) -> float:
    """Correctly rounded sum of a 1-d float64 array, bit for bit
    math.fsum(x.tolist()), from whole-array operations.

    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31,
    2008): for a power of two sigma >= 2^m * max|r| with 2^m > n + 2,
    hi = (sigma + r) - sigma and r - hi are exact, |r - hi| <= sigma * 2^-53,
    and for n + 2 < 2^27 hi sums exactly in any order (below sigma = 2^-1021
    the subnormal grid takes r whole).  The rounded sum of the extracted
    parts is accepted once moving it by n * sigma * 2^-53, a bound on the
    residual's sum, rounds to the same double.  Non-finite input, a sigma
    that overflows, n + 2 >= 2^27, or a sum still uncertified after two
    levels go to math.fsum.
    """
    n = x.size
    m = (n + 2).bit_length()
    mu = float(abs(x).max(initial=0.0))
    if mu == 0.0:
        return 0.0
    e = math.frexp(mu)[1] + m  # sigma = 2^e
    if not mu < math.inf or e > 1023 or m > 27:
        return math.fsum(x.tolist())
    parts = []
    r = x
    for _ in range(2):
        sigma = math.ldexp(1.0, e)
        hi = sigma + r
        hi -= sigma
        r = r - hi
        parts.append(float(hi.sum()))
        e += m - 53  # max|r| <= 2^(e - m) now, the next sigma is 2^e
        total = math.fsum(parts)
        bound = n * math.ldexp(1.0, e - m)
        if math.fsum(parts + [bound]) == total == math.fsum(parts + [-bound]):
            return total
    return math.fsum(x.tolist())


def neglog_gap_from_inv_n(n: int) -> float:
    """-log(1 - exp(-1/n)) for an integer n >= 1, accurate at every scale.

    For moderate n the gap 1 - exp(-1/n) is computed directly with expm1.
    For huge n, n*(1 - exp(-1/n)) = 1 - 1/(2n) + O(1/n^2), so the result is
    log(n) plus a vanishing correction; log(n) handles big integers natively.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 10 ** 15:
        return -math.log(-math.expm1(-1.0 / n))
    half_inv = float_ratio(1, 2 * n)  # underflows to 0.0 for astronomical n
    return math.log(n) - math.log1p(-half_inv)


def gap_from_inv_n(n: int) -> float:
    """1 - exp(-1/n) as a float; requires n within the direct range."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > DIRECT_N_LIMIT:
        raise OverflowError("gap underflows the double range; use log form")
    return -math.expm1(-1.0 / n)
