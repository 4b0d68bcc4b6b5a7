"""Low-level numeric helpers: log-domain arithmetic, and radius
representations that stay meaningful when 1 - r underflows a double.

Two radius encodings are used throughout the package:

* an ordinary float r in (0, 1), carried together with s = -log(r);
* an exact integer n >= 1 standing for r = exp(-1/n).  The integer form is
  required for exponent schedules whose terms grow far beyond 2**53, where
  the float form would collapse to 1.0.
"""

from __future__ import annotations

import math
from typing import Iterable

# Largest n for which exp(-1/n), 1 - exp(-1/n) and n**2 are all safely
# representable as doubles.  Beyond it, computations move to log space.
DIRECT_N_LIMIT = 10 ** 150

LOG_MAX = 709.0  # exp overflows past this


def logsumexp(values: Iterable[float]) -> float:
    """log(sum(exp(v))) without overflow; -inf for an empty or all -inf input."""
    vals = [v for v in values if v != -math.inf]
    if not vals:
        return -math.inf
    m = max(vals)
    if m == math.inf:
        return math.inf
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
    bits it is exp(log s + log e), saturating to +inf from exp(LOG_MAX) on."""
    if e.bit_length() <= 1000:
        return s * float(e)
    lx = math.log(s) + math.log(e)
    return math.exp(lx) if lx <= LOG_MAX else math.inf


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
