"""Quadratic integral means of the normalized logarithmic derivative z*p'/p,
computed from the log-coefficients alone.

Two computations are provided:

* parseval_means: the coefficient route.  If log p = a_0 + sum a_n z^n then
  the means equal 2*pi * sum n^2 |a_n|^2 r^(2n); each series type (dense or
  sparse) sums its stored coefficients itself, and a truncation tail bound
  is reported alongside.
* quadrature_means: the definition route.  An M-point uniform trapezoid rule
  on the circle of radius r for F = sum a_n z^n given by its dense
  coefficients.  z*F'(z) is a polynomial of degree N without constant
  term, so its M samples alias no two coefficients and the rule is exact
  (up to truncation of F) once M >= N+1.  F comes from the same a_n, so
  agreement of the two routes checks the FFT and the summation, not the
  coefficients.

Tail bounds combine the class-wide coefficient bound sum |a_n|^2 <= pi^2/2
with monotonicity of n^2 r^(2n) past n = 1/log(1/r), giving
pi^3 * (N+1)^2 * r^(2(N+1)) where that monotonicity holds and +inf where it
does not.  The coefficient route rounds the sum of its terms correctly
(numerics.exact_sum for dense series, math.fsum for sparse terms); the
quadrature squares its samples in place and sums them with numpy's pairwise
sum.

Only quadrature_means imports numpy, for its FFT; the coefficient route and
the log-domain value at exp(-1/n) run on whatever series they are given,
so sparse means need no numpy.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .errors import RadiusOutOfRange
from .numerics import float_product, float_ratio, logsumexp
from .series import TWO_PI, DenseSeries, SparseSeries

LOG_TWO_PI = math.log(TWO_PI)


class MeansProfile(namedtuple("MeansProfile", "radii values tail_bounds")):
    """Means values on a strictly increasing radius grid in (0, 1)."""

    __slots__ = ()

    def __new__(cls, radii: tuple, values: tuple, tail_bounds: tuple):
        if len(radii) != len(values) or len(radii) != len(tail_bounds):
            raise ValueError("radii, values, tail_bounds must share a length")
        _check_radii(radii)
        if any(v < 0 or math.isnan(v) for v in values):
            raise ValueError("values must be nonnegative")
        if any(t < 0 or math.isnan(t) for t in tail_bounds):
            raise ValueError("tail bounds must be nonnegative")
        return super().__new__(cls, radii, values, tail_bounds)


def _check_radii(radii: Sequence[float]) -> None:
    prev = 0.0
    for r in radii:
        if not (0.0 < r < 1.0):
            raise RadiusOutOfRange(f"radius {r!r} not in (0, 1)")
        if r <= prev and prev > 0.0:
            raise ValueError("radii must be strictly increasing")
        prev = r


def geometric_radii(start: float, factor: float, count: int) -> list[float]:
    """Grid r_j = 1 - (1-start)*factor^j for j = 0..count-1, approaching 1;
    RadiusOutOfRange once rounding collapses it onto 1.0 or stalls it."""
    if not (0.0 < start < 1.0):
        raise RadiusOutOfRange(f"start radius {start!r} not in (0, 1)")
    if not (0.0 < factor < 1.0):
        raise ValueError("factor must lie in (0, 1)")
    if count < 1:
        raise ValueError("count must be >= 1")
    gap = 1.0 - start
    out = []
    for j in range(count):
        r = 1.0 - gap * factor ** j
        if r >= 1.0:
            raise RadiusOutOfRange("grid collapsed onto the boundary")
        if out and r <= out[-1]:
            raise RadiusOutOfRange(f"grid stalled at r = {r!r}: factor too close to 1")
        out.append(r)
    return out


def tail_bound(trunc_degree: int, neglog_r: float) -> float:
    """pi^3*(N+1)^2*r^(2(N+1)) where n^2 r^(2n) decreases past N, else +inf."""
    if neglog_r <= 0.0:
        raise RadiusOutOfRange("radius must be < 1")
    np1 = trunc_degree + 1
    x = float_product(neglog_r, np1)
    if not x > 1.0:
        return math.inf
    ln_tail = 3.0 * math.log(math.pi) + 2.0 * math.log(np1) - 2.0 * x
    if ln_tail > 700.0:
        return math.inf
    return math.exp(ln_tail)  # underflows harmlessly to 0 for huge x


def parseval_log_value_at_inv_n(a: SparseSeries, n: int) -> float:
    """log of the Parseval means at the radius exp(-1/n), n an exact integer.

    Works entirely in the log domain, so it stays meaningful when the
    exponents (and the means themselves) are far beyond double range.
    """
    if n < 1:
        raise RadiusOutOfRange("n must be >= 1")
    logs = []
    for e, c in a.terms:
        ac = abs(c)
        if ac == 0.0:
            continue
        ratio = float_ratio(e, n)  # e/n, saturating
        if ratio == math.inf:
            continue
        logs.append(2.0 * math.log(e) + 2.0 * math.log(ac) - 2.0 * ratio)
    if not logs:
        return -math.inf
    return LOG_TWO_PI + logsumexp(logs)


def parseval_means(
    a: DenseSeries | SparseSeries, radii: Sequence[float]
) -> MeansProfile:
    """Coefficient-route means profile over a strictly increasing grid.

    Input is the coefficient sequence of log p (dense or sparse); the n = 0
    coefficient never contributes.
    """
    _check_radii(radii)
    values = []
    tails = []
    for r in radii:
        s = -math.log(r)
        values.append(a.parseval_value(s))
        tails.append(tail_bound(a.truncation_degree, s))
    return MeansProfile(tuple(radii), tuple(values), tuple(tails))


def quadrature_means(
    f: DenseSeries, radii: Sequence[float], quadrature_points: int
) -> tuple[float, ...]:
    """Definition-route means at each radius via the M-point uniform
    trapezoid rule.

    Integrates |z*F'(z)|^2 with F the dense series f of degree N.  z*F' has
    frequencies 1..N only, so M samples alias none of them and the rule is
    exact for the required quadrature_points >= N+1 (ValueError otherwise).
    F comes from the same log-coefficients parseval_means sums, so this
    route checks the FFT and the summation, not the coefficients; its
    truncation tail is parseval_means'.
    """
    import numpy as np
    _check_radii(radii)
    if quadrature_points < f.truncation_degree + 1:
        raise ValueError("need at least truncation_degree+1 quadrature points")
    m = quadrature_points
    n = np.arange(f.coeffs.size)
    g = n * f.coeffs  # z*F' has coefficients n*a_n
    values = []
    for r in radii:
        # z*F' at the m-th roots of unity scaled by r: one zero-padded FFT
        samples = np.fft.ifft(g * np.power(r, n), n=m)
        samples *= m
        # |samples|^2 in place over the real and imaginary parts, summed pairwise
        parts = samples.view(np.float64)
        np.square(parts, out=parts)
        values.append((TWO_PI / m) * float(parts.sum()))
    return tuple(values)
