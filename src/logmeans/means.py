"""Quadratic integral means of the normalized logarithmic derivative z*p'/p.

Two computations are provided:

* parseval_means: the coefficient route.  If log p = a_0 + sum a_n z^n then
  the means equal 2*pi * sum n^2 |a_n|^2 r^(2n); the sum runs over the stored
  coefficients and a truncation tail bound is reported alongside.
* quadrature_means: the definition route.  An M-point uniform trapezoid rule
  on the circle of radius r.  z*F'(z) is a polynomial of degree N without
  constant term, so its M samples alias no two coefficients and the rule is
  exact (up to truncation of F) once M >= N+1.  F is built from the same
  log-coefficients a_n, so agreement of the two routes checks the FFT and
  the summation, not the coefficients.

Tail bounds combine the class-wide coefficient bound sum |a_n|^2 <= pi^2/2
with monotonicity of n^2 r^(2n) past n = 1/log(1/r), giving
pi^3 * (N+1)^2 * r^(2(N+1)) where that monotonicity holds and +inf where it
does not.  The coefficient route accumulates with exact (fsum) summation;
the quadrature sums its positive squares with numpy's pairwise sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .caratheodory import CaratheodoryFunction
from .errors import QuadratureInfeasible, RadiusOutOfRange
from .numerics import exp_neg_scaled, float_ratio, logsumexp
from .series import AnySeries, DenseSeries, SparseSeries

TWO_PI = 2.0 * math.pi
LOG_TWO_PI = math.log(TWO_PI)

# Dense materialization past this exponent is pointless; quadrature refuses.
MAX_QUADRATURE_DEGREE = 2 ** 20


@dataclass(frozen=True)
class MeansProfile:
    """Means values on a strictly increasing radius grid in (0, 1)."""

    radii: Tuple[float, ...]
    values: Tuple[float, ...]
    tail_bounds: Tuple[float, ...]
    method: str

    def __post_init__(self):
        r = self.radii
        if len(r) != len(self.values) or len(r) != len(self.tail_bounds):
            raise ValueError("radii, values, tail_bounds must share a length")
        _check_radii(r)
        if any(v < 0 or math.isnan(v) for v in self.values):
            raise ValueError("values must be nonnegative")
        if any(t < 0 or math.isnan(t) for t in self.tail_bounds):
            raise ValueError("tail bounds must be nonnegative")
        if self.method not in ("parseval", "quadrature"):
            raise ValueError(f"unknown method {self.method!r}")


def _check_radii(radii: Sequence[float]) -> None:
    prev = 0.0
    for r in radii:
        if not (0.0 < r < 1.0):
            raise RadiusOutOfRange(f"radius {r!r} not in (0, 1)")
        if r <= prev and prev > 0.0:
            raise ValueError("radii must be strictly increasing")
        prev = r


def geometric_radii(start: float, factor: float, count: int) -> List[float]:
    """Grid r_j = 1 - (1-start)*factor^j for j = 0..count-1, approaching 1."""
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
        out.append(r)
    return out


def tail_bound(trunc_degree: int, neglog_r: float) -> float:
    """pi^3*(N+1)^2*r^(2(N+1)) where n^2 r^(2n) decreases past N, else +inf."""
    if neglog_r <= 0.0:
        raise RadiusOutOfRange("radius must be < 1")
    np1 = trunc_degree + 1
    if np1.bit_length() <= 1000:
        x = float(np1) * neglog_r
    else:
        lx = math.log(np1) + math.log(neglog_r)
        x = math.exp(lx) if lx < 700.0 else math.inf
    if not x > 1.0:
        return math.inf
    ln_tail = 3.0 * math.log(math.pi) + 2.0 * math.log(np1) - 2.0 * x
    if ln_tail > 700.0:
        return math.inf
    return math.exp(ln_tail)  # underflows harmlessly to 0 for huge x


def _dense_weights(a: DenseSeries) -> Tuple[np.ndarray, np.ndarray]:
    c = a.coeffs
    n = np.arange(1, c.size, dtype=np.float64)
    mag2 = c.real[1:] ** 2 + c.imag[1:] ** 2
    return n, (n * n) * mag2


def parseval_value_at_neglog(a: AnySeries, neglog_r: float) -> float:
    """2*pi * sum n^2 |a_n|^2 exp(-2*n*neglog_r) over stored coefficients.

    neglog_r = -log(r) > 0.  Exponents of any size are handled; the value
    itself may overflow to +inf for extreme sparse inputs, in which case the
    log-domain variant should be used instead.
    """
    if neglog_r <= 0.0:
        raise RadiusOutOfRange("radius must be < 1")
    if isinstance(a, DenseSeries):
        if a.coeffs.size == 1:
            return 0.0
        n, w = _dense_weights(a)
        return TWO_PI * math.fsum((w * np.exp(-2.0 * neglog_r * n)).tolist())
    terms = []
    for e, c in a.terms:
        ac2 = c.real * c.real + c.imag * c.imag
        power = exp_neg_scaled(neglog_r, 2 * e)
        if power == 0.0 or ac2 == 0.0:
            continue
        if e.bit_length() <= 500:
            terms.append(float(e) ** 2 * ac2 * power)
        else:
            ln_term = 2.0 * math.log(e) + math.log(ac2) + math.log(power)
            terms.append(math.exp(ln_term) if ln_term <= 700.0 else math.inf)
    return TWO_PI * math.fsum(terms)


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


def parseval_means(a: AnySeries, radii: Sequence[float]) -> MeansProfile:
    """Coefficient-route means profile over a strictly increasing grid.

    Input is the coefficient sequence of log p (dense or sparse); the n = 0
    coefficient never contributes.
    """
    _check_radii(radii)
    degree = (
        a.truncation_degree if isinstance(a, DenseSeries) else a.max_exponent
    )
    values = []
    tails = []
    for r in radii:
        s = -math.log(r)
        values.append(parseval_value_at_neglog(a, s))
        tails.append(tail_bound(degree, s))
    return MeansProfile(tuple(radii), tuple(values), tuple(tails), "parseval")


def h2_sum(a: AnySeries) -> float:
    """sum |a_n|^2 over the stored nonconstant coefficients.

    A partial sum, monotone nondecreasing in the truncation degree; for the
    log-coefficients of any function with positive real part it never
    exceeds pi^2/2.
    """
    if isinstance(a, DenseSeries):
        c = a.coeffs
        if c.size == 1:
            return 0.0
        mag2 = c.real[1:] ** 2 + c.imag[1:] ** 2
        return math.fsum(mag2.tolist())
    return math.fsum(
        c.real * c.real + c.imag * c.imag for _, c in a.terms
    )


def _poly_circle_samples(coeffs: np.ndarray, r: float, m: int) -> np.ndarray:
    """Values of sum c_n z^n (degree < m) at the m-th roots of unity scaled
    by r, from a single zero-padded inverse FFT."""
    scaled = coeffs * np.power(r, np.arange(coeffs.size))
    return np.fft.ifft(scaled, n=m) * m


def quadrature_means(
    p: CaratheodoryFunction,
    radii: Sequence[float],
    quadrature_points: int,
    trunc_degree: int,
) -> MeansProfile:
    """Definition-route means profile via the M-point uniform trapezoid rule.

    Integrates |z*F'(z)|^2 with F = log p truncated at trunc_degree.  z*F'
    has frequencies 1..trunc_degree only, so M samples alias none of them
    and the rule is exact for the required quadrature_points >=
    trunc_degree+1 (ValueError otherwise).
    F comes from the same log-coefficients parseval_means sums, so this
    route checks the FFT and the summation, not the coefficients.

    Refuses sparse-exponent inputs that would need dense degrees beyond
    2**20 (QuadratureInfeasible); the coefficient route is exact for those.
    """
    _check_radii(radii)
    if trunc_degree < 1:
        raise ValueError("truncation degree must be >= 1")
    sparse = p.log_sparse()
    if sparse is not None and sparse.max_exponent > MAX_QUADRATURE_DEGREE:
        raise QuadratureInfeasible(
            f"max exponent {sparse.max_exponent} exceeds {MAX_QUADRATURE_DEGREE}"
        )
    if quadrature_points < trunc_degree + 1:
        raise ValueError("need at least trunc_degree+1 quadrature points")
    m = quadrature_points
    f = p.log_taylor(trunc_degree)
    g = np.arange(f.coeffs.size) * f.coeffs  # z*F' has coefficients n*a_n
    values = []
    tails = []
    for r in radii:
        samples = _poly_circle_samples(g, r, m)
        power = np.sum(samples.real ** 2 + samples.imag ** 2)
        values.append((TWO_PI / m) * float(power))
        tails.append(tail_bound(trunc_degree, -math.log(r)))
    return MeansProfile(tuple(radii), tuple(values), tuple(tails), "quadrature")
