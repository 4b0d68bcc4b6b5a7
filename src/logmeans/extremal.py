"""Extremal lacunary constructions that exhaust the quadratic growth ceiling.

build_p_star assembles exp((i/2) * sum z^(2^k)/k^2): a dyadic exponent series
whose means at the adapted radii r_k = exp(-2^-k) grow like 4^k/k^4, beating
every power gauge below the ceiling.

choose_schedule / build_p_phi generalize the construction to an arbitrary
gauge that vanishes relative to the ceiling: exponents n_k are chosen
minimally with gauge(exp(-1/n_k)) <= n_k^2 / k^8, which forces the means to
overtake the gauge by a factor k^4 along exp(-1/n_k).

For every gauge that satisfies the hypothesis the admissibility margin
h(n) = 2 log n - 8 log k - log gauge(exp(-1/n)) is strictly increasing in n.
With L = -log(1 - exp(-1/n)) the log gauge is a*L - b*log(1+L), and
dL/dn = 1/(n^2 (e^(1/n) - 1)) <= 1/n, so h'(n) >= (2-a)/n + b*L'/(1+L) > 0
whenever a < 2, or a = 2 and b > 0.  The admissible n therefore form a
half-line and plain bisection finds its first integer exactly.

Schedule exponents routinely leave the double range (for gauges close to the
ceiling they reach exp(k^4) and beyond), so everything downstream of the
search works either with exact integers in log space or with ordinary floats,
never with rounded radii.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .caratheodory import CaratheodoryFunction, LacunaryExp
from .errors import (
    ExponentOverflow,
    GaugeHypothesisError,
    ParseError,
    RadiusOutOfRange,
)
from .means import TWO_PI, parseval_log_value_at_inv_n
from .numerics import DIRECT_N_LIMIT, LOG_MAX, gap_from_inv_n, neglog_gap_from_inv_n
from .series import SparseSeries

# Means floor coefficient along the adapted radii: pi * e^-2 / 2.
FLOOR_COEFF = math.pi * math.exp(-2.0) / 2.0

# Largest dyadic index, a chosen limit: SparseSeries holds any exponent, and
# star_sweep's 4.0 ** (k - 1) first raises OverflowError at k = 513.
MAX_STAR_INDEX = 62

# Schedule exponents stop at 2^MAX_SCHEDULE_BITS: a 94,548-bit schedule
# (powlog:2,1 at k=4) already takes about 5 s, and the cost grows with the
# square of the size.
MAX_SCHEDULE_BITS = 2 ** 17


class Gauge(namedtuple("Gauge", "a b")):
    """Comparison function (1-r)^(-a) * log(e/(1-r))^(-b) on (0, 1)."""

    __slots__ = ()

    def __new__(cls, a: float, b: float = 0.0):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("gauge parameters must be finite")
        if a < 0.0 or b < 0.0:
            raise ValueError("gauge parameters must be >= 0")
        return super().__new__(cls, a, b)

    @property
    def satisfies_hypothesis(self) -> bool:
        """True when the gauge vanishes relative to (1-r)^-2 as r -> 1."""
        return self.a < 2.0 or (self.a == 2.0 and self.b > 0.0)

    def value_from_gap(self, gap: float) -> float:
        """Gauge value expressed through gap = 1 - r (accurate near r = 1)."""
        return gap ** (-self.a) * (1.0 - math.log(gap)) ** (-self.b)

    def log_value_from_neglog_gap(self, neglog_gap: float) -> float:
        """log of the gauge given L = -log(1 - r); exact at any scale."""
        return self.a * neglog_gap - self.b * math.log1p(neglog_gap)

    def label(self) -> str:
        if self.b == 0.0:
            return f"pow:{self.a!r}"
        return f"powlog:{self.a!r},{self.b!r}"

    @classmethod
    def from_string(cls, text: str) -> "Gauge":
        """Parse "pow:<a>" or "powlog:<a>,<b>" (locale-independent floats)."""
        kind, _, body = text.partition(":")
        parts = body.split(",")
        if (kind, len(parts)) not in (("pow", 1), ("powlog", 2)):
            raise ParseError(f"gauge must be pow:<a> or powlog:<a>,<b>: {text!r}")
        try:
            return cls(*map(float, parts))
        except ValueError as exc:
            raise ParseError(f"invalid gauge {text!r}: {exc}") from None


class ExponentSchedule(namedtuple("ExponentSchedule", "n_k")):
    """Strictly increasing exponents for the gauge-adapted construction."""

    __slots__ = ()

    def __new__(cls, n_k: tuple[int, ...]):
        prev = 0
        for n in n_k:
            if n <= prev:
                raise ValueError("schedule must be strictly increasing")
            prev = n
        return super().__new__(cls, n_k)


def _log_gauge_at_inv_n(phi: Gauge, n: int) -> float:
    """log gauge(exp(-1/n)), choosing the same arithmetic the schedule
    predicate uses so inequalities verified there survive verbatim.  Where
    the direct value underflows to 0.0 (a large log exponent b) or is not
    finite, the log form is used instead."""
    if n <= DIRECT_N_LIMIT:
        value = phi.value_from_gap(gap_from_inv_n(n))
        if 0.0 < value < math.inf:
            return math.log(value)
    return phi.log_value_from_neglog_gap(neglog_gap_from_inv_n(n))


def _admissible(phi: Gauge, n: int, k: int) -> bool:
    """gauge(exp(-1/n)) <= n^2/k^8, evaluated directly in double arithmetic
    whenever representable (exact at integer boundaries), in log space
    otherwise."""
    if n <= DIRECT_N_LIMIT:
        return phi.value_from_gap(gap_from_inv_n(n)) <= (n * n) / (k ** 8)
    lhs = phi.log_value_from_neglog_gap(neglog_gap_from_inv_n(n))
    return lhs <= 2.0 * math.log(n) - 8.0 * math.log(k)


def choose_schedule(phi: Gauge, k_max: int) -> ExponentSchedule:
    """Minimal strictly increasing exponents with gauge(exp(-1/n_k)) <= n_k^2/k^8.

    Search per index: doubling until admissible, then bisection for the
    smallest admissible integer inside the bracket.  Bisection is exact
    because the margin 2 log n - 8 log k - log gauge(exp(-1/n)) is strictly
    increasing in n for every gauge satisfying the hypothesis (see the
    module docstring).  Deterministic for fixed inputs.  Raises
    GaugeHypothesisError when the gauge violates the required decay.

    Raises ExponentOverflow, before any search, when no exponent below
    2^MAX_SCHEDULE_BITS can be admissible at k_max.  The check is exact: for
    n < 2^B, L(n) = -log(1 - exp(-1/n)) <= log n + log 2 < (B+1) log 2, and
    since log n < L(n), admissibility at k implies
    (2-a) L(n) + b log1p(L(n)) > 8 log k, whose left side increases with L.
    The required size grows with k, so checking k_max covers every index.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if not phi.satisfies_hypothesis:
        raise GaugeHypothesisError(
            f"gauge {phi.label()} does not vanish relative to the quadratic "
            f"ceiling (need a < 2, or a = 2 with b > 0)"
        )
    cap = (MAX_SCHEDULE_BITS + 1) * math.log(2.0)
    if 2.0 * cap - phi.log_value_from_neglog_gap(cap) <= 8.0 * math.log(k_max):
        raise ExponentOverflow(
            f"gauge {phi.label()} needs exponents past 2^{MAX_SCHEDULE_BITS} "
            f"at k={k_max}"
        )
    found: list[int] = []
    prev = 0
    for k in range(1, k_max + 1):
        lo = prev + 1
        if _admissible(phi, lo, k):
            n_k = lo
        else:
            below, cand = lo, 2 * lo
            while not _admissible(phi, cand, k):
                below, cand = cand, cand * 2
            while cand - below > 1:  # not admissible(below), admissible(cand)
                mid = (below + cand) // 2
                if _admissible(phi, mid, k):
                    cand = mid
                else:
                    below = mid
            n_k = cand
        found.append(n_k)
        prev = n_k
    return ExponentSchedule(tuple(found))


def build_p_star(k_max: int) -> LacunaryExp:
    """The dyadic lacunary function exp((i/2) * sum_{k<=k_max} z^(2^k)/k^2)."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if k_max > MAX_STAR_INDEX:
        raise ExponentOverflow(
            f"k_max = {k_max} puts exponents past 2^{MAX_STAR_INDEX}"
        )
    terms = [(2 ** k, 0.5j / (k * k)) for k in range(1, k_max + 1)]
    return LacunaryExp(SparseSeries(terms), {"type": "theorem2_star", "k_max": k_max})


def critical_radii_star(k_max: int) -> list[float]:
    """Adapted radii exp(-2^-k), k = 1..k_max, as floats.

    Past k = 53 the float collapses onto 1.0; sweeps that need larger k work
    from the exact negated logs 2^-k instead (see star_sweep).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if k_max > 53:
        raise RadiusOutOfRange(
            "exp(-2^-k) is not representable below 1.0 past k = 53"
        )
    return [math.exp(-(2.0 ** -k)) for k in range(1, k_max + 1)]


def build_p_phi(
    schedule: ExponentSchedule, spec_dict: dict | None = None
) -> LacunaryExp:
    """exp((i/2) * sum z^(n_k)/k^2) for a chosen exponent schedule, which
    the function carries; the spec defaults to the lacunary one."""
    terms = [
        (n, 0.5j / (k * k)) for k, n in enumerate(schedule.n_k, start=1)
    ]
    return LacunaryExp(SparseSeries(terms), spec_dict, schedule)


def ratio_at_schedule(p: CaratheodoryFunction, phi: Gauge) -> list[float]:
    """means/gauge at the exact adapted radii exp(-1/n_k) of the schedule p
    was built on.

    Both sides are evaluated in log space from the exact integers, so a
    ratio is meaningful even when means and gauge separately overflow every
    float; a ratio whose log reaches LOG_MAX saturates to +inf."""
    if p.schedule is None:
        raise ValueError("schedule ratios need a schedule-built function")
    f = p.log_coeffs(max(p.schedule.n_k, default=0))
    out = []
    for n in p.schedule.n_k:
        ln_means = parseval_log_value_at_inv_n(f, n)
        ln_gauge = _log_gauge_at_inv_n(phi, n)
        d = ln_means - ln_gauge
        out.append(math.exp(d) if d < LOG_MAX else math.inf)
    return out


def star_sweep(k_max: int) -> list[dict]:
    """Means of the dyadic extremal function at its adapted radii.

    Radii are handled through their exact negated logs 2^-k; the reported
    r_k float is display-only.  Each row carries the single-term lower bound
    2*pi*e^-2*4^(k-1)/k^4 and the ratio of the full sum to it.
    """
    f = build_p_star(k_max).log_coeffs(2 ** k_max)
    rows = []
    for k in range(1, k_max + 1):
        value = f.parseval_value(2.0 ** -k)
        lower = TWO_PI * math.exp(-2.0) * 4.0 ** (k - 1) / float(k) ** 4
        rows.append(
            {
                "k": k,
                "r_k": math.exp(-(2.0 ** -k)),
                "means": value,
                "lower_bound": lower,
                "ratio_to_lower": value / lower,
            }
        )
    return rows


def gauge_sweep(phi: Gauge, k_max: int) -> tuple[ExponentSchedule, list[dict]]:
    """Schedule plus per-index ratios means/gauge against the k^4 floor."""
    schedule = choose_schedule(phi, k_max)
    p = build_p_phi(schedule)
    ratios = ratio_at_schedule(p, phi)
    rows = []
    for k, (n, ratio) in enumerate(zip(schedule.n_k, ratios), start=1):
        floor = FLOOR_COEFF * float(k) ** 4
        rows.append(
            {
                "k": k,
                "n_k": n,
                "ratio": ratio,
                "floor": floor,
                "ratio_to_floor": ratio / floor,
            }
        )
    return schedule, rows
