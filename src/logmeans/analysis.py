"""Growth-scale diagnostics over means profiles.

fit_exponent estimates the effective exponent beta in means ~ (1-r)^-beta by
least squares of log(means) against log(1/(1-r)); the worst log-residual
is part of the result, never hidden.

little_o_check returns the normalized sequence (1-r)^2 * means, whose decay
toward 0 is the per-function refinement of the class-wide quadratic bound.
The trend is only meaningful while the truncation tail stays below the
measured value; validity_horizon reports how far that holds.

corollary_report bundles the four optimality checks (uniform constant,
per-function decay, gauge divergence, least exponent) into a deterministic,
JSON-serializable report.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .caratheodory import CaratheodoryFunction
from .errors import DegenerateProfile
from .extremal import (
    FLOOR_COEFF,
    Gauge,
    critical_radii_star,
    ratio_at_schedule,
)
from .jsonio import dumps_canonical
from .means import MeansProfile, geometric_radii, parseval_means

# Explicit constant of the class-wide quadratic bound: pi^3 * e^-2.
UNIFORM_CONSTANT = math.pi ** 3 * math.exp(-2.0)

ZERO_LEVEL = 1e-30  # below this a means value is treated as exactly zero

# Report settings: part (iv) slope thresholds, dense truncation degree, and
# the number of trailing grid points whose decay part (ii) checks.
THRESHOLDS = (0.5, 1.0, 1.5)
TRUNC_DEGREE = 2048
TREND_POINTS = 5


class GrowthFit(namedtuple("GrowthFit", "slope intercept residual")):
    """Fitted growth exponent over a means profile."""

    __slots__ = ()


def fit_exponent(profile: MeansProfile) -> GrowthFit:
    """Least-squares slope of log(means) against log(1/(1-r)) over the
    whole profile.

    Raises DegenerateProfile for fewer than 3 points or any nonpositive
    value.
    """
    if len(profile.radii) < 3:
        raise DegenerateProfile("need at least 3 points to fit")
    xs, ys = [], []
    for j, (r, value) in enumerate(zip(profile.radii, profile.values)):
        if not value > 0.0 or math.isinf(value):
            raise DegenerateProfile(f"value {value!r} at index {j} unusable")
        xs.append(-math.log(1.0 - r))
        ys.append(math.log(value))
    m = len(xs)
    mean_x = math.fsum(xs) / m
    mean_y = math.fsum(ys) / m
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    residual = max(abs(y - (slope * x + intercept)) for x, y in zip(xs, ys))
    return GrowthFit(slope, intercept, residual)


def little_o_check(profile: MeansProfile) -> list[float]:
    """The normalized sequence (1 - r_j)^2 * means_j."""
    return [
        (1.0 - r) ** 2 * v for r, v in zip(profile.radii, profile.values)
    ]


def validity_horizon(profile: MeansProfile) -> int:
    """Number of leading grid points whose tail bound stays below the value.

    Beyond the horizon the profile reflects the truncation more than the
    function, so trend statements should not extrapolate past it.
    """
    count = 0
    for value, tail in zip(profile.values, profile.tail_bounds):
        if tail > value and value > ZERO_LEVEL:
            break
        count += 1
    return count


class Report:
    """Four-part optimality report; serialization is byte-deterministic."""

    def __init__(self, gauge: str, constant: float):
        self.gauge, self.constant, self.parts = gauge, constant, {}

    def to_json_dict(self) -> dict:
        return {
            "schema": "v1",
            "kind": "optimality_report",
            "gauge": self.gauge,
            "constant": self.constant,
            "parts": self.parts,
        }

    def to_json(self) -> str:
        return dumps_canonical(self.to_json_dict())


def _member_label(index: int, p: CaratheodoryFunction) -> str:
    return f"{index}:{p.spec_dict.get('type', 'unknown')}"


def _decreasing_or_zero(tail: Sequence[float]) -> bool:
    if all(v <= ZERO_LEVEL for v in tail):
        return True
    return all(a > b for a, b in zip(tail, tail[1:]))


def corollary_report(
    suite: Sequence[CaratheodoryFunction],
    phi: Gauge,
    *,
    constant: float = UNIFORM_CONSTANT,
) -> Report:
    """Assemble the four-part optimality report over a suite of certified
    functions on the grid geometric_radii(0.5, 0.5, 20).

    (i)   uniform bound: (1-r)^2 * means - tail <= constant over the whole
          suite and radius grid;
    (ii)  per-function decay of (1-r)^2 * means over the trailing grid
          points within each profile's validity horizon;
    (iii) gauge divergence floor ratio >= (pi*e^-2/2)*k^4 for every
          schedule-built member (not applicable when the suite has none);
    (iv)  fitted growth exponent of the dyadic extremal member above every
          of THRESHOLDS (not applicable without that member).
    """
    if len(suite) == 0:
        raise ValueError("suite must be nonempty")
    grid = geometric_radii(0.5, 0.5, 20)
    report = Report(gauge=phi.label(), constant=constant)
    worst = -math.inf
    witness_label = ""
    witness_radius = 0.0
    members = {}
    all_pass = True
    floor_rows = []
    floor_pass = True
    star = None
    for index, p in enumerate(suite):
        label = _member_label(index, p)
        profile = parseval_means(p.log_coeffs(TRUNC_DEGREE), grid)
        normalized = little_o_check(profile)
        # (i) uniform bound with the explicit constant
        for r, value, tail in zip(grid, normalized, profile.tail_bounds):
            excess = value - tail if math.isfinite(tail) else -math.inf
            if excess > worst:
                worst = excess
                witness_label = label
                witness_radius = r
        # (ii) per-function little-o trend
        horizon = validity_horizon(profile)
        usable = normalized[:horizon] if horizon >= 3 else normalized
        window = usable[-TREND_POINTS:]
        ok = _decreasing_or_zero(window)
        all_pass = all_pass and ok
        members[label] = {
            "pass": ok,
            "final_value": window[-1] if window else 0.0,
            "tail_valid_points": horizon,
        }
        # (iii) gauge divergence floors for schedule-built members
        if p.schedule is not None:
            for k, ratio in enumerate(ratio_at_schedule(p, phi), start=1):
                floor = FLOOR_COEFF * float(k) ** 4
                floor_pass = floor_pass and ratio >= floor * (1.0 - 1e-10)
                floor_rows.append(
                    {"member": label, "k": k, "ratio_to_floor": ratio / floor}
                )
        # (iv) is measured on the first dyadic extremal member
        if star is None and p.spec_dict.get("type") == "theorem2_star":
            star = (label, p)

    report.parts["uniform_bound"] = {
        "status": "ok",
        "pass": worst <= constant,
        "margin": constant - worst,
        "witness_function": witness_label,
        "witness_radius": witness_radius,
    }
    report.parts["little_o"] = {
        "status": "ok",
        "pass": all_pass,
        "members": members,
    }
    if floor_rows:
        report.parts["gauge_divergence"] = {
            "status": "ok",
            "pass": floor_pass,
            "margin": min(row["ratio_to_floor"] for row in floor_rows) - 1.0,
            "floors": floor_rows,
        }
    else:
        report.parts["gauge_divergence"] = {
            "status": "not_applicable",
            "pass": None,
        }

    # (iv) least exponent via the dyadic extremal member
    k_max = min(star[1].spec_dict["k_max"], 53) if star else 0
    if k_max < 5:
        report.parts["least_exponent"] = {
            "status": "not_applicable",
            "pass": None,
        }
    else:
        label, p = star
        hi = max(k_max - 5, 3)
        lo = max(hi - 10, 1)
        star_radii = critical_radii_star(k_max)[lo - 1 : hi]
        profile = parseval_means(p.log_coeffs(TRUNC_DEGREE), star_radii)
        fit = fit_exponent(profile)
        ok = all(fit.slope > t for t in THRESHOLDS)
        report.parts["least_exponent"] = {
            "status": "ok",
            "pass": ok,
            "member": label,
            "slope": fit.slope,
            "residual": fit.residual,
            "window_k": [lo, hi],
            "thresholds": list(THRESHOLDS),
            "margin": fit.slope - max(THRESHOLDS),
        }
    return report
