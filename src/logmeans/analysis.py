"""Growth-scale diagnostics over means profiles.

fit_exponent estimates the effective exponent beta in means ~ (1-r)^-beta by
least squares of log(means) against log(1/(1-r)); the worst log-residual
is part of the result, never hidden.

corollary_report bundles the four optimality checks (uniform constant,
per-function decay, gauge divergence, least exponent) into a deterministic,
JSON-serializable report.  Per-function decay, the refinement
(1-r)^2 * means -> 0 of the class-wide quadratic bound, is checked against
the closed-form bound each construction states (decay_bound).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .caratheodory import CaratheodoryFunction
from .errors import DegenerateProfile
from .extremal import Gauge, critical_radii_star, ratio_at_schedule
from .jsonio import dumps_canonical
from .means import MeansProfile, geometric_radii, parseval_means

# Explicit constant of the class-wide quadratic bound: pi^3 * e^-2.
UNIFORM_CONSTANT = math.pi ** 3 * math.exp(-2.0)

# Report settings: part (iv) slope thresholds and dense truncation degree.
THRESHOLDS = (0.5, 1.0, 1.5)
TRUNC_DEGREE = 2048

# Relative slack of part (ii): a few ulp of rounding of normal doubles each
# in the computed (1-r)^2 * means (its terms, their correctly rounded sum,
# the factor) and in the decay bound, which the lacunary value approaches as
# e*(1-r) -> 0.
DECAY_SLACK = 1e-12

# Absolute slack of part (ii) per stored term.  Below 2^-1022 a rounding
# errs by up to 2^-1075 absolutely: each sparse means term (rounded once
# from the log domain), their fsum, the products by 2*pi and (1-r)^2 <= 1/4;
# each squared lacunary decay-bound term, their fsum, the product by 2*pi.
# Scaled by at most 2*pi these stay under 9 * 2^-1074 per term.
SUBNORMAL_SLACK = 9 * 2.0 ** -1074


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


class Report:
    """Four-part optimality report; serialization is byte-deterministic."""

    def __init__(self, gauge: str, constant: float):
        self.gauge, self.constant, self.parts = gauge, constant, {}

    def to_json(self) -> str:
        return dumps_canonical(
            {
                "schema": "v1",
                "kind": "optimality_report",
                "gauge": self.gauge,
                "constant": self.constant,
                "parts": self.parts,
            }
        )


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
    (ii)  per-function decay: at every grid radius (1-r)^2 * means is at
          most the member's decay_bound, within DECAY_SLACK and
          SUBNORMAL_SLACK per stored term;
    (iii) gauge divergence floor ratio >= (pi*e^-2/2)*k^4 for every
          schedule-built member (not applicable when the suite has none);
    (iv)  fitted growth exponent of the dyadic extremal member above every
          of THRESHOLDS (not applicable without that member).
    """
    if len(suite) == 0:
        raise ValueError("suite must be nonempty")
    grid = geometric_radii(0.5, 0.5, 20)
    report = Report(gauge=phi.label(), constant=constant)
    # Records per member; each part's verdict is one expression over them.
    # Part (i)'s seed stands when no radius has a finite tail.
    candidates = [(-math.inf, "", 0.0)]
    members = {}
    floor_rows = []
    for index, p in enumerate(suite):
        label = f"{index}:{p.spec_dict.get('type', 'unknown')}"
        a = p.log_coeffs(TRUNC_DEGREE)
        profile = parseval_means(a, grid)
        normalized = [(1.0 - r) ** 2 * v for r, v in zip(grid, profile.values)]
        candidates.extend(
            (value - tail, label, r)
            for r, value, tail in zip(grid, normalized, profile.tail_bounds)
            if math.isfinite(tail)
        )
        pairs = [(v, p.decay_bound(r)) for r, v in zip(grid, normalized)]
        tiny = SUBNORMAL_SLACK * a.term_count
        members[label] = {
            "pass": all(v <= b * (1.0 + DECAY_SLACK) + tiny for v, b in pairs),
            "rate": p.decay_rate,
            "bound": pairs[-1][1],
            "max_ratio": max((v / b for v, b in pairs if b > 0.0), default=0.0),
        }
        if p.schedule is not None:
            floor_rows.extend((label, row) for row in ratio_at_schedule(p, phi))
    not_applicable = {"status": "not_applicable", "pass": None}

    # (i) uniform bound with the explicit constant; max keeps the first of
    # equal excesses, so a tie leaves the witness at the earlier member
    worst, witness_label, witness_radius = max(candidates, key=lambda c: c[0])
    report.parts["uniform_bound"] = {
        "status": "ok",
        "pass": worst <= constant,
        "margin": constant - worst,
        "witness_function": witness_label,
        "witness_radius": witness_radius,
    }
    # (ii) per-function decay under each member's closed-form bound
    report.parts["little_o"] = {
        "status": "ok",
        "pass": all(member["pass"] for member in members.values()),
        "members": members,
    }
    # (iii) gauge divergence floors for schedule-built members
    if floor_rows:
        report.parts["gauge_divergence"] = {
            "status": "ok",
            "pass": all(
                row["ratio"] >= row["floor"] * (1.0 - 1e-10) for _, row in floor_rows
            ),
            "margin": min(row["ratio_to_floor"] for _, row in floor_rows) - 1.0,
            "floors": [
                dict(member=label, k=row["k"], ratio_to_floor=row["ratio_to_floor"])
                for label, row in floor_rows
            ],
        }
    else:
        report.parts["gauge_divergence"] = dict(not_applicable)

    # (iv) least exponent via the first dyadic extremal (members keeps order)
    stars = [
        (label, p)
        for label, p in zip(members, suite)
        if p.spec_dict.get("type") == "theorem2_star"
    ]
    k_max = min(stars[0][1].spec_dict["k_max"], 53) if stars else 0
    if k_max < 5:
        report.parts["least_exponent"] = dict(not_applicable)
    else:
        label, p = stars[0]
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
