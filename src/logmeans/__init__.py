"""Numerical toolkit for integral means of normalized logarithmic
derivatives over the class of holomorphic functions with positive real part
on the unit disc: certified constructors, two independent means
computations, extremal lacunary functions, and growth-scale diagnostics.
"""

from .analysis import (
    GrowthFit,
    Report,
    UNIFORM_CONSTANT,
    corollary_report,
    fit_exponent,
    little_o_check,
    validity_horizon,
)
from .caratheodory import (
    CaratheodoryFunction,
    Herglotz,
    LacunaryExp,
    mobius,
)
from .errors import (
    DegenerateProfile,
    ExponentOverflow,
    GaugeHypothesisError,
    ImaginaryBoundViolated,
    InvalidMeasure,
    ParseError,
    RadiusOutOfRange,
    ToolkitError,
)
from .extremal import (
    ExponentSchedule,
    FLOOR_COEFF,
    Gauge,
    build_p_phi,
    build_p_star,
    choose_schedule,
    critical_radii_star,
    gauge_sweep,
    ratio_at_schedule,
    star_sweep,
)
from .means import (
    MeansProfile,
    geometric_radii,
    parseval_means,
    quadrature_means,
    tail_bound,
)
from .series import DenseSeries, SparseSeries
from .specs import parse_function_spec

__all__ = [
    "CaratheodoryFunction",
    "DegenerateProfile",
    "DenseSeries",
    "ExponentOverflow",
    "ExponentSchedule",
    "FLOOR_COEFF",
    "Gauge",
    "GaugeHypothesisError",
    "GrowthFit",
    "Herglotz",
    "ImaginaryBoundViolated",
    "InvalidMeasure",
    "LacunaryExp",
    "MeansProfile",
    "ParseError",
    "RadiusOutOfRange",
    "Report",
    "SparseSeries",
    "ToolkitError",
    "UNIFORM_CONSTANT",
    "build_p_phi",
    "build_p_star",
    "choose_schedule",
    "corollary_report",
    "critical_radii_star",
    "fit_exponent",
    "gauge_sweep",
    "geometric_radii",
    "little_o_check",
    "mobius",
    "parse_function_spec",
    "parseval_means",
    "quadrature_means",
    "ratio_at_schedule",
    "star_sweep",
    "tail_bound",
    "validity_horizon",
]
