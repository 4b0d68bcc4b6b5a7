"""Certified constructors for holomorphic functions with positive real part
on the unit disc.

Two analytic certification routes are implemented, and only these:

* ByConstruction: an atomic Herglotz kernel sum i*c + sum w_j*(z_j+z)/(z_j-z)
  with positive weights has positive real part term by term.
* ByImaginaryBound: p = exp(F) for a sparse F whose coefficient magnitudes
  sum to B < pi/2, so |Im F| <= B and Re p = e^{Re F} * cos(Im F) > 0.

Numeric grid sampling (certify_numeric) is a diagnostic cross-check only; a
finite grid can never prove positivity on the whole disc.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import ImaginaryBoundViolated, InvalidMeasure, OutsideDisc
from .series import (
    AnySeries,
    DenseSeries,
    SparseSeries,
    densify,
    evaluate,
    exp_series,
    log_series,
)

# Safety margin below pi/2 for the coefficient-magnitude sum.
MARGIN = 1e-9


@dataclass(frozen=True)
class HerglotzSpec:
    """Atomic positive measure on the circle plus an imaginary constant.

    atoms: (angle in [0, 2*pi), weight > 0) pairs, at least one.
    im_p0: imaginary part of the value at the origin.
    """

    atoms: Tuple[Tuple[float, float], ...]
    im_p0: float = 0.0

    def __init__(self, atoms: Sequence[Tuple[float, float]], im_p0: float = 0.0):
        if len(atoms) == 0:
            raise InvalidMeasure("at least one atom required")
        im_p0 = float(im_p0)
        if not math.isfinite(im_p0):
            raise InvalidMeasure(f"im_p0 {im_p0!r} must be finite")
        norm = []
        for theta, weight in atoms:
            t, w = float(theta), float(weight)
            if not (w > 0.0) or not math.isfinite(w):
                raise InvalidMeasure(f"weight {w!r} must be strictly positive")
            if not math.isfinite(t):
                raise InvalidMeasure(f"angle {t!r} must be finite")
            norm.append((t % (2.0 * math.pi), w))
        try:
            math.fsum(w for _, w in norm)
        except OverflowError:
            raise InvalidMeasure("total mass overflows a double") from None
        object.__setattr__(self, "atoms", tuple(norm))
        object.__setattr__(self, "im_p0", im_p0)

    @property
    def total_mass(self) -> float:
        return math.fsum(w for _, w in self.atoms)


@dataclass(frozen=True)
class ByConstruction:
    """Positivity holds because every kernel term has positive real part."""


@dataclass(frozen=True)
class ByImaginaryBound:
    """Positivity holds because |Im log p| <= bound < pi/2."""

    bound: float


@dataclass(frozen=True)
class Mobius:
    """(1+z)/(1-z): Taylor coefficients 1, 2, 2, ...; log-coefficients 2/n
    at odd n."""

    def taylor(self, degree: int) -> DenseSeries:
        out = np.full(degree + 1, 2.0, dtype=np.complex128)
        out[0] = 1.0
        return DenseSeries(out)

    def log_taylor(self, degree: int) -> DenseSeries:
        out = np.zeros(degree + 1, dtype=np.complex128)
        odd = np.arange(1, degree + 1, 2)
        out[odd] = 2.0 / odd
        return DenseSeries(out)

    def value(self, z: complex) -> complex:
        return (1.0 + z) / (1.0 - z)


@dataclass(frozen=True)
class Herglotz:
    """Kernel sum; closed-form Taylor coefficients, log by recurrence."""

    spec: HerglotzSpec

    def taylor(self, degree: int) -> DenseSeries:
        thetas = np.array([t for t, _ in self.spec.atoms])
        weights = np.array([w for _, w in self.spec.atoms])
        out = np.empty(degree + 1, dtype=np.complex128)
        out[0] = self.spec.total_mass + 1j * self.spec.im_p0
        if degree >= 1:
            n = np.arange(1, degree + 1)
            # b_n = 2 * sum_j w_j * conj(zeta_j)^n
            out[1:] = 2.0 * (np.exp(-1j * np.outer(n, thetas)) @ weights)
        return DenseSeries(out)

    def log_taylor(self, degree: int) -> DenseSeries:
        return log_series(self.taylor(degree))

    def value(self, z: complex) -> complex:
        acc = 1j * self.spec.im_p0
        for theta, w in self.spec.atoms:
            zeta = cmath.exp(1j * theta)
            acc += w * (zeta + z) / (zeta - z)
        return acc


@dataclass(frozen=True)
class LacunaryExp:
    """exp(F) for a sparse F; the log-coefficients are F itself."""

    series: SparseSeries

    def taylor(self, degree: int) -> DenseSeries:
        return exp_series(densify(self.series, degree))

    def log_taylor(self, degree: int) -> DenseSeries:
        return densify(self.series, degree)

    def value(self, z: complex) -> complex:
        return cmath.exp(evaluate(self.series, z))


@dataclass
class CertReport:
    """Result of sampling Re p on a polar grid (diagnostic, not a proof)."""

    min_re: float
    argmin_radius: float
    argmin_theta: float
    radial_steps: int
    angular_steps: int
    passed: bool


class CaratheodoryFunction:
    """A function with positive real part together with its certificate.

    Log-Taylor coefficients are materialized lazily per requested truncation
    degree and cached.  Cache fills are idempotent (same key, same value),
    so unsynchronized concurrent first access is harmless.
    """

    def __init__(self, construction, certificate, spec_dict: Optional[Dict] = None):
        self.construction = construction
        self.certificate = certificate
        self.spec_dict = spec_dict or {"type": "lacunary"}
        self.schedule = None  # set by the gauge-adapted builder
        self._log_cache: Dict[int, DenseSeries] = {}

    def taylor(self, degree: int) -> DenseSeries:
        """Taylor coefficients of p to the given truncation degree."""
        return self.construction.taylor(degree)

    def log_taylor(self, degree: int) -> DenseSeries:
        """Taylor coefficients of log(p) to the given truncation degree."""
        got = self._log_cache.get(degree)
        if got is None:
            got = self.construction.log_taylor(degree)
            self._log_cache[degree] = got
        return got

    def log_sparse(self) -> Optional[SparseSeries]:
        """Exact sparse log-coefficients when p = exp(sparse F), else None."""
        if isinstance(self.construction, LacunaryExp):
            return self.construction.series
        return None

    def log_coeffs(self, degree: int) -> AnySeries:
        """The exact sparse log-coefficients when there are any, else the
        dense ones to the given truncation degree."""
        sparse = self.log_sparse()
        return sparse if sparse is not None else self.log_taylor(degree)

    def __call__(self, z: complex) -> complex:
        z = complex(z)
        if abs(z) > 1.0 + 1e-15:
            raise OutsideDisc(f"|z| = {abs(z):.6f} > 1")
        return self.construction.value(z)

    def __repr__(self) -> str:
        return (
            f"CaratheodoryFunction({type(self.construction).__name__}, "
            f"{self.certificate!r})"
        )


def mobius() -> CaratheodoryFunction:
    """The function (1+z)/(1-z); its log-coefficients are 2/n at odd n."""
    return CaratheodoryFunction(Mobius(), ByConstruction(), {"type": "mobius"})


def from_herglotz(spec: HerglotzSpec) -> CaratheodoryFunction:
    """Kernel sum p(z) = i*im_p0 + sum_j w_j*(zeta_j+z)/(zeta_j-z).

    Positive by construction; Taylor coefficients are available in closed
    form (b_0 = i*im_p0 + sum w_j, b_n = 2*sum_j w_j*zeta_j^(-n)).
    """
    spec_dict = {
        "type": "herglotz",
        "atoms": [{"theta": t, "weight": w} for t, w in spec.atoms],
        "im_p0": spec.im_p0,
    }
    return CaratheodoryFunction(Herglotz(spec), ByConstruction(), spec_dict)


def from_lacunary(f: SparseSeries) -> CaratheodoryFunction:
    """p = exp(F) for a sparse F with sum of |coefficients| < pi/2 - MARGIN.

    The coefficient-magnitude sum bounds |Im F| on the closed disc, which
    keeps the image of p inside the right half plane.  Raises
    ImaginaryBoundViolated when the sufficient condition fails.
    """
    bound = f.abs_coeff_sum()
    if bound >= math.pi / 2.0 - MARGIN:
        raise ImaginaryBoundViolated(
            f"sum of |coefficients| = {bound:.12g} reaches pi/2 - {MARGIN:g}"
        )
    spec_dict = {
        "type": "lacunary",
        "terms": [
            {"exponent": e, "re": c.real, "im": c.imag} for e, c in f.terms
        ],
    }
    return CaratheodoryFunction(LacunaryExp(f), ByImaginaryBound(bound), spec_dict)


def certify_numeric(
    p: CaratheodoryFunction, radial_steps: int, angular_steps: int
) -> CertReport:
    """Sample Re p on a polar grid with r <= 0.999 and report the minimum.

    Advisory only; the analytic certificate attached to p is authoritative.
    """
    if radial_steps < 1 or angular_steps < 1:
        raise ValueError("grid steps must be >= 1")
    min_re = math.inf
    arg_r = arg_t = 0.0
    for i in range(1, radial_steps + 1):
        r = 0.999 * i / radial_steps
        for j in range(angular_steps):
            theta = 2.0 * math.pi * j / angular_steps
            value = p(r * cmath.exp(1j * theta))
            if value.real < min_re:
                min_re = value.real
                arg_r, arg_t = r, theta
    return CertReport(
        min_re=min_re,
        argmin_radius=arg_r,
        argmin_theta=arg_t,
        radial_steps=radial_steps,
        angular_steps=angular_steps,
        passed=min_re > 0.0,
    )
