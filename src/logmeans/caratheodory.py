"""Certified constructors for holomorphic functions with positive real part
on the unit disc.

Two constructions, each answering log_coeffs(degree) in its exact form:
Herglotz (a kernel sum, dense closed form; the Mobius map (1+z)/(1-z) is
its one-atom case) and LacunaryExp (exp of a sparse series F, which it
returns).  Two analytic certification routes are implemented, and only
these:

* ByConstruction: an atomic Herglotz kernel sum i*c + sum w_j*(z_j+z)/(z_j-z)
  with positive weights has positive real part term by term.
* ByImaginaryBound: p = exp(F) for a sparse F whose coefficient magnitudes
  sum to B < pi/2, so |Im F| <= B and Re p = e^{Re F} * cos(Im F) > 0.

Only Herglotz computes with numpy (its zeros and power sums are array
work), and it imports numpy in those methods; LacunaryExp and
CaratheodoryFunction need none.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from .errors import ImaginaryBoundViolated, InvalidMeasure
from .series import (
    AnySeries,
    DenseSeries,
    SparseSeries,
    log_series,  # unused here; perfbench/tracing.py patches this name
)

if TYPE_CHECKING:
    import numpy as np

# Safety margin below pi/2 for the coefficient-magnitude sum.
MARGIN = 1e-9

# Block edge of the kernel-sum coefficients: temporaries stay
# O(N + BLOCK*(J+BLOCK)) values for J atoms.
BLOCK = 256


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
class Herglotz:
    """Kernel sum; log-coefficients in closed form.

    p = i*c + sum_j w_j*(zeta_j+z)/(zeta_j-z) is rational with the poles
    zeta_j = e^{i*theta_j}; as Re p > 0 in the disc, its zeros
    eta_j = e^{i*psi_j} all lie on the circle (boundary_zeros).  Hence
    a_0 = log(sum w_j + i*c) on the principal branch and
    a_n = (sum_j zeta_j^-n - sum_j eta_j^-n)/n for J distinct atoms (Duren,
    Univalent Functions, 1983, ch. 1).  The sums cost O(N*J); the zeros
    cost O(J^2) per bisection step.
    """

    spec: HerglotzSpec

    def _merged_atoms(self) -> Tuple[np.ndarray, np.ndarray]:
        """The distinct atom angles, sorted, and the summed weight at each."""
        import numpy as np
        thetas, weights = np.array(self.spec.atoms).T
        angles, index = np.unique(thetas, return_inverse=True)
        return angles, np.bincount(index, weights=weights)

    def boundary_zeros(self) -> np.ndarray:
        """Angles psi_j of the zeros of p, one on the arc that follows each
        distinct atom angle, each a double adjacent to the exact zero.

        On |z| = 1, p = i*(c + sum_j w_j*cot((theta - theta_j)/2)), which
        falls strictly from +inf to -inf along each arc, so one vectorised
        bisection on its sign brackets every zero down to adjacent doubles;
        the endpoint with the smaller |p| is returned.
        """
        import numpy as np
        thetas, weights = self._merged_atoms()
        mass = weights.sum()  # the zeros do not depend on the scale
        weights, c = weights / mass, self.spec.im_p0 / mass
        lo = thetas.copy()
        hi = np.append(thetas[1:], thetas[0] + 2.0 * math.pi)
        g_lo, g_hi = np.full(lo.size, np.inf), np.full(lo.size, -np.inf)
        while True:
            mid = 0.5 * (lo + hi)
            inside = (lo < mid) & (mid < hi)
            if not inside.any():
                return np.where(g_lo <= -g_hi, lo, hi)
            g = c + np.concatenate([
                (1.0 / np.tan(0.5 * (mid[i:i + BLOCK, None] - thetas))) @ weights
                for i in range(0, mid.size, BLOCK)
            ])
            up = inside & (g > 0.0)
            down = inside & ~up
            lo, g_lo = np.where(up, mid, lo), np.where(up, g, g_lo)
            hi, g_hi = np.where(down, mid, hi), np.where(down, g, g_hi)

    def log_coeffs(self, degree: int) -> DenseSeries:
        import numpy as np
        thetas, _ = self._merged_atoms()
        angles = np.concatenate([thetas, self.boundary_zeros()])
        out = _power_sums(angles, np.repeat([1.0, -1.0], thetas.size), degree)
        out[1:] /= np.arange(1, degree + 1)
        out[0] = cmath.log(complex(self.spec.total_mass, self.spec.im_p0))
        return DenseSeries(out)


def _power_sums(angles: np.ndarray, weights: np.ndarray, degree: int) -> np.ndarray:
    """sum_j weights_j * exp(-i*n*angles_j) for n = 0..degree.

    With n = m*BLOCK + k the term is exp(-i*m*BLOCK*angle) * exp(-i*k*angle):
    two factors computed directly from their phases, so rounding does not
    build up along n as it would through cumulative products, and the sum
    over j is one matrix product per chunk of angles.
    """
    import numpy as np
    heads = np.arange(degree // BLOCK + 1) * float(BLOCK)
    steps = np.arange(BLOCK, dtype=np.float64)
    out = np.zeros((heads.size, BLOCK), dtype=np.complex128)
    for i in range(0, angles.size, BLOCK):
        chunk = angles[i:i + BLOCK]
        head = np.exp(-1j * np.outer(heads, chunk)) * weights[i:i + BLOCK]
        out += head @ np.exp(-1j * np.outer(chunk, steps))
    return out.ravel()[: degree + 1]


@dataclass(frozen=True)
class LacunaryExp:
    """exp(F) for a sparse F; the log-coefficients are F itself."""

    series: SparseSeries

    def log_coeffs(self, degree: int) -> SparseSeries:
        return self.series


class CaratheodoryFunction:
    """A function with positive real part, its certificate, its spec and the
    schedule of a gauge-adapted build (else None), all fixed when built.

    Log-coefficients come from the construction, cached per degree.
    """

    def __init__(self, construction, certificate, spec_dict: Dict, schedule=None):
        self.construction = construction
        self.certificate = certificate
        self.spec_dict = spec_dict
        self.schedule = schedule
        self._log_cache: Dict[int, AnySeries] = {}

    def log_coeffs(self, degree: int) -> AnySeries:
        """Taylor coefficients of log(p) in the construction's exact form:
        all of them for a sparse series, up to the degree for a dense one."""
        got = self._log_cache.get(degree)
        if got is None:
            got = self._log_cache[degree] = self.construction.log_coeffs(degree)
        return got

    def log_taylor(self, degree: int) -> DenseSeries:
        """Dense Taylor coefficients of log(p) to the given degree."""
        return self.log_coeffs(degree).dense(degree)

    def __repr__(self) -> str:
        return (
            f"CaratheodoryFunction({type(self.construction).__name__}, "
            f"{self.certificate!r})"
        )


def mobius() -> CaratheodoryFunction:
    """The function (1+z)/(1-z), the one-atom kernel sum at angle 0 with
    weight 1; its log-coefficients are 2/n at odd n."""
    spec = HerglotzSpec([(0.0, 1.0)])
    return CaratheodoryFunction(Herglotz(spec), ByConstruction(), {"type": "mobius"})


def from_herglotz(spec: HerglotzSpec) -> CaratheodoryFunction:
    """Kernel sum p(z) = i*im_p0 + sum_j w_j*(zeta_j+z)/(zeta_j-z).

    Positive by construction; log-coefficients in closed form (see
    Herglotz).
    """
    spec_dict = {
        "type": "herglotz",
        "atoms": [{"theta": t, "weight": w} for t, w in spec.atoms],
        "im_p0": spec.im_p0,
    }
    return CaratheodoryFunction(Herglotz(spec), ByConstruction(), spec_dict)


def from_lacunary(
    f: SparseSeries, spec_dict: Optional[Dict] = None, schedule=None
) -> CaratheodoryFunction:
    """p = exp(F) for a sparse F with sum of |coefficients| < pi/2 - MARGIN.

    The coefficient-magnitude sum bounds |Im F| on the closed disc, which
    keeps the image of p inside the right half plane.  Raises
    ImaginaryBoundViolated when the sufficient condition fails.  Builders
    of named families pass their own spec, and their schedule.
    """
    bound = f.abs_coeff_sum()
    if bound >= math.pi / 2.0 - MARGIN:
        raise ImaginaryBoundViolated(
            f"sum of |coefficients| = {bound:.12g} reaches pi/2 - {MARGIN:g}"
        )
    if spec_dict is None:
        terms = [{"exponent": e, "re": c.real, "im": c.imag} for e, c in f.terms]
        spec_dict = {"type": "lacunary", "terms": terms}
    return CaratheodoryFunction(
        LacunaryExp(f), ByImaginaryBound(bound), spec_dict, schedule
    )
