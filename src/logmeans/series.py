"""Truncated and sparse power-series arithmetic.

DenseSeries holds complex Taylor coefficients 0..N with explicit truncation
degree.  SparseSeries holds (exponent, coefficient) pairs with strictly
increasing integer exponents; exponents may be arbitrarily large Python
integers, which is what makes the lacunary functions (LacunaryExp) work.
Both types sum their own Parseval means 2*pi * sum n^2 |a_n|^2 r^(2n) and
H^2 partial sum sum |a_n|^2 over the nonconstant coefficients, correctly
rounded (numerics.exact_sum for dense arrays, math.fsum for sparse terms),
and both give their dense form to any degree (dense).

log_series is the classical O(N^2) convolution recurrence derived from
p*F' = p'.  No construction takes its log-coefficients from it: they are
exact or, for kernel sums, in closed form at O(N*J) cost for J atoms
(caratheodory.Herglotz).  It stays as the tests' accuracy oracle for that
closed form.

numpy is imported only where a dense array is built or read (DenseSeries,
SparseSeries.dense, log_series): SparseSeries works with big
integers and math alone, so the lacunary constructions and the commands
built on them start without numpy's import cost.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence

from .errors import RadiusOutOfRange
from .numerics import LOG_MAX, exact_sum, float_product

TWO_PI = 2.0 * math.pi


class DenseSeries:
    """Complex coefficients c[0..N]; immutable, N = truncation_degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[complex] | np.ndarray):
        import numpy as np
        arr = np.asarray(coeffs, dtype=np.complex128).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d sequence")
        if not np.isfinite(arr.view(np.float64)).all():
            raise ValueError("coefficients must be finite")
        arr.setflags(write=False)
        self.coeffs = arr

    @property
    def truncation_degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def term_count(self) -> int:
        """Number of nonconstant coefficients, N."""
        return self.truncation_degree

    def _squared_moduli(self) -> np.ndarray:
        c = self.coeffs
        return c.real[1:] ** 2 + c.imag[1:] ** 2

    def parseval_value(self, neglog_r: float) -> float:
        """2*pi * sum_{n=1..N} n^2 |c_n|^2 exp(-2*n*neglog_r), neglog_r =
        -log(r) > 0."""
        if neglog_r <= 0.0:
            raise RadiusOutOfRange("radius must be < 1")
        import numpy as np
        n = np.arange(1, self.coeffs.size, dtype=np.float64)
        w = (n * n) * self._squared_moduli()
        return TWO_PI * exact_sum(w * np.exp(-2.0 * neglog_r * n))

    def h2_sum(self) -> float:
        """sum_{n=1..N} |c_n|^2."""
        return exact_sum(self._squared_moduli())

    def dense(self, degree: int) -> "DenseSeries":
        """This series truncated or zero-padded to the given degree; the
        series itself when the degree already matches."""
        if degree == self.truncation_degree:
            return self
        import numpy as np
        n = min(self.coeffs.size, degree + 1)
        out = np.zeros(degree + 1, dtype=np.complex128)
        out[:n] = self.coeffs[:n]
        return DenseSeries(out)

    def __setattr__(self, name, value):
        if hasattr(self, "coeffs"):
            raise AttributeError("DenseSeries is immutable")
        object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        head = ", ".join(f"{c:.6g}" for c in self.coeffs[:4])
        tail = ", ..." if self.coeffs.size > 4 else ""
        return f"DenseSeries([{head}{tail}], degree={self.truncation_degree})"


class SparseSeries:
    """Exponent/coefficient pairs, exponents strictly increasing and >= 1.

    Zero coefficients are dropped on construction.  An empty series is the
    zero function.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[tuple[int, complex]]):
        cleaned = []
        last = 0
        for exponent, coefficient in terms:
            e = int(exponent)
            c = complex(coefficient)
            if e < 1:
                raise ValueError("exponents must be >= 1")
            if e <= last:
                raise ValueError("exponents must be strictly increasing")
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError("coefficients must be finite")
            last = e
            if c != 0:
                cleaned.append((e, c))
        object.__setattr__(self, "terms", tuple(cleaned))

    @property
    def truncation_degree(self) -> int:
        """Largest stored exponent; 0 for the zero series."""
        return self.terms[-1][0] if self.terms else 0

    @property
    def term_count(self) -> int:
        """Number of stored (nonzero) terms."""
        return len(self.terms)

    def parseval_value(self, neglog_r: float) -> float:
        """2*pi * sum e^2 |c|^2 exp(-2*e*neglog_r) over the terms, neglog_r =
        -log(r) > 0.

        Exponents of any size are handled; the value itself may overflow to
        +inf for extreme inputs, where means.parseval_log_value_at_inv_n
        works in the log domain instead.
        """
        if neglog_r <= 0.0:
            raise RadiusOutOfRange("radius must be < 1")
        terms = []
        for e, c in self.terms:
            ac2 = c.real * c.real + c.imag * c.imag
            x = float_product(neglog_r, 2 * e)
            power = math.exp(-x)
            if min(power, ac2) >= 2.0 ** -1022 and e.bit_length() <= 500:
                terms.append(float(e) ** 2 * ac2 * power)
            else:
                # r^(2e) or |c|^2 may be subnormal or 0.0 where
                # e^2 |c|^2 r^(2e) is a normal double
                ln_c2 = math.log(ac2) if ac2 >= 2.0 ** -1022 else 2.0 * math.log(abs(c))
                ln_term = 2.0 * math.log(e) + ln_c2 - x
                terms.append(math.exp(ln_term) if ln_term <= LOG_MAX else math.inf)
        return TWO_PI * math.fsum(terms)

    def h2_sum(self) -> float:
        """sum |c|^2 over the terms."""
        return math.fsum(c.real * c.real + c.imag * c.imag for _, c in self.terms)

    def abs_coeff_sum(self) -> float:
        return math.fsum(abs(c) for _, c in self.terms)

    def dense(self, degree: int) -> DenseSeries:
        """Dense series of the given degree holding the terms with exponent
        <= degree."""
        import numpy as np
        out = np.zeros(degree + 1, dtype=np.complex128)
        for e, c in self.terms:
            if e > degree:
                break
            out[e] = c
        return DenseSeries(out)

    def __setattr__(self, name, value):
        raise AttributeError("SparseSeries is immutable")

    def __repr__(self) -> str:
        return f"SparseSeries({len(self.terms)} terms, degree={self.truncation_degree})"


def log_series(p: DenseSeries) -> DenseSeries:
    """Taylor coefficients of log(p) up to the truncation degree of p, on the
    principal branch.

    Uses the recurrence from p*F' = p':

        a_n = (n*b_n - sum_{k=1}^{n-1} k*a_k*b_{n-k}) / (n*b_0)

    A zero constant term raises ValueError from cmath.log (certified inputs
    always have Re b_0 > 0).
    """
    import numpy as np
    b = p.coeffs
    b0 = complex(b[0])
    n_max = p.truncation_degree
    a = np.zeros(n_max + 1, dtype=np.complex128)
    a[0] = cmath.log(b0)
    ka = np.zeros(n_max + 1, dtype=np.complex128)  # ka[k] = k*a[k]
    for n in range(1, n_max + 1):
        conv = np.dot(ka[1:n], b[n - 1:0:-1]) if n > 1 else 0.0
        a[n] = (n * b[n] - conv) / (n * b0)
        ka[n] = n * a[n]
    return DenseSeries(a)
