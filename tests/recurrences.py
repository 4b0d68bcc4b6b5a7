"""Test-only oracle: the dense exp recurrence, inverse of series.log_series.
No construction needs it; the round-trip tests and criterion 11 check
log_series against it."""

import cmath

import numpy as np

from logmeans.series import DenseSeries


def exp_series(f: DenseSeries) -> DenseSeries:
    """Taylor coefficients of exp(f) up to the truncation degree of f.

    Uses the recurrence from p' = F'*p:  n*b_n = sum_{k=1}^{n} k*a_k*b_{n-k}.
    """
    a = f.coeffs
    n_max = f.truncation_degree
    b = np.zeros(n_max + 1, dtype=np.complex128)
    b[0] = cmath.exp(complex(a[0]))
    ka = np.arange(n_max + 1) * a
    for n in range(1, n_max + 1):
        b[n] = np.dot(ka[1 : n + 1], b[:n][::-1]) / n
    return DenseSeries(b)
