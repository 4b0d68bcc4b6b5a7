"""Independent verifiers for every job kind.

None of these calls into logmeans: each reference is computed from the
mathematics directly, by a route the job under test does not take.

* herglotz_means: trapezoid rule on |z p'/p|^2 with p and p' sampled from
  the kernel formula, at radii whose printed tail bound is negligible.
* gauge: mpmath at 50 digits from the gauge formula and the schedule
  integers, with the 1e-10 relative slack that acceptance criterion 08 pins.
* star, h2, means_small: closed forms and exact sparse sums in mpmath; the
  kernel-sum h2 from an FFT of log p sampled on a circle inside the disc.
* report: byte equality with tests/golden/report.json.
* bad_input: exit code 2 and a JSON error record on stderr.

Each check records the number of correct significant digits; the smallest
over a run is the err_digits.min metric.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Dict, List, Optional, Tuple

import mpmath
import numpy as np

GAUGE_SLACK = 1e-10  # acceptance criterion 08
# The O(N^2) double-precision log recurrence loses up to ~1e-9 relative at
# N <= 16384 (worst seen: 9.3e-10 over ~400 jobs); err_digits.min reports
# the accuracy actually reached, this only rejects outright wrong values.
DENSE_RTOL = 1e-8
EXACT_RTOL = 1e-12  # closed forms and exact sparse sums
TAIL_NEGLIGIBLE = 1e-13  # tail_bound / value below this: truncation invisible
MAX_DIGITS = 17.0
TINY = 1e-250  # below this a reference is compared in absolute terms only


class VerifyError(Exception):
    """An output that does not match its reference."""


class Checker:
    """Accumulates relative comparisons and the fewest correct digits."""

    def __init__(self):
        self.min_digits = MAX_DIGITS
        self.count = 0

    def close(self, got: float, want: float, rtol: float, what: str) -> None:
        got, want = float(got), float(want)
        if math.isinf(want) or math.isinf(got):
            if got != want:
                raise VerifyError(f"{what}: got {got!r}, want {want!r}")
            return
        if abs(want) < TINY:
            if abs(got) > 1e6 * TINY:
                raise VerifyError(f"{what}: got {got!r}, want ~0 ({want!r})")
            return
        rel = abs(got - want) / abs(want)
        if not rel <= rtol:
            raise VerifyError(f"{what}: got {got!r}, want {want!r} (rel {rel:.2e} > {rtol:g})")
        self.count += 1
        digits = MAX_DIGITS if rel == 0.0 else min(MAX_DIGITS, -math.log10(rel))
        self.min_digits = min(self.min_digits, digits)

    def require(self, condition: bool, what: str) -> None:
        if not condition:
            raise VerifyError(what)


def num(text: str) -> float:
    return float(text)  # accepts "inf"


def parse_table(text: str, fmt: str) -> Tuple[List[str], List[Dict[str, str]], Optional[dict]]:
    """Rows as strings keyed by column, from the CLI's CSV or JSON output."""
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        lines = list(reader)
        if not lines:
            raise VerifyError("empty CSV output")
        columns = lines[0]
        rows = [dict(zip(columns, line)) for line in lines[1:]]
        if any(len(line) != len(columns) for line in lines[1:]):
            raise VerifyError("ragged CSV output")
        return columns, rows, None
    doc = json.loads(text, parse_int=str, parse_float=str)
    if doc.get("schema") != "v1":
        raise VerifyError("JSON output without schema v1")
    rows = doc.get("rows", [])
    columns = list(rows[0].keys()) if rows else []
    return columns, [{k: str(v) for k, v in row.items()} for row in rows], doc


# -- herglotz-means ---------------------------------------------------------


def tail_reference(trunc: int, r: float) -> float:
    """pi^3 (N+1)^2 r^(2(N+1)) where n^2 r^(2n) already decreases past N, else inf."""
    np1 = trunc + 1
    x = np1 * -math.log(r)
    if not x > 1.0:
        return math.inf
    return math.exp(3.0 * math.log(math.pi) + 2.0 * math.log(np1) - 2.0 * x)


def kernel_trapezoid(atoms, im_p0: float, r: float) -> float:
    """integral over |z| = r of |z p'/p|^2 dtheta for the kernel sum
    p = i*im_p0 + sum w (zeta+z)/(zeta-z), p' = sum 2 w zeta/(zeta-z)^2.

    The integrand is analytic in the annulus r < |z| < 1, so its Fourier
    modes decay like r^m and the M-point rule errs by about r^M; M is chosen
    so that r^M < e^-45.
    """
    s = -math.log(r)
    m = int(math.ceil(45.0 / s)) + 16
    zeta = np.exp(1j * np.array([a["theta"] for a in atoms]))
    w = np.array([a["weight"] for a in atoms])
    total = 0.0
    chunk = 8192
    for start in range(0, m, chunk):
        j = np.arange(start, min(start + chunk, m))
        z = r * np.exp(2j * math.pi * j / m)
        d = zeta[None, :] - z[:, None]
        p = 1j * im_p0 + ((zeta[None, :] + z[:, None]) / d) @ w
        dp = (2.0 * zeta[None, :] / (d * d)) @ w
        g = z * dp / p
        total += math.fsum((g.real * g.real + g.imag * g.imag).tolist())
    return 2.0 * math.pi * total / m


def verify_herglotz_means(text: str, params: dict, chk: Checker) -> None:
    columns, rows, _ = parse_table(text, "csv")
    chk.require(
        columns == ["r", "I_parseval", "tail_bound", "I_quadrature", "quad_rel_err"],
        f"unexpected columns {columns}",
    )
    chk.require(len(rows) == 20, f"expected 20 radii, got {len(rows)}")
    spec, trunc = params["spec"], params["trunc"]
    checked = 0
    for j, row in enumerate(rows):
        r = 1.0 - 0.5 * 0.5 ** j
        chk.close(num(row["r"]), r, 1e-15, f"r[{j}]")
        ip, iq = num(row["I_parseval"]), num(row["I_quadrature"])
        chk.require(ip > 0.0 and math.isfinite(ip), f"I_parseval[{j}] = {ip!r}")
        tail = num(row["tail_bound"])
        chk.close(tail, tail_reference(trunc, r), EXACT_RTOL, f"tail_bound[{j}]")
        chk.close(
            num(row["quad_rel_err"]), abs(iq - ip) / max(ip, 1e-30), 1e-6,
            f"quad_rel_err[{j}]",
        )
        if tail <= TAIL_NEGLIGIBLE * ip:
            ref = kernel_trapezoid(spec["atoms"], spec["im_p0"], r)
            chk.close(ip, ref, DENSE_RTOL, f"I_parseval[{j}] vs kernel trapezoid")
            chk.close(iq, ref, DENSE_RTOL, f"I_quadrature[{j}] vs kernel trapezoid")
            checked += 1
    chk.require(checked >= 5, f"only {checked} radii with a negligible tail")


# -- gauge schedules --------------------------------------------------------


def _mp_gap_log(n) -> mpmath.mpf:
    """L = -log(1 - exp(-1/n)) at the working precision."""
    return -mpmath.log(-mpmath.expm1(-1 / mpmath.mpf(n)))


def _mp_log_gauge(a: float, b: float, n) -> mpmath.mpf:
    """log of (1-r)^-a * log(e/(1-r))^-b at r = exp(-1/n)."""
    L = _mp_gap_log(n)
    return a * L - b * mpmath.log1p(L)


def verify_gauge(text: str, params: dict, chk: Checker) -> None:
    fmt, a, b, k_max = params["format"], params["a"], params["b"], params["k_max"]
    columns, rows, doc = parse_table(text, fmt)
    chk.require(columns == ["k", "n_k", "ratio", "floor", "ratio_to_floor"], f"columns {columns}")
    if doc is not None:
        chk.require(doc.get("command") == "gauge", "JSON command is not gauge")
        fn = doc.get("function", {})
        kind, _, body = str(fn.get("gauge")).partition(":")
        numbers = [float(x) for x in body.split(",")]
        chk.require(
            fn.get("type") == "theorem3_gauge" and str(fn.get("k_max")) == str(k_max)
            and (kind, numbers) in (("pow", [a]), ("powlog", [a, b])),
            f"JSON function spec {fn}",
        )
    chk.require(len(rows) == k_max, f"expected {k_max} rows, got {len(rows)}")
    ns = [int(row["n_k"]) for row in rows]
    chk.require([int(row["k"]) for row in rows] == list(range(1, k_max + 1)), "k column")
    chk.require(ns[0] >= 1 and all(x < y for x, y in zip(ns, ns[1:])), "n_k not strictly increasing")
    with mpmath.workdps(50):
        floor_coeff = mpmath.pi * mpmath.exp(-2) / 2
        big = [mpmath.mpf(n) for n in ns]
        two_log_n = [2 * mpmath.log(x) for x in big]
        log_coeff = [mpmath.log(4 * j ** 4) for j in range(1, k_max + 1)]
        for k, (row, n) in enumerate(zip(rows, ns), start=1):
            log_k8 = 8 * mpmath.log(k)
            log_gauge = _mp_log_gauge(a, b, n)
            chk.require(
                log_gauge - (two_log_n[k - 1] - log_k8) <= GAUGE_SLACK,
                f"n_{k} is not admissible",
            )
            prev = ns[k - 2] if k > 1 else 0
            if n - 1 > prev:
                # Past 10^40, n - 1 and n agree to the 50 digits carried.
                below = (
                    _mp_log_gauge(a, b, n - 1) - (2 * mpmath.log(n - 1) - log_k8)
                    if n < 10 ** 40 else log_gauge - (two_log_n[k - 1] - log_k8)
                )
                chk.require(below > -GAUGE_SLACK, f"n_{k} - 1 is already admissible")
            # means at exp(-1/n_k): 2 pi sum_j n_j^2 (1/(2 j^2))^2 exp(-2 n_j/n_k).
            # Terms with n_j/n_k > 1e4 are below exp(-2e4) relative: skipped.
            terms = []
            for nj, two_log_nj, c in zip(big, two_log_n, log_coeff):
                q = nj / big[k - 1]
                if q > 1e4:
                    break
                terms.append(two_log_nj - c - 2 * q)
            log_means = mpmath.log(2 * mpmath.pi) + mpmath.log(mpmath.fsum(mpmath.exp(t) for t in terms))
            ratio = mpmath.exp(log_means - log_gauge)
            floor = floor_coeff * k ** 4
            chk.close(num(row["ratio"]), ratio, GAUGE_SLACK, f"ratio[{k}]")
            chk.close(num(row["floor"]), floor, EXACT_RTOL, f"floor[{k}]")
            chk.close(num(row["ratio_to_floor"]), ratio / floor, GAUGE_SLACK, f"ratio_to_floor[{k}]")
            chk.require(ratio / floor >= 1 - GAUGE_SLACK, f"ratio below the k^4 floor at k={k}")


# -- cli-mix ----------------------------------------------------------------


def star_rows_reference(k_max: int, k: int) -> Tuple[float, float]:
    """(means, lower bound) of exp((i/2) sum z^(2^j)/j^2) at r = exp(-2^-k)."""
    with mpmath.workdps(30):
        means = 2 * mpmath.pi * mpmath.fsum(
            mpmath.mpf(4) ** j / (4 * j ** 4) * mpmath.exp(-mpmath.mpf(2) ** (j - k + 1))
            for j in range(1, k_max + 1)
        )
        lower = 2 * mpmath.pi * mpmath.exp(-2) * mpmath.mpf(4) ** (k - 1) / k ** 4
        return means, lower


def verify_star(text: str, params: dict, chk: Checker) -> None:
    k_max = params["k_max"]
    columns, rows, _ = parse_table(text, params["format"])
    chk.require(columns == ["k", "r_k", "means", "lower_bound", "ratio_to_lower"], f"columns {columns}")
    chk.require(len(rows) == k_max, f"expected {k_max} rows")
    for k, row in enumerate(rows, start=1):
        chk.require(int(row["k"]) == k, "k column")
        means, lower = star_rows_reference(k_max, k)
        chk.close(num(row["r_k"]), mpmath.exp(-mpmath.mpf(2) ** -k), 1e-15, f"r_{k}")
        chk.close(num(row["means"]), means, EXACT_RTOL, f"means[{k}]")
        chk.close(num(row["lower_bound"]), lower, EXACT_RTOL, f"lower_bound[{k}]")
        chk.close(num(row["ratio_to_lower"]), means / lower, EXACT_RTOL, f"ratio_to_lower[{k}]")


def sparse_terms(spec: dict) -> List[Tuple[int, complex]]:
    """Exact (exponent, coefficient) pairs of log p for sparse specs."""
    if spec["type"] == "theorem2_star":
        return [(2 ** k, 0.5j / (k * k)) for k in range(1, spec["k_max"] + 1)]
    return [
        (int(t["exponent"]), complex(t["re"], t["im"]))
        for t in spec["terms"] if complex(t["re"], t["im"]) != 0
    ]


def herglotz_log_coefficients(spec: dict, trunc: int) -> np.ndarray:
    """a_1..a_N of log p from an FFT of log p sampled on |z| = exp(-1/N).

    Re p > 0 on the disc, so the principal log is analytic there; aliasing
    from a_(n+M) is damped by exp(-M/N) = e^-64 with M = 64*N points.
    """
    m = 64 * trunc
    rho = math.exp(-1.0 / trunc)
    zeta = np.exp(1j * np.array([a["theta"] for a in spec["atoms"]]))
    w = np.array([a["weight"] for a in spec["atoms"]])
    z = rho * np.exp(2j * math.pi * np.arange(m) / m)
    p = 1j * spec.get("im_p0", 0.0) + ((zeta[None, :] + z[:, None]) / (zeta[None, :] - z[:, None])) @ w
    c = np.fft.fft(np.log(p)) / m
    n = np.arange(1, trunc + 1)
    return c[1 : trunc + 1] * rho ** (-n.astype(float))


def verify_h2(text: str, params: dict, chk: Checker) -> None:
    spec, trunc = params["spec"], params["trunc"]
    columns, rows, _ = parse_table(text, params["format"])
    chk.require(columns == ["terms", "h2_sum", "ceiling", "margin"], f"columns {columns}")
    chk.require(len(rows) == 1, "h2 prints one row")
    row = rows[0]
    kind = spec["type"]
    if kind == "mobius":
        terms = trunc
        h2 = math.fsum(4.0 / (n * n) for n in range(1, trunc + 1, 2))
        rtol = EXACT_RTOL
    elif kind == "herglotz":
        terms = trunc
        a = herglotz_log_coefficients(spec, trunc)
        h2 = math.fsum((a.real ** 2 + a.imag ** 2).tolist())
        rtol = DENSE_RTOL
    else:
        pairs = sparse_terms(spec)
        terms = len(pairs)
        h2 = math.fsum(abs(c) ** 2 for _, c in pairs)
        rtol = EXACT_RTOL
    ceiling = math.pi ** 2 / 2
    chk.require(int(row["terms"]) == terms, f"terms {row['terms']} != {terms}")
    chk.close(num(row["h2_sum"]), h2, rtol, "h2_sum")
    chk.close(num(row["ceiling"]), ceiling, 1e-15, "ceiling")
    chk.close(num(row["margin"]) + h2, ceiling, rtol, "margin")


def radii_reference(text: str) -> List[float]:
    kind, body = text.split(":", 1)
    if kind == "geometric":
        start, factor, count = body.split(",")
        gap = 1.0 - float(start)
        return [1.0 - gap * float(factor) ** j for j in range(int(count))]
    return [math.exp(-(2.0 ** -k)) for k in range(1, int(body) + 1)]


def _mp_sparse_means(pairs, r: float, max_exponent: Optional[int] = None) -> float:
    with mpmath.workdps(30):
        s = -mpmath.log(r)
        return float(2 * mpmath.pi * mpmath.fsum(
            mpmath.mpf(e) ** 2 * abs(c) ** 2 * mpmath.exp(-2 * e * s)
            for e, c in pairs if max_exponent is None or e <= max_exponent
        ))


def _mobius_truncated(r: float, trunc: int) -> float:
    """8 pi r^2 (1 - r^(4K)) / (1 - r^4), K = number of odd n <= N: the
    closed form 8 pi r^2/(1 - r^4) summed over the stored coefficients."""
    with mpmath.workdps(30):
        r = mpmath.mpf(r)
        count = (trunc + 1) // 2
        return float(8 * mpmath.pi * r ** 2 * (1 - r ** (4 * count)) / (1 - r ** 4))


def verify_means_small(text: str, params: dict, chk: Checker) -> None:
    spec, trunc = params["spec"], params["trunc"]
    columns, rows, _ = parse_table(text, params["format"])
    radii = radii_reference(params["radii"])
    chk.require(len(rows) == len(radii), "row count")
    if spec["type"] == "mobius":
        pairs, degree = None, trunc
    else:
        pairs = sparse_terms(spec)
        degree = max(e for e, _ in pairs) if pairs else 0
    with_quad = pairs is None or degree <= 2 ** 20
    expected = ["r", "I_parseval", "tail_bound"] + (["I_quadrature", "quad_rel_err"] if with_quad else [])
    chk.require(columns == expected, f"columns {columns}, expected {expected}")
    for j, (row, r) in enumerate(zip(rows, radii)):
        chk.close(num(row["r"]), r, 1e-15, f"r[{j}]")
        if pairs is None:
            full = _mobius_truncated(r, trunc)
            truncated = full
        else:
            full = _mp_sparse_means(pairs, r)
            truncated = _mp_sparse_means(pairs, r, trunc)
        chk.close(num(row["I_parseval"]), full, EXACT_RTOL, f"I_parseval[{j}]")
        chk.close(num(row["tail_bound"]), tail_reference(degree, r), EXACT_RTOL, f"tail_bound[{j}]")
        if with_quad:
            iq, ip = num(row["I_quadrature"]), num(row["I_parseval"])
            chk.close(iq, truncated, EXACT_RTOL, f"I_quadrature[{j}]")
            chk.close(num(row["quad_rel_err"]), abs(iq - ip) / max(ip, 1e-30), 1e-6, f"quad_rel_err[{j}]")


def verify_report(text: str, golden: bytes, chk: Checker) -> None:
    chk.require(text.encode("utf-8") == golden, "report differs from the golden bytes")


def verify_error_record(stderr: str, chk: Checker) -> None:
    try:
        record = json.loads(stderr.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise VerifyError("stderr holds no JSON error record") from None
    err = record.get("error") if isinstance(record, dict) else None
    chk.require(
        record.get("schema") == "v1" and isinstance(err, dict)
        and isinstance(err.get("name"), str) and isinstance(err.get("message"), str),
        f"malformed error record {record!r}",
    )


VERIFIERS = {
    "herglotz_means": verify_herglotz_means,
    "gauge": verify_gauge,
    "star": verify_star,
    "h2": verify_h2,
    "means_small": verify_means_small,
}


# The printed value the self-test perturbs, per job kind.
CORRUPT_KEY = {
    "herglotz_means": "I_parseval",
    "gauge": "ratio",
    "star": "means",
    "h2": "h2_sum",
    "means_small": "I_parseval",
}


def corrupt(kind: str, text: str) -> str:
    """The output with one printed value changed by 1e-4 relative (or an
    error record replaced by a traceback), for the verifier self-test."""
    if kind == "report":
        return text.replace('"pass": true', '"pass": false', 1)
    if kind == "bad_input":
        return "Traceback (most recent call last):\n"
    key = CORRUPT_KEY[kind]
    lines = text.split("\n")
    if text.lstrip().startswith("{"):
        i = max(i for i, line in enumerate(lines) if f'"{key}": ' in line)
        head, _, value = lines[i].rpartition(": ")
        comma = "," if value.endswith(",") else ""
        lines[i] = f"{head}: {float(value.rstrip(',')) * (1 + 1e-4):.16e}{comma}"
    else:
        col = lines[0].split(",").index(key)
        i = max(i for i, line in enumerate(lines) if line)
        cells = lines[i].split(",")
        cells[col] = f"{float(cells[col]) * (1 + 1e-4):.16e}"
        lines[i] = ",".join(cells)
    return "\n".join(lines)
