"""Span tracing from outside the package.

Each public function is wrapped where its caller looks it up (the modules
import names directly, so ``logmeans.cli.quadrature_means`` is patched, not
only ``logmeans.means.quadrature_means``).  A span records name, parent
span, job index, start and end; spans stay in memory until the run ends.
Hot predicates (``neglog_gap_from_inv_n``, ``gap_from_inv_n``) are counted,
not spanned.  Counts marked *computed* derive from argument sizes, not from
hardware counters.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict
from typing import Callable, Dict, List


def largest_prime_factor(m: int) -> int:
    best, p = 1, 2
    while p * p <= m:
        while m % p == 0:
            best, m = p, m // p
        p += 1
    return max(best, m) if m > 1 else best


# -- per-span measures (computed from arguments and results) ---------------


def _log_series(counts, args, kwargs, result):
    n = args[0].truncation_degree
    counts["series.log_series.macs"] += n * (n - 1) / 2


def _log_taylor_pre(counts, args, kwargs):
    self, degree = args[0], args[1]
    counts["caratheodory.log_taylor.cache_hits"] += degree in self._log_cache


def _quadrature(counts, args, kwargs, result):
    radii, m = len(args[1]), args[2]
    counts["means.quadrature_means.points"] += radii * m
    counts["means.quadrature_means.fft_flops"] += radii * 5.0 * m * math.log2(m)
    counts["max:means.quadrature_means.fft_max_prime"] = max(
        counts["max:means.quadrature_means.fft_max_prime"], largest_prime_factor(m)
    )


def _parseval(counts, args, kwargs, result):
    a, radii = args[0], args[1]
    terms = len(a.terms) if hasattr(a, "terms") else a.truncation_degree
    counts["means.parseval_means.terms"] += terms * len(radii)


def _schedule(counts, args, kwargs, result):
    counts["max:extremal.schedule.bits_max"] = max(
        counts["max:extremal.schedule.bits_max"], max(n.bit_length() for n in result.n_k)
    )


def _int_str(counts, args, kwargs, result):
    counts["jsonio.int_str.digits"] += len(result)


def _atomic_write(counts, args, kwargs, result):
    counts["jsonio.atomic_write_text.bytes"] += len(args[1].encode("utf-8"))


# (module, attribute, span name, post-measure, pre-measure); a class
# attribute is written "Class.method".
SPANS = [
    ("logmeans.caratheodory", "log_series", "series.log_series", _log_series, None),
    ("logmeans.caratheodory", "CaratheodoryFunction.log_taylor", "caratheodory.log_taylor", None, _log_taylor_pre),
    ("logmeans.cli", "quadrature_means", "means.quadrature_means", _quadrature, None),
    ("logmeans.cli", "parseval_means", "means.parseval_means", _parseval, None),
    ("logmeans.analysis", "parseval_means", "means.parseval_means", _parseval, None),
    ("logmeans.extremal", "parseval_log_value_at_inv_n", "means.parseval_log_value_at_inv_n", None, None),
    ("logmeans.extremal", "choose_schedule", "extremal.choose_schedule", _schedule, None),
    ("logmeans.specs", "choose_schedule", "extremal.choose_schedule", _schedule, None),
    ("logmeans.extremal", "ratio_at_schedule", "extremal.ratio_at_schedule", None, None),
    ("logmeans.analysis", "ratio_at_schedule", "extremal.ratio_at_schedule", None, None),
    ("logmeans.cli", "star_sweep", "extremal.star_sweep", None, None),
    ("logmeans.cli", "corollary_report", "analysis.corollary_report", None, None),
    ("logmeans.analysis", "fit_exponent", "analysis.fit_exponent", None, None),
    ("logmeans.cli", "parse_function_spec", "specs.parse_function_spec", None, None),
    ("logmeans.cli", "int_str", "jsonio.int_str", _int_str, None),
    ("logmeans.jsonio", "int_str", "jsonio.int_str", _int_str, None),
    ("logmeans.cli", "dumps_canonical", "jsonio.dumps_canonical", None, None),
    ("logmeans.analysis", "dumps_canonical", "jsonio.dumps_canonical", None, None),
    ("logmeans.cli", "atomic_write_text", "jsonio.atomic_write_text", _atomic_write, None),
]

COUNTED = [
    ("logmeans.extremal", "neglog_gap_from_inv_n", "numerics.neglog_gap_from_inv_n.calls"),
    ("logmeans.extremal", "gap_from_inv_n", "numerics.gap_from_inv_n.calls"),
]


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: List[list] = []  # [name, parent, job, start, end]
        self.stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.job = 0
        self._saved: List[tuple] = []

    def wrap(self, name: str, fn: Callable, post=None, pre=None) -> Callable:
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if pre is not None:
                pre(counts, args, kwargs)
            sid = len(spans)
            record = [name, stack[-1] if stack else None, self.job, clock(), 0.0]
            spans.append(record)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if post is not None:
                post(counts, args, kwargs, result)
            return result

        return traced

    def count(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        owner = importlib.import_module(module)
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, path[-1])
        self._saved.append((owner, path[-1], original))
        setattr(owner, path[-1], make(original))

    def install(self) -> None:
        for module, attr, name, post, pre in SPANS:
            self._patch(module, attr, lambda f, n=name, po=post, pr=pre: self.wrap(n, f, po, pr))
        for module, attr, key in COUNTED:
            self._patch(module, attr, lambda f, k=key: self.count(k, f))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        dump(path, self.spans, self.counts)


def dump(path: str, spans: List[list], counts: Dict[str, float]) -> None:
    """One JSON array [name, parent, job, start, end] per span, then the counts."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
        handle.write(json.dumps({"counts": dict(counts)}) + "\n")


def load(path: str):
    """(spans, counts) from a file written by Tracer.dump."""
    spans, counts = [], {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            item = json.loads(line)
            if isinstance(item, dict):
                counts = item["counts"]
            else:
                spans.append(item)
    return spans, counts


def self_times(spans: List[list]) -> Dict[str, List[float]]:
    """name -> [calls, total self seconds]; self = duration minus the part
    covered by direct child spans (children of one span never overlap)."""
    child_time = defaultdict(float)
    for name, parent, job, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for sid, (name, parent, job, start, end) in enumerate(spans):
        entry = out[name]
        entry[0] += 1
        entry[1] += (end - start) - child_time[sid]
    return out


def merge(spans_lists: List[List[list]]) -> List[list]:
    """Concatenate span lists from several processes, renumbering parents."""
    merged: List[list] = []
    for spans in spans_lists:
        base = len(merged)
        for name, parent, job, start, end in spans:
            merged.append([name, None if parent is None else parent + base, job, start, end])
    return merged


def add_counts(total: Dict[str, float], counts: Dict[str, float]) -> None:
    for key, value in counts.items():
        if key.startswith("max:"):
            total[key] = max(total.get(key, 0.0), value)
        else:
            total[key] = total.get(key, 0.0) + value
