"""Seeded job generators for the benchmark workloads, and the fixed
conformance probe.

Every generator is an endless iterator of Job records built from one
``random.Random(seed)``: the same seed always yields the same argv
sequence.  The size parameters (truncation, atom count, gauge class, k_max,
bits of n_2) follow a Kronecker low-discrepancy sequence with a seeded
shift, so every prefix of the stream, however long a run gets, covers the
size ranges in nearly exact proportions instead of whatever an iid draw
gives.  Nothing here runs the program under test.

Why each workload exists (see NOTES.md for measurements):

* herglotz-means: dense O(N^2) log recurrence plus FFT quadrature are the
  whole job; the schedule search never runs.
* cli-mix: interpreter start, import, argparse, spec parsing and formatting
  dominate; means runs the sparse Parseval path, not the dense one, and the
  gauge jobs run the big-integer schedule search in the log domain.

The workloads hold only inputs whose documented outcome is a result.  The
malformed inputs and the direct-domain gauges, where the program has known
defects, form the probe: one fixed list, run after every timed loop and
reported as probe_ok_frac.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

HERGLOTZ_RADII = "geometric:0.5,0.5,20"
HERGLOTZ_N_MIN, HERGLOTZ_N_MAX = 2048, 16384
HERGLOTZ_J_MAX = 64

# Gauge jobs of cli-mix.  The size of n_2 in bits comes from the gauge
# formula (2-a)*L + b*log1p(L) = 8*log(k), L = log(n), never from today's
# outcome.  From k = 2 on, each bracket (cand/2, cand] of the schedule
# search starts above n_2/2 >= 2^509 > DIRECT_N_LIMIT = 10^150 (2^498.3),
# so the search runs on the log-domain predicate and bisects big integers;
# k = 1 stays on a bracket of a few dozen integers.  That needs 2 - a below
# 0.016, so pow:a and powlog:a,b with a in [1.984, 2); powlog:2,b cannot
# reach it at sizes a job can print.
LOG_DOMAIN_BITS_2, LOG_DOMAIN_BITS_2_MAX = 510, 1024
GAUGE_K_MIN, GAUGE_K_MAX = 4, 8
GAUGE_BIT_CAP = 6144  # largest n_k: about 4600 bits at k = 8

OUT = "{out}"  # replaced by the runner with a per-job output file

# Per-job wall limits.  A job past its limit counts as failed.  The
# workload limits sit far above every job's time on a slow machine, so a
# failure there means a hang; the probe limit is where a documented error
# must have been reported.
HERGLOTZ_WALL_LIMIT_S = 30.0  # the largest jobs take under 1 s
CLI_WALL_LIMIT_S = 20.0  # cli jobs take 0.25 to 0.5 s as a process
PROBE_WALL_LIMIT_S = 1.0  # the slowest probe result takes 0.1 s


@dataclass
class Job:
    """One closed-loop job: the CLI argv plus what the verifier needs."""

    kind: str  # verifier key
    argv: List[str]
    params: Dict = field(default_factory=dict)
    expect_exit: int = 0
    wall_limit_s: Optional[float] = None


def kronecker(rng: random.Random, dims: int) -> Iterator[Tuple[float, ...]]:
    """Points of the R_d sequence (alpha_j = phi_d^-j, phi_d the positive root
    of x^(d+1) = x + 1) in [0, 1)^dims, shifted by a seeded random offset."""
    phi = 2.0
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = [phi ** -(j + 1) for j in range(dims)]
    shift = [rng.random() for _ in range(dims)]
    i = 0
    while True:
        i += 1
        yield tuple((s + i * a) % 1.0 for s, a in zip(shift, alpha))


def log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


# -- herglotz-means ---------------------------------------------------------


def herglotz_spec(rng: random.Random, atoms: int) -> Dict:
    return {
        "type": "herglotz",
        "atoms": [
            {
                "theta": rng.uniform(0.0, 2.0 * math.pi),
                "weight": log_uniform(rng.random(), 0.1, 10.0),
            }
            for _ in range(atoms)
        ],
        "im_p0": rng.uniform(-1.0, 1.0),
    }


def herglotz_means(seed: int) -> Iterator[Job]:
    """Dense kernel sums with J in [1, 64] atoms at truncation N in [2048, 16384],
    both log-uniform integers, default quadrature M = 2N+1."""
    rng = random.Random(seed)
    for un, uj in kronecker(rng, 2):
        trunc = min(
            int(log_uniform(un, HERGLOTZ_N_MIN, HERGLOTZ_N_MAX + 1)),
            HERGLOTZ_N_MAX,
        )
        atoms = min(int(log_uniform(uj, 1, HERGLOTZ_J_MAX + 1)), HERGLOTZ_J_MAX)
        spec = herglotz_spec(rng, atoms)
        argv = [
            "means", "--spec", json.dumps(spec), "--radii", HERGLOTZ_RADII,
            "--trunc", str(trunc), "--out", OUT,
        ]
        yield Job("herglotz_means", argv, {"spec": spec, "trunc": trunc}, 0, HERGLOTZ_WALL_LIMIT_S)


# -- gauges -----------------------------------------------------------------


def schedule_bits(a: float, b: float, k: int) -> float:
    """Bits of n_k from (2-a)*L + b*log1p(L) = 8*log(k), L = log(n)."""
    target = 8.0 * math.log(k)

    def excess(L: float) -> float:
        return (2.0 - a) * L + b * math.log1p(L) - target

    lo, hi = 0.0, 1.0
    while excess(hi) < 0.0:
        hi *= 2.0
        if hi > 1e300:
            return math.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi / math.log(2.0)


def log_domain_gauge(rng: random.Random, cls: int, u_bits: float):
    """Gauge (a, b) of class cls (0: pow:a, 1: powlog:a,b) with a < 2 whose
    n_2 has a size drawn log-uniformly in [LOG_DOMAIN_BITS_2,
    LOG_DOMAIN_BITS_2_MAX] bits; returns (label, a, b)."""
    L = log_uniform(u_bits, LOG_DOMAIN_BITS_2, LOG_DOMAIN_BITS_2_MAX) * math.log(2.0)
    t = 8.0 * math.log(2.0)
    if cls == 0:
        a, b = 2.0 - t / L, 0.0
        label = f"pow:{a!r}"
    else:
        b = rng.uniform(0.0, 0.5 * t / math.log1p(L))
        a = 2.0 - (t - b * math.log1p(L)) / L
        label = f"powlog:{a!r},{b!r}"
    return label, a, b


def gauge_job(rng: random.Random, k: int, u_cls: float, u_bits: float, fmt: str) -> Job:
    label, a, b = log_domain_gauge(rng, int(2 * u_cls), u_bits)
    bits_2, bits = schedule_bits(a, b, 2), schedule_bits(a, b, k)
    if not (1.5 <= a < 2.0 and bits_2 >= LOG_DOMAIN_BITS_2 * (1.0 - 1e-9) and bits <= GAUGE_BIT_CAP):
        raise AssertionError(f"generated gauge {label} k={k}: n_2 {bits_2} bits, n_k {bits} bits")
    argv = ["gauge", "--phi", label, "--kmax", str(k), "--format", fmt]
    params = {"a": a, "b": b, "k_max": k, "bits": bits, "format": fmt, "label": label}
    return Job("gauge", argv, params)


# -- cli-mix ----------------------------------------------------------------

# One block of cli jobs: (category, count), shuffled within the block.
CLI_SHARES = [("report", 1), ("star", 3), ("h2", 4), ("means", 4), ("gauge", 3)]


def lacunary_spec(rng: random.Random, max_exponent: int) -> Dict:
    count = rng.randint(1, 6)
    exponents = sorted(rng.sample(range(1, max_exponent + 1), count))
    budget = rng.uniform(0.2, 1.4)  # sum of |c| stays below pi/2
    weights = [rng.random() + 0.05 for _ in exponents]
    scale = budget / sum(weights)
    terms = []
    for e, w in zip(exponents, weights):
        phase = rng.uniform(0.0, 2.0 * math.pi)
        terms.append({"exponent": e, "re": w * scale * math.cos(phase), "im": w * scale * math.sin(phase)})
    return {"type": "lacunary", "terms": terms}


def _small_spec(rng: random.Random, kind: str) -> Dict:
    if kind == "mobius":
        return {"type": "mobius"}
    if kind == "herglotz":
        return herglotz_spec(rng, rng.randint(1, 4))
    if kind == "star":
        return {"type": "theorem2_star", "k_max": rng.randint(1, 40)}
    return lacunary_spec(rng, 4096)


def _radii_spec(rng: random.Random) -> str:
    if rng.random() < 0.5:
        start = rng.uniform(0.05, 0.9)
        factor = rng.uniform(0.3, 0.8)
        count = rng.randint(3, 20)
        return f"geometric:{start!r},{factor!r},{count}"
    return f"critical-star:{rng.randint(1, 20)}"


def _cli_job(rng: random.Random, category: str, fmt: str, gauge_points) -> Job:
    if category == "report":
        return Job("report", ["report"])
    if category == "star":
        k = rng.randint(1, 53)
        return Job("star", ["star", "--kmax", str(k), "--format", fmt], {"k_max": k, "format": fmt})
    if category == "h2":
        kind = ("mobius", "herglotz", "star", "lacunary")[rng.randrange(4)]
        spec = _small_spec(rng, kind)
        trunc = int(log_uniform(rng.random(), 64, 2049))
        argv = ["h2", "--spec", json.dumps(spec), "--trunc", str(trunc), "--format", fmt]
        return Job("h2", argv, {"spec": spec, "trunc": trunc, "format": fmt})
    if category == "means":
        kind = ("mobius", "star", "lacunary")[rng.randrange(3)]
        spec = _small_spec(rng, kind)
        trunc = int(log_uniform(rng.random(), 256, 2049))
        radii = _radii_spec(rng)
        argv = ["means", "--spec", json.dumps(spec), "--radii", radii, "--trunc", str(trunc), "--format", fmt]
        return Job("means_small", argv, {"spec": spec, "trunc": trunc, "radii": radii, "format": fmt})
    uc, uk, ub = next(gauge_points)
    k = GAUGE_K_MIN + int(uk * (GAUGE_K_MAX - GAUGE_K_MIN + 1))
    return gauge_job(rng, k, uc, ub, fmt)


def cli_mix(seed: int) -> Iterator[Job]:
    """Blocks of 15 process jobs in fixed shares (CLI_SHARES), shuffled
    within each block, so every run holds the same mix."""
    rng = random.Random(seed)
    gauge_points = kronecker(rng, 3)
    while True:
        slots = [c for c, n in CLI_SHARES for _ in range(n)]
        rng.shuffle(slots)
        for category in slots:
            job = _cli_job(rng, category, rng.choice(("csv", "json")), gauge_points)
            job.wall_limit_s = CLI_WALL_LIMIT_S
            yield job


# -- conformance probe ------------------------------------------------------

# Inputs whose documented outcome is exit code 2 with a JSON error record.
BAD_INPUTS = [
    ("infeasible_gauge", ["gauge", "--phi", "powlog:2,0.5", "--kmax", "6"]),
    ("spec_missing_file", ["means", "--spec", "@missing-spec.json"]),
    ("trunc_zero", ["means", "--spec", '{"type":"mobius"}', "--trunc", "0"]),
    ("trunc_negative", ["means", "--spec", '{"type":"mobius"}', "--trunc", "-5"]),
    ("star_kmax_zero", ["star", "--kmax", "0"]),
    ("gauge_nan", ["gauge", "--phi", "pow:nan", "--kmax", "4"]),
    (
        "lacunary_exponent_1e400",
        ["h2", "--spec", '{"type":"lacunary","terms":[{"exponent":1e400,"re":0.1,"im":0.0}]}'],
    ),
    (
        "herglotz_weights_1e308",
        [
            "h2", "--spec",
            '{"type":"herglotz","atoms":[{"theta":0.5,"weight":1e308},'
            '{"theta":2.5,"weight":1e308}],"im_p0":0.0}',
        ],
    ),
]

# Hypothesis-class gauges whose schedule search runs in the direct domain
# (n <= 10^150): two that the bracket search refuses today and the two
# k = 12 rows of the ROADMAP baseline table that it solves.
PROBE_GAUGES = [(1.8, 0.0, 6), (2.0, 4.0, 6), (1.9, 0.0, 12), (1.99, 0.0, 12)]


def probe_jobs() -> List[Job]:
    """The fixed conformance set, the same in every run: every malformed
    input and direct-domain gauge must have its documented outcome."""
    out = []
    for name, argv in BAD_INPUTS:
        out.append(Job("bad_input", list(argv), {"name": name}, 2, PROBE_WALL_LIMIT_S))
    for a, b, k in PROBE_GAUGES:
        label = f"pow:{a!r}" if b == 0.0 else f"powlog:{a!r},{b!r}"
        argv = ["gauge", "--phi", label, "--kmax", str(k), "--format", "csv", "--out", OUT]
        params = {"a": a, "b": b, "k_max": k, "format": "csv", "label": label}
        out.append(Job("gauge", argv, params, 0, PROBE_WALL_LIMIT_S))
    return out


GENERATORS = {
    "herglotz-means": herglotz_means,
    "cli-mix": cli_mix,
}
