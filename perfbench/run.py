"""logmeans benchmark: closed-loop job streams with verified outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --write-manifest

One client, one job in flight.  ``--trace 0`` prints the end-to-end
metrics, then runs the fixed conformance probe (jobs.probe_jobs) in-process
and reports the share it handles as documented; ``--trace 1`` spends half
the time untraced and half traced on the same job sequence and prints the
per-layer metrics, including the tracing overhead.  The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics.
``--all`` runs every workload and prints every metric with its unit;
``--write-manifest`` rewrites BENCHMARK.json and perfbench/provenance.json
from the tables below.

Runs from a checkout: the program is imported from ``src/`` beside this
directory, child processes get ``PYTHONPATH=src``, and every temporary file
lives in a ``.perfbench-*`` directory of the checkout that is removed at
the end.  MEANS_THREADS is removed and BLAS thread counts are pinned to 1,
so every workload is the plain single-threaded run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr
from pathlib import Path

import jobs  # sibling modules: this script's directory is on sys.path
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "report.json"
TRACE_DIR = ROOT / ".perfbench-traces"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
INHERITED_THREAD_ENV = {var: os.environ.get(var) for var in THREAD_VARS}
SETUP_SPAWNS = 11
RUN_SECONDS = 50

WORKLOADS = [
    ("herglotz-means", "dense O(N^2) log recurrence and FFT quadrature are the whole job; schedule search idle"),
    ("cli-mix", "one process per job: start, import, parsing, formatting, log-domain schedule search"),
]

# name, unit, better, bound.  Timing bounds sit at the largest allowed, 0.25:
# on a shared 2-CPU machine a fixed CPU loop runs 25-30% slower in some
# minute-long stretches than in others, so 50 s runs of identical work
# differ by up to 1.3x.  probe_ok_frac is a count over a fixed list: one
# more probe input mishandled is a loss of 1/12 or more.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("job_s.p50", "s", "lower", 0.25),
    ("job_s.tail", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("probe_ok_frac", "ratio", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("err_digits.min", "digits", "higher", 0.2),
]

# name, unit, better; per traced job unless the name says max or ratio.
PER_LAYER = [
    ("series.log_series.calls", "count", "lower"),
    ("series.log_series.self_s", "s", "lower"),
    ("series.log_series.macs", "count", "lower"),
    ("caratheodory.log_taylor.calls", "count", "lower"),
    ("caratheodory.log_taylor.self_s", "s", "lower"),
    ("caratheodory.log_taylor.cache_hit_ratio", "ratio", "higher"),
    ("means.quadrature_means.calls", "count", "lower"),
    ("means.quadrature_means.self_s", "s", "lower"),
    ("means.quadrature_means.points", "count", "lower"),
    ("means.quadrature_means.fft_max_prime", "count", "lower"),
    ("means.quadrature_means.fft_flops", "count", "lower"),
    ("means.parseval_means.calls", "count", "lower"),
    ("means.parseval_means.self_s", "s", "lower"),
    ("means.parseval_means.terms", "count", "lower"),
    ("means.parseval_log_value_at_inv_n.calls", "count", "lower"),
    ("means.parseval_log_value_at_inv_n.self_s", "s", "lower"),
    ("extremal.choose_schedule.calls", "count", "lower"),
    ("extremal.choose_schedule.self_s", "s", "lower"),
    ("extremal.schedule.bits_max", "bits", "lower"),
    ("numerics.neglog_gap_from_inv_n.calls", "count", "lower"),
    ("numerics.gap_from_inv_n.calls", "count", "lower"),
    ("extremal.ratio_at_schedule.self_s", "s", "lower"),
    ("extremal.star_sweep.self_s", "s", "lower"),
    ("analysis.corollary_report.self_s", "s", "lower"),
    ("analysis.fit_exponent.self_s", "s", "lower"),
    ("specs.parse_function_spec.calls", "count", "lower"),
    ("specs.parse_function_spec.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("jsonio.int_str.calls", "count", "lower"),
    ("jsonio.int_str.self_s", "s", "lower"),
    ("jsonio.int_str.digits", "count", "lower"),
    ("jsonio.dumps_canonical.self_s", "s", "lower"),
    ("jsonio.atomic_write_text.self_s", "s", "lower"),
    ("jsonio.atomic_write_text.bytes", "bytes", "lower"),
    ("trace.job_s", "s", "lower"),
    ("trace.jobs_per_s", "1/s", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# Layers predicted to take most of the job time on each workload, and on
# the gauge jobs of cli-mix (of the time inside main()), and layers
# predicted to take none of it there.
PREDICTED_MAIN = {
    "herglotz-means": ["series.log_series", "means.quadrature_means"],
    "cli-mix": ["cli.import"],
}
GAUGE_MAIN = ["extremal.choose_schedule"]
GAUGE_IDLE = ["series.log_series", "means.quadrature_means"]


class JobTimeout(BaseException):
    """Raised by SIGALRM inside an in-process job that passed its wall limit."""


class BenchError(Exception):
    """The benchmark cannot run here."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MEANS_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def prepare_process() -> None:
    """Pin this process to the same single-threaded setting as its children."""
    os.environ.pop("MEANS_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "logmeans" / "__init__.py").is_file():
        raise BenchError(f"no logmeans package under {SRC}")
    sys.path.insert(0, str(SRC))


def measure_setup(env: dict) -> float:
    """Seconds from spawning a fresh interpreter until ``import logmeans`` returns."""
    code = "import time, logmeans; print(repr(time.perf_counter()))"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import logmeans: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip()) - t0


def tail_percentile(times: list):
    """(percentile, value) of the highest percentile with 10 samples above it:
    the 11th-largest time, at percentile 100*(n-10)/n."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _error_name(stderr: str) -> str:
    try:
        return json.loads(stderr.strip().splitlines()[-1])["error"]["name"]
    except (ValueError, KeyError, IndexError, TypeError):
        return "malformed_error"


def _on_alarm(signum, frame):
    raise JobTimeout()


class Runner:
    """Runs one workload's job stream and collects records for verification."""

    def __init__(self, workload: str, tmp: str, env: dict, in_process: bool):
        self.workload = workload
        self.tmp = tmp
        self.env = env
        self.in_process = in_process
        if self.in_process:
            import logmeans.cli

            self.main = logmeans.cli.main
            signal.signal(signal.SIGALRM, _on_alarm)
        self.counter = 0

    def _argv(self, job, index: int) -> list:
        out = os.path.join(self.tmp, f"job{index}.out")
        return [out if a == jobs.OUT else a for a in job.argv], out

    def run_job(self, job, tracer=None) -> dict:
        index = self.counter
        self.counter += 1
        argv, out = self._argv(job, index)
        rec = {"job": job, "index": index, "out": out, "stdout": "", "stderr": ""}
        if self.in_process:
            self._in_process(job, argv, rec, tracer)
        else:
            self._child(job, argv, rec, tracer)
        return rec

    def _in_process(self, job, argv, rec, tracer) -> None:
        main = self.main if tracer is None else tracer.wrap("cli.main", self.main)
        if tracer is not None:
            tracer.job = rec["index"]
        err = io.StringIO()
        code, outcome = None, None
        with redirect_stderr(err):
            try:
                signal.setitimer(signal.ITIMER_REAL, job.wall_limit_s)
                t0 = time.perf_counter()
                try:
                    code = main(argv)
                finally:
                    t1 = time.perf_counter()
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except JobTimeout:
                outcome, t1 = "timeout", time.perf_counter()
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # the job's own crash, recorded as a traceback
                outcome = f"traceback:{type(exc).__name__}"
        rec["t"] = t1 - t0
        rec["stderr"] = err.getvalue()
        rec["outcome"] = outcome or self._classify(job, code, rec["stderr"])

    def _child(self, job, argv, rec, tracer) -> None:
        if tracer is None:
            cmd = [sys.executable, "-m", "logmeans.cli", *argv]
        else:
            rec["spans"] = os.path.join(self.tmp, f"job{rec['index']}.spans")
            cmd = [sys.executable, str(BENCH / "trace_child.py"), rec["spans"], str(rec["index"]), *argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=self.tmp, capture_output=True, text=True,
                timeout=job.wall_limit_s,
            )
        except subprocess.TimeoutExpired:
            rec["t"] = time.perf_counter() - t0
            rec["outcome"] = "timeout"
            return
        rec["t"] = time.perf_counter() - t0
        rec["stdout"], rec["stderr"] = proc.stdout, proc.stderr
        if "Traceback (most recent call last)" in proc.stderr:
            rec["outcome"] = "traceback"
        else:
            rec["outcome"] = self._classify(job, proc.returncode, proc.stderr)

    @staticmethod
    def _classify(job, code, stderr: str) -> str:
        if code == job.expect_exit:
            return "ok"
        if code == 2:
            return f"error:{_error_name(stderr)}"
        return f"exit:{code}"

    def warm_up(self) -> None:
        """One untimed job so lazy imports and first-call set-up are done."""
        if not self.in_process:
            return
        gen = jobs.GENERATORS[self.workload](987654321)
        self.run_job(next(gen))
        self.counter = 0

    def loop(self, seed: int, seconds: float, tracer=None, pause=None, pauses: int = 0):
        """Closed loop for ``seconds`` of job time; returns (records, loop
        wall seconds).  ``pause`` is called ``pauses`` times, spread evenly
        over the loop; the time it takes is left out of the loop."""
        gen = jobs.GENERATORS[self.workload](seed)
        records = []
        marks = [seconds * i / pauses for i in range(pauses)]
        paused = 0.0
        t_start = time.perf_counter()
        while (elapsed := time.perf_counter() - t_start - paused) < seconds:
            if marks and elapsed >= marks[0]:
                marks.pop(0)
                t0 = time.perf_counter()
                pause()
                paused += time.perf_counter() - t0
            else:
                records.append(self.run_job(next(gen), tracer))
        wall = time.perf_counter() - t_start - paused
        for _ in marks:
            pause()
        return records, wall


def run_probe(tmp: str, env: dict):
    """Runs the fixed conformance probe in-process, untimed; returns
    (jobs handled as documented, jobs run, reasons for the others)."""
    runner = Runner("probe", tmp, env, in_process=True)
    records = [runner.run_job(job) for job in jobs.probe_jobs()]
    verify_records(records, b"")
    ok = sum(1 for r in records if r["outcome"] == "ok")
    reasons = {f"{r['job'].params.get('name') or r['job'].params['label']}": r["outcome"]
               for r in records if r["outcome"] != "ok"}
    return ok, len(records), reasons


def verify_records(records: list, golden: bytes):
    """Checks every successful output and self-tests each verifier used.

    Returns (checker, wrong outputs, self-test passed, job kinds, notes); a
    wrong output's record is relabelled "wrong_output" so it counts as failed.
    """
    import verify  # after the loop: mpmath stays out of the measured process

    chk = verify.Checker()
    wrong = 0
    notes = []
    samples = {}
    for rec in records:
        if rec["outcome"] != "ok":
            continue
        job = rec["job"]
        try:
            text = _output_text(rec)
            _check(verify, job, text, rec["stderr"], golden, chk)
            samples.setdefault(job.kind, (job, text, rec["stderr"]))
        except Exception as exc:  # any verifier error marks the output wrong
            wrong += 1
            rec["outcome"] = "wrong_output"
            notes.append(f"job {rec['index']} {job.kind}: {type(exc).__name__}: {exc}"[:300])
    selftest_ok = True
    for kind, (job, text, stderr) in sorted(samples.items()):
        try:
            if kind == "bad_input":
                _check(verify, job, "", verify.corrupt(kind, stderr), golden, verify.Checker())
            else:
                _check(verify, job, verify.corrupt(kind, text), stderr, golden, verify.Checker())
        except Exception:
            continue
        selftest_ok = False
        notes.append(f"self-test: the {kind} verifier accepted a corrupted output")
    return chk, wrong, selftest_ok, sorted(samples), notes


def _output_text(rec: dict) -> str:
    if rec["job"].kind == "bad_input":
        return ""
    if os.path.exists(rec["out"]):
        with open(rec["out"], encoding="utf-8") as handle:
            return handle.read()
    return rec["stdout"]


def _check(verify, job, text: str, stderr: str, golden: bytes, chk) -> None:
    if job.kind == "report":
        verify.verify_report(text, golden, chk)
    elif job.kind == "bad_input":
        verify.verify_error_record(stderr, chk)
    else:
        verify.VERIFIERS[job.kind](text, job.params, chk)


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def provenance(seed) -> dict:
    import numpy

    lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "logmeans").glob("*.py"))
    )
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "thread_env_inherited": INHERITED_THREAD_ENV,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "MEANS_THREADS": "removed from the environment of the benchmark and its children",
        "source_lines": lines,
        "git_commit": commit,
        "seed": seed,  # None in provenance.json: each run names its own
    }


def failure_reasons(records: list) -> dict:
    reasons = {}
    for rec in records:
        if rec["outcome"] != "ok":
            reasons[rec["outcome"]] = reasons.get(rec["outcome"], 0) + 1
    return dict(sorted(reasons.items()))


def tracing_overhead(plain: list, traced: list) -> float:
    """Loss in jobs per second from tracing, over the jobs both halves ran
    (the same job sequence): 1 - untraced time / traced time."""
    pairs = min(len(plain), len(traced))
    t_plain = sum(r["t"] for r in plain[:pairs])
    t_traced = sum(r["t"] for r in traced[:pairs])
    return 1.0 - t_plain / t_traced if t_traced > 0 else 0.0


def layer_metrics(workload: str, spans: list, counts: dict, traced: list, wall: float, plain: list):
    n = max(len(traced), 1)
    st = tracing.self_times(spans)

    def calls(name):
        return st[name][0] / n if name in st else 0.0

    def self_s(name):
        return st[name][1] / n if name in st else 0.0

    def per_job(key):
        return counts.get(key, 0.0) / n

    lt_calls = st["caratheodory.log_taylor"][0] if "caratheodory.log_taylor" in st else 0
    values = {}
    for name, unit, _ in PER_LAYER:
        base, _, measure = name.rpartition(".")
        if name == "cli.import_s":
            v = self_s("cli.import")
        elif name == "caratheodory.log_taylor.cache_hit_ratio":
            v = counts.get("caratheodory.log_taylor.cache_hits", 0.0) / lt_calls if lt_calls else 0.0
        elif name == "trace.job_s":
            v = statistics.fmean(r["t"] for r in traced) if traced else 0.0
        elif name == "trace.jobs_per_s":
            v = len(traced) / wall
        elif name == "trace.overhead_frac":
            v = tracing_overhead(plain, traced)
        elif f"max:{name}" in counts:
            v = counts[f"max:{name}"]
        elif measure == "calls" and base in st:
            v = calls(base)
        elif measure == "calls":
            v = per_job(name)
        elif measure == "self_s":
            v = self_s(base)
        else:
            v = per_job(name)
        values[name] = {"value": float(v), "unit": unit}
    job_time = sum(r["t"] for r in traced) / n
    lines = []
    names = PREDICTED_MAIN[workload]
    share = sum(self_s(x) for x in names) / job_time if job_time > 0 else 0.0
    verdict = "confirmed" if share > 0.5 else "WRONG"
    lines.append(f"prediction: {' + '.join(names)} take {share:.1%} of job time on {workload}: {verdict}")
    if workload == "cli-mix":
        lines.extend(gauge_job_predictions(spans, traced))
    return values, lines


def gauge_job_predictions(spans: list, traced: list) -> list:
    """Shares of the time inside main() on the gauge jobs of cli-mix."""
    gauge_jobs = {r["index"] for r in traced if r["job"].kind == "gauge"}
    mine = [sp for sp in spans if sp[2] in gauge_jobs]
    main_time = sum(sp[4] - sp[3] for sp in mine if sp[0] == "cli.main")
    if main_time <= 0:
        return ["prediction: no traced gauge job on cli-mix"]
    st = tracing.self_times(mine)
    main_share = sum(st[x][1] for x in GAUGE_MAIN if x in st) / main_time
    idle_share = sum(st[x][1] for x in GAUGE_IDLE if x in st) / main_time
    return [
        f"prediction: {' + '.join(GAUGE_MAIN)} take {main_share:.1%} of main() on the "
        f"{len(gauge_jobs)} gauge jobs of cli-mix: {'confirmed' if main_share > 0.5 else 'WRONG'}",
        f"prediction: {' + '.join(GAUGE_IDLE)} take {idle_share:.2%} of main() on those jobs "
        f"(predicted ~0): {'confirmed' if idle_share < 0.01 else 'WRONG'}",
    ]


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    env = child_env()
    if workload == "cli-mix" and not GOLDEN.is_file():
        raise BenchError(f"no golden report at {GOLDEN}")
    golden = GOLDEN.read_bytes() if workload == "cli-mix" else b""
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    lines = []
    try:
        runner = Runner(workload, tmp, env, in_process=workload != "cli-mix")
        setup = []
        runner.warm_up()
        if not trace:
            # Set-up is timed between jobs across the whole loop, so its
            # median covers the same stretch of machine time as the jobs.
            records, wall = runner.loop(
                seed, seconds, pause=lambda: setup.append(measure_setup(env)), pauses=SETUP_SPAWNS
            )
            rss = peak_rss_mb(runner.in_process)
            all_records = records
        else:
            plain, _ = runner.loop(seed, seconds / 2.0)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                records, wall = runner.loop(seed, seconds / 2.0, tracer)
            finally:
                tracer.uninstall()
            all_records = plain + records
        chk, wrong, selftest_ok, kinds, notes = verify_records(all_records, golden)
        attempted = len(records)
        failed = sum(1 for r in records if r["outcome"] != "ok")
        ok_times = [r["t"] for r in records if r["outcome"] == "ok"]
        lines.append(
            f"workload {workload} seed {seed}: {attempted} jobs attempted in {wall:.2f} s, "
            f"{failed} failed {json.dumps(failure_reasons(records))}"
        )
        lines.append(f"verified {chk.count} values over job kinds {kinds}; self-test {'passed' if selftest_ok else 'FAILED'}")
        lines.extend(notes[:20])
        if not trace:
            if not ok_times:
                raise BenchError(f"no job succeeded: {failure_reasons(records)}")
            p, tail = tail_percentile(ok_times)
            probe_ok, probe_n, probe_bad = run_probe(tmp, env)
            lines.append(f"probe: {probe_ok} of {probe_n} inputs handled as documented; others {json.dumps(probe_bad)}")
            lines.append(f"job_s.tail is p{p:.2f} of {len(ok_times)} successful jobs")
            metrics = {
                "setup_s": statistics.median(setup),
                "job_s.p50": statistics.median(ok_times),
                "job_s.tail": tail,
                "jobs_per_s": attempted / wall,
                "probe_ok_frac": probe_ok / probe_n,
                "peak_rss_mb": rss,
                "err_digits.min": chk.min_digits,
            }
            units = {name: unit for name, unit, _, _ in END_TO_END}
            out = {name: {"value": float(metrics[name]), "unit": units[name]} for name in metrics}
        else:
            if workload == "cli-mix":
                spans_lists, counts = [], {}
                for rec in records:
                    if os.path.exists(rec.get("spans", "")):
                        spans, c = tracing.load(rec["spans"])
                        spans_lists.append(spans)
                        tracing.add_counts(counts, c)
                spans = tracing.merge(spans_lists)
            else:
                spans, counts = tracer.spans, dict(tracer.counts)
            out, pred = layer_metrics(workload, spans, counts, records, wall, plain)
            TRACE_DIR.mkdir(exist_ok=True)
            trace_path = TRACE_DIR / f"{workload}-seed{seed}.jsonl"
            tracing.dump(str(trace_path), spans, counts)
            lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
            lines.extend(pred)
        for name, m in out.items():
            lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
        result = {
            "correct": wrong == 0 and selftest_ok and chk.count > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": out,
        }
        return lines, result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, traced and untraced")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    try:
        prepare_process()
        if args.write_manifest:
            (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n", encoding="utf-8")
            (BENCH / "provenance.json").write_text(
                json.dumps(provenance(None), indent=2) + "\n", encoding="utf-8"
            )
        if args.all:
            print("provenance: " + json.dumps(provenance(args.seed)))
            ok = True
            for name, _ in WORKLOADS:
                for trace in (0, 1):
                    proc = subprocess.run(
                        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                        capture_output=True, text=True,
                    )
                    sys.stdout.write(proc.stdout)
                    sys.stderr.write(proc.stderr)
                    ok = ok and proc.returncode == 0
            return 0 if ok else 1
        if args.workload is None:
            if args.write_manifest:
                return 0
            parser.error("--workload is required")
        lines, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    print("provenance: " + json.dumps(provenance(args.seed)))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
