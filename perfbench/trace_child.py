"""Traced stand-in for ``python -m logmeans.cli`` in the cli-mix traced run.

Usage: trace_child.py SPANS_PATH JOB_INDEX ARGV...

Times ``import logmeans.cli`` as the ``cli.import`` span, installs the span
wrappers, runs ``main(ARGV)`` inside a ``cli.main`` span and writes the
spans to SPANS_PATH before exiting with main's exit code.
"""

import sys
import time

import tracing

if __name__ == "__main__":
    spans_path, job = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    import logmeans.cli

    t1 = time.perf_counter()
    tracer = tracing.Tracer()
    tracer.job = job
    tracer.spans.append(["cli.import", None, job, t0, t1])
    tracer.install()
    try:
        code = tracer.wrap("cli.main", logmeans.cli.main)(sys.argv[3:])
    finally:
        tracer.dump(spans_path)
    sys.exit(code)
