"""The benchmark's tracer patches package names where their callers look them
up (perfbench/tracing.py, SPANS and COUNTED).  A refactor that moves or
drops one of those names, or changes how a traced function is called, breaks
the traced benchmark; these tests catch it here.  tracing.py is imported
read-only from perfbench/, which stays untouched."""

import importlib
import json
import sys
from pathlib import Path

import pytest

from logmeans.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

SITES = [(module, attr) for module, attr, *_ in tracing.SPANS + tracing.COUNTED]

KERNEL_SUM = json.dumps(
    {
        "type": "herglotz",
        "atoms": [{"theta": 0.3, "weight": 0.6}, {"theta": 2.5, "weight": 0.4}],
        "im_p0": 0.1,
    }
)

# Spans every run below records: each of the five commands, the schedule
# search, the coefficient and definition routes and the output layer.
MAIN_SPANS = {
    "caratheodory.log_taylor",
    "means.quadrature_means",
    "means.parseval_means",
    "means.parseval_log_value_at_inv_n",
    "extremal.choose_schedule",
    "extremal.ratio_at_schedule",
    "extremal.star_sweep",
    "analysis.corollary_report",
    "analysis.fit_exponent",
    "specs.parse_function_spec",
    "jsonio.int_str",
    "jsonio.dumps_canonical",
    "jsonio.atomic_write_text",
}


def _resolve(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module, attr", SITES, ids=lambda v: v)
def test_patched_name_resolves(module, attr):
    assert callable(_resolve(module, attr))


def test_traced_commands_record_their_spans(tmp_path, capsys):
    commands = [
        ["means", "--spec", KERNEL_SUM, "--trunc", "64"],
        ["h2", "--spec", KERNEL_SUM, "--out", str(tmp_path / "h2.csv")],
        ["star", "--kmax", "5"],
        ["gauge", "--phi", "pow:1.9", "--kmax", "4"],
        ["report", "--kmax-star", "8", "--kmax-gauge", "4"],
    ]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        codes = [main(argv) for argv in commands]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(commands)
    names = {span[0] for span in tracer.spans}
    assert sorted(MAIN_SPANS - names) == []
    assert tracer.counts["means.quadrature_means.points"] > 0
    # --trunc 64 needs 65 = 5*13 points; the rule rounds up to a 5-smooth M
    assert tracer.counts["max:means.quadrature_means.fft_max_prime"] <= 5
    assert tracer.counts["max:extremal.schedule.bits_max"] > 0
    assert tracer.counts["numerics.gap_from_inv_n.calls"] > 0

