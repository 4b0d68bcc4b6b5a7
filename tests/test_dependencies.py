"""The package imports only the standard library and numpy; mpmath,
hypothesis and pytest stay test-only.  numpy is imported inside the
functions that build or read a dense array, so the sparse commands start
without it."""

import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import logmeans
from logmeans import ExponentSchedule, Gauge, GrowthFit, MeansProfile

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "logmeans").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def imported_modules(path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_sources_found():
    assert len(SOURCES) >= 10


def test_all_lists_exactly_the_package_imports():
    # a stale __all__ entry breaks `from logmeans import *`; an unlisted
    # import is a public name the star import drops
    tree = ast.parse((SRC / "logmeans" / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(logmeans.__all__) == sorted(n for n in imported if n[0] != "_")
    namespace = {}
    exec("from logmeans import *", namespace)
    assert all(namespace[name] is getattr(logmeans, name) for name in logmeans.__all__)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_relative_stdlib_or_numpy(path):
    assert sorted(set(imported_modules(path)) - ALLOWED) == []


def package_imports(path):
    """Modules of the package that one source file imports relatively."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield node.module


def test_means_works_on_coefficients_only():
    # the means take series, not constructions: no caratheodory import
    means = next(path for path in SOURCES if path.name == "means.py")
    assert set(package_imports(means)) <= {"errors", "numerics", "series"}


def import_time_modules(nodes):
    """Modules imported while a source file is itself imported: every import
    outside function bodies."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        yield from import_time_modules(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_level_numpy_import(path):
    body = ast.parse(path.read_text(encoding="utf-8")).body
    modules = [name.partition(".")[0] for name in import_time_modules(body)]
    assert "numpy" not in modules


# Runs main(argv) in a fresh interpreter (bare import for an empty argv) and
# prints the exit code and whether numpy was loaded.
CHILD = """
import contextlib, io, sys
import logmeans
code = 0
if sys.argv[1:]:
    from logmeans.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
print(code, "numpy" in sys.modules)
"""

LACUNARY = {
    "type": "lacunary",
    "terms": [{"exponent": 3, "im": 0.5}, {"exponent": 2 ** 80, "re": 0.25}],
}


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        ([], False),
        (["star", "--kmax", "30"], False),
        (["gauge", "--phi", "pow:1.99", "--kmax", "6"], False),
        (["h2", "--spec", '{"type":"theorem2_star","k_max":30}'], False),
        (["h2", "--spec", json.dumps(LACUNARY)], False),
        (["means", "--spec", '{"type":"theorem2_star","k_max":30}'], False),
        (["h2", "--spec", '{"type":"mobius"}'], True),  # control: dense work
    ],
    ids=["import", "star", "gauge", "h2-star", "h2-lacunary", "means-star", "h2-mobius"],
)
def test_numpy_loaded_only_for_dense_work(argv, loads_numpy):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.split() == ["0", str(loads_numpy)]


# The report on sparse members only: the star runs part (iv) and the gauge
# member part (iii), and neither member's decay bound needs numpy.
REPORT_CHILD = """
import sys
from logmeans import Gauge, build_p_star, corollary_report, parse_function_spec
gauge = parse_function_spec({"type": "theorem3_gauge", "gauge": "pow:1.5", "k_max": 3})
parts = corollary_report([build_p_star(8), gauge], Gauge(1.5)).parts
print([parts[name]["status"] for name in parts], "numpy" in sys.modules)
"""


def test_sparse_report_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", REPORT_CHILD],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['ok', 'ok', 'ok', 'ok'] False\n"


# Standard modules a start-up must not load: neither the value types nor
# the annotations need dataclasses (which imports inspect) or typing, and
# only file output needs tempfile.
START_UP_FREE = ["dataclasses", "inspect", "tempfile", "typing"]

# Under -S no site-packages .pth pre-imports any of them.
BARE_CHILD = """
import contextlib, io, sys
import logmeans.cli
loaded = [sorted(m for m in sys.argv[1:] if m in sys.modules)]
with contextlib.redirect_stdout(io.StringIO()):
    code = logmeans.cli.main(["star", "--kmax", "3"])
loaded.append(sorted(m for m in sys.argv[1:] if m in sys.modules))
print(code, loaded)
"""


def test_start_up_loads_no_dataclasses_typing_or_tempfile():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", BARE_CHILD, *START_UP_FREE],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split(maxsplit=1) == ["0", "[[], []]\n"]


# (value, its repr, its field values): each frozen value type's repr text,
# and its hash and equality, which are those of its field values.
VALUES = [
    (GrowthFit(1.5, -0.25, 1e-3), "GrowthFit(slope=1.5, intercept=-0.25, residual=0.001)",
     (1.5, -0.25, 1e-3)),
    (Gauge(1.9), "Gauge(a=1.9, b=0.0)", (1.9, 0.0)),
    (ExponentSchedule((2, 5, 17)), "ExponentSchedule(n_k=(2, 5, 17))", ((2, 5, 17),)),
    (MeansProfile((0.5, 0.75), (1.0, 2.5), (0.0, math.inf)),
     "MeansProfile(radii=(0.5, 0.75), values=(1.0, 2.5), tail_bounds=(0.0, inf))",
     ((0.5, 0.75), (1.0, 2.5), (0.0, math.inf))),
]


@pytest.mark.parametrize(
    "value, text, fields", VALUES, ids=[type(v).__name__ for v, *_ in VALUES]
)
def test_value_type_repr_hash_and_immutability(value, text, fields):
    assert repr(value) == text
    assert hash(value) == hash(fields)
    assert value == type(value)(*fields) and hash(type(value)(*fields)) == hash(value)
    for name in re.findall(r"(\w+)=", text) + ["other"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
