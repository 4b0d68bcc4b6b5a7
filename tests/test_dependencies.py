"""The package imports only the standard library and numpy; mpmath,
hypothesis and pytest stay test-only."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "logmeans").glob("*.py"))
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
