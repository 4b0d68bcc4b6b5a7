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
