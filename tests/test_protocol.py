"""Functions are complete when built, and constructions answer for
themselves: outside caratheodory.py no source file sets a function's
spec_dict or schedule, tests a construction's type, or uses the removed
log_sparse accessor."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path
    for path in (Path(__file__).resolve().parents[1] / "src" / "logmeans").glob("*.py")
    if path.name != "caratheodory.py"
)
BUILT_ATTRIBUTES = {"spec_dict", "schedule"}
CONSTRUCTIONS = {"Herglotz", "LacunaryExp"}


def name_of(node):
    """The identifier a node names (a name, attribute, import or def), if any."""
    for field in ("id", "attr", "name"):
        value = getattr(node, field, None)
        if isinstance(value, str):
            return value
    return None


def violations(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            if node.attr in BUILT_ATTRIBUTES:
                yield f"{where} sets .{node.attr}"
        if (
            isinstance(node, ast.Call)
            and name_of(node.func) == "isinstance"
            and len(node.args) == 2
            and CONSTRUCTIONS & {name_of(sub) for sub in ast.walk(node.args[1])}
        ):
            yield f"{where} tests the type of a construction"
        if name_of(node) == "log_sparse":
            yield f"{where} uses log_sparse"


def test_sources_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_functions_complete_when_built(path):
    assert list(violations(path)) == []
