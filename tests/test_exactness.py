"""The library computes with exact rationals only: no float enters its source."""

import ast
from pathlib import Path

import pytest

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "prelie"
SOURCES = sorted(LIBRARY.rglob("*.py"))


def _floats(tree):
    """(line, what) for every float literal and every call of ``float``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            yield node.lineno, "call of float"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(LIBRARY)))
def test_no_float_in_the_library(path):
    assert list(_floats(ast.parse(path.read_text(encoding="utf-8")))) == []


def test_the_guard_sees_floats():
    found = _floats(ast.parse("x = 0.5\ny = float(x) + 1j\nz = isinstance(x, float)\n"))
    assert [line for line, _ in found] == [1, 2, 2]
