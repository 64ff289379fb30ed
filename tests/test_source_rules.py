"""Rules the package source must keep, checked on its syntax tree."""
import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "hultman"
MODULES = sorted(SOURCE.glob("*.py"))


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_assert(path):
    # `python -O` strips assert statements, so an invariant guarded by one
    # silently goes unchecked; raise an exception instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def _callers(tree, name):
    """(enclosing function or None, line) of every call to `name`."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == name:
                    found.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return found


def test_relative_order_serves_only_flatten():
    # containment has one implementation, the flattening-code kernel in
    # patterns; a relative_order scan elsewhere would be a second one
    calls = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for function, line in _callers(tree, "relative_order"):
            calls[(path.name, function)] = line
    assert set(calls) == {("patterns.py", "flatten")}, calls
