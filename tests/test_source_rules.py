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
