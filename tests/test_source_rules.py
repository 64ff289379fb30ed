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


def _functions_where(tree, match):
    """(enclosing function or None, line) of every node for which match(node)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if match(child):
                found.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return found


def _calls_to(name):
    def match(node):
        if not isinstance(node, ast.Call):
            return False
        return getattr(node.func, "id", getattr(node.func, "attr", None)) == name

    return match


def _uses(match):
    """{(module, enclosing function): line} of every node for which match(node)."""
    found = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for function, line in _functions_where(tree, match):
            found[(path.name, function)] = line
    return found


def test_relative_order_serves_only_flatten():
    # containment has one implementation, the flattening-code kernel in
    # patterns; a relative_order scan elsewhere would be a second one
    calls = _uses(_calls_to("relative_order"))
    assert set(calls) == {("patterns.py", "flatten")}, calls


def test_down_is_read_only_by_the_sweep():
    # Bruhat-graph distances have one implementation, the breadth-first
    # search of directed_distances_to; another reader of the neighbour array
    # would be a second sweep
    reads = _uses(lambda node: isinstance(node, ast.Attribute) and node.attr == "down")
    assert set(reads) == {
        ("bruhat.py", "directed_distances_to"),
        ("bruhat.py", "edge_count"),
    }, reads


def test_no_whole_group_path_computes_lengths_per_element():
    # a group's lengths come from one kernel call over its window matrix;
    # a coxeter_length or absolute_length call on a whole-group path would
    # be a per-element length pass over the group
    whole_group = {"elements", "bruhat_graph", "group_absolute_lengths", "interval_distances"}
    for name in ("coxeter_length", "absolute_length"):
        calls = _uses(_calls_to(name))
        assert not {function for _, function in calls} & whole_group, (name, calls)


def test_minimal_pattern_search_reads_condition_3_off_the_whole_group_kernel():
    # the candidates of each group come from one pass of
    # defined_by_inclusions_mask; naming a per-element inclusion test in the
    # search or in the kernel, called or passed on, would bring back an
    # element-by-element scan of the group
    per_element = {
        "violated_boxes",
        "is_defined_by_inclusions",
        "is_defined_by_pseudo_inclusions",
        "coessential_boxes",
    }

    def names_one(node):
        if isinstance(node, ast.Name):
            return node.id in per_element
        return isinstance(node, ast.Attribute) and node.attr in per_element

    uses = _uses(names_one)
    whole_group = {"find_minimal_non_hultman", "defined_by_inclusions_mask"}
    assert not {function for _, function in uses} & whole_group, uses


def test_hull_enumeration_and_hungarian_solver_stay_oracles():
    # the right hull tests have one implementation, the dynamic program in
    # diagrams; the Hungarian solver lives in the tests, and the exponential
    # hull enumeration serves only as their oracle
    defined = [
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "_min_cost_assignment"
    ]
    assert defined == [], defined
    calls = _uses(_calls_to("hull_windows"))
    assert calls == {}, calls
