"""Rules the package source must keep, checked on its syntax tree."""
import ast
from pathlib import Path

import pytest
from test_perfbench_compat import _load_tracing

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


def test_hull_dp_solves_one_board_per_coessential_box():
    # both right hull tests solve one board per coessential box of w, the
    # relaxed one by cutting the program's states at the central box; a
    # call from anywhere else, the program itself included, would be a
    # second board for some box
    calls = _uses(_calls_to("_best_hull_window"))
    assert set(calls) == {("diagrams.py", "_hull_counterexample")}, calls


PERFBENCH = SOURCE.parents[1] / "perfbench"

# The one-element library API that only the tests call today.  Each stays in
# the package because it is part of the group or order interface that the
# production paths batch, not a slow stand-in for one of them.
CALLED_ONLY_FROM_TESTS = {
    "inverse": "w^{-1} of one element; symmetry_rows batches it over a group",
    "compose": "the product of two elements; compose_windows is its window form",
    "absolute_length": "l_T of one element; group_absolute_lengths batches it",
    "bruhat_leq": "u <= w for two elements; interval_mask batches it",
    "classical_contains": "classical pattern containment of one element by "
    "the flattening-code kernel that condition 5 runs",
}


def _production_references():
    """(name, module, top-level owner) of every Name and Attribute in the
    package outside __init__.py; the owner is the enclosing module-level
    function or class, or None at module level."""
    found = set()
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    found.add((node.id, path.name, owner))
                elif isinstance(node, ast.Attribute):
                    found.add((node.attr, path.name, owner))
    return found


def _perfbench_references():
    """Names that the benchmark reaches: hultman.<name> in perfbench/*.py,
    and the attributes its tracer wraps."""
    found = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "hultman"
            ):
                found.add(node.attr)
    tracing = _load_tracing()
    targets = [target[2] for target in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS]
    return found | {attr.rpartition(".")[2] for attr in targets}


def _imports_of(top_levels):
    """(module, line) of every import in the package of a name whose first
    dotted part is in top_levels."""
    imports = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in top_levels for name in names):
                imports.append((path.name, node.lineno))
    return imports


def test_no_public_function_is_called_only_from_tests():
    # the package holds what its commands and the benchmark run; a public
    # function that only the tests reach is an oracle and lives in
    # tests/oracles.py, which the package never imports
    public = {
        (stmt.name, path.name)
        for path in MODULES
        if path.name != "__init__.py"
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not stmt.name.startswith("_")
    }
    references = _production_references()
    benchmark = _perfbench_references()
    test_only = sorted(
        name
        for name, module in public
        if name not in benchmark
        and not any(
            ref == name and (where, owner) != (module, name)
            for ref, where, owner in references
        )
    )
    assert test_only == sorted(CALLED_ONLY_FROM_TESTS), test_only
    imports = _imports_of(("oracles", "tests"))
    assert imports == [], imports


def test_diagrams_boxes_and_hulls_are_plain_tuples():
    # a coessential box is the (p, q, r) triple of coessential_boxes and
    # H(w) the (lo, hi) pair of hull_bounds; a class in diagrams would be a
    # second form of one of them for every caller to unpack
    tree = ast.parse((SOURCE / "diagrams.py").read_text(encoding="utf-8"))
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert classes == [], classes


def test_arrangement_planes_are_plain_triples_and_chi_is_integer():
    # a hyperplane is the (kind, i, j) triple of inversion_arrangement, and
    # chi(t) is summed in integers; another class in arrangements would be a
    # second form of a plane, and a fractions import a second arithmetic.
    # IntersectionPoset stays: the benchmark's tracer reads poset.flats
    tree = ast.parse((SOURCE / "arrangements.py").read_text(encoding="utf-8"))
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert classes == ["IntersectionPoset"], classes
    imports = _imports_of(("fractions",))
    assert imports == [], imports
