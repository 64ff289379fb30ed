import importlib
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hultman import arrangements, bruhat, diagrams, groups, patterns
from hultman.bruhat import (
    bruhat_graph,
    bruhat_leq,
    directed_distances_to,
    orbit_representatives,
    symmetry_rows,
    window_leq,
)
from hultman.classify import (
    ALL_CONDITIONS,
    CONDITION_NAMES,
    REFERENCE_WITNESS_ROWS,
    classify,
    find_minimal_non_hultman,
    verify_equivalence,
    witness_table,
)
from hultman.diagrams import hull_bounds
from hultman.groups import (
    GroupContext,
    _children,
    compose_windows,
    context,
    invert_window,
    parse_element,
)
from hultman.patterns import condition5_patterns
from oracles import (
    oracle_find_minimal_non_hultman,
    oracle_hull_rank_bound,
    undirected_distance,
    window_in_hull,
)

B2 = context("B", 2)
B3 = context("B", 3)


def test_condition_names_cover_the_theorem():
    assert [CONDITION_NAMES[i] for i in ALL_CONDITIONS] == [
        "chambers",
        "distance",
        "pseudo_inclusions",
        "relaxed_hull",
        "bp_avoidance",
    ]


def test_classify_hultman_element():
    report = classify(parse_element("362514", B3))
    assert report.conditions == {name: True for name in report.conditions}
    assert report.consistent and report.is_hultman


def test_classify_non_hultman_element():
    report = classify(parse_element("426153", B3))
    assert set(report.conditions.values()) == {False}
    assert report.consistent and report.is_hultman is False
    assert report.c == 18 and report.s == 20
    u, ld, lt = report.distance_witness
    assert str(u) == "132546" and (ld, lt) == (4, 2)
    assert report.violations and report.matched_pattern is not None
    assert str(report.matched_pattern[0]) == "426153"


def test_classify_identity():
    report = classify(B3.identity)
    assert all(v is True for v in report.conditions.values())


def test_classify_subset_of_conditions():
    report = classify(parse_element("4231", context("A", 4)), (1, 3))
    assert set(report.conditions) == {"chambers", "pseudo_inclusions"}
    assert report.c == 18 and report.s == 20


def test_chamber_count_above_interval_size_raises(monkeypatch):
    # c(w) <= s(w) for every w, so a larger chamber count is a fault
    monkeypatch.setattr(arrangements, "chamber_count", lambda w: 21)
    with pytest.raises(ArithmeticError):
        classify(parse_element("4231", context("A", 4)), (1,))


@pytest.mark.parametrize("first", ["A", "B"])
def test_chamber_cache_keeps_groups_apart(first):
    # 4321 is a window of both A_4 and B_2 (c = 24 and c = 8); a cache keyed
    # by window alone gave the second group the first one's count
    elements = {
        "A": parse_element("4321", context("A", 4)),
        "B": parse_element("4321", B2),
    }
    cache = {}
    for family in (first, "B" if first == "A" else "A"):
        w = elements[family]
        report = classify(w, (1, 2), chamber_cache=cache)
        expected = classify(w, (1, 2))
        assert report.c == expected.c
        assert report.distance_witness == expected.distance_witness
        assert report.conditions == {"chambers": True, "distance": True}


@pytest.mark.parametrize("first", ["A", "B"])
@pytest.mark.parametrize("pair", [("3142", "2413"), ("536142", "462513")])
def test_orbit_memo_keeps_groups_apart(first, pair):
    # each pair is inverse in both S_n and B_{n/2}, so the first call writes
    # the memo entry that the second call, in the other group, looks up;
    # (c, s) differ between the groups, and so do the distances of the
    # first witness of 462513 (7 and 3 in S_6, 4 and 2 in B_3)
    groups = {"A": context("A", len(pair[0])), "B": context("B", len(pair[0]) // 2)}
    memo = {}
    for family, text in zip((first, "B" if first == "A" else "A"), pair):
        w = parse_element(text, groups[family])
        report = classify(w, (1, 2), chamber_cache=memo)
        expected = classify(w, (1, 2))
        assert (report.c, report.s) == (expected.c, expected.s)
        assert report.distance_witness == expected.distance_witness
        assert report.conditions == expected.conditions


def _orbits(ctx):
    """The orbits of w -> w^{-1} and, in type A, w -> w_0 w w_0, as sorted
    tuples of rows, from the windows alone."""
    w0 = ctx.longest_element.window
    row = {w.window: k for k, w in enumerate(ctx.elements)}
    orbits = set()
    for w in ctx.elements:
        images = {w.window, invert_window(w.window)}
        if ctx.family == "A":
            images |= {compose_windows(w0, compose_windows(u, w0)) for u in images}
        orbits.add(tuple(sorted(row[u] for u in images)))
    return sorted(orbits)


def _memo_sweep(ctx, rows):
    """classify with conditions 1 and 2 over `rows` in order, sharing one
    cache, against cache-free classify; the number of rows whose orbit
    already had a cache entry, and the cache left at the end."""
    cache = {}
    rep = orbit_representatives(ctx)
    inherited = 0
    for row in rows:
        w = ctx.elements[row]
        inherited += (ctx, int(rep[row])) in cache
        got = classify(w, (1, 2), chamber_cache=cache)
        expected = classify(w, (1, 2))
        assert (got.c, got.s) == (expected.c, expected.s), w
        assert got.distance_witness == expected.distance_witness, w
        assert got.conditions == expected.conditions, w
    return inherited, cache


def _assert_one_entry_per_orbit(ctx, cache, orbits):
    # keyed by the orbit's least row, with a first witness for each member
    assert set(cache) == {(ctx, orbit[0]) for orbit in orbits}
    for orbit in orbits:
        assert set(cache[ctx, orbit[0]]) == {1, 2}
        assert set(cache[ctx, orbit[0]][2]) == set(orbit)


SMALL_GROUPS = [context("A", n) for n in range(1, 7)] + [
    context("B", n) for n in range(1, 5)
]


@pytest.mark.parametrize("ctx", SMALL_GROUPS, ids=lambda c: c.name)
def test_orbit_memo_equals_memo_free_classify(ctx):
    inherited, cache = _memo_sweep(ctx, range(ctx.order))
    orbits = _orbits(ctx)
    assert inherited == ctx.order - len(orbits)
    _assert_one_entry_per_orbit(ctx, cache, orbits)


@pytest.mark.parametrize("family, rank", [("B", 5), ("A", 7)])
def test_orbit_memo_on_a_sample(family, rank):
    ctx = context(family, rank)
    orbits = random.Random(12).sample(_orbits(ctx), 60)
    rows = sorted(row for orbit in orbits for row in orbit)
    inherited, cache = _memo_sweep(ctx, rows)
    assert inherited == len(rows) - len(orbits)
    _assert_one_entry_per_orbit(ctx, cache, orbits)


def test_orbit_memo_keeps_values_a_call_did_not_ask_for(monkeypatch):
    w = parse_element("536142", B3)
    w_inv = parse_element("462513", B3)
    expected = classify(w_inv, (2,)).distance_witness
    calls = {"chambers": 0, "distances": 0}
    chamber_count, interval_distances = arrangements.chamber_count, bruhat.interval_distances

    def counted_chambers(w):
        calls["chambers"] += 1
        return chamber_count(w)

    def counted_distances(graph, row):
        calls["distances"] += 1
        return interval_distances(graph, row)

    monkeypatch.setattr(arrangements, "chamber_count", counted_chambers)
    monkeypatch.setattr(bruhat, "interval_distances", counted_distances)
    rows = bruhat.element_rows(B3, [w.window, w_inv.window]).tolist()
    key = (B3, min(rows))
    cache = {}
    classify(w, (1,), chamber_cache=cache)
    assert set(cache) == {key} and set(cache[key]) == {1}
    # condition 2 for the image adds its values beside condition 1's
    report = classify(w_inv, (2,), chamber_cache=cache)
    assert report.distance_witness == expected
    assert set(cache[key]) == {1, 2} and set(cache[key][2]) == set(rows)
    report = classify(w_inv, (1,), chamber_cache=cache)
    assert (report.c, report.s) == (26, 28)
    report = classify(w, (1, 2), chamber_cache=cache)
    assert str(report.distance_witness[0]) == "142536"
    assert (report.c, report.s) == (26, 28)
    assert calls == {"chambers": 1, "distances": 1}  # once for the orbit
    assert set(cache) == {key}


@pytest.mark.parametrize("ctx", SMALL_GROUPS, ids=lambda c: c.name)
def test_orbit_representatives_are_the_least_row_of_each_orbit(ctx):
    expected = np.empty(ctx.order, dtype=np.int64)
    for orbit in _orbits(ctx):
        expected[list(orbit)] = orbit[0]
    rep = orbit_representatives(ctx)
    assert np.array_equal(rep, expected)
    assert not rep.flags.writeable


@pytest.mark.parametrize("family, rank, count", [("B", 5, 2076), ("A", 7, 1388)])
def test_orbit_representative_counts(family, rank, count):
    ctx = context(family, rank)
    rep = orbit_representatives(ctx)
    assert int((rep == np.arange(ctx.order)).sum()) == count


@pytest.mark.parametrize("ctx", SMALL_GROUPS, ids=lambda c: c.name)
def test_verify_gathers_the_values_of_cache_free_classify(ctx):
    summary = verify_equivalence(ctx, (1, 2), keep_reports=True)
    assert [r.element for r in summary.reports] == list(ctx.elements)
    for report in summary.reports:
        expected = classify(report.element, (1, 2))
        assert (report.c, report.s) == (expected.c, expected.s), report.element
        assert report.distance_witness == expected.distance_witness, report.element
        assert report.conditions == expected.conditions, report.element


@pytest.mark.parametrize(
    "call", [lambda: classify(B3.identity, (1, 6)), lambda: verify_equivalence(B2, (6,))]
)
def test_an_unknown_condition_number_raises_value_error(call):
    with pytest.raises(ValueError, match="unknown condition 6"):
        call()


@pytest.mark.parametrize("ctx", [context("A", 5), B3], ids=lambda c: c.name)
def test_verify_computes_conditions_1_and_2_once_per_orbit(monkeypatch, ctx):
    calls = {"chambers": 0, "distances": 0}
    chamber_count, interval_distances = arrangements.chamber_count, bruhat.interval_distances

    def counted_chambers(w):
        calls["chambers"] += 1
        return chamber_count(w)

    def counted_distances(graph, row):
        calls["distances"] += 1
        return interval_distances(graph, row)

    monkeypatch.setattr(arrangements, "chamber_count", counted_chambers)
    monkeypatch.setattr(bruhat, "interval_distances", counted_distances)
    summary = verify_equivalence(ctx, (1, 2, 3))
    orbits = len(_orbits(ctx))
    assert calls == {"chambers": orbits, "distances": orbits}
    assert summary.rows_computed == {
        "chambers": orbits, "distance": orbits, "pseudo_inclusions": ctx.order
    }
    assert set(summary.layer_seconds) == {
        "elements", "group_rank_grids", "bruhat_graph", "group_absolute_lengths",
        "orbit_representatives",
    }
    doc = summary.to_json_dict()
    assert doc["rows_computed"] == summary.rows_computed
    assert doc["rows_from_orbit"] == {
        "chambers": ctx.order - orbits, "distance": ctx.order - orbits,
        "pseudo_inclusions": 0,
    }


@pytest.mark.parametrize(
    "ctx",
    [context("A", n) for n in range(1, 8)] + [context("B", n) for n in range(1, 6)],
    ids=lambda c: c.name,
)
def test_whole_group_verdicts_are_invariant_under_the_symmetries(ctx):
    # no oracle needed: conditions 3 and 5 are constant on the orbits of
    # every Bruhat-graph automorphism that keeps l_T.  Condition 4 is too,
    # but only because it is equivalent to them: that is why verify decides
    # it on every row and does not gather it from the representatives
    defined = diagrams.defined_by_inclusions_mask(ctx)
    avoids = patterns.condition5_matches(ctx)[0] < 0
    hull = None
    if ctx.rank <= (6 if ctx.family == "A" else 4):
        hull = np.array([classify(w, (4,)).is_hultman for w in ctx.elements])
    for phi in symmetry_rows(ctx):
        assert np.array_equal(defined[phi], defined)
        assert np.array_equal(avoids[phi], avoids)
        if hull is not None:
            assert np.array_equal(hull[phi], hull)


def test_classify_type_a_uses_plain_inclusions_and_hull():
    report = classify(parse_element("3412", context("A", 4)))
    assert all(v is True for v in report.conditions.values())


def test_classify_json_schema():
    w = parse_element("426153", B3)
    report = classify(w)
    doc = report.to_json_dict()
    assert doc["element"] == "426153"
    assert doc["family"] == "B" and doc["rank"] == 3
    assert set(doc["conditions"]) == set(CONDITION_NAMES.values())
    assert doc["witnesses"] == [{"u": "132546", "lD": 4, "lT": 2}]
    assert {"p": 3, "q": 2, "r": 1} in doc["violations"]
    assert doc["matched_pattern"]["pattern"] == "426153"
    u = parse_element(doc["hull_counterexample"], context("A", 6)).window
    assert window_in_hull(u, hull_bounds(w))
    assert not window_leq(u, w.window)
    assert classify(B3.identity).to_json_dict()["hull_counterexample"] is None
    json.dumps(doc)  # must be serializable


def test_verify_rank_one_groups():
    for fam in ("A", "B"):
        summary = verify_equivalence(context(fam, 1))
        assert summary.ok
        assert summary.hultman_count == summary.total


def test_verify_b2():
    summary = verify_equivalence(B2)
    assert summary.ok
    assert summary.total == 8 and summary.hultman_count == 8


def test_verify_b3_counts():
    summary = verify_equivalence(B3)
    assert summary.ok
    assert summary.total == 48
    # exactly the ten listed B_3 patterns fail
    assert summary.hultman_count == 38


def test_verify_json_roundtrip():
    summary = verify_equivalence(B2, keep_reports=True)
    doc = summary.to_json_dict()
    assert doc["total"] == 8 and len(doc["elements"]) == 8
    json.dumps(doc)


@pytest.mark.parametrize(
    "ctx, conditions",
    [(ctx, ALL_CONDITIONS) for ctx in SMALL_GROUPS] + [(B3, (3, 5)), (B3, (2, 5))],
)
def test_verify_reports_equal_classify(ctx, conditions):
    # verify decides each condition for the whole group and classify for
    # one element; every kept report must read as if classify made it
    summary = verify_equivalence(ctx, conditions, keep_reports=True)
    assert [r.element for r in summary.reports] == list(ctx.elements)
    for report in summary.reports:
        expected = classify(report.element, conditions)
        assert report.to_json_dict() == expected.to_json_dict()
        assert list(report.conditions) == list(expected.conditions)


def _count_coessential_boxes(monkeypatch):
    """The windows of every E(w) read from here on, at both bindings."""
    calls = []
    boxes = bruhat.coessential_boxes

    def counted(window):
        calls.append(window)
        return boxes(window)

    monkeypatch.setattr(bruhat, "coessential_boxes", counted)
    monkeypatch.setattr(diagrams, "coessential_boxes", counted)
    return calls


@pytest.mark.parametrize(
    "w", [parse_element("362514", B3), parse_element("35142", context("A", 5))], ids=str
)
def test_classify_computes_the_coessential_boxes_once_per_element(monkeypatch, w):
    # conditions 3 and 4 read one E(w) between them, and condition 1 its
    # own through interval_mask; in type B condition 3 takes its verdict
    # from the violations it reports
    calls = _count_coessential_boxes(monkeypatch)
    if w.ctx.family == "B":  # only the central box (n+1, n) is violated
        assert diagrams.violated_boxes(w) == ((4, 3, 1),)
    else:
        assert diagrams.violated_boxes(w)
    for conditions, reads in [((3,), 1), ((4,), 1), ((3, 4), 1), ((1, 3, 4), 2)]:
        calls.clear()
        classify(w, conditions)
        assert calls == [w.window] * reads, conditions


@pytest.mark.parametrize(
    "conditions", [(3, 4), (4,), (3,), (3, 4, 5)], ids=lambda c: "c" + "".join(map(str, c))
)
def test_verify_reports_compute_the_coessential_boxes_once_per_row(monkeypatch, conditions):
    # condition 4's kernel reads each row's E(w) once, and a kept report
    # reads it once more for condition 3's violations; the whole-group
    # condition 3 and the rest of the report read no E(w)
    ctx = context("B", 4)
    calls = _count_coessential_boxes(monkeypatch)
    summary = verify_equivalence(ctx, conditions, keep_reports=True)
    reads = (3 in conditions) + (4 in conditions)
    assert len(calls) == reads * ctx.order and len(summary.reports) == ctx.order
    assert Counter(calls) == {w.window: reads for w in ctx.elements}


def test_a_whole_group_sweep_keeps_nothing_per_row():
    # condition 4 reads each row's coessential boxes once; nothing of a row
    # may outlive the sweep, or memory would grow with the group
    verify_equivalence(context("B", 4), (4,))
    ctx = context("B", 5)
    ctx.window_matrix  # the group's own enumeration is memoised by design
    tracemalloc.start()
    try:
        verify_equivalence(ctx, (4,))
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 256 * 1024, kept


@pytest.mark.parametrize("flipped", [3, 5])
def test_verify_reports_a_whole_group_disagreement(monkeypatch, flipped):
    # a whole-group verdict flipped to True at one non-Hultman row must
    # give exactly that row's report, with the other conditions' data
    w = parse_element("426153", B3)
    row = B3.elements.index(w)
    expected = classify(w, (1, 3, 5))
    mask, matches = diagrams.defined_by_inclusions_mask, patterns.condition5_matches
    if flipped == 3:
        def wrong(ctx):
            out = mask(ctx).copy()
            out[row] = True
            return out
        monkeypatch.setattr(diagrams, "defined_by_inclusions_mask", wrong)
    else:
        def wrong(ctx):
            pattern, column = matches(ctx)
            pattern, column = pattern.copy(), column.copy()
            # no match: the sentinel's column, the query's last
            pattern[row], column[row] = -1, len(patterns._condition5_query(ctx).sets) - 1
            return pattern, column
        monkeypatch.setattr(patterns, "condition5_matches", wrong)
    summary = verify_equivalence(B3, (1, 3, 5))
    assert set(summary.layer_seconds) == {
        "elements", "group_rank_grids", "orbit_representatives"
    }
    (report,) = summary.disagreements
    assert report.element == w
    assert summary.hultman_count == 38
    assert report.conditions == {
        **expected.conditions, CONDITION_NAMES[flipped]: True
    }
    assert (report.c, report.s) == (expected.c, expected.s)
    assert report.violations == expected.violations
    if flipped == 3:
        assert report.matched_pattern == expected.matched_pattern
    else:
        assert report.matched_pattern is None


@pytest.mark.parametrize("ctx", [context("A", n) for n in range(1, 7)], ids=lambda c: c.name)
def test_pseudo_inclusions_are_plain_inclusions_in_type_a(ctx):
    # classify reads condition 3 by the type B rule in both families: its
    # one allowed violation, at (n+1, n), is no box of S_n
    for w in ctx.elements:
        violations = diagrams.violated_boxes(w)
        assert diagrams.pseudo_inclusions_hold(violations, ctx.rank) == (not violations), w


def test_verify_checks_the_tables_before_enumerating(monkeypatch):
    # a fresh context, whose enumeration a tripwire forbids
    def enumerate_group(ctx):
        pytest.fail(f"{ctx.name} began to enumerate")

    monkeypatch.setattr(groups, "_memory_bytes", lambda: 8 * 2**30)
    monkeypatch.setattr(GroupContext, "_enumeration", property(enumerate_group))
    with pytest.raises(ValueError, match="the tables of conditions 1 and 2 on B_8"):
        verify_equivalence(GroupContext("B", 8))


def test_classify_checks_the_tables_once_per_group(monkeypatch):
    calls = []
    memory = groups._memory_bytes

    def counted():
        calls.append(1)
        return memory()

    B3.window_matrix  # enumerated, so that only the table check counts
    monkeypatch.setattr(groups, "_memory_bytes", counted)
    for w in B3.elements[:10]:
        classify(w, (1, 2))
    assert len(calls) <= 1


def test_the_minimal_pattern_tree_is_guarded(monkeypatch):
    # S_8's children and their masks, 2343 * 8 * (8 + 2 * 7) bytes, do not
    # fit in 128 kiB
    monkeypatch.setattr(groups, "_memory_bytes", lambda: 2**17)
    with pytest.raises(ValueError, match="the 18744 children of 2343 elements"):
        find_minimal_non_hultman(8, 7)
    assert len(find_minimal_non_hultman(7, 5)) == 31


def test_verify_never_decides_conditions_3_and_5_per_element(monkeypatch):
    def per_element(w, *args, **kwargs):
        raise AssertionError(f"per-element verdict for {w}")

    monkeypatch.setattr(patterns, "avoids_condition5_list", per_element)
    monkeypatch.setattr(diagrams, "is_defined_by_pseudo_inclusions", per_element)
    # condition 4 too: its kernel calls hull_test on each row, never the
    # per-element entry points that classify calls
    monkeypatch.setattr(diagrams, "right_hull_counterexample", per_element)
    monkeypatch.setattr(diagrams, "hull_relaxed_counterexample", per_element)
    # nor through classify, which verify no longer calls at all
    monkeypatch.setattr(importlib.import_module("hultman.classify"), "classify", per_element)
    summary = verify_equivalence(B3, keep_reports=True)
    assert summary.ok and summary.hultman_count == 38
    # a type A group, whose per-element hull test is the plain one
    summary = verify_equivalence(context("A", 4), keep_reports=True)
    assert summary.ok and summary.hultman_count == 23


@pytest.mark.parametrize("family, rank, hultman", [("B", 3, 38), ("A", 4, 23)])
@pytest.mark.parametrize("keep_reports", [False, True])
def test_verify_never_builds_the_elements_tuple(family, rank, hultman, keep_reports):
    # a fresh context, not the interned one that other tests fill
    ctx = GroupContext(family, rank)
    summary = verify_equivalence(ctx, ALL_CONDITIONS, keep_reports=keep_reports)
    assert summary.ok and summary.hultman_count == hultman
    assert len(summary.reports) == (ctx.order if keep_reports else 0)
    assert "elements" not in vars(ctx)


def test_whole_group_harnesses_never_build_the_elements_tuple():
    # a fresh interpreter, so no other test has built any interned context's
    # tuple; each scanned group is checked after the run
    script = (
        "from hultman.classify import find_minimal_non_hultman, verify_equivalence\n"
        "from hultman.groups import context\n"
        "verify_equivalence(context('B', 3), keep_reports=True)\n"
        "verify_equivalence(context('A', 4), keep_reports=True)\n"
        "assert len(find_minimal_non_hultman(6, 5)) == 31\n"
        "groups = [('A', m) for m in range(1, 7)] + [('B', m) for m in range(1, 6)]\n"
        "print([g for g in groups if 'elements' in vars(context(*g))])\n"
    )
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=root, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_verify_counts_agree_with_the_verdict_arrays():
    tables = bruhat.group_rank_grids.cache_info()
    summary = verify_equivalence(context("A", 5), (3, 5))
    # conditions 3 and 5 read rows of the window matrix, condition 3 through
    # its rank blocks: no table is built or read, the rank table included
    assert set(summary.layer_seconds) == {"elements"}
    assert bruhat.group_rank_grids.cache_info() == tables
    defined = diagrams.defined_by_inclusions_mask(context("A", 5))
    pattern, _ = patterns.condition5_matches(context("A", 5))
    assert np.array_equal(defined, pattern < 0)
    assert summary.ok and summary.hultman_count == int(defined.sum()) == 101


def test_minimal_pattern_search_builds_no_rank_table():
    tables = bruhat.group_rank_grids.cache_info()
    assert len(find_minimal_non_hultman(max_a=5, max_b=3)) == 13
    assert bruhat.group_rank_grids.cache_info() == tables


def test_minimal_patterns_type_a_only():
    found = find_minimal_non_hultman(max_a=6, max_b=2)
    assert [(v.ctx.family, v.ctx.rank, str(v)) for v in found] == [
        ("A", 4, "4231"),
        ("A", 5, "35142"),
        ("A", 5, "42513"),
        ("A", 6, "351624"),
    ]


def test_minimal_patterns_b3_only():
    found = find_minimal_non_hultman(max_a=3, max_b=3)
    got = {str(v) for v in found}
    assert got == {
        "563412", "653421", "645231", "635241", "624351",
        "642531", "536142", "426153", "462513", "623451",
    }


@pytest.mark.parametrize("max_a, max_b", [(4, 5), (3, 4), (1, 6)])
def test_minimal_patterns_reject_a_type_a_scan_short_of_max_b(max_a, max_b):
    with pytest.raises(ValueError, match="type A scan must reach"):
        find_minimal_non_hultman(max_a=max_a, max_b=max_b)


@pytest.mark.parametrize(
    "max_a, max_b",
    [(6, 5), (7, 6), (6, 2), (3, 3), (5, 3)]
    + [
        pytest.param(8, 7, marks=pytest.mark.skipif(
            not os.environ.get("HULTMAN_B5"),
            reason="opt-in: set HULTMAN_B5=1; the scan of S_8 and B_7 takes about 2.5 s",
        ))
    ],
)
def test_minimal_pattern_tree_equals_the_whole_group_scan(max_a, max_b):
    # the same patterns in the same order: group by group, and by (length,
    # window) within a group, which is the row order of the scan
    assert find_minimal_non_hultman(max_a, max_b) == oracle_find_minimal_non_hultman(
        max_a, max_b
    )


def _parents(family: str, windows: np.ndarray) -> np.ndarray:
    """Each window with its first entry deleted, in type B with the mirror
    pair of its first and last entries, and the other values renumbered in
    order."""
    if family == "A":
        rest = windows[:, 1:]
        return rest - (rest > windows[:, :1])
    rest = windows[:, 1:-1]
    return rest - (rest > windows[:, :1]) - (rest > windows[:, -1:])


@pytest.mark.parametrize(
    "family, rank", [("A", n) for n in range(2, 9)] + [("B", n) for n in range(2, 7)]
)
def test_children_of_a_whole_group_are_the_next_group(family, rank):
    # every row of the next group, each once, and each child's parent is
    # the row it grew from; growing from the empty window gives the group
    # in lexicographic order, and lexicographically sorted parents give
    # lexicographically sorted children
    parents = context(family, rank - 1).window_matrix
    children = _children(family, parents)
    ctx = context(family, rank)
    assert children.shape == (ctx.order, ctx.degree)
    assert np.sort(bruhat.element_rows(ctx, children)).tolist() == list(range(ctx.order))
    per_parent = len(children) // len(parents)
    assert np.array_equal(_parents(family, children), np.tile(parents, (per_parent, 1)))
    lexicographic = ctx.window_matrix[np.lexsort(ctx.window_matrix.T[::-1])]
    grown = np.empty((1, 0), dtype=np.int8)
    for _ in range(rank):
        grown = _children(family, grown)
    assert np.array_equal(grown, lexicographic)
    sorted_parents = parents[np.lexsort(parents.T[::-1])]
    assert np.array_equal(_children(family, sorted_parents), lexicographic)


@pytest.mark.parametrize(
    "family, rank", [("A", n) for n in range(2, 8)] + [("B", n) for n in range(2, 6)]
)
def test_children_of_the_holders_are_the_rows_whose_parent_holds(family, rank):
    below = context(family, rank - 1)
    holds = diagrams.defined_by_inclusions_mask(below)
    ctx = context(family, rank)
    grown = bruhat.element_rows(ctx, _children(family, below.window_matrix[holds]))
    parent_rows = bruhat.element_rows(below, _parents(family, ctx.window_matrix))
    assert np.sort(grown).tolist() == np.flatnonzero(holds[parent_rows]).tolist()


def test_minimal_pattern_search_never_enumerates_a_grown_group():
    # a fresh interpreter, so no other test has enumerated a group: above
    # S_4 and B_3 the search reads only children of condition-3 holders
    script = (
        "from hultman.classify import find_minimal_non_hultman\n"
        "from hultman.groups import context\n"
        "assert len(find_minimal_non_hultman(8, 7)) == 31\n"
        "groups = [('A', m) for m in range(5, 9)] + [('B', m) for m in range(4, 8)]\n"
        "print([g for g in groups if '_enumeration' in vars(context(*g))])\n"
    )
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=root, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("ctx", SMALL_GROUPS, ids=lambda c: c.name)
def test_condition_3_computes_its_own_rank_blocks(ctx, monkeypatch):
    # condition 3 reads only the rank blocks it computes from the windows:
    # whether condition 1 has built the group's rank table changes neither
    # its verdicts nor its blocks, none of which is a view of the table
    bruhat.group_rank_grids.cache_clear()
    before = diagrams.defined_by_inclusions_mask(ctx)
    grids = bruhat.group_rank_grids(ctx)
    blocks = []

    def recorded(windows):
        for block in bruhat.rank_blocks(windows):
            blocks.append(block)
            yield block

    monkeypatch.setattr(diagrams, "rank_blocks", recorded)
    assert np.array_equal(diagrams.defined_by_inclusions_mask(ctx), before)
    assert blocks and not any(np.shares_memory(b, grids) for b in blocks)
    summary = verify_equivalence(ctx, (1, 3))
    assert summary.ok and summary.hultman_count == int(before.sum())


@pytest.mark.parametrize("conditions", [(1, 2), (2, 1)])
def test_interval_size_and_distance_sweep_must_agree(monkeypatch, conditions):
    # s(w) from the tableau mask and the rows the graph search reaches are
    # two computations of #[id, w]; one more element in s(w) keeps
    # c(w) <= s(w) but breaks their agreement
    w = parse_element("426153", B3)
    assert classify(w, conditions).s == 20
    size = bruhat.interval_size
    monkeypatch.setattr(bruhat, "interval_size", lambda v: size(v) + 1)
    with pytest.raises(ArithmeticError, match="reached 20 rows"):
        classify(w, conditions)
    assert classify(w, (1,)).s == 21  # no sweep, nothing to compare


def test_reference_rows_shape():
    assert len(REFERENCE_WITNESS_ROWS) == 45
    patterns = {(f, r, w) for f, r, w, *_ in REFERENCE_WITNESS_ROWS}
    listed = {
        (v.ctx.family, v.ctx.rank, str(v)) for v in condition5_patterns()
    }
    assert patterns == listed  # every pattern has at least one row


def test_witness_rows_for_b3_pattern():
    w = parse_element("426153", B3)
    g = bruhat_graph(B3)
    dist = directed_distances_to(g, B3.elements.index(w))
    witnesses = {
        str(u): (int(dist[i]), undirected_distance(u, w))
        for i, u in enumerate(B3.elements)
        if u != w and bruhat_leq(u, w) and dist[i] != undirected_distance(u, w)
    }
    assert witnesses == {"132546": (4, 2)}


def test_witness_table_confirms_non_hultman_everywhere():
    reports = witness_table()
    assert len(reports) == 31
    assert all(rep.non_hultman_confirmed for rep in reports)


def test_witness_table_row_classification():
    reports = witness_table()
    mismatched = {
        (c.family, c.rank, c.w, c.u)
        for rep in reports
        for c in rep.row_comparisons
        if not c.matches
    }
    # the three known-bad reference rows, and nothing else
    assert mismatched == {
        ("A", 4, "4231", "2143"),
        ("A", 6, "351624", "423156"),
        ("A", 6, "351624", "126543"),
    }
    matched = sum(
        1 for rep in reports for c in rep.row_comparisons if c.matches
    )
    assert matched == 42


def test_witness_table_corrected_s4_row():
    reports = witness_table()
    rep = next(r for r in reports if str(r.pattern) == "4231")
    # 2143 is not a witness: both distances are 3
    (comp,) = rep.row_comparisons
    assert not comp.parity_consistent and not comp.is_witness
    assert comp.recomputed == (3, 3)
    # the complete witness set is {1324} with distances (4, 2)
    assert [(str(u), ld, lt) for u, ld, lt in rep.witnesses] == [("1324", 4, 2)]
    assert [(str(u), ld, lt) for u, ld, lt in rep.extra_witnesses] == [
        ("1324", 4, 2)
    ]


def test_witness_table_corrected_s6_rows():
    reports = witness_table()
    rep = next(r for r in reports if str(r.pattern) == "351624")
    assert [(str(u), ld, lt) for u, ld, lt in rep.witnesses] == [
        ("124356", 6, 4)
    ]
    by_u = {c.u: c for c in rep.row_comparisons}
    # neither listed u lies below w at all
    assert by_u["423156"].recomputed is None
    assert by_u["126543"].recomputed is None
    assert by_u["423156"].parity_consistent  # wrong in a non-parity way
    assert not by_u["126543"].parity_consistent


@pytest.mark.parametrize("ctx", [context("B", 3), context("A", 4)], ids=lambda ctx: ctx.name)
def test_verify_counts_hull_boards_and_pattern_index_sets(ctx):
    # hull boards: one per coessential box, in type B only up to the
    # central box (n+1, n), until the first box some window violates;
    # cleared when the rank bound, counted position by position, is <= r
    n, boards, cleared = ctx.rank, 0, 0
    for w in ctx.elements:
        lo, hi = hull_bounds(w)
        relaxed = ctx.family == "B" and bruhat.window_rank(w.window, n + 1, n) == 1
        for p, q, r in bruhat.coessential_boxes(w.window):
            if ctx.family == "B" and (p, q) > (n + 1, n):
                break
            if oracle_hull_rank_bound((lo, hi), p, q) <= r:
                cleared += 1
                continue
            boards += 1
            u = diagrams._best_hull_window(lo, hi, p, q, n if relaxed else None)
            if u is not None and bruhat.window_rank(u, p, q) > r:
                break
    # index sets: one scan per row of each plan (embedding kind, size) that
    # a listed pattern has in the host
    plans = set()
    for v in condition5_patterns():
        if v.ctx.family == "A":
            m = v.degree
            plans.add(("A", m) if ctx.family == "A" else ("A-in-B", m))
        elif ctx.family == "B":
            plans.add(("B-in-B", v.ctx.rank))
    sets = 0
    for kind, m in plans:
        if kind == "A":
            sets += len(list(itertools.combinations(range(ctx.degree), m)))
        elif kind == "A-in-B":
            sets += len(list(patterns.a_in_b_index_sets(n, m)))
        else:
            sets += len(list(patterns.b_in_b_index_sets(n, m)))
    # second stage: the rows that miss the least listed pattern with an
    # embedding in the host, 4231 in S_4 and 563412 in B_3; each has the
    # host's rank, so only the pattern itself contains it
    summary = verify_equivalence(ctx, (4, 5))
    assert summary.counters == {
        "pattern_index_sets": ctx.order * sets,
        "pattern_rows_second_stage": ctx.order - 1,
        "hull_boards": boards,
        "hull_boards_cleared": cleared,
    }
    assert summary.to_json_dict()["counters"] == summary.counters
    assert verify_equivalence(ctx, (3,)).counters == {}
