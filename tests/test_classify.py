import json
import random

import numpy as np
import pytest

from hultman import arrangements, bruhat, diagrams, patterns
from hultman.bruhat import (
    bruhat_graph,
    bruhat_leq,
    directed_distances_to,
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
from hultman.groups import compose_windows, context, invert_window, parse_element
from hultman.patterns import condition5_patterns
from oracles import undirected_distance, window_in_hull

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
    memo, against memo-free classify; the number of rows that found their
    values in the memo, and the memo left at the end."""
    memo = {}
    inherited = 0
    for row in rows:
        w = ctx.elements[row]
        inherited += (ctx, w.window) in memo
        got = classify(w, (1, 2), chamber_cache=memo)
        expected = classify(w, (1, 2))
        assert (got.c, got.s) == (expected.c, expected.s), w
        assert got.distance_witness == expected.distance_witness, w
        assert got.conditions == expected.conditions, w
    return inherited, memo


SMALL_GROUPS = [context("A", n) for n in range(1, 7)] + [
    context("B", n) for n in range(1, 5)
]


@pytest.mark.parametrize("ctx", SMALL_GROUPS, ids=lambda c: c.name)
def test_orbit_memo_equals_memo_free_classify(ctx):
    inherited, memo = _memo_sweep(ctx, range(ctx.order))
    assert inherited == ctx.order - len(_orbits(ctx))
    assert memo == {}  # each entry is read once and dropped


@pytest.mark.parametrize("family, rank", [("B", 5), ("A", 7)])
def test_orbit_memo_on_a_sample(family, rank):
    ctx = context(family, rank)
    orbits = random.Random(12).sample(_orbits(ctx), 60)
    rows = sorted(row for orbit in orbits for row in orbit)
    inherited, memo = _memo_sweep(ctx, rows)
    assert inherited == len(rows) - len(orbits)
    assert memo == {}


def test_orbit_memo_keeps_values_a_call_did_not_ask_for():
    w = parse_element("536142", B3)
    w_inv = parse_element("462513", B3)
    memo = {}
    classify(w, (1,), chamber_cache=memo)
    assert set(memo) == {(B3, w_inv.window)}
    # condition 2 for the image leaves its condition 1 entry in place
    report = classify(w_inv, (2,), chamber_cache=memo)
    assert report.distance_witness == classify(w_inv, (2,)).distance_witness
    assert memo[B3, w_inv.window].keys() == {1}
    assert memo[B3, w.window].keys() == {2}
    report = classify(w_inv, (1,), chamber_cache=memo)
    assert (report.c, report.s) == (26, 28)
    report = classify(w, (1, 2), chamber_cache=memo)
    assert str(report.distance_witness[0]) == "142536"
    assert (report.c, report.s) == (26, 28)  # computed again, not in the memo
    assert set(memo) == {(B3, w_inv.window)}


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
    # every Bruhat-graph automorphism that keeps l_T
    defined = diagrams.defined_by_inclusions_mask(ctx)
    avoids = patterns.condition5_matches(ctx)[0] < 0
    for phi in symmetry_rows(ctx):
        assert np.array_equal(defined[phi], defined)
        assert np.array_equal(avoids[phi], avoids)


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
    [
        (context("A", 4), ALL_CONDITIONS),
        (B3, ALL_CONDITIONS),
        (B3, (3, 5)),
        (B3, (2, 5)),
    ],
)
def test_verify_reports_equal_classify(ctx, conditions):
    # conditions 3 and 5 come from whole-group passes, the rest from
    # classify; every kept report must read as if classify made it
    summary = verify_equivalence(ctx, conditions, keep_reports=True)
    assert [r.element for r in summary.reports] == list(ctx.elements)
    for report in summary.reports:
        expected = classify(report.element, conditions)
        assert report.to_json_dict() == expected.to_json_dict()
        assert list(report.conditions) == list(expected.conditions)


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
            pattern, indices = matches(ctx)
            pattern, indices = pattern.copy(), indices.copy()
            pattern[row], indices[row] = -1, 0
            return pattern, indices
        monkeypatch.setattr(patterns, "condition5_matches", wrong)
    summary = verify_equivalence(B3, (1, 3, 5))
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


def test_verify_never_decides_conditions_3_and_5_per_element(monkeypatch):
    def per_element(w):
        raise AssertionError(f"per-element verdict for {w}")

    monkeypatch.setattr(patterns, "avoids_condition5_list", per_element)
    monkeypatch.setattr(diagrams, "is_defined_by_pseudo_inclusions", per_element)
    summary = verify_equivalence(B3, keep_reports=True)
    assert summary.ok and summary.hultman_count == 38


def test_verify_counts_agree_with_the_verdict_arrays():
    summary = verify_equivalence(context("A", 5), (3, 5))
    defined = diagrams.defined_by_inclusions_mask(context("A", 5))
    pattern, _ = patterns.condition5_matches(context("A", 5))
    assert np.array_equal(defined, pattern < 0)
    assert summary.ok and summary.hultman_count == int(defined.sum()) == 101


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
