import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hultman.bruhat import bruhat_leq, coessential_boxes, window_leq, window_rank
from hultman.diagrams import (
    _best_hull_window,
    defined_by_inclusions_mask,
    hull_bounds,
    hull_relaxed_counterexample,
    identity_rank,
    is_defined_by_inclusions,
    is_defined_by_pseudo_inclusions,
    reduced_coessential,
    right_hull_counterexample,
)
from hultman.groups import (
    Element,
    compose,
    context,
    coxeter_length,
    element_from_signed,
    parse_element,
)
from oracles import (
    basic_element,
    basic_element_bruteforce,
    count_reduced_words,
    coxeter_coessential,
    diagram,
    has_unique_reduced_word,
    hull_equiv_check,
    hull_windows,
    reduced_coessential_closed_form,
    window_in_hull,
    window_rank_grid,
)

A4 = context("A", 4)
A5 = context("A", 5)
A9 = context("A", 9)
B2 = context("B", 2)
B3 = context("B", 3)
B4 = context("B", 4)


def boxes(w):
    return list(coessential_boxes(w.window))


@given(st.permutations(list(range(1, 7))))
@settings(max_examples=60)
def test_diagram_size_complements_inversions(perm):
    w = Element(tuple(perm), context("A", 6))
    assert len(diagram(w)) == 15 - coxeter_length(w)


@given(st.permutations(list(range(1, 7))))
@settings(max_examples=60)
def test_coessential_boxes_are_northeast_corners(perm):
    w = Element(tuple(perm), context("A", 6))
    d = diagram(w)
    corners = {
        (p, q) for (p, q) in d if (p - 1, q) not in d and (p, q + 1) not in d
    }
    assert {(p, q) for p, q, _ in boxes(w)} == corners


def test_package_exports_coessential_boxes():
    import hultman

    assert hultman.coessential_boxes is coessential_boxes


def test_coessential_examples():
    w = parse_element("819372564", A9)
    assert boxes(w) == [(2, 2, 1), (4, 4, 2), (4, 6, 3), (6, 7, 3), (9, 2, 0)]
    # the identity's diagram is the full sub-diagonal staircase, so its
    # coessential boxes are (q+1, q) with rank 0
    assert boxes(A9.identity) == [(q + 1, q, 0) for q in range(1, 9)]
    assert boxes(parse_element("362514", B3)) == [(4, 1, 0), (4, 3, 1), (4, 5, 2)]


def test_coessential_determines_interval_minimally():
    # Fulton's lemma: E(w) determines [id, w], and no proper subset does
    ctx = A5
    for w in ctx.elements:
        full = boxes(Element(w.window, ctx))
        for drop in range(len(full)):
            subset = full[:drop] + full[drop + 1 :]
            agrees = all(
                all(window_rank(u.window, p, q) <= r for p, q, r in subset)
                == bruhat_leq(u, w)
                for u in ctx.elements
            )
            assert not agrees, (str(w), full[drop])


def test_defined_by_inclusions_examples():
    assert is_defined_by_inclusions(A4.identity)
    assert not is_defined_by_inclusions(parse_element("819372564", A9))
    assert not is_defined_by_inclusions(parse_element("362514", B3))


def test_pseudo_inclusions_examples():
    assert is_defined_by_pseudo_inclusions(B3.identity)
    assert is_defined_by_pseudo_inclusions(parse_element("362514", B3))
    assert not is_defined_by_pseudo_inclusions(parse_element("426153", B3))
    with pytest.raises(ValueError):
        is_defined_by_pseudo_inclusions(A4.identity)


def test_defined_by_inclusions_mask_matches_per_element():
    groups = [("A", m) for m in range(1, 8)] + [("B", m) for m in range(1, 6)]
    for family, rank in groups:
        ctx = context(family, rank)
        if family == "A":
            expected = [is_defined_by_inclusions(w) for w in ctx.elements]
        else:
            expected = [is_defined_by_pseudo_inclusions(w) for w in ctx.elements]
        assert defined_by_inclusions_mask(ctx).tolist() == expected, ctx
    # the Hultman counts of S_8 and B_6, confirmed by conditions 3, 4 and 5
    assert defined_by_inclusions_mask(context("A", 8)).sum() == 11762
    assert defined_by_inclusions_mask(context("B", 6)).sum() == 4843


def test_ne_edge_box_lemma():
    # r_w(p,q) = q-p+1 iff w(k) >= p for all k > q iff {1..p-1} is hit by q
    for w in A5.elements:
        grid = window_rank_grid(w.window)
        for p in range(1, 6):
            for q in range(1, 6):
                a = grid[p - 1][q - 1] == q - p + 1
                b = all(w.window[k] >= p for k in range(q, 5))
                c = set(range(1, p)) <= set(w.window[:q])
                assert a == b == c


def test_hull_bounds_and_membership():
    w = parse_element("819372564", A9)
    u = parse_element("168523479", A9)
    assert window_in_hull(w.window, hull_bounds(w))
    assert window_in_hull(u.window, hull_bounds(w))
    assert not bruhat_leq(u, w)  # in the hull but not below: hull fails


def test_hull_bounds_are_suffix_minima_and_prefix_maxima():
    assert hull_bounds(parse_element("2143", A4)) == ((1, 1, 3, 3), (2, 2, 4, 4))


def test_identity_hull_is_forced():
    bounds = hull_bounds(A5.identity)
    assert bounds == ((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))
    assert list(hull_windows(bounds)) == [(1, 2, 3, 4, 5)]


@given(st.sampled_from(list(B3.elements)), st.sampled_from(list(B3.elements)))
@settings(max_examples=100)
def test_below_implies_in_hull(u, w):
    if bruhat_leq(u, w):
        assert window_in_hull(u.window, hull_bounds(w))


def test_right_hull_examples():
    assert right_hull_counterexample(A5.identity) is None
    assert right_hull_counterexample(parse_element("819372564", A9)) is not None
    assert right_hull_counterexample(parse_element("4231", A4)) is not None
    assert right_hull_counterexample(parse_element("3412", A4)) is None


def test_right_hull_matches_pattern_theorem_on_s5():
    # Sjostrand: right hull holds iff 4231, 35142, 42513 are avoided
    from hultman.patterns import classical_contains

    pats = [parse_element("4231", A4), parse_element("35142", A5),
            parse_element("42513", A5)]
    for w in A5.elements:
        avoids = all(classical_contains(w, v) is None for v in pats)
        assert (right_hull_counterexample(w) is None) == avoids


def test_relaxed_right_hull_examples():
    assert hull_relaxed_counterexample(B3.identity) is None
    assert hull_relaxed_counterexample(parse_element("362514", B3)) is None
    assert hull_relaxed_counterexample(parse_element("426153", B3)) is not None
    with pytest.raises(ValueError):
        hull_relaxed_counterexample(parse_element("4231", A4))


@pytest.mark.parametrize("text", ["c4325678ba91", "c4326587ba91"])
def test_relaxed_hull_refuted_on_the_quadrant_capped_board(text):
    # r_w(7,6) = 1 and the plain counterexample has r_u(7,6) >= 2, so the
    # windows with r_u(7,6) <= 1 decide; a board with the whole central
    # quadrant blocked refutes w with r_u(7,6) = 0, and the central cut of
    # the dynamic program finds a refuting window with r_u(7,6) = 1
    w = parse_element(text, context("B", 6))
    assert window_rank(w.window, 7, 6) == 1
    assert window_rank(right_hull_counterexample(w), 7, 6) >= 2
    cex = hull_relaxed_counterexample(w)
    assert cex == (1, 5, 6, 7, 2, 3, 4, 8, 9, 10, 11, 12)
    assert window_rank(cex, 7, 6) == 1


def _enumerated_hull_counterexample(w):
    """Oracle: the first window of H(w), in enumeration order, refuting the
    right hull condition (type A) or its relaxation (type B)."""
    n = w.ctx.rank
    center_ok = w.ctx.family == "B" and window_rank(w.window, n + 1, n) == 1
    for u in hull_windows(hull_bounds(w)):
        if not window_leq(u, w.window) and (
            not center_ok or window_rank(u, n + 1, n) <= 1
        ):
            return u
    return None


def _assert_hull_test_matches_oracle(w):
    if w.ctx.family == "A":
        cex = right_hull_counterexample(w)
    else:
        cex = hull_relaxed_counterexample(w)
    assert (cex is None) == (_enumerated_hull_counterexample(w) is None), w
    if cex is None:
        return
    assert sorted(cex) == list(range(1, w.degree + 1)), (w, cex)
    assert window_in_hull(cex, hull_bounds(w)), (w, cex)
    assert not window_leq(cex, w.window), (w, cex)
    n = w.ctx.rank
    if w.ctx.family == "B" and window_rank(w.window, n + 1, n) == 1:
        assert window_rank(cex, n + 1, n) <= 1, (w, cex)


@pytest.mark.parametrize(
    "family, rank",
    [("A", 3), ("A", 4), ("A", 5), ("A", 6), ("B", 2), ("B", 3), ("B", 4)],
)
def test_hull_matching_agrees_with_enumeration(family, rank):
    for w in context(family, rank).elements:
        _assert_hull_test_matches_oracle(w)


def test_hull_matching_agrees_with_enumeration_on_b5_sample():
    cap = 8192
    elements = list(context("B", 5).elements)
    random.Random(0).shuffle(elements)
    small = (
        w
        for w in elements
        if sum(1 for _ in itertools.islice(hull_windows(hull_bounds(w)), cap + 1))
        <= cap
    )
    sample = list(itertools.islice(small, 40))
    assert len(sample) == 40
    for w in sample:
        _assert_hull_test_matches_oracle(w)


def oracle_min_cost_assignment(cost):
    """Hungarian method (shortest augmenting paths with potentials) on a
    square integer matrix: the column assigned to each row in a minimum-cost
    perfect assignment.  O(N^3)."""
    n = len(cost)
    row_pot = [0] * (n + 1)
    col_pot = [0] * (n + 1)
    row_of = [0] * (n + 1)  # 1-based row matched to each column; 0 = free
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        slack = [float("inf")] * (n + 1)
        done = [False] * (n + 1)
        while row_of[j0]:
            done[j0] = True
            i0 = row_of[j0]
            delta, j1 = float("inf"), 0
            for j in range(1, n + 1):
                if done[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - row_pot[i0] - col_pot[j]
                if cur < slack[j]:
                    slack[j], way[j] = cur, j0
                if slack[j] < delta:
                    delta, j1 = slack[j], j
            for j in range(n + 1):
                if done[j]:
                    row_pot[row_of[j]] += delta
                    col_pot[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    col_of = [0] * n
    for j in range(1, n + 1):
        col_of[row_of[j] - 1] = j - 1
    return col_of


def oracle_best_hull_window(bounds, p, q, blocked=frozenset()):
    """A window u inside the hull bounds, using no blocked cell (k, u(k)),
    that maximises r_u(p,q); None when the bounds leave no such window.

    Windows inside the bounds are the perfect matchings of positions k to
    values in [lo_k, hi_k], and r_u(p,q) counts the matched cells with
    k <= q and v >= p, so the maximum is a max-weight perfect matching with
    0/1 weights.
    """
    size = len(bounds[0])
    forbidden = size + 1  # dearer than any matching of allowed cells
    cost = [
        [
            forbidden
            if not lo <= v <= hi or (k, v) in blocked
            else int(not (k <= q and v >= p))
            for v in range(1, size + 1)
        ]
        for k, (lo, hi) in enumerate(zip(*bounds), start=1)
    ]
    cols = oracle_min_cost_assignment(cost)
    if any(cost[k][j] == forbidden for k, j in enumerate(cols)):
        return None
    return tuple(j + 1 for j in cols)


def _hull_boards(w, central):
    """Blocked cells of each board on which the oracle maximises r_u(p,q)
    over H(w): the plain board when `central` is None, and otherwise the
    windows with r_u(n+1,n) <= 1, n = central.  Those use no cell of the
    central quadrant k <= n < v, which is one board with the quadrant
    blocked, or exactly one, which is one board per quadrant cell inside
    the hull with that cell forced."""
    if central is None:
        yield frozenset()
        return
    lo, hi = hull_bounds(w)
    n, size = central, w.degree
    quadrant = {(k, v) for k in range(1, n + 1) for v in range(n + 1, size + 1)}
    yield frozenset(quadrant)
    for k0, v0 in sorted(quadrant):
        if lo[k0 - 1] <= v0 <= hi[k0 - 1]:
            blocked = (
                (quadrant - {(k0, v0)})
                | {(k0, v) for v in range(1, size + 1) if v != v0}
                | {(k, v0) for k in range(1, size + 1) if k != k0}
            )
            yield frozenset(blocked)


def _assert_hull_dp_matches_oracle(w):
    """The dynamic program on H(w), plain and in type B also cut at the
    central box, finds a window with the best r_u(p,q) of the oracle's
    boards for each coessential box (p,q) of w, or None iff they all do."""
    hull = hull_bounds(w)
    n = w.ctx.rank
    for central in (None, n) if w.ctx.family == "B" else (None,):
        for p, q, _ in boxes(w):
            u = _best_hull_window(*hull, p, q, central)
            boards = _hull_boards(w, central)
            found = [oracle_best_hull_window(hull, p, q, blocked) for blocked in boards]
            found = [x for x in found if x is not None]
            case = (str(w), p, q, central)
            assert (u is None) == (not found), case
            if u is None:
                continue
            assert window_rank(u, p, q) == max(window_rank(x, p, q) for x in found), case
            assert sorted(u) == list(range(1, w.degree + 1)), case
            assert window_in_hull(u, hull), case
            if central is not None:
                assert window_rank(u, n + 1, n) <= 1, case


@pytest.mark.parametrize(
    "family, rank", [("A", m) for m in range(1, 7)] + [("B", m) for m in range(1, 5)]
)
def test_hull_dp_matches_hungarian_oracle(family, rank):
    for w in context(family, rank).elements:
        _assert_hull_dp_matches_oracle(w)


def test_hull_dp_matches_hungarian_oracle_on_b5_sample():
    for w in random.Random(5).sample(context("B", 5).elements, 300):
        _assert_hull_dp_matches_oracle(w)


def _reaches_the_central_cut(w):
    """r_w(n+1,n) = 1, and the plain right hull test refutes w only with a
    window of r_u(n+1,n) >= 2, so the cut board must decide."""
    n = w.ctx.rank
    plain = right_hull_counterexample(w)
    return (
        window_rank(w.window, n + 1, n) == 1
        and plain is not None
        and window_rank(plain, n + 1, n) >= 2
    )


def test_hull_dp_matches_hungarian_oracle_on_b6_central_cut_sample():
    # 1153 of B_6's 46080 elements reach the cut; draw signed windows at
    # random rather than enumerate the group
    rng = random.Random(6)
    sample = []
    while len(sample) < 60:
        sigma = [v * rng.choice((1, -1)) for v in rng.sample(range(1, 7), 6)]
        w = element_from_signed(sigma, 6)
        if _reaches_the_central_cut(w):
            sample.append(w)
    for w in sample:
        _assert_hull_dp_matches_oracle(w)
        cex = hull_relaxed_counterexample(w)
        if cex is not None:
            assert window_in_hull(cex, hull_bounds(w)), (w, cex)
            assert not window_leq(cex, w.window), (w, cex)
            assert window_rank(cex, 7, 6) <= 1, (w, cex)


def test_hull_dp_handles_empty_and_forced_boards():
    # no window fits when two positions share a single value
    assert _best_hull_window((1, 1), (1, 1), 2, 1) is None
    tight = (1, 2, 3)
    assert _best_hull_window(tight, tight, 2, 2) == (1, 2, 3)
    # on the full board the plain best puts 3 and 4 first, r_u(3,2) = 2;
    # the cut at n = 2 keeps r_u(3,2) <= 1
    full_lo, full_hi = (1, 1, 1, 1), (4, 4, 4, 4)
    plain = _best_hull_window(full_lo, full_hi, 3, 2)
    assert window_rank(plain, 3, 2) == 2
    cut = _best_hull_window(full_lo, full_hi, 3, 2, central=2)
    assert window_rank(cut, 3, 2) == 1


def test_hull_equiv_check():
    # the hull is exactly the identity-bound coessential conditions
    for w in A4.elements:
        assert hull_equiv_check(w)
    assert hull_equiv_check(parse_element("819372564", A9), sample=300)


def test_hull_equiv_matches_inclusion_equivalence_on_s5():
    # right hull condition iff defined by inclusions
    for w in A5.elements:
        assert (right_hull_counterexample(w) is None) == is_defined_by_inclusions(w)


def test_basic_element_b3_values():
    assert str(basic_element(3, 2, 1, B3)) == "351624"
    assert str(basic_element(5, 4, 1, B3)) == "351624"
    assert str(basic_element(5, 2, 0, B3)) == "153426"
    assert str(basic_element(3, 4, 2, B3)) == "153426"
    assert str(basic_element(4, 3, 1, B3)) == "145236"


def test_basic_element_infeasible():
    with pytest.raises(ValueError):
        basic_element(2, 1, 3, A4)


@pytest.mark.parametrize("ctx", [A4, A5])
def test_basic_element_minimality_type_a(ctx):
    seen = set()
    for w in ctx.elements:
        seen.update(boxes(w))
    for p, q, r in sorted(seen):
        assert basic_element(p, q, r, ctx) == basic_element_bruteforce(p, q, r, ctx)


@pytest.mark.parametrize("ctx", [B2, B3])
def test_basic_element_minimality_type_b(ctx):
    seen = set()
    for w in ctx.elements:
        seen.update(boxes(w))
    for p, q, r in sorted(seen):
        assert basic_element(p, q, r, ctx) == basic_element_bruteforce(p, q, r, ctx)


def test_basic_element_b2_boundary_case():
    # the minimal u in B_2 with r_u(3,2) = 2, checked against brute force
    assert basic_element(3, 2, 1, B2) == basic_element_bruteforce(3, 2, 1, B2)


def test_reduced_coessential_examples():
    w = parse_element("426153", B3)
    assert [(p, q) for p, q, _ in reduced_coessential(w)] == [(3, 4), (5, 2)]
    # no staircase pair of the identity is removable: dropping the pair at
    # columns q, 2n-q re-admits the generator (q q+1)(2n-q 2n+1-q)
    assert reduced_coessential(B3.identity) == coessential_boxes(B3.identity.window)


def _minimal_symmetric_subsets_bruteforce(w):
    """All symmetric subsets of E(w) whose conditions cut out [id, w] in B_n,
    returned as the minimal ones under inclusion."""
    n = w.ctx.rank
    all_boxes = {(p, q): r for p, q, r in boxes(w)}
    orbits = []
    seen = set()
    for pq in sorted(all_boxes):
        if pq not in seen:
            orbit = {pq, (2 * n + 2 - pq[0], 2 * n - pq[1])}
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
    below = {v.window for v in w.ctx.elements if window_leq(v.window, w.window)}
    valid_sets = []
    for k in range(len(orbits) + 1):
        for combo in itertools.combinations(orbits, k):
            active = {pq for orbit in combo for pq in orbit}
            tests = [(p, q, all_boxes[(p, q)]) for p, q in active]
            ok = all(
                all(window_rank(v.window, p, q) <= r for p, q, r in tests)
                == (v.window in below)
                for v in w.ctx.elements
            )
            if ok:
                valid_sets.append(active)
    minimal = [
        s for s in valid_sets if not any(t < s for t in valid_sets)
    ]
    return minimal


@pytest.mark.parametrize("text", ["362514", "426153", "546132", "563412", "123456"])
def test_reduced_coessential_is_unique_minimal(text):
    w = parse_element(text, B3)
    minimal = _minimal_symmetric_subsets_bruteforce(w)
    assert len(minimal) == 1
    assert {(p, q) for p, q, _ in reduced_coessential(w)} == minimal[0]


@pytest.mark.parametrize("ctx", [B2, B3])
def test_coessential_sets_are_centrally_symmetric(ctx):
    n = ctx.rank
    for w in ctx.elements:
        for found in (boxes(w), reduced_coessential(w)):
            pqs = {(p, q) for p, q, _ in found}
            assert pqs == {(2 * n + 2 - p, 2 * n - q) for p, q in pqs}


@pytest.mark.parametrize("ctx", [B2, B3, B4, context("B", 5)])
def test_closed_form_with_corrected_domain_matches_oracle(ctx):
    for w in ctx.elements:
        corrected = reduced_coessential_closed_form(
            w, offset="p-n-1", strict_domain=False
        )
        assert corrected == reduced_coessential(w)


def test_literal_closed_form_misses_the_worked_example():
    # with the strict p,q < n domain the (3,2)/(5,4) pair survives, so the
    # literal reading disagrees with the minimality oracle
    w = parse_element("426153", B3)
    literal = reduced_coessential_closed_form(w, offset="p-n-1", strict_domain=True)
    assert literal != reduced_coessential(w)


def test_other_published_offsets_disagree_somewhere_on_b3():
    oracle_differs = {"n-p+1": False, "p-q-1": False}
    for w in B3.elements:
        target = reduced_coessential(w)
        for offset in oracle_differs:
            got = reduced_coessential_closed_form(w, offset=offset, strict_domain=False)
            if got != target:
                oracle_differs[offset] = True
    assert oracle_differs["n-p+1"]
    assert oracle_differs["p-q-1"]


def test_reduced_word_counts():
    for s in B3.generators:
        assert count_reduced_words(s) == 1
    assert count_reduced_words(parse_element("153426", B3)) == 1
    assert count_reduced_words(parse_element("351624", B3)) == 2
    assert has_unique_reduced_word(parse_element("153426", B3))
    assert not has_unique_reduced_word(parse_element("351624", B3))


def test_reduced_word_counts_against_word_enumeration():
    # count all generator sequences of minimal length multiplying to w
    def enumerate_words(w):
        length = coxeter_length(w)
        ctx = w.ctx
        count = 0
        stack = [(ctx.identity, 0)]
        while stack:
            el, used = stack.pop()
            if used == length:
                count += el == w
                continue
            for s in ctx.generators:
                nxt = compose(el, s)
                if coxeter_length(nxt) == used + 1:
                    stack.append((nxt, used + 1))
        return count

    for w in B2.elements:
        assert count_reduced_words(w) == enumerate_words(w)
    for text in ["153426", "351624", "145236"]:
        w = parse_element(text, B3)
        assert count_reduced_words(w) == enumerate_words(w)


def test_coxeter_coessential_examples():
    assert coxeter_coessential(B3.longest_element) == ()
    assert set(coxeter_coessential(B3.identity)) == set(B3.generators)
    assert [str(v) for v in coxeter_coessential(parse_element("426153", B3))] == [
        "153426"
    ]


def test_coxeter_coessential_elements_are_minimal_nonbelow():
    for w in B2.elements:
        ess = coxeter_coessential(w)
        for v in ess:
            assert not bruhat_leq(v, w)
            below_v = [
                u
                for u in B2.elements
                if u != v and bruhat_leq(u, v) and not bruhat_leq(u, w)
            ]
            assert not below_v


def _check_anderson_parameterization(ctx):
    # E'(w) boxes and their basic elements recover the minimal non-below set
    for w in ctx.elements:
        expected = {basic_element(*b, ctx) for b in reduced_coessential(w)}
        assert set(coxeter_coessential(w)) == expected, w


def test_anderson_parameterization_on_b3():
    _check_anderson_parameterization(B3)


def test_anderson_parameterization_on_b4():
    _check_anderson_parameterization(B4)


def test_inclusion_equivalence_via_unique_words_type_a():
    # defined by inclusions iff every minimal non-below element has a
    # unique reduced expression
    for w in A5.elements:
        unique = all(has_unique_reduced_word(v) for v in coxeter_coessential(w))
        assert unique == is_defined_by_inclusions(w)


def _check_pseudo_inclusions_via_unique_words(ctx):
    # the criterion runs over all of E(w), not E'(w)
    for w in ctx.elements:
        unique = all(
            has_unique_reduced_word(basic_element(*b, ctx)) for b in boxes(w)
        )
        assert unique == is_defined_by_pseudo_inclusions(w), w


def test_pseudo_inclusion_equivalence_via_unique_words_type_b():
    _check_pseudo_inclusions_via_unique_words(B3)


def test_pseudo_inclusion_equivalence_via_unique_words_on_b4():
    _check_pseudo_inclusions_via_unique_words(B4)


def test_identity_rank_helper():
    assert identity_rank(4, 4) == 1
    assert identity_rank(9, 2) == 0
