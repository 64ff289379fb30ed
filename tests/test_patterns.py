import random
from itertools import combinations, permutations
from math import factorial

import numpy as np
import pytest

from hultman import patterns
from hultman.bruhat import bruhat_leq
from hultman.groups import Element, compose, context, element_from_signed, parse_element
from hultman.patterns import (
    CONDITION5_SPECS,
    ParabolicEmbedding,
    _bp_entry,
    _bp_kind,
    _condition5_query,
    _first_matches,
    _query,
    a_in_b_index_sets,
    avoids_condition5_list,
    b_in_b_index_sets,
    bp_contains,
    classical_contains,
    condition5_embedding,
    condition5_matches,
    condition5_patterns,
    condition5_second_stage_rows,
    first_bp_contained,
    flatten,
    relative_order,
)
from oracles import (
    _codes,
    _greater,
    _pair_index,
    _weights,
    dynkin_reverse,
    embed_pattern,
    generator_images,
    inversion_reflections,
    memoise_queries,
    oracle_a_in_b_index_sets,
    oracle_first_matches,
)
from test_acceptance import OPT_IN

A1 = context("A", 1)
A3 = context("A", 3)
A4 = context("A", 4)
A5 = context("A", 5)
A8 = context("A", 8)
B2 = context("B", 2)
B3 = context("B", 3)
B4 = context("B", 4)


# Reference implementation: the relative_order scans that the flattening
# code kernel replaced.  The kernel must return exactly what they return.
def oracle_bp_contains(w, v):
    host, pat = w.ctx, v.ctx
    if pat.family == "A":
        m = pat.rank
        targets = {v.window, dynkin_reverse(v).window}
        if m > host.rank:
            return None
        if host.family == "A":
            sets, kind = combinations(range(1, host.rank + 1), m), "A-in-A"
        else:
            sets, kind = a_in_b_index_sets(host.rank, m), "A-in-B"
        for idx in sets:
            if relative_order([w.window[i - 1] for i in idx]) in targets:
                return ParabolicEmbedding(host, kind, idx)
        return None
    if host.family != "B" or pat.rank > host.rank:
        return None
    for idx in b_in_b_index_sets(host.rank, pat.rank):
        if relative_order([w.window[i - 1] for i in idx]) == v.window:
            return ParabolicEmbedding(host, "B-in-B", idx)
    return None


def oracle_classical_contains(w, v):
    if v.degree > w.degree:
        return None
    for idx in combinations(range(1, w.degree + 1), v.degree):
        if relative_order([w.window[i - 1] for i in idx]) == v.window:
            return idx
    return None


def oracle_avoids_condition5_list(w):
    for v in condition5_patterns():
        if v.ctx.family == "B" and w.ctx.family == "A":
            continue
        emb = oracle_bp_contains(w, v)
        if emb is not None:
            return False, (v, emb)
    return True, None


def test_classical_containment_examples():
    w = parse_element("48631725", A8)
    v = parse_element("35142", A5)
    assert classical_contains(w, v) == (1, 2, 5, 6, 7)
    assert classical_contains(parse_element("68435271", A8), v) is None
    assert classical_contains(w, w) == tuple(range(1, 9))


def test_dynkin_reverse():
    assert str(dynkin_reverse(parse_element("35142", A5))) == "42513"
    assert str(dynkin_reverse(parse_element("4231", A4))) == "4231"
    assert str(dynkin_reverse(parse_element("351624", context("A", 6)))) == "351624"


def test_embedding_validation():
    with pytest.raises(ValueError):
        ParabolicEmbedding(B3, "A-in-B", (2, 5, 6))  # 2 + 5 = 7 is a mirror pair
    with pytest.raises(ValueError):
        ParabolicEmbedding(B3, "B-in-B", (1, 2, 3, 6))  # not mirror-closed
    with pytest.raises(ValueError):
        ParabolicEmbedding(A4, "A-in-B", (1, 2))
    with pytest.raises(ValueError):
        ParabolicEmbedding(B3, "A-in-A", (1, 2))


def test_index_set_enumeration():
    # sum-free sets pick at most one index per mirror pair
    assert all(len(s) == 3 for s in a_in_b_index_sets(3, 3))
    assert len(list(a_in_b_index_sets(3, 3))) == 8
    assert list(b_in_b_index_sets(2, 1)) == [(1, 4), (2, 3)]


@pytest.mark.parametrize("n", range(8))
def test_a_in_b_index_sets_equal_the_filtering_definition(n):
    # m mirror pairs and one side of each, sorted, against every m-subset
    # of 1..2n without a mirror pair, in lexicographic order
    for m in range(2 * n + 2):
        assert a_in_b_index_sets(n, m) == oracle_a_in_b_index_sets(n, m), (n, m)


def test_flatten_examples():
    w = parse_element("426153", B3)
    emb = ParabolicEmbedding(B3, "A-in-B", (2, 3, 6))
    assert str(flatten(w, emb)) == "132"
    assert flatten(B3.identity, emb) == A3.identity
    w4 = parse_element("52863174", B4)
    emb = ParabolicEmbedding(B4, "B-in-B", (1, 2, 3, 6, 7, 8))
    # the flattening of a centrally symmetric window is again symmetric
    assert str(flatten(w4, emb)) == "426153"
    assert flatten(w4, emb).ctx == B3


def test_canonical_generator_images():
    emb = ParabolicEmbedding(B3, "A-in-B", (2, 3, 6))
    assert [str(g) for g in generator_images(emb)] == ["132546", "426153"]
    emb = ParabolicEmbedding(B4, "B-in-B", (1, 2, 3, 6, 7, 8))
    s0, s1, s2 = generator_images(emb)
    # phi(s_0) = (i_3 i_4) = (3 6); phi(s_j) swaps mirrored position pairs
    assert s0.window == (1, 2, 6, 4, 5, 3, 7, 8)
    assert s1.window == (1, 3, 2, 4, 5, 7, 6, 8)
    assert s2.window == (2, 1, 3, 4, 5, 6, 8, 7)


def test_bp_containment_examples():
    w = parse_element("52863174", B4)
    emb = bp_contains(w, parse_element("4231", A4))
    assert emb is not None and emb.indices == (1, 2, 5, 6)
    assert bp_contains(w, parse_element("4231", B2)) is None
    assert bp_contains(w, parse_element("42318675", B4)) is None
    assert bp_contains(w, parse_element("426153", B3)).indices == (1, 2, 3, 6, 7, 8)
    # every element BP contains the trivial pattern
    assert bp_contains(w, A1.identity) is not None


def test_a_pattern_in_b_host_covers_both_isomorphisms():
    # the mirrored index set realizes the flipped pattern, so containment
    # of v and of its reverse coincide
    v = parse_element("312", A3)
    rev = dynkin_reverse(v)
    for w in B3.elements:
        assert (bp_contains(w, v) is None) == (bp_contains(w, rev) is None)


def test_a_in_a_bp_equals_classical_with_flip(monkeypatch):
    memoise_queries(monkeypatch)
    pats = [Element(p, A3) for p in ((1, 3, 2), (3, 1, 2), (2, 3, 1))]
    for w in A5.elements:
        for v in pats:
            bp = bp_contains(w, v) is not None
            classical = (
                classical_contains(w, v) is not None
                or classical_contains(w, dynkin_reverse(v)) is not None
            )
            assert bp == classical


def test_b2_pattern_uses_only_the_canonical_isomorphism():
    # 3412 = s_0 s_1 s_0 and 4231 = s_1 s_0 s_1 are swapped by the B_2
    # diagram symmetry, but that symmetry is not a valid embedding choice:
    # an element BP contains itself, never its diagram image
    w3412 = parse_element("3412", B2)
    w4231 = parse_element("4231", B2)
    assert bp_contains(w3412, w4231) is None
    assert bp_contains(w4231, w3412) is None
    assert bp_contains(w3412, w3412) is not None


def test_flattening_is_inversion_restriction():
    # t' is an inversion of the flattening iff phi(t') is an inversion of w
    embeddings = [
        ParabolicEmbedding(B3, "A-in-B", (2, 3, 6)),
        ParabolicEmbedding(B3, "B-in-B", (2, 3, 4, 5)),
        ParabolicEmbedding(B3, "B-in-B", (1, 3, 4, 6)),
    ]
    for emb in embeddings:
        pat_ctx = emb.pattern_ctx
        for w in B3.elements:
            fl = flatten(w, emb)
            inv_w = set(inversion_reflections(w))
            inv_fl = set(inversion_reflections(fl))
            for t in pat_ctx.reflections:
                assert (t in inv_fl) == (embed_pattern(emb, t) in inv_w)


def test_flattening_equivariance():
    emb = ParabolicEmbedding(B3, "B-in-B", (2, 3, 4, 5))
    pat_ctx = emb.pattern_ctx
    for w in B3.elements:
        for v in pat_ctx.elements:
            lhs = flatten(compose(w, embed_pattern(emb, v)), emb)
            rhs = compose(flatten(w, emb), v)
            assert lhs == rhs


def test_flattening_reflects_bruhat_comparison():
    # fl(w) < fl(wv) in the parabolic forces w < wv in the host
    emb = ParabolicEmbedding(B3, "B-in-B", (1, 3, 4, 6))
    pat_ctx = emb.pattern_ctx
    for w in B3.elements:
        fw = flatten(w, emb)
        for v in pat_ctx.elements:
            wv = compose(w, embed_pattern(emb, v))
            if bruhat_leq(fw, flatten(wv, emb)):
                assert bruhat_leq(w, wv)


def test_unflatten_bruhat_holds_in_type_a():
    # w <= w phi(v) descends to the flattenings for type A hosts
    indices = (1, 3, 4)
    emb = ParabolicEmbedding(A5, "A-in-A", indices)
    pat_ctx = emb.pattern_ctx
    for w in A5.elements:
        fw = flatten(w, emb)
        for v in pat_ctx.elements:
            phi_v = embed_pattern(emb, v)
            wv = compose(w, phi_v)
            if bruhat_leq(w, wv):
                assert bruhat_leq(fw, flatten(wv, emb))


def test_unflatten_bruhat_fails_in_type_b():
    # the recorded counterexample: u = 132546 <= w = 426153 in B_3, but the
    # flattenings at positions (2, 3, 6) compare as 213 vs 132, incomparable
    emb = ParabolicEmbedding(B3, "A-in-B", (2, 3, 6))
    w = parse_element("426153", B3)
    u = parse_element("132546", B3)
    assert bruhat_leq(u, w)
    fu, fw = flatten(u, emb), flatten(w, emb)
    assert str(fu) == "213" and str(fw) == "132"
    assert not bruhat_leq(fu, fw)


def test_condition5_list_shape():
    assert len(CONDITION5_SPECS) == 31
    ranks = {}
    for fam, rank, _ in CONDITION5_SPECS:
        ranks[(fam, rank)] = ranks.get((fam, rank), 0) + 1
    assert ranks == {
        ("A", 4): 1,
        ("A", 5): 2,
        ("A", 6): 1,
        ("B", 3): 10,
        ("B", 4): 14,
        ("B", 5): 3,
    }
    for v in condition5_patterns():
        assert v.ctx.family in "AB"


def test_avoids_condition5_examples():
    assert avoids_condition5_list(B3.identity) == (True, None)
    ok, matched = avoids_condition5_list(parse_element("426153", B3))
    assert not ok and str(matched[0]) == "426153"
    ok, _ = avoids_condition5_list(parse_element("362514", B3))
    assert ok


def test_avoids_condition5_type_a_is_classical_avoidance(monkeypatch):
    memoise_queries(monkeypatch)
    # the four type A patterns are closed under the diagram flip
    type_a = [v for v in condition5_patterns() if v.ctx.family == "A"]
    assert len(type_a) == 4
    for w in context("A", 6).elements:
        classical = all(classical_contains(w, v) is None for v in type_a)
        assert avoids_condition5_list(w)[0] == classical, w


def test_bp_containment_is_transitive_sampled(monkeypatch):
    memoise_queries(monkeypatch)
    rng = random.Random(5)
    b4 = list(B4.elements)
    b3 = list(B3.elements)
    small = list(B2.elements) + [Element(p, A3) for p in
                                 ((1, 3, 2), (3, 1, 2), (2, 3, 1), (3, 2, 1))]
    hits = 0
    for _ in range(400):
        w = rng.choice(b4)
        u = rng.choice(b3)
        v = rng.choice(small)
        if bp_contains(w, u) is not None and bp_contains(u, v) is not None:
            hits += 1
            assert bp_contains(w, v) is not None
    assert hits > 0


def test_listed_pattern_containment_implies_non_hultman_on_b3():
    from hultman.bruhat import bruhat_graph
    from oracles import distance_witnesses

    g = bruhat_graph(B3)
    for w in B3.elements:
        if not avoids_condition5_list(w)[0]:
            assert next(distance_witnesses(w, g), None) is not None


@pytest.mark.parametrize("family, rank", [("A", 6), ("B", 4)])
def test_avoids_condition5_matches_oracle(family, rank):
    for w in context(family, rank).elements:
        assert avoids_condition5_list(w) == oracle_avoids_condition5_list(w), w


def test_avoids_condition5_matches_oracle_on_b5_sample():
    sample = random.Random(6).sample(context("B", 5).elements, 400)
    assert sum(oracle_avoids_condition5_list(w)[0] for w in sample) > 0
    for w in sample:
        assert avoids_condition5_list(w) == oracle_avoids_condition5_list(w), w


def test_containment_matches_oracle_on_all_small_pairs(monkeypatch):
    # hosts S_5 and B_3; patterns include the identity of A_1 (a code with
    # no bits), type B patterns in type A hosts, and patterns larger than
    # the host (S_4 in B_3 has no A-in-B embedding; B_3 has degree 6 > 5)
    memoise_queries(monkeypatch)
    hosts = context("A", 5).elements + B3.elements
    pats = [e for r in range(1, 5) for e in context("A", r).elements]
    pats += [e for r in range(1, 4) for e in context("B", r).elements]
    hits = 0
    for w in hosts:
        for v in pats:
            emb = bp_contains(w, v)
            assert emb == oracle_bp_contains(w, v), (w, v)
            assert classical_contains(w, v) == oracle_classical_contains(w, v), (w, v)
            hits += emb is not None
    assert 0 < hits < len(hosts) * len(pats)


def _random_signed(rank, rng):
    values = list(range(1, rank + 1))
    rng.shuffle(values)
    return element_from_signed([x * rng.choice((1, -1)) for x in values], rank)


def test_codes_wider_than_one_word():
    # a B_6 pattern spans 12 positions, 66 comparisons: more than 8 bits
    rng = random.Random(12)
    b7 = context("B", 7)
    w6 = parse_element("-3,5,1,-6,2,-4", context("B", 6))
    assert bp_contains(w6, w6).indices == tuple(range(1, 13))
    assert classical_contains(w6, w6) == tuple(range(1, 13))
    for _ in range(6):
        host = _random_signed(7, rng)
        drop = rng.randint(1, 7)
        emb = ParabolicEmbedding(
            b7, "B-in-B", tuple(i for i in range(1, 15) if i not in (drop, 15 - drop))
        )
        inside = flatten(host, emb)
        assert bp_contains(host, inside) == oracle_bp_contains(host, inside) is not None
        for _ in range(20):
            v = _random_signed(6, rng)
            assert bp_contains(host, v) == oracle_bp_contains(host, v), (host, v)
    # two windows of S_12 that differ only in the order of the adjacent
    # values 7, 8 at positions 11 and 12: their comparisons differ only in
    # the last of the 66 pairs, bit 2 of a row's second word
    a12 = context("A", 12)
    w = parse_element("5b3916c2a487", a12)
    v = parse_element("5b3916c2a478", a12)
    assert classical_contains(w, v) is None
    assert classical_contains(w, w) == tuple(range(1, 13))


@pytest.mark.parametrize("k", range(1, 9))
def test_codes_of_all_windows_are_their_lehmer_ranks(k):
    # the referee's codes: permutations come in lexicographic order, which
    # is Lehmer rank order, and each one's code at its index set 1..k is its
    # rank
    windows = np.array(list(permutations(range(1, k + 1))), dtype=np.int16)
    codes = _codes(_greater(windows), _pair_index(np.arange(1, k + 1)[None], k), _weights(k))
    assert codes.shape == (factorial(k), 1, 1)
    assert np.array_equal(codes[:, 0, 0], np.arange(factorial(k)))


@pytest.mark.parametrize("k", range(1, 9))
def test_every_window_is_hit_only_by_its_own_pair(k):
    # one entry per window of S_k, in S_k: one column, 1..k, and pair r is
    # window r's, owned by r
    windows = np.array(list(permutations(range(1, k + 1))), dtype=np.int16)
    query = _query(tuple(("A-in-A", k, (w,)) for w in map(tuple, windows.tolist())))
    pairs = k * (k - 1) // 2
    assert np.array_equal(query.pair_owners, np.arange(factorial(k) + 1))
    assert query.masks.shape == query.values.shape == (1, factorial(k) + 1)
    # every pair's mask holds all k(k-1)/2 comparisons; the sentinel's none
    assert (query.masks[0, :-1] == (1 << pairs) - 1).all() and query.masks[0, -1] == 0
    # so a row hits a pair iff its word is the pair's value: the values are
    # the windows' own words, all distinct, and the sentinel's is 0
    i, j = query.upper
    words = (windows[:, i] > windows[:, j]).astype(np.int64) @ query.powers
    assert np.array_equal(query.values[0, :-1], words[:, 0])
    assert len(np.unique(query.values[0, :-1])) == factorial(k) and query.values[0, -1] == 0
    if k <= 6:
        hit = (words & query.masks[0]) == query.values[0]
        assert np.array_equal(hit[:, :-1], np.eye(factorial(k), dtype=bool)) and hit[:, -1].all()
    owners, columns = _first_matches(query, windows)
    assert np.array_equal(owners, np.arange(factorial(k))) and not columns.any()


def test_one_code_word_up_to_eighteen_positions():
    # the referee's Lehmer codes: 18! < 2^53 < 19!
    ks = (1, 2, 18, 19, 20, 21, 22, 40)
    assert [_weights(k).shape[1] for k in ks] == [1, 1, 1, 2, 2, 2, 2, 4]
    # every word's largest code, the sum of its place values times digit
    # ranges, stays below 2^53
    for k in (18, 19, 20, 21, 22, 40, 45, 64):
        top = [0] * _weights(k).shape[1]
        for (a, _), row in zip(combinations(range(k), 2), _weights(k).tolist()):
            for j, place in enumerate(row):
                top[j] += place
        assert max(top) < 2**53
    assert _weights(18)[:, 0].max() == factorial(17)
    # each pair adds to exactly one word
    for k in (18, 19, 40):
        assert ((_weights(k) > 0).sum(axis=1) == 1).all()


@pytest.mark.parametrize(
    "host",
    [context("A", d) for d in (1, 2, 11, 12, 16, 17, 21)]
    + [context("B", n) for n in (1, 5, 6, 7, 8, 11)],
    ids=lambda ctx: ctx.name,
)
def test_a_host_row_has_one_word_per_63_comparisons(host):
    # S_d compares its d(d-1)/2 position pairs: S_<=11 (at most 55) take
    # one word, S_12 to S_16 two, S_21 (210) four.  A type B window is
    # centrally symmetric, so of each mirror pair of position pairs a row
    # keeps the one with i + j <= 2n - 1 (0-based), n^2 of n(2n-1):
    # B_<=7 (at most 49) take one word, B_8 (64) and B_11 (121) two.
    d = host.degree
    i, j = np.triu_indices(d, 1)
    if host.family == "B":
        i, j = i[i + j < d], j[i + j < d]
    pairs = len(i)
    assert pairs == (host.rank**2 if host.family == "B" else d * (d - 1) // 2)
    words = max(1, -(-pairs // 63))
    query = _query((_bp_entry(host, context("A", 1).identity),))
    assert np.array_equal(query.upper, [i, j])
    assert query.powers.shape == (pairs, words)
    assert query.masks.shape == query.values.shape == (words, len(query.pair_owners))
    # pair t is bit t % 63 of word t // 63, so no word reaches the sign bit
    t = np.arange(pairs)
    want = np.zeros((pairs, words), dtype=np.int64)
    want[t, t // 63] = 1 << (t % 63)
    assert np.array_equal(query.powers, want)


def test_a_type_b_row_reads_each_mirror_pair_once():
    # every kept pair's comparison equals its mirror pair's on each row of
    # B_4, and a mirror-closed column's mask holds each kept pair it covers
    # once: B_3 in B_4 covers 15 position pairs, 9 up to mirroring
    d, windows = B4.degree, B4.window_matrix
    query = _query((_bp_entry(B4, B3.identity),))
    i, j = query.upper
    assert len(i) == 16
    mirror = windows[:, d - 1 - j] > windows[:, d - 1 - i]
    assert np.array_equal(windows[:, i] > windows[:, j], mirror)
    assert len(query.pair_owners) == len(list(b_in_b_index_sets(4, 3))) + 1
    assert (np.bitwise_count(query.masks[0, :-1]) == 9).all()


def _neighbours(v, mirrored=False):
    """Windows that differ from v in the order of one pair of adjacent
    values: the value at position 1 exchanged with the next larger or
    smaller one, and the same at the middle and the last position.  With
    `mirrored`, the mirror values are exchanged too, which keeps a type B
    window centrally symmetric.  The change at position 1 alters Lehmer
    digit 0, which has a word of its own in the referee's codes from 19
    positions on."""
    top = len(v) + 1
    out = []
    for pos in (0, len(v) // 2, len(v) - 1):
        r = v[pos]
        for s in (r - 1, r + 1):
            if 1 <= s <= len(v):
                swap = {r: s, s: r}
                if mirrored:
                    swap.update({top - r: top - s, top - s: top - r})
                out.append(tuple(swap.get(x, x) for x in v))
    return out


@pytest.mark.parametrize("k", [18, 19, 20, 21])
def test_containment_at_the_one_word_boundary_matches_oracle(k):
    rng = random.Random(k)
    host_ctx, pat_ctx = context("A", k + 1), context("A", k)
    for _ in range(3):
        values = list(range(1, k + 2))
        rng.shuffle(values)
        w = Element(tuple(values), host_ctx)
        drop = rng.randrange(k + 1)
        inside = relative_order([x for i, x in enumerate(values) if i != drop])
        for window in [inside] + _neighbours(inside):
            v = Element(window, pat_ctx)
            assert classical_contains(w, v) == oracle_classical_contains(w, v), (w, v)
            assert bp_contains(w, v) == oracle_bp_contains(w, v), (w, v)


def test_type_b_containment_past_twenty_positions_matches_oracle():
    # B_9 (18 positions, one code word), B_10 (20, two) and B_11 (22, two)
    # in B_11
    rng = random.Random(11)
    b11 = context("B", 11)
    hits = 0
    for _ in range(3):
        w = _random_signed(11, rng)
        for rank in (9, 10, 11):
            keep = sorted(rng.sample(range(1, 12), rank))
            emb = ParabolicEmbedding(
                b11, "B-in-B", tuple(keep) + tuple(23 - i for i in reversed(keep))
            )
            inside = flatten(w, emb)
            for window in [inside.window] + _neighbours(inside.window, mirrored=True):
                v = Element(window, inside.ctx)
                found = bp_contains(w, v)
                assert found == oracle_bp_contains(w, v), (w, v)
                hits += found is not None
    assert 9 <= hits < 9 * 7


def _assert_matches_equal_per_element(ctx, rows):
    pattern, column = condition5_matches(ctx)
    indices = _condition5_query(ctx).sets[column]  # the index sets gathered
    pats = condition5_patterns()
    for row in rows:
        w = ctx.elements[row]
        ok, matched = avoids_condition5_list(w)
        p = int(pattern[row])
        assert ok == (p < 0), w
        if ok:
            assert not indices[row].any(), w
            continue
        v, emb = matched
        assert v == pats[p], w
        assert emb.indices == tuple(indices[row, : v.degree].tolist()), w
        assert not indices[row, v.degree :].any(), w
        assert condition5_embedding(ctx, p, column[row]) == matched
    return pattern


@pytest.mark.parametrize(
    "ctx",
    [context("A", n) for n in range(1, 8)] + [context("B", n) for n in range(1, 6)],
    ids=lambda ctx: ctx.name,
)
def test_condition5_matches_equal_the_per_element_path(ctx):
    _assert_matches_equal_per_element(ctx, range(len(ctx.elements)))


@pytest.mark.parametrize("family, rank", [("A", 8), ("B", 6)])
def test_condition5_matches_on_a_sample(family, rank):
    ctx = context(family, rank)
    rows = random.Random(rank).sample(range(len(ctx.elements)), 400)
    pattern = _assert_matches_equal_per_element(ctx, rows)
    for row in rows[:60]:
        w = ctx.elements[row]
        ok, matched = oracle_avoids_condition5_list(w)
        assert ok == (pattern[row] < 0), w
        assert avoids_condition5_list(w) == (ok, matched), w


def test_condition5_matches_take_a_batch_of_windows():
    ctx = context("B", 4)
    rows = [5, 0, 383, 200]
    pattern, column = condition5_matches(ctx, ctx.window_matrix[rows])
    whole, whole_column = condition5_matches(ctx)
    assert np.array_equal(pattern, whole[rows])
    assert np.array_equal(column, whole_column[rows])
    assert condition5_embedding(ctx, -1, column[0]) is None


@pytest.mark.parametrize("ctx", [context("A", 7), context("B", 5)], ids=lambda ctx: ctx.name)
def test_condition5_matches_keep_five_bytes_a_row(ctx):
    # the pattern as int8 and the query's column as int32: an index set is
    # gathered only for a row that is read, never for the whole group
    pattern, column = condition5_matches(ctx)
    assert pattern.dtype == np.int8 and column.dtype == np.int32
    assert pattern.shape == column.shape == (ctx.order,)
    assert pattern.itemsize + column.itemsize <= 5
    assert pattern.min() == -1 and pattern.max() < len(condition5_patterns())
    sentinel = len(_condition5_query(ctx).sets) - 1
    assert np.array_equal(column == sentinel, pattern == -1)


def _assert_kernel_equals_oracle(entries, windows):
    """The one-pass kernel on the query of `entries` and the entry-by-entry
    oracle give equal best entries, and the query's index set at the
    kernel's column is the oracle's first index set, zero-padded."""
    query = _query(entries)
    got = _first_matches(query, windows)
    best, first = oracle_first_matches(entries, windows)
    assert np.array_equal(got[0], best), np.flatnonzero(got[0] != best)[:5]
    found = query.sets[got[1]]
    want = np.zeros_like(found)
    for row, indices in enumerate(first):
        want[row, : len(indices)] = indices
    assert np.array_equal(found, want), np.flatnonzero((found != want).any(axis=1))[:5]
    return got


def _condition5_entries(ctx):
    """The entries of `_condition5_query(ctx)`."""
    return tuple(_bp_entry(ctx, v) for v in condition5_patterns())


@pytest.mark.parametrize(
    "ctx",
    [context("A", n) for n in range(1, 9)]
    + [context("B", n) for n in range(1, 7)]
    + [pytest.param(ctx, marks=OPT_IN, id=ctx.name) for ctx in (context("B", 7), context("A", 9))],
    ids=lambda ctx: ctx.name,
)
def test_kernel_equals_the_per_block_oracle_on_every_row(ctx):
    _assert_kernel_equals_oracle(_condition5_entries(ctx), ctx.window_matrix)


@pytest.mark.parametrize("family, rank", [("A", 8), ("B", 6)])
def test_kernel_equals_the_per_block_oracle_on_batches_of_one(family, rank):
    ctx = context(family, rank)
    entries = _condition5_entries(ctx)
    found = 0
    for row in random.Random(80 + rank).sample(range(ctx.order), 300):
        best, _ = _assert_kernel_equals_oracle(entries, ctx.window_matrix[row : row + 1])
        found += int(best[0] < len(entries))
    assert 0 < found < 300


ROW_GROUPS = [context("A", n) for n in range(1, 8)] + [context("B", n) for n in range(1, 6)]


@pytest.mark.parametrize("ctx", ROW_GROUPS, ids=lambda ctx: ctx.name)
def test_a_batch_of_one_equals_the_whole_group_row(ctx, monkeypatch):
    # a batch of one always takes the one-pass scan; the whole group takes
    # two stages once its rows outgrow one block (S_7 and B_5 here), and
    # every batch of more than one row does with a block bound of one byte
    pattern, column = condition5_matches(ctx)
    for row in range(ctx.order):
        one, one_column = condition5_matches(ctx, ctx.window_matrix[row : row + 1])
        assert one[0] == pattern[row] and one_column[0] == column[row], row
    monkeypatch.setattr(patterns, "_BLOCK_BYTES", 1)
    staged, staged_column = condition5_matches(ctx)
    assert np.array_equal(staged, pattern) and np.array_equal(staged_column, column)


def test_a_batch_of_one_equals_the_two_stage_scan_on_a_two_word_host(monkeypatch):
    # a B_8 host keeps 64 position pairs, two words a row: each seeded
    # window classified alone meets every pair in one pass, and all of them
    # together, with a block bound of one byte, go in two stages block by block
    b8 = context("B", 8)
    assert _condition5_query(b8).powers.shape == (64, 2)
    rng = random.Random(808)
    hosts = [_random_signed(8, rng) for _ in range(300)]
    alone = [avoids_condition5_list(w) for w in hosts]
    monkeypatch.setattr(patterns, "_BLOCK_BYTES", 1)
    windows = np.array([w.window for w in hosts], dtype=np.int16)
    _assert_kernel_equals_oracle(_condition5_entries(b8), windows)
    staged, columns = condition5_matches(b8, windows)
    assert [ok for ok, _ in alone] == (staged < 0).tolist()
    assert [matched for _, matched in alone] == [
        condition5_embedding(b8, int(pattern), column) for pattern, column in zip(staged, columns)
    ]
    # some rows avoid every pattern, and some reach the second stage
    assert (staged < 0).any() and condition5_second_stage_rows(b8, staged) > (staged < 0).sum()


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_a_query_of_the_sentinel_alone_scans_in_two_stages(rank, monkeypatch):
    # S_1 to S_3 host no listed pattern, and a query of no entries has no
    # pair either: in each query the sentinel is the only pair, so the
    # staged scan's first stage holds every pair and no row reaches a second
    ctx = context("A", rank)
    queries = (_condition5_query(ctx), _query(()))
    assert all(q.first_pairs == len(q.pair_owners) == 1 for q in queries)
    monkeypatch.setattr(patterns, "_BLOCK_BYTES", 1)
    pattern, column = condition5_matches(ctx)
    assert (pattern == -1).all() and not _condition5_query(ctx).sets[column].any()
    owners, columns = _first_matches(_query(()), ctx.window_matrix)
    assert not owners.any() and not columns.any()
    assert avoids_condition5_list(ctx.element(ctx.order - 1)) == (True, None)


@pytest.mark.parametrize("ctx", ROW_GROUPS + [A8, context("B", 6)], ids=lambda ctx: ctx.name)
def test_the_staged_prefix_is_exactly_the_least_owners_pairs(ctx):
    rng = random.Random(ctx.degree)
    queries = [_query(_condition5_entries(ctx)), _query(())]
    queries += [_query(tuple(_bp_entry(ctx, v) for v in _mixed_patterns(rng, ctx)))]
    for query in queries:
        owners, head = query.pair_owners, query.first_pairs
        assert (owners[:head] == owners[0]).all()
        assert (owners[head:] > owners[0]).all()
        # the sentinel, owned by `entries`, stands alone only when no entry has a pair
        assert (head == len(owners)) == (owners[0] == query.entries)


@pytest.mark.parametrize(
    "ctx", [context("A", n) for n in range(1, 7)] + [context("B", n) for n in range(1, 5)],
    ids=lambda ctx: ctx.name,
)
def test_kernel_embeddings_equal_the_validated_construction(ctx):
    pattern, column = condition5_matches(ctx)
    pats = condition5_patterns()
    for row in range(ctx.order):
        matched = condition5_embedding(ctx, int(pattern[row]), column[row])
        if matched is None:
            continue
        v, emb = matched
        validated = ParabolicEmbedding(ctx, _bp_kind(ctx.family, v.ctx.family), emb.indices)
        assert emb == validated and type(emb.indices) is tuple, row
        assert bp_contains(ctx.element(row), v) == validated
        assert v == pats[pattern[row]]


def _plan_shapes(query):
    """For each column of `query`, read off its arrays: the size of its
    index set, the words its masks fill, and the distinct targets it is
    paired with."""
    columns = len(query.sets) - 1
    sizes = (query.sets[:-1] > 0).sum(axis=1)
    filled = np.zeros((columns, query.masks.shape[0]), dtype=bool)
    filled[query.pair_columns[:-1]] = (query.masks[:, :-1] != 0).T
    targets = np.bincount(query.pair_columns[:-1], minlength=columns)
    return sizes, filled.sum(axis=1), targets


def _mixed_patterns(rng, host):
    """A seeded list of patterns of every kind for `host`: identities of
    A_1 (no pairs) and A_2 (one pair), self-flipping type A patterns,
    type B patterns, and repeats."""
    pool = [e for r in range(1, 5) for e in context("A", r).elements]
    pool += [e for r in range(1, 4) for e in context("B", r).elements]
    flipping = [v for v in pool if v.ctx.family == "A" and dynkin_reverse(v) == v]
    pats = rng.sample(pool, rng.randint(1, 10)) + rng.sample(flipping, 2)
    pats += [context("A", 1).identity, context("A", 2).identity]
    pats += rng.sample(pats, 2)
    rng.shuffle(pats)
    return pats


@pytest.mark.parametrize("host", [A5, B3, B4], ids=lambda ctx: ctx.name)
def test_first_bp_contained_equals_the_per_block_oracle(host, monkeypatch):
    rng = random.Random(host.degree)
    windows = host.window_matrix
    with monkeypatch.context() as patch:
        # no pattern: every row contains none, and no query is built
        def no_query(entries):
            raise AssertionError(f"a query was built for {entries}")

        patch.setattr(patterns, "_query", no_query)
        assert np.array_equal(first_bp_contained(host, windows, []), np.full(host.order, -1))
    _assert_kernel_equals_oracle((), windows)
    for _ in range(12):
        pats = _mixed_patterns(rng, host)
        best, _ = _assert_kernel_equals_oracle(tuple(_bp_entry(host, v) for v in pats), windows)
        first = first_bp_contained(host, windows, pats)
        assert np.array_equal(first, np.where(best < len(pats), best, -1))
        for row in rng.sample(range(host.order), 10):
            w = host.elements[row]
            hits = [i for i, v in enumerate(pats) if oracle_bp_contains(w, v) is not None]
            assert first[row] == (hits[0] if hits else -1), (w, pats)


@pytest.mark.parametrize("host", [context("A", 7), B4], ids=lambda ctx: ctx.name)
def test_kernel_equals_the_oracles_on_blocks_of_every_pattern(host):
    # every element of S_4 and S_5, with repeats, in shuffled order: blocks
    # of up to 120 targets whose owners interleave with the other block's
    rng = random.Random(45 + host.degree)
    pats = list(A4.elements) + list(A5.elements)
    pats += rng.sample(pats, 20)
    rng.shuffle(pats)
    entries = tuple(_bp_entry(host, v) for v in pats)
    query = _query(entries)
    _, _, targets = _plan_shapes(query)
    assert targets.max() == (120 if host.family == "A" else 24)
    best, column = _assert_kernel_equals_oracle(entries, host.window_matrix)
    for row in rng.sample(range(host.order), 40):
        w = host.elements[row]
        first = next(
            (i, emb) for i, v in enumerate(pats) if (emb := oracle_bp_contains(w, v)) is not None
        )
        assert best[row] == first[0], w
        indices = list(first[1].indices)
        padding = [0] * (query.sets.shape[1] - len(indices))
        assert query.sets[column[row]].tolist() == indices + padding, w


def test_kernel_keys_cannot_overflow_with_blocks_near_twenty_positions():
    # one query with blocks of 18, 19, 20 and 21 positions in S_21, whose
    # 210 comparisons take four words: every mask holds each of its
    # column's k(k-1)/2 comparisons once, none lost past bit 62
    rng = random.Random(2021)
    host = context("A", 21)
    rows = []
    for _ in range(3):
        values = list(range(1, 22))
        rng.shuffle(values)
        rows.append(values)
    pats = []
    for k in (18, 19, 20, 21):
        keep = sorted(rng.sample(range(21), k))
        inside = relative_order([rows[k % 3][i] for i in keep])
        pats += [Element(v, context("A", k)) for v in [inside] + _neighbours(inside)[:2]]
    entries = tuple(_bp_entry(host, v) for v in pats)
    query = _query(entries)
    assert query.powers.shape == (210, 4)
    sizes, words, _ = _plan_shapes(query)
    assert dict(zip(sizes.tolist(), words.tolist())) == {18: 4, 19: 4, 20: 4, 21: 4}
    k = sizes[query.pair_columns[:-1]]
    assert np.array_equal(np.bitwise_count(query.masks[:, :-1]).sum(axis=0), k * (k - 1) // 2)
    assert not (query.values & ~query.masks).any()
    windows = np.array(rows + [list(range(1, 22))], dtype=np.int16)
    best, _ = _assert_kernel_equals_oracle(entries, windows)
    for row, values in enumerate(windows.tolist()):
        w = Element(tuple(values), host)
        hits = [i for i, v in enumerate(pats) if oracle_bp_contains(w, v) is not None]
        assert best[row] == (hits[0] if hits else len(pats)), w
    assert (best[:3] < len(pats)).all()


def _top_word_decoy(values, keep):
    """The flattening of `values` (a window of S_21) at the 0-based
    positions `keep`, and the same with the values r, r + 1 exchanged for
    the least r whose two positions are both among the last seven; or None
    if there is no such r.  The exchange changes one comparison, of two of
    the last seven positions: one of the 21 pairs that S_21's top word
    holds (bits 189 to 209 of 210)."""
    inside = relative_order([values[i] for i in keep])
    at = {x: keep[a] for a, x in enumerate(inside)}
    r = next((r for r in range(1, len(inside)) if min(at[r], at[r + 1]) >= 14), None)
    if r is None:
        return None
    swap = {r: r + 1, r + 1: r}
    return inside, tuple(swap.get(x, x) for x in inside)


def test_kernel_compares_the_top_code_word():
    # Each row's first listed patterns are its flattenings at 21 and at 19
    # positions with one comparison changed in the top word: at its own
    # column the row matches them in words 0 to 2 and not in word 3.  The
    # row's true flattenings come later, so a kernel that compared only
    # the low words would report a changed pattern as the first match.
    rng = random.Random(1921)
    host = context("A", 21)
    rows, decoys, pats, columns = [], [], [], []
    while len(rows) < 3:
        values = list(range(1, 22))
        rng.shuffle(values)
        keep = sorted(rng.sample(range(21), 19))
        found = [_top_word_decoy(values, list(range(21))), _top_word_decoy(values, keep)]
        if None in found:
            continue
        rows.append(values)
        for (inside, decoy), where in zip(found, (range(21), keep)):
            decoys.append(Element(decoy, context("A", len(decoy))))
            pats.append(Element(inside, context("A", len(inside))))
            columns.append([i + 1 for i in where])
    pats = decoys + pats
    entries = tuple(_bp_entry(host, v) for v in pats)
    query = _query(entries)
    sizes, words, _ = _plan_shapes(query)
    assert dict(zip(sizes.tolist(), words.tolist())) == {19: 4, 21: 4}
    windows = np.array(rows, dtype=np.int16)
    i, j = query.upper
    row_words = (windows[:, i] > windows[:, j]).astype(np.int64) @ query.powers
    sets = query.sets.tolist()
    for d, where in enumerate(columns):
        column = sets.index(where + [0] * (21 - len(where)))
        # the decoy's pair, or its diagram flip's, at the row's own column
        pairs = np.flatnonzero((query.pair_owners == d) & (query.pair_columns == column))
        agree = (row_words[d // 2, :, None] & query.masks[:, pairs]) == query.values[:, pairs]
        assert [True, True, True, False] in agree.T.tolist(), d
    best, _ = _assert_kernel_equals_oracle(entries, windows)
    for row, values in enumerate(rows):
        w = Element(tuple(values), host)
        hits = [i for i, v in enumerate(pats) if oracle_bp_contains(w, v) is not None]
        assert hits[0] >= len(decoys), w
        assert best[row] == hits[0], w


def test_bp_kind_is_read_off_the_two_families():
    assert _bp_kind("A", "A") == "A-in-A"
    assert _bp_kind("B", "A") == "A-in-B"
    assert _bp_kind("B", "B") == "B-in-B"
    assert _bp_kind("A", "B") is None
    for host in (A5, B3):
        for v in condition5_patterns():
            entry = _bp_entry(host, v)
            assert _bp_kind(host.family, v.ctx.family) == (entry and entry[0])


def test_relative_order_basics():
    assert relative_order((5, 2, 7, 4)) == (3, 1, 4, 2)
    assert relative_order((1,)) == (1,)
