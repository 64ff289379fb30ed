import random
from itertools import combinations, permutations
from math import factorial

import numpy as np
import pytest

from hultman.bruhat import bruhat_leq
from hultman.groups import Element, compose, context, element_from_signed, parse_element
from hultman.patterns import (
    CONDITION5_SPECS,
    ParabolicEmbedding,
    _codes,
    _greater,
    _pair_index,
    _plan,
    _weights,
    a_in_b_index_sets,
    avoids_condition5_list,
    b_in_b_index_sets,
    bp_contains,
    classical_contains,
    condition5_embedding,
    condition5_matches,
    condition5_patterns,
    dynkin_reverse,
    flatten,
    relative_order,
)
from oracles import embed_pattern, generator_images, inversion_reflections

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


def test_a_in_a_bp_equals_classical_with_flip():
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


def test_avoids_condition5_type_a_is_classical_avoidance():
    # the four type A patterns are closed under the diagram flip
    type_a = [v for v in condition5_patterns() if v.ctx.family == "A"]
    assert len(type_a) == 4
    for w in context("A", 6).elements:
        classical = all(classical_contains(w, v) is None for v in type_a)
        assert avoids_condition5_list(w)[0] == classical, w


def test_bp_containment_is_transitive_sampled():
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


def test_containment_matches_oracle_on_all_small_pairs():
    # hosts S_5 and B_3; patterns include the identity of A_1 (a code with
    # no bits), type B patterns in type A hosts, and patterns larger than
    # the host (S_4 in B_3 has no A-in-B embedding; B_3 has degree 6 > 5)
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
    # the last pair, and their Lehmer ranks by 1
    a12 = context("A", 12)
    w = parse_element("5b3916c2a487", a12)
    v = parse_element("5b3916c2a478", a12)
    assert classical_contains(w, v) is None
    assert classical_contains(w, w) == tuple(range(1, 13))


@pytest.mark.parametrize("k", range(1, 9))
def test_codes_of_all_windows_are_their_lehmer_ranks(k):
    # permutations come in lexicographic order, which is Lehmer rank order
    windows = np.array(list(permutations(range(1, k + 1))), dtype=np.int16)
    sets, (a, b) = _plan("A-in-A", k, k)
    codes = _codes(_greater(windows), _pair_index(sets, a, b, k), _weights(k))
    assert codes.dtype == np.int64 and codes.shape == (factorial(k), 1, 1)
    assert np.array_equal(codes[:, 0, 0], np.arange(factorial(k)))


def test_one_code_word_up_to_twenty_positions():
    assert [_weights(k).shape[1] for k in (1, 2, 19, 20, 21, 22, 40)] == [1, 1, 1, 1, 2, 2, 3]
    # every word's largest code, the sum of its place values times digit
    # ranges, stays below 2^63
    for k in (20, 21, 22, 40, 45, 64):
        top = [0] * _weights(k).shape[1]
        for (a, _), row in zip(combinations(range(k), 2), _weights(k).tolist()):
            for j, place in enumerate(row):
                top[j] += place
        assert max(top) < 2**63
    assert _weights(20)[:, 0].max() == factorial(19)


def _neighbours(v, mirrored=False):
    """Windows that differ from v in the order of one pair of adjacent
    values: the value at position 1 exchanged with the next larger or
    smaller one, and the same at the middle and the last position.  With
    `mirrored`, the mirror values are exchanged too, which keeps a type B
    window centrally symmetric.  The change at position 1 alters Lehmer
    digit 0, which has a code word of its own from 21 positions on."""
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


@pytest.mark.parametrize("k", [20, 21])
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
    # B_10 (20 positions, one code word) and B_11 (22, two) in B_11
    rng = random.Random(11)
    b11 = context("B", 11)
    hits = 0
    for _ in range(3):
        w = _random_signed(11, rng)
        for rank in (10, 11):
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
    assert 6 <= hits < 6 * 7


def _assert_matches_equal_per_element(ctx, rows):
    pattern, indices = condition5_matches(ctx)
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
        assert condition5_embedding(ctx, p, indices[row]) == matched
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
    pattern, indices = condition5_matches(ctx, ctx.window_matrix[rows])
    whole, whole_indices = condition5_matches(ctx)
    assert np.array_equal(pattern, whole[rows])
    assert np.array_equal(indices, whole_indices[rows])
    assert condition5_embedding(ctx, -1, indices[0]) is None


def test_relative_order_basics():
    assert relative_order((5, 2, 7, 4)) == (3, 1, 4, 2)
    assert relative_order((1,)) == (1,)
