import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hultman import groups
from hultman.bruhat import bruhat_graph, group_absolute_lengths
from hultman.groups import (
    Element,
    GroupContext,
    absolute_length,
    absolute_lengths,
    compose,
    context,
    coxeter_length,
    coxeter_lengths,
    element_from_signed,
    format_window,
    inverse,
    is_bijective_window,
    is_type_b_window,
    parse_element,
    signed_window,
)
from oracles import format_signed, oracle_enumeration

A4 = context("A", 4)
B2 = context("B", 2)
B3 = context("B", 3)
B5 = context("B", 5)


# --- oracles: the per-element length formulas, one element at a time --------


def _inversions(seq):
    return sum(1 for a, b in itertools.combinations(seq, 2) if a > b)


def oracle_coxeter_length(w):
    """Type A: the inversion count.  Type B: the signed-window formula
    inv(σ) + Σ_{σ(i)<0} |σ(i)|, which differs from the S_{2n} inversion
    count of the embedded window."""
    if w.ctx.family == "A":
        return _inversions(w.window)
    sigma = signed_window(w)
    return _inversions(sigma) + sum(-s for s in sigma if s < 0)


def window_cycles(window):
    """Disjoint cycles (fixed points included), each starting at its least
    point, sorted by least point."""
    n = len(window)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = window[i - 1]
        cycles.append(tuple(cyc))
    return cycles


def _canonical_cycle(cyc: Sequence[int]) -> tuple[int, ...]:
    k = cyc.index(min(cyc))
    return tuple(cyc[k:]) + tuple(cyc[:k])


@dataclass(frozen=True)
class CycleUnit:
    """A cycle of the embedded window paired with its mirror w_0 c w_0.

    A self-mirrored cycle is an odd unit; a pair of distinct mirrored
    cycles is an even unit.  A trivial unit is a mirror pair of fixed
    points.
    """

    cycles: tuple[tuple[int, ...], ...]
    parity: str  # "even" or "odd"
    trivial: bool


@dataclass(frozen=True)
class CyclePairing:
    units: tuple[CycleUnit, ...]

    @property
    def even_count(self) -> int:
        return sum(1 for u in self.units if u.parity == "even")


def cycle_pairing(w):
    """Mirror-paired cycle decomposition of a type B element.

    Reflection length in B_n is n minus the number of even units.
    """
    n2 = w.degree

    def mirror(c):
        return _canonical_cycle([n2 + 1 - i for i in c])

    remaining = {c: c for c in window_cycles(w.window)}
    units = []
    for cyc in sorted(remaining):
        if cyc not in remaining:
            continue
        mir = mirror(cyc)
        if mir == cyc:
            del remaining[cyc]
            units.append(CycleUnit((cyc,), "odd", False))
        else:
            del remaining[cyc]
            del remaining[mir]
            trivial = len(cyc) == 1
            units.append(CycleUnit((cyc, mir), "even", trivial))
    return CyclePairing(tuple(units))


def oracle_absolute_length(w):
    """Reflection length: n - cyc(w) in type A, n - ecyc(w) in type B."""
    if w.ctx.family == "A":
        return w.degree - len(window_cycles(w.window))
    return w.ctx.rank - cycle_pairing(w).even_count


ORACLE_GROUPS = [context("A", n) for n in range(1, 8)] + [
    context("B", n) for n in range(1, 6)
]


def _group_id(ctx):
    return ctx.name


def _all_windows(ctx):
    """Every window of the group, built without its enumeration."""
    if ctx.family == "A":
        return list(itertools.permutations(range(1, ctx.rank + 1)))
    return [
        element_from_signed([s * v for s, v in zip(signs, perm)], ctx.rank).window
        for perm in itertools.permutations(range(1, ctx.rank + 1))
        for signs in itertools.product((1, -1), repeat=ctx.rank)
    ]


@pytest.mark.parametrize("ctx", ORACLE_GROUPS, ids=_group_id)
def test_length_kernels_equal_the_oracles(ctx):
    windows = _all_windows(ctx)
    elements = [Element(win, ctx) for win in windows]
    assert coxeter_lengths(windows, ctx.family).tolist() == [
        oracle_coxeter_length(w) for w in elements
    ]
    assert absolute_lengths(windows, ctx.family).tolist() == [
        oracle_absolute_length(w) for w in elements
    ]


@pytest.mark.parametrize("ctx", ORACLE_GROUPS, ids=_group_id)
def test_enumeration_follows_the_oracle_lengths(ctx):
    length = {win: oracle_coxeter_length(Element(win, ctx)) for win in _all_windows(ctx)}
    graded = sorted(length, key=lambda win: (length[win], win))
    assert [w.window for w in ctx.elements] == graded
    assert ctx.window_matrix.dtype == np.int8
    assert ctx.window_matrix.tolist() == [list(win) for win in graded]
    oracle = [length[win] for win in graded]
    assert ctx.lengths.tolist() == oracle
    assert bruhat_graph(ctx).lengths.tolist() == oracle
    assert group_absolute_lengths(ctx).tolist() == [
        oracle_absolute_length(w) for w in ctx.elements
    ]
    assert not ctx.window_matrix.flags.writeable and not ctx.lengths.flags.writeable


@pytest.mark.parametrize(
    "family, rank", [("A", n) for n in range(1, 9)] + [("B", n) for n in range(1, 7)]
)
def test_window_matrix_is_the_oracle_enumeration(family, rank):
    # a fresh context, so the Elements built here are dropped after the test
    ctx = GroupContext(family, rank)
    windows, lengths = oracle_enumeration(family, rank)
    assert ctx.window_matrix.shape == (ctx.order, ctx.degree)
    assert ctx.window_matrix.tobytes() == np.array(windows, dtype=np.int8).tobytes()
    assert ctx.lengths.dtype == np.int64
    assert ctx.lengths.tobytes() == np.array(lengths, dtype=np.int64).tobytes()
    assert "elements" not in vars(ctx)
    assert [ctx.element(i) for i in range(ctx.order)] == list(ctx.elements)
    for i, w in enumerate(ctx.elements):
        assert w.window == tuple(ctx.window_matrix[i])
    assert ctx.element(np.int64(ctx.order - 1)) == ctx.elements[-1]


@pytest.mark.parametrize(
    "family, rank", [("A", n) for n in range(1, 8)] + [("B", n) for n in range(1, 6)]
)
def test_every_row_is_a_window_of_the_group(family, rank):
    # ctx.element and ctx.elements build rows without Element's checks, so
    # the enumeration itself must pass them
    ctx = context(family, rank)
    for window in ctx.window_matrix.tolist():
        assert is_bijective_window(window), window
        if family == "B":
            assert is_type_b_window(window, rank), window
    w = ctx.element(ctx.order - 1)
    assert w == Element(w.window, ctx) and hash(w) == hash(Element(w.window, ctx))


def test_parse_digit_text():
    w = parse_element("3517294a68", B5)
    assert w.window == (3, 5, 1, 7, 2, 9, 4, 10, 6, 8)
    assert str(w) == "3517294a68"


def test_parse_identity():
    assert parse_element("1234", A4) == A4.identity
    assert parse_element("123456", B3) == B3.identity


def test_parse_rejects_non_bijection():
    with pytest.raises(ValueError):
        parse_element("4232", A4)


def test_parse_rejects_wrong_length():
    with pytest.raises(ValueError):
        parse_element("321", A4)


def test_parse_rejects_broken_symmetry():
    with pytest.raises(ValueError):
        parse_element("124365", B3)


def test_parse_signed_window():
    w = parse_element("-3,2,-1", B3)
    assert str(w) == "426153"
    assert format_signed(w) == "-3,2,-1"


def test_signed_window_rejects_type_a():
    with pytest.raises(ValueError):
        parse_element("-1,2", context("A", 2))


def test_compose_identity_and_inverse():
    w = parse_element("3142", A4)
    assert compose(w, A4.identity) == w
    assert compose(w, inverse(w)) == A4.identity


def test_compose_applies_right_factor_first():
    u = parse_element("4231", A4)
    v = parse_element("2143", A4)
    assert str(compose(u, v)) == "2413"


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(A4.identity, B3.identity)


def test_lengths():
    assert coxeter_length(A4.identity) == 0
    assert coxeter_length(parse_element("4231", A4)) == 5
    assert coxeter_length(parse_element("426153", B3)) == 5


@pytest.mark.parametrize("rank", [2, 3])
def test_longest_element_length_is_rank_squared(rank):
    ctx = context("B", rank)
    w0 = ctx.longest_element
    assert coxeter_length(w0) == rank**2
    # brute-force reduced-word search: BFS over the Cayley graph
    frontier = {ctx.identity.window}
    seen = {ctx.identity.window: 0}
    depth = 0
    while w0.window not in seen:
        depth += 1
        nxt = set()
        for win in frontier:
            el = Element(win, ctx)
            for s in ctx.generators:
                new = compose(el, s).window
                if new not in seen:
                    seen[new] = depth
                    nxt.add(new)
        frontier = nxt
    assert seen[w0.window] == rank**2


def test_generator_windows():
    assert [str(g) for g in A4.generators] == ["2134", "1324", "1243"]
    # s_0 = (n n+1), s_i = (n-i n-i+1)(n+i n+i+1)
    assert [str(g) for g in B3.generators] == ["124356", "132546", "213465"]


@pytest.mark.parametrize(
    "ctx,count",
    [(A4, 6), (context("A", 6), 15), (B2, 4), (B3, 9), (context("B", 4), 16)],
)
def test_reflection_counts(ctx, count):
    assert len(ctx.reflections) == count


@pytest.mark.parametrize(
    "ctx", [A4, context("A", 6), B2, B3, context("B", 4)]
)
def test_length_counts_inversion_reflections(ctx):
    for w in ctx.elements:
        lw = coxeter_length(w)
        below = sum(
            1 for t in ctx.reflections if coxeter_length(compose(w, t)) < lw
        )
        assert below == lw


@pytest.mark.parametrize("ctx", [A4, B3])
def test_reflection_multiplication_changes_length_by_odd(ctx):
    for w in ctx.elements:
        lw = coxeter_length(w)
        for t in ctx.reflections:
            assert (coxeter_length(compose(w, t)) - lw) % 2 == 1


def test_type_b_membership():
    assert is_type_b_window((4, 2, 6, 1, 5, 3), 3)
    assert is_type_b_window((4, 2, 3, 1), 2)
    assert not is_type_b_window((1, 2, 4, 3), 2)


def test_cycle_pairing_identity():
    pairing = cycle_pairing(B3.identity)
    assert len(pairing.units) == 3
    assert all(u.parity == "even" and u.trivial for u in pairing.units)
    assert pairing.even_count == 3


def test_cycle_pairing_single_odd_unit():
    pairing = cycle_pairing(parse_element("362514", B3))
    assert [u.parity for u in pairing.units] == ["odd"]
    assert pairing.even_count == 0


def test_cycle_pairing_mirrored_even_unit():
    pairing = cycle_pairing(parse_element("2143", B2))
    (unit,) = pairing.units
    assert unit.parity == "even" and not unit.trivial
    assert set(unit.cycles) == {(1, 2), (3, 4)}


def test_absolute_length_values():
    assert absolute_length(A4.identity) == 0
    assert absolute_length(parse_element("4231", A4)) == 1
    assert absolute_length(parse_element("362514", B3)) == 3


def test_absolute_length_invariances():
    # l_T(w) = l_T(w^{-1}) and conjugation invariance, exhaustively on B_3
    for w in B3.elements:
        assert absolute_length(w) == absolute_length(inverse(w))
    gens = B3.generators
    for w in B3.elements:
        lt = absolute_length(w)
        for g in gens:
            conj = compose(g, compose(w, inverse(g)))
            assert absolute_length(conj) == lt


def test_odd_unit_moves_odd_count_across_center():
    # an odd unit sends an odd number of indices <= n to values > n
    for w in B3.elements:
        for unit in cycle_pairing(w).units:
            support = {i for cyc in unit.cycles for i in cyc}
            image = {}
            for cyc in unit.cycles:
                for k, i in enumerate(cyc):
                    image[i] = cyc[(k + 1) % len(cyc)]
            crossings = sum(1 for i in support if i <= 3 and image[i] > 3)
            assert (crossings % 2 == 1) == (unit.parity == "odd")


def test_signed_window_examples():
    assert signed_window(B3.identity) == (1, 2, 3)
    s0 = B3.generators[0]
    assert signed_window(s0) == (-1, 2, 3)
    assert signed_window(parse_element("426153", B3)) == (-3, 2, -1)


@given(
    perm=st.permutations(list(range(1, 5))),
    signs=st.lists(st.sampled_from([1, -1]), min_size=4, max_size=4),
)
@settings(max_examples=60)
def test_signed_window_roundtrip(perm, signs):
    sigma = tuple(s * v for s, v in zip(signs, perm))
    w = element_from_signed(sigma, 4)
    assert signed_window(w) == sigma
    assert element_from_signed(signed_window(w), 4) == w


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_embed_inverts_signed_window_exhaustively(rank):
    ctx = context("B", rank)
    for w in ctx.elements:
        assert element_from_signed(signed_window(w), rank) == w


@given(perm=st.permutations(list(range(1, 7))))
@settings(max_examples=40)
def test_format_parse_roundtrip(perm):
    ctx = context("A", 6)
    w = Element(tuple(perm), ctx)
    assert parse_element(format_window(w.window), ctx) == w


def test_the_enumeration_guard_counts_the_sort_as_well(monkeypatch):
    # growing and sorting a window matrix also holds its sorted copy, the
    # lengths and the sort's arrays: on an 8 GiB machine B_8 and S_11
    # may be enumerated, but not B_9, whose matrix alone would fit (S_12 is
    # a case of test_verify_on_a_group_too_large_to_enumerate_exits_2)
    class Enumerating(Exception):
        pass

    def allocation(*args, **kwargs):
        raise Enumerating

    monkeypatch.setattr(groups, "_memory_bytes", lambda: 8 * 2**30)
    monkeypatch.setattr(groups, "_children", allocation)
    for family, rank in (("B", 8), ("A", 11)):
        with pytest.raises(Enumerating):
            GroupContext(family, rank).window_matrix
    ctx = GroupContext("B", 9)
    assert ctx.order * ctx.degree < 8 * 2**30
    with pytest.raises(ValueError, match="too many to enumerate"):
        ctx.window_matrix


@pytest.mark.parametrize(
    "family, rank, conditions, fits",
    [
        ("B", 8, (1, 2, 3, 4, 5), False),
        ("B", 8, (1, 2), False),
        ("A", 11, (2,), False),
        ("B", 8, (3, 5), True),
        ("A", 11, (3, 5), True),
        ("B", 7, (1, 2, 3, 4, 5), True),
        ("A", 10, (1, 2, 3, 4, 5), True),
    ],
)
def test_the_table_guard_counts_conditions_1_and_2(monkeypatch, family, rank, conditions, fits):
    # on an 8 GiB machine B_8's rank table (2.46 GiB) and Bruhat graph
    # (4.92 GiB) do not fit beside its enumeration, nor S_11's graph
    # (16.4 GiB); B_7 and S_10 with every table do.  The check computes
    # nothing: it never enumerates
    def enumerate_group(ctx):
        pytest.fail(f"{ctx.name} began to enumerate")

    monkeypatch.setattr(groups, "_memory_bytes", lambda: 8 * 2**30)
    monkeypatch.setattr(GroupContext, "_enumeration", property(enumerate_group))
    ctx = GroupContext(family, rank)
    if fits:
        groups.check_memory(ctx, conditions)
    else:
        with pytest.raises(ValueError, match=f"the tables of condition.* on {ctx.name}"):
            groups.check_memory(ctx, conditions)


def test_the_table_guard_refuses_window_keys_wider_than_int64(monkeypatch):
    # with memory to spare, conditions 1 and 2 still read rows by int64
    # window keys, which degree-16 windows of B_8 do not fit; conditions 3,
    # 4 and 5 need no key
    def enumerate_group(ctx):
        pytest.fail(f"{ctx.name} began to enumerate")

    monkeypatch.setattr(groups, "_memory_bytes", lambda: 2**40)
    monkeypatch.setattr(GroupContext, "_enumeration", property(enumerate_group))
    ctx = GroupContext("B", 8)
    for conditions in ((1,), (2,)):
        with pytest.raises(ValueError, match="windows of degree 16 do not fit an int64 key"):
            groups.check_memory(ctx, conditions)
    groups.check_memory(ctx, (3, 4, 5))


def test_group_enumeration_sizes():
    assert len(A4.elements) == 24
    assert len(B2.elements) == 8
    assert len(B3.elements) == 48
    assert len(set(B3.elements)) == 48


def test_elements_graded_order():
    lengths = [coxeter_length(w) for w in B3.elements]
    assert lengths == sorted(lengths)


def test_b2_window_list():
    wins = {str(w) for w in B2.elements}
    assert wins == {"1234", "1324", "2143", "3142", "2413", "3412", "4231", "4321"}


def test_embedding_is_homomorphism():
    # composing embedded windows matches composing signed windows
    def signed_compose(a, b):
        out = []
        for k in range(len(a)):
            j = b[k]
            out.append(a[j - 1] if j > 0 else -a[-j - 1])
        return tuple(out)

    els = list(itertools.islice(B3.elements, 0, 48, 5))
    for u in els:
        for v in els:
            lhs = signed_window(compose(u, v))
            rhs = signed_compose(signed_window(u), signed_window(v))
            assert lhs == rhs
