import math
import random
from collections import deque
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hultman import bruhat
from hultman.bruhat import (
    bruhat_graph,
    bruhat_leq,
    coessential_boxes,
    directed_distances_to,
    element_rows,
    group_rank_grids,
    group_absolute_lengths,
    interval_size,
    symmetry_rows,
    window_rank,
)
from hultman.classify import classify
from hultman.groups import (
    Element,
    GroupContext,
    absolute_length,
    compose_windows,
    context,
    coxeter_length,
    invert_window,
    parse_element,
)
from oracles import (
    absolute_lengths_by_lookup,
    bruhat_leq_full,
    distance_witnesses,
    undirected_distance,
    window_rank_grid,
)

A4 = context("A", 4)
A5 = context("A", 5)
B2 = context("B", 2)
B3 = context("B", 3)
B4 = context("B", 4)


def test_rank_grid_paper_values():
    assert window_rank_grid(parse_element("35142", A5).window)[2][1] == 2
    assert window_rank_grid(parse_element("13254", A5).window)[2][1] == 1
    assert window_rank_grid(parse_element("426153", B3).window)[2][1] == 1


def test_rank_grid_identity_closed_form():
    grid = window_rank_grid(A5.identity.window)
    for p in range(1, 6):
        for q in range(1, 6):
            assert grid[p - 1][q - 1] == max(0, q - p + 1)


def test_rank_grid_first_row_and_lower_bound():
    for w in A4.elements:
        grid = window_rank_grid(w.window)
        assert all(grid[0][q - 1] == q for q in range(1, 5))
        assert all(
            grid[p - 1][q - 1] >= max(0, q - p + 1)
            for p in range(1, 5)
            for q in range(1, 5)
        )


@given(st.sampled_from(list(B3.elements)))
@settings(max_examples=48)
def test_rank_grid_type_b_symmetry(w):
    n = 3
    grid = window_rank_grid(w.window)
    for p in range(2, 2 * n + 1):
        for q in range(1, 2 * n):
            lhs = grid[2 * n + 2 - p - 1][2 * n - q - 1]
            assert lhs == p - q - 1 + grid[p - 1][q - 1]


def test_bruhat_leq_examples():
    assert bruhat_leq(parse_element("13254", A5), parse_element("35142", A5))
    for w in A4.elements:
        assert bruhat_leq(A4.identity, w)
    A9 = context("A", 9)
    assert not bruhat_leq(
        parse_element("168523479", A9), parse_element("819372564", A9)
    )


@pytest.mark.parametrize("ctx", [A5, B3])
def test_fast_path_equals_full_tableau(ctx):
    els = ctx.elements
    for u in els:
        for w in els:
            assert bruhat_leq(u, w) == bruhat_leq_full(u, w)


@pytest.mark.parametrize("ctx", [A4, B3])
def test_group_rank_grids_are_stored_by_cell(ctx):
    # the table is (N, N, order): each cell's ranks over the group are one
    # contiguous row, the layout box_mask and the condition 3 kernel read
    grids = group_rank_grids(ctx)
    assert grids.shape == (ctx.degree, ctx.degree, ctx.order)
    assert grids.dtype == np.int8
    assert not grids.flags.writeable and grids.flags.c_contiguous
    for i, e in enumerate(ctx.elements):
        assert grids[:, :, i].tolist() == [list(row) for row in window_rank_grid(e.window)]


@pytest.mark.parametrize("ctx", [A4, B3, context("A", 7)], ids=lambda c: c.name)
def test_rank_blocks_are_the_table_in_runs_of_rows(ctx, monkeypatch):
    # any window array has its rank block, equal to the table's columns of
    # its rows, and rank_blocks cuts the rows into runs in order, each block
    # computed from the windows even once the group's table is built
    grids = group_rank_grids(ctx)
    rows = random.Random(ctx.order).sample(range(ctx.order), min(ctx.order, 300))
    block = bruhat.rank_block(ctx.window_matrix[rows])
    assert block.flags.c_contiguous and block.dtype == np.int8
    assert np.array_equal(block, grids[:, :, rows])
    monkeypatch.setattr(bruhat, "RANK_BLOCK_ROWS", 7)
    blocks = list(bruhat.rank_blocks(ctx.window_matrix))
    assert [b.shape[2] for b in blocks[:-1]] == [7] * (len(blocks) - 1)
    assert not any(np.shares_memory(b, grids) for b in blocks)
    assert np.array_equal(np.concatenate(blocks, axis=2), grids)
    blocks = list(bruhat.rank_blocks(ctx.window_matrix[rows]))
    assert np.array_equal(np.concatenate(blocks, axis=2), grids[:, :, rows])


def test_interval_sizes():
    assert interval_size(A4.identity) == 1
    assert interval_size(parse_element("4231", A4)) == 20
    assert interval_size(parse_element("3412", A4)) == 14


def test_graph_shapes():
    assert bruhat_graph(context("A", 2)).edge_count == 1
    assert bruhat_graph(context("A", 3)).edge_count == 9
    assert bruhat_graph(B2).edge_count == 16
    assert bruhat_graph(context("A", 1)).down.shape == (1, 0)


def _down_lists(g):
    """Down-neighbours of each row, read from `down` without the sentinel."""
    order = len(g.lengths)
    return [[j for j in row if j < order] for row in g.down.tolist()]


def _up_lists(g):
    """Up-neighbours derived from `down`: j lies above i when i lies below j."""
    up = [[] for _ in g.lengths]
    for j, downs in enumerate(_down_lists(g)):
        for i in downs:
            up[i].append(j)
    return up


@lru_cache(maxsize=None)
def _compose_up_lists(ctx):
    """Up-neighbours of each row, built element by element with
    compose_windows and a window -> row dict, in reflection order."""
    index = {e.window: i for i, e in enumerate(ctx.elements)}
    lengths = [coxeter_length(e) for e in ctx.elements]
    up = []
    for i, e in enumerate(ctx.elements):
        rows = [index[compose_windows(e.window, t.window)] for t in ctx.reflections]
        up.append([j for j in rows if lengths[j] > lengths[i]])
    return up


def _compose_down_lists(ctx):
    """Down-neighbours of each row in increasing order, from the
    compose_windows up-lists."""
    down = [[] for _ in range(ctx.order)]
    for i, ups in enumerate(_compose_up_lists(ctx)):
        for j in ups:
            down[j].append(i)
    return down


def oracle_directed_distances_to(ctx, row):
    """Pure-Python list sweep over the compose_windows up-lists: every row
    below the target row, in decreasing order, is one more than its nearest
    up-neighbour."""
    up = _compose_up_lists(ctx)
    dist = [math.inf] * ctx.order
    dist[row] = 0
    for i in reversed(range(row)):
        dist[i] = 1 + min((dist[j] for j in up[i]), default=math.inf)
    return dist


SMALL_GROUPS = [context("A", n) for n in range(1, 7)] + [
    context("B", n) for n in range(1, 5)
]


@pytest.mark.parametrize("ctx", SMALL_GROUPS, ids=lambda c: c.name)
def test_down_is_the_compose_windows_construction(ctx):
    # the generator maps and their conjugates give the same graph as one
    # compose_windows product per element and reflection
    g = bruhat_graph(ctx)
    assert g.down.shape == (ctx.order, len(ctx.reflections))
    assert not g.down.flags.writeable and not g.lengths.flags.writeable
    assert _down_lists(g) == _compose_down_lists(ctx)
    assert g.lengths.tolist() == [coxeter_length(e) for e in ctx.elements]


@pytest.mark.parametrize(
    "ctx", SMALL_GROUPS + [context("A", 7), context("B", 5)], ids=lambda c: c.name
)
def test_down_rows_are_sorted_and_hold_one_entry_per_length(ctx):
    # exactly l(u) reflections lower u, and the sentinel N sorts last
    g = bruhat_graph(ctx)
    down = g.down
    assert (np.diff(down, axis=1) >= 0).all()
    assert np.array_equal((down < ctx.order).sum(axis=1), ctx.lengths)
    assert g.edge_count == int(ctx.lengths.sum())


@pytest.mark.parametrize("ctx", SMALL_GROUPS, ids=lambda c: c.name)
def test_generator_rows_are_the_right_multiplication_maps(ctx):
    # (u t)(i) = u(t(i)): u's window with its columns permuted by t, for
    # every reflection t, generators and conjugates alike
    g = bruhat_graph(ctx)
    assert g.reflection_rows.shape == (len(ctx.reflections), ctx.order)
    assert not g.reflection_rows.flags.writeable
    for k, t in enumerate(ctx.reflections):
        products = ctx.window_matrix[:, np.array(t.window) - 1]
        assert g.reflection_rows[k].tolist() == element_rows(ctx, products).tolist()


@pytest.mark.parametrize("ctx", SMALL_GROUPS, ids=lambda c: c.name)
def test_interval_absolute_lengths_equal_the_lookup_oracle(ctx):
    g = bruhat_graph(ctx)
    for row in range(ctx.order):
        rows, _, l_t = bruhat.interval_distances(g, row)
        assert l_t.tolist() == absolute_lengths_by_lookup(ctx, row, rows).tolist()


@pytest.mark.parametrize("family, rank, count", [("A", 7, 100), ("B", 5, 100), ("B", 6, 12)])
def test_interval_absolute_lengths_equal_the_lookup_oracle_on_a_sample(family, rank, count):
    ctx = context(family, rank)
    g = bruhat_graph(ctx)
    # the longest element's interval is the whole group
    for row in random.Random(29).sample(range(ctx.order), count) + [ctx.order - 1]:
        rows, _, l_t = bruhat.interval_distances(g, row)
        assert l_t.tolist() == absolute_lengths_by_lookup(ctx, row, rows).tolist()


@pytest.mark.parametrize("ctx", [A5, B4])
def test_element_rows_maps_each_window_to_its_row(ctx):
    rows = element_rows(ctx, ctx.window_matrix)
    assert rows.tolist() == list(range(ctx.order))
    for i, e in enumerate(ctx.elements):
        assert element_rows(ctx, e.window).tolist() == [i]


@pytest.mark.parametrize(
    "ctx",
    [context("A", n) for n in range(1, 7)] + [context("B", n) for n in range(1, 5)],
    ids=lambda c: c.name,
)
def test_one_window_lookup_equals_the_array_path(ctx):
    # a tuple is keyed in Python and found by one scalar search; a list or
    # an array goes through the block kernel
    rows = element_rows(ctx, ctx.window_matrix)
    for window, row in zip(ctx.window_matrix.tolist(), rows.tolist()):
        assert element_rows(ctx, tuple(window)).tolist() == [row]
        assert element_rows(ctx, window).tolist() == [row]


def test_element_rows_rejects_windows_outside_the_group():
    # one window as a tuple (keyed in Python) and as an array (the kernel)
    for one in (tuple, np.array):
        with pytest.raises(ValueError, match="not a window of B_2"):
            element_rows(B2, one((2, 1, 3, 4)))  # in S_4, not centrally symmetric
        with pytest.raises(ValueError, match="not a window of B_2"):
            element_rows(B2, one((1, 2, 3)))  # too short
        with pytest.raises(ValueError, match="not a window of B_2"):
            element_rows(B2, one((1, 2, 3, 4, 5)))  # too long
        with pytest.raises(ValueError, match="not a window of B_2"):
            element_rows(B2, one((1, 2, 3, 5)))  # an entry above the degree
        with pytest.raises(ValueError, match="not a window of S_2"):
            # digits (2, -1) in radix 3 pack to the key of (1, 2)
            element_rows(context("A", 2), one((2, -1)))
        with pytest.raises(ValueError, match="not a window of S_2"):
            element_rows(context("A", 2), one((0, 5)))  # packs to the key of (1, 2)
        ctx = GroupContext("A", 16)  # never enumerated: the key check comes first
        with pytest.raises(ValueError, match="int64 key"):
            element_rows(ctx, one(tuple(range(1, 17))))
        assert "_enumeration" not in vars(ctx)
    with pytest.raises(ValueError):
        element_rows(B2, [(1, 2, 3, 4), (1, 2, 3, 5)])


@pytest.mark.parametrize(
    "ctx",
    [A5, B4]
    + [pytest.param(c, id=c.name) for c in SMALL_GROUPS if c not in (A5, B4)],
)
def test_sweep_equals_the_list_sweep_oracle(ctx):
    g = bruhat_graph(ctx)
    for row in range(ctx.order):
        assert directed_distances_to(g, row).tolist() == oracle_directed_distances_to(ctx, row)


@pytest.mark.parametrize("family, rank", [("A", 7), ("B", 5)])
def test_sweep_equals_the_list_sweep_oracle_on_a_sample(family, rank):
    ctx = context(family, rank)
    g = bruhat_graph(ctx)
    rng = random.Random(13)
    # the longest element's interval is the whole group
    for row in rng.sample(range(ctx.order), 12) + [ctx.order - 1]:
        assert directed_distances_to(g, row).tolist() == oracle_directed_distances_to(ctx, row)


def test_graph_degree_sum_is_reflection_count():
    g = bruhat_graph(B3)
    up, down = _up_lists(g), _down_lists(g)
    refl = len(B3.reflections)
    for i in range(B3.order):
        assert len(up[i]) + len(down[i]) == refl


def test_graph_edges_increase_length():
    g = bruhat_graph(B3)
    for i, ups in enumerate(_up_lists(g)):
        for j in ups:
            assert g.lengths[j] > g.lengths[i]


def _directed_bfs(up, start):
    """Forward BFS oracle for l_D over up-lists."""
    dist = [math.inf] * len(up)
    dist[start] = 0
    queue = deque([start])
    while queue:
        i = queue.popleft()
        for j in up[i]:
            if math.isinf(dist[j]) or dist[j] > dist[i] + 1:
                dist[j] = dist[i] + 1
                queue.append(j)
    return dist


def _undirected_bfs(g, start):
    up, down = _up_lists(g), _down_lists(g)
    dist = [math.inf] * len(up)
    dist[start] = 0
    queue = deque([start])
    while queue:
        i = queue.popleft()
        for j in up[i] + down[i]:
            if math.isinf(dist[j]):
                dist[j] = dist[i] + 1
                queue.append(j)
    return dist


@pytest.mark.parametrize("ctx", [A4, B3])
def test_directed_distance_against_bfs(ctx):
    g = bruhat_graph(ctx)
    up = _up_lists(g)
    bfs_from_0 = _directed_bfs(up, 0)
    for target in range(ctx.order):
        assert directed_distances_to(g, target)[0] == bfs_from_0[target]
    # and a full cross-check from a fixed start
    start = 1
    bfs = _directed_bfs(up, start)
    for target in range(ctx.order):
        assert directed_distances_to(g, target)[start] == bfs[target]


def test_distance_examples():
    g = bruhat_graph(A4)
    w = parse_element("4231", A4)
    u = parse_element("1324", A4)
    dist = directed_distances_to(g, A4.elements.index(w))
    assert dist[A4.elements.index(w)] == 0
    assert dist[A4.elements.index(u)] == 4
    assert undirected_distance(u, w) == 2
    assert undirected_distance(u, u) == 0
    wb = parse_element("426153", B3)
    ub = parse_element("132546", B3)
    dist = directed_distances_to(bruhat_graph(B3), B3.elements.index(wb))
    assert dist[B3.elements.index(ub)] == 4
    assert undirected_distance(ub, wb) == 2


@pytest.mark.parametrize("ctx", [A5, B3])
def test_dyer_distance_from_identity(ctx):
    g = bruhat_graph(ctx)
    assert ctx.elements[0] == ctx.identity
    for row, w in enumerate(ctx.elements):
        ld = directed_distances_to(g, row)[0]
        assert ld == undirected_distance(ctx.identity, w) == absolute_length(w)


@pytest.mark.parametrize("ctx", [A4, B3])
def test_undirected_distance_is_bfs_distance(ctx):
    g = bruhat_graph(ctx)
    for i, u in enumerate(ctx.elements):
        bfs = _undirected_bfs(g, i)
        for j, w in enumerate(ctx.elements):
            assert undirected_distance(u, w) == bfs[j]


@pytest.mark.parametrize("ctx", [A4, B3])
def test_distance_inequality_and_parity(ctx):
    g = bruhat_graph(ctx)
    for j, w in enumerate(ctx.elements):
        dist = directed_distances_to(g, j)
        for i, u in enumerate(ctx.elements):
            lt = undirected_distance(u, w)
            assert lt <= dist[i]
            if not math.isinf(dist[i]):
                assert (dist[i] - (g.lengths[j] - g.lengths[i])) % 2 == 0


@pytest.mark.parametrize("ctx", [A4, B3])
def test_restricted_sweep_is_infinite_exactly_off_the_interval(ctx):
    g = bruhat_graph(ctx)
    for j, w in enumerate(ctx.elements):
        dist = directed_distances_to(g, j)
        for i, u in enumerate(ctx.elements):
            assert math.isinf(dist[i]) == (not bruhat_leq(u, w))


@pytest.mark.parametrize("ctx", [A4, B3])
def test_distance_witnesses_against_bfs(ctx):
    up = _compose_up_lists(ctx)
    l_d = [_directed_bfs(up, i) for i in range(ctx.order)]
    g = bruhat_graph(ctx)
    for j, w in enumerate(ctx.elements):
        expected = [
            (u, l_d[i][j], undirected_distance(u, w))
            for i, u in enumerate(ctx.elements)
            if bruhat_leq_full(u, w) and l_d[i][j] != undirected_distance(u, w)
        ]
        assert list(distance_witnesses(w, g)) == expected


def test_hultman_examples():
    g = bruhat_graph(A4)
    assert next(distance_witnesses(A4.identity, g), None) is None
    witness = next(distance_witnesses(parse_element("4231", A4), g), None)
    assert str(witness[0]) == "1324"  # minimal-length witness
    assert next(distance_witnesses(parse_element("3412", A4), g), None) is None


def test_distance_calls_reject_an_element_of_another_group():
    g = bruhat_graph(B2)
    for text in ("4231", "2143"):  # both are also windows of B_2
        w = parse_element(text, A4)
        with pytest.raises(ValueError):
            classify(w, (2,), graph=g)
        with pytest.raises(ValueError):
            distance_witnesses(w, g)


def _shifted(values, shift):
    """values + shift, wherever that is finite and not negative."""
    ok = np.isfinite(values) & (values + shift >= 0)
    return np.where(ok, values + shift, values)


@pytest.mark.parametrize(
    "sweep_shift, lt_shift",
    [
        (-2, 0),  # l_D < l_T, parities intact
        (0, -1),  # l_D > l_T, but of the other parity
        (1, 1),  # l_D and l_T agree, but off the parity of l(w) - l(u)
    ],
)
def test_distance_invariants_raise(monkeypatch, sweep_shift, lt_shift):
    sweep = bruhat.directed_distances_to
    absolute = bruhat.group_absolute_lengths
    monkeypatch.setattr(
        bruhat, "directed_distances_to", lambda g, row: _shifted(sweep(g, row), sweep_shift)
    )
    monkeypatch.setattr(
        bruhat, "group_absolute_lengths", lambda ctx: _shifted(absolute(ctx), lt_shift)
    )
    with pytest.raises(ArithmeticError):
        bruhat.interval_distances(bruhat_graph(A4), A4.order - 1)  # w_0


def _cover_reachable(up, lengths, start):
    """Indices reachable from start through covers (length steps of 1)."""
    reach = {start}
    queue = deque([start])
    while queue:
        i = queue.popleft()
        for j in up[i]:
            if lengths[j] == lengths[i] + 1 and j not in reach:
                reach.add(j)
                queue.append(j)
    return reach


@pytest.mark.parametrize("ctx", [A4, B3])
def test_order_is_transitive_closure_of_covers(ctx):
    g = bruhat_graph(ctx)
    up = _up_lists(g)
    for i, u in enumerate(ctx.elements):
        reach = _cover_reachable(up, g.lengths, i)
        for j, w in enumerate(ctx.elements):
            assert bruhat_leq(u, w) == (j in reach)


def test_type_b_order_is_induced_from_ambient():
    # the window-level test never looks at the family, so the B_n order is
    # literally the S_{2n} comparison of embedded windows
    A6 = context("A", 6)
    for u in B3.elements:
        for w in B3.elements:
            ua = Element(u.window, A6)
            wa = Element(w.window, A6)
            assert bruhat_leq(u, w) == bruhat_leq(ua, wa)


def test_coessential_box_ranks_match_grid():
    # the ranks come from a running bitmask, checked here against the grid
    for ctx in (B3, context("B", 4), context("A", 6)):
        for w in ctx.elements:
            grid = window_rank_grid(w.window)
            for p, q, r in coessential_boxes(w.window):
                assert grid[p - 1][q - 1] == r == window_rank(w.window, p, q)


@pytest.mark.parametrize("ctx", SMALL_GROUPS, ids=lambda c: c.name)
def test_symmetry_rows_are_bruhat_graph_automorphisms(ctx):
    maps = symmetry_rows(ctx)
    assert len(maps) == (3 if ctx.family == "A" else 1)
    graph = bruhat_graph(ctx)
    order = ctx.order
    source, k = np.nonzero(graph.down < order)
    target = graph.down[source, k]
    # an edge (u, v) as the single integer u * order + v
    edges = np.sort(source.astype(np.int64) * order + target)
    for phi in maps:
        assert np.array_equal(phi[phi], np.arange(order))
        assert np.array_equal(ctx.lengths[phi], ctx.lengths)
        lt = group_absolute_lengths(ctx)
        assert np.array_equal(lt[phi], lt)
        images = np.sort(phi[source].astype(np.int64) * order + phi[target])
        assert np.array_equal(images, edges)
    if ctx.family == "A":
        inverse, conjugate, both = maps
        assert np.array_equal(inverse[conjugate], both)
        assert np.array_equal(conjugate[inverse], both)


@pytest.mark.parametrize("ctx", [A4, B3])
def test_symmetry_rows_are_inversion_and_conjugation_by_w0(ctx):
    w0 = ctx.longest_element.window
    for row, w in enumerate(ctx.elements):
        images = [ctx.elements[int(phi[row])].window for phi in symmetry_rows(ctx)]
        conjugate = compose_windows(w0, compose_windows(w.window, w0))
        inverse = invert_window(w.window)
        if ctx.family == "A":
            assert images == [
                inverse, conjugate, compose_windows(w0, compose_windows(inverse, w0))
            ]
        else:
            assert conjugate == w.window  # w_0 is central in type B
            assert images == [inverse]
