import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hultman.bruhat import (
    bruhat_graph,
    bruhat_leq,
    bruhat_leq_full,
    coessential_boxes,
    directed_distance,
    directed_distances_to,
    distance_witnesses,
    group_rank_grids,
    interval_size,
    is_hultman,
    rank_grid,
    undirected_distance,
    window_rank,
)
from hultman.groups import (
    Element,
    absolute_length,
    compose,
    context,
    coxeter_length,
    parse_element,
)

A4 = context("A", 4)
A5 = context("A", 5)
B2 = context("B", 2)
B3 = context("B", 3)


def test_rank_grid_paper_values():
    assert rank_grid(parse_element("35142", A5))[2][1] == 2
    assert rank_grid(parse_element("13254", A5))[2][1] == 1
    assert rank_grid(parse_element("426153", B3))[2][1] == 1


def test_rank_grid_identity_closed_form():
    grid = rank_grid(A5.identity)
    for p in range(1, 6):
        for q in range(1, 6):
            assert grid[p - 1][q - 1] == max(0, q - p + 1)


def test_rank_grid_first_row_and_lower_bound():
    for w in A4.elements:
        grid = rank_grid(w)
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
    grid = rank_grid(w)
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
def test_group_rank_grids_are_the_flattened_grids(ctx):
    grids = group_rank_grids(ctx)
    assert grids.shape == (ctx.order, ctx.degree**2)
    assert not grids.flags.writeable
    for i, e in enumerate(ctx.elements):
        assert grids[i].tolist() == [v for row in rank_grid(e) for v in row]


def test_interval_sizes():
    assert interval_size(A4.identity) == 1
    assert interval_size(parse_element("4231", A4)) == 20
    assert interval_size(parse_element("3412", A4)) == 14


def test_graph_shapes():
    assert bruhat_graph(context("A", 2)).edge_count == 1
    assert bruhat_graph(context("A", 3)).edge_count == 9
    assert bruhat_graph(B2).edge_count == 16


def test_graph_degree_sum_is_reflection_count():
    g = bruhat_graph(B3)
    refl = len(B3.reflections)
    for i in range(len(g.elements)):
        assert len(g.up[i]) + len(g.down[i]) == refl


def test_graph_edges_increase_length():
    g = bruhat_graph(B3)
    for i in range(len(g.elements)):
        for j in g.up[i]:
            assert g.lengths[j] > g.lengths[i]


def _directed_bfs(g, start):
    """Forward BFS oracle for l_D."""
    dist = [math.inf] * len(g.elements)
    dist[start] = 0
    queue = deque([start])
    while queue:
        i = queue.popleft()
        for j in g.up[i]:
            if math.isinf(dist[j]) or dist[j] > dist[i] + 1:
                dist[j] = dist[i] + 1
                queue.append(j)
    return dist


def _undirected_bfs(g, start):
    dist = [math.inf] * len(g.elements)
    dist[start] = 0
    queue = deque([start])
    while queue:
        i = queue.popleft()
        for j in list(g.up[i]) + list(g.down[i]):
            if math.isinf(dist[j]):
                dist[j] = dist[i] + 1
                queue.append(j)
    return dist


@pytest.mark.parametrize("ctx", [A4, B3])
def test_directed_distance_against_bfs(ctx):
    g = bruhat_graph(ctx)
    for target in range(len(g.elements)):
        dist = directed_distances_to(g, target)
        for start in range(len(g.elements)):
            bfs = _directed_bfs(g, start)
            assert dist[start] == bfs[target]
            break  # one start per target keeps this quadratic, not cubic
    # and a full cross-check from a fixed start
    start = 1
    bfs = _directed_bfs(g, start)
    for target in range(len(g.elements)):
        assert directed_distances_to(g, target)[start] == bfs[target]


def test_distance_examples():
    g = bruhat_graph(A4)
    w = parse_element("4231", A4)
    assert directed_distance(w, w, g) == 0
    u = parse_element("1324", A4)
    assert directed_distance(u, w, g) == 4
    assert undirected_distance(u, w) == 2
    assert undirected_distance(u, u) == 0
    wb = parse_element("426153", B3)
    ub = parse_element("132546", B3)
    assert directed_distance(ub, wb) == 4
    assert undirected_distance(ub, wb) == 2


@pytest.mark.parametrize("ctx", [A5, B3])
def test_dyer_distance_from_identity(ctx):
    g = bruhat_graph(ctx)
    for w in ctx.elements:
        ld = directed_distance(ctx.identity, w, g)
        assert ld == undirected_distance(ctx.identity, w) == absolute_length(w)


@pytest.mark.parametrize("ctx", [A4, B3])
def test_undirected_distance_is_bfs_distance(ctx):
    g = bruhat_graph(ctx)
    for i, u in enumerate(g.elements):
        bfs = _undirected_bfs(g, i)
        for j, w in enumerate(g.elements):
            assert undirected_distance(u, w) == bfs[j]


@pytest.mark.parametrize("ctx", [A4, B3])
def test_distance_inequality_and_parity(ctx):
    g = bruhat_graph(ctx)
    for j, w in enumerate(g.elements):
        dist = directed_distances_to(g, j)
        for i, u in enumerate(g.elements):
            lt = undirected_distance(u, w)
            assert lt <= dist[i]
            if not math.isinf(dist[i]):
                assert (dist[i] - (g.lengths[j] - g.lengths[i])) % 2 == 0


@pytest.mark.parametrize("ctx", [A4, B3])
def test_restricted_sweep_is_infinite_exactly_off_the_interval(ctx):
    g = bruhat_graph(ctx)
    for j, w in enumerate(g.elements):
        dist = directed_distances_to(g, j)
        for i, u in enumerate(g.elements):
            assert math.isinf(dist[i]) == (not bruhat_leq(u, w))


@pytest.mark.parametrize("ctx", [A4, B3])
def test_distance_witnesses_against_bfs(ctx):
    g = bruhat_graph(ctx)
    l_d = [_directed_bfs(g, i) for i in range(len(g.elements))]
    for j, w in enumerate(g.elements):
        expected = [
            (u, l_d[i][j], undirected_distance(u, w))
            for i, u in enumerate(g.elements)
            if bruhat_leq_full(u, w) and l_d[i][j] != undirected_distance(u, w)
        ]
        assert list(distance_witnesses(w, g)) == expected


def test_hultman_examples():
    g = bruhat_graph(A4)
    assert is_hultman(A4.identity, g) == (True, None)
    ok, witness = is_hultman(parse_element("4231", A4), g)
    assert not ok and witness is not None
    assert str(witness) == "1324"  # minimal-length witness
    ok, witness = is_hultman(parse_element("3412", A4), g)
    assert ok and witness is None


def _cover_reachable(g, start):
    """Indices reachable from start through covers (length steps of 1)."""
    reach = {start}
    queue = deque([start])
    while queue:
        i = queue.popleft()
        for j in g.up[i]:
            if g.lengths[j] == g.lengths[i] + 1 and j not in reach:
                reach.add(j)
                queue.append(j)
    return reach


@pytest.mark.parametrize("ctx", [A4, B3])
def test_order_is_transitive_closure_of_covers(ctx):
    g = bruhat_graph(ctx)
    for i, u in enumerate(g.elements):
        reach = _cover_reachable(g, i)
        for j, w in enumerate(g.elements):
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
    for w in B3.elements:
        grid = rank_grid(w)
        for p, q, r in coessential_boxes(w.window):
            assert grid[p - 1][q - 1] == r == window_rank(w.window, p, q)
