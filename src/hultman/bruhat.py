"""Bruhat order, the Bruhat graph, and graph distances.

The tableau criterion drives everything: u <= w iff r_u(p,q) <= r_w(p,q)
for all p, q, where r_w(p,q) = #{k <= q : w(k) >= p} is the SW rank
function.  Only the coessential boxes of w need checking (Fulton's lemma).
The production path holds one small-int matrix of rank grids per group
(`group_rank_grids`) and answers "which u lie below w" for the whole group
at once with `interval_mask`.  `bruhat_leq_full`, the entrywise comparison
of whole grids, is kept as the oracle.

Whole-group data are arrays indexed by row of `ctx.elements`: its window
matrix (`group_windows`) and Coxeter lengths (`BruhatGraph.lengths`) come
from the group's one enumeration, and `group_absolute_lengths` is one
kernel call over that matrix.  The one map from windows to rows,
`element_rows`, packs each window into an int64 key and binary-searches
the group's sorted keys.  The Bruhat graph is one neighbour array with a
sentinel row for missing edges, and the distance sweep takes one numpy
step per length level; l_T is one gather from `group_absolute_lengths`.
`symmetry_rows` gives the row maps of the graph automorphisms w -> w^{-1}
(and, in type A, w -> w_0 w w_0), so a sweep can carry its results from
one element of an orbit to the others.

For type B elements the order is exactly the one induced from S_{2n}, so
the same window-level test serves both families.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .groups import (
    Element,
    GroupContext,
    Window,
    absolute_length,
    absolute_lengths,
    compose,
    inverse,
    invert_window,
)

RankGrid = tuple[tuple[int, ...], ...]


def window_rank(window: Window, p: int, q: int) -> int:
    """r_w(p,q) = #{k <= q : w(k) >= p}."""
    return sum(1 for k in range(q) if window[k] >= p)


@lru_cache(maxsize=200_000)
def window_rank_grid(window: Window) -> RankGrid:
    """Full N x N rank table; entry [p-1][q-1] is r_w(p,q)."""
    n = len(window)
    rows = []
    for p in range(1, n + 1):
        row = []
        count = 0
        for q in range(1, n + 1):
            if window[q - 1] >= p:
                count += 1
            row.append(count)
        rows.append(tuple(row))
    return tuple(rows)


def rank_grid(w: Element) -> RankGrid:
    return window_rank_grid(w.window)


@lru_cache(maxsize=200_000)
def coessential_boxes(window: Window) -> tuple[tuple[int, int, int], ...]:
    """Coessential boxes of the window as (p, q, r_w(p,q)) triples.

    (p,q) is coessential iff w^{-1}(p-1) <= q < w^{-1}(p) and
    w(q) < p <= w(q+1); equivalently it is a northeast-most diagram box.
    """
    n = len(window)
    inv = invert_window(window)
    boxes = []
    for p in range(2, n + 1):
        lo = inv[p - 2]  # w^{-1}(p-1)
        hi = inv[p - 1]  # w^{-1}(p)
        for q in range(max(lo, 1), min(hi, n)):
            if window[q - 1] < p <= window[q]:
                boxes.append((p, q, window_rank(window, p, q)))
    return tuple(boxes)


def window_leq(u_window: Window, w_window: Window) -> bool:
    """u <= w via the coessential boxes of w."""
    for p, q, r in coessential_boxes(w_window):
        if window_rank(u_window, p, q) > r:
            return False
    return True


def bruhat_leq(u: Element, w: Element) -> bool:
    if u.degree != w.degree:
        raise ValueError(f"degree mismatch: {u.degree} vs {w.degree}")
    return window_leq(u.window, w.window)


def bruhat_leq_full(u: Element, w: Element) -> bool:
    """Entrywise tableau criterion over the whole grid (test oracle)."""
    if u.degree != w.degree:
        raise ValueError(f"degree mismatch: {u.degree} vs {w.degree}")
    gu = window_rank_grid(u.window)
    gw = window_rank_grid(w.window)
    return all(a <= b for ru, rw in zip(gu, gw) for a, b in zip(ru, rw))


def group_windows(ctx: GroupContext) -> np.ndarray:
    """Read-only int8 matrix whose row i is the window of ctx.elements[i]."""
    return ctx.window_matrix


def _window_keys(windows: np.ndarray, degree: int) -> np.ndarray:
    """One int64 key per row of `windows`: its entries as digits in radix
    degree + 1, accumulated one column at a time.  Rows of entries in
    1..degree get distinct keys, whatever their widths."""
    keys = np.zeros(len(windows), dtype=np.int64)
    for column in windows.T:
        keys = keys * (degree + 1) + column
    return keys


@lru_cache(maxsize=None)
def _sorted_keys(ctx: GroupContext) -> tuple[np.ndarray, np.ndarray]:
    """The keys of the group's windows in increasing order, and the row of
    ctx.elements that each one belongs to."""
    if (ctx.degree + 1) ** ctx.degree >= 2**63:
        raise OverflowError(f"windows of degree {ctx.degree} do not fit an int64 key")
    keys = _window_keys(group_windows(ctx), ctx.degree)
    order = np.argsort(keys)
    return keys[order], order


def element_rows(ctx: GroupContext, windows) -> np.ndarray:
    """The row of ctx.elements of each window, given one window or an
    (m x degree) array of them.  This is the one map from windows to rows;
    it raises ValueError for a window that is not in the group."""
    windows = np.atleast_2d(windows)
    sorted_keys, order = _sorted_keys(ctx)
    keys = _window_keys(windows, ctx.degree)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    out_of_range = ((windows < 1) | (windows > ctx.degree)).any(axis=1)
    missing = (sorted_keys[pos] != keys) | out_of_range
    if missing.any():
        window = tuple(windows[np.argmax(missing)].tolist())
        raise ValueError(f"{window} is not a window of {ctx.name}")
    return order[pos]


@lru_cache(maxsize=None)
def group_rank_grids(ctx: GroupContext) -> np.ndarray:
    """Read-only int8 matrix with one row per element of ctx.elements: the
    element's rank grid flattened row by row, so r(p,q) is in column
    (p-1)*N + (q-1).  Ranks never exceed the degree N, so int8 cannot
    overflow."""
    windows = group_windows(ctx)
    values = np.arange(1, ctx.degree + 1, dtype=np.int8)
    # [i, p-1, q-1] = #{k <= q : w_i(k) >= p}
    grids = np.cumsum(
        windows[:, None, :] >= values[None, :, None], axis=2, dtype=np.int8
    ).reshape(len(windows), -1)
    grids.flags.writeable = False
    return grids


def box_mask(ctx: GroupContext, boxes: Sequence[tuple[int, int, int]]) -> np.ndarray:
    """Boolean mask over ctx.elements: r_u(p,q) <= r for every box (p, q, r).
    This is the one rank test that runs over a whole group."""
    grids = group_rank_grids(ctx)
    cols = [(p - 1) * ctx.degree + q - 1 for p, q, _ in boxes]
    ranks = np.array([r for _, _, r in boxes], dtype=grids.dtype)
    return (grids[:, cols] <= ranks).all(axis=1)


def interval_mask(w: Element) -> np.ndarray:
    """[id, w] as a boolean mask over w.ctx.elements, by the coessential
    boxes of w."""
    return box_mask(w.ctx, coessential_boxes(w.window))


def interval_size(w: Element) -> int:
    """s(w) = #[id, w]."""
    return int(interval_mask(w).sum())


@lru_cache(maxsize=None)
def group_absolute_lengths(ctx: GroupContext) -> np.ndarray:
    """Read-only array of l_T by row of ctx.elements, by the cycle formula."""
    lengths = absolute_lengths(group_windows(ctx), ctx.family)
    lengths.flags.writeable = False
    return lengths


@lru_cache(maxsize=None)
def symmetry_rows(ctx: GroupContext) -> tuple[np.ndarray, ...]:
    """Row maps of the nontrivial automorphisms of the Bruhat graph that
    keep l_T: entry i of a map is the row of the image of ctx.elements[i].

    w -> w^{-1} sends an edge u -> ut to u^{-1} -> t u^{-1}, and t u^{-1} is
    u^{-1} times the reflection u t u^{-1}.  In type A, conjugation by w_0 is
    one too, and so is their composite (Björner–Brenti, Combinatorics of
    Coxeter Groups, ch. 2); in type B, w_0 is central.  Both keep lengths
    and l_T(u, w) = l_T(w^{-1} u), which is constant on conjugacy classes
    and under inversion.  So l_D, l_T, c(w) and s(w) are constant on
    orbits.  Built on first use, not with the group's enumeration.
    """
    windows = group_windows(ctx)
    inverses = np.argsort(windows, axis=1).astype(windows.dtype) + 1
    images = [inverses]
    if ctx.family == "A":
        # (w_0 w w_0)(i) = n + 1 - w(n + 1 - i)
        images += [ctx.degree + 1 - windows[:, ::-1], ctx.degree + 1 - inverses[:, ::-1]]
    maps = tuple(element_rows(ctx, image) for image in images)
    for rows in maps:
        rows.flags.writeable = False
    return maps


@dataclass(frozen=True, eq=False)
class BruhatGraph:
    """Directed graph on the group: u -> ut for reflections t with l(ut) > l(u).

    Vertices are rows of ctx.elements, sorted by (Coxeter length, window),
    with their lengths in `lengths`.  `up` is the N x |T| neighbour array:
    entry [u, k] is the row of u t_k if the k-th reflection raises the
    length of u, and the sentinel N (the group order) if it lowers it.
    """

    ctx: GroupContext
    lengths: np.ndarray = field(repr=False)
    up: np.ndarray = field(repr=False)

    @property
    def edge_count(self) -> int:
        return int((self.up < len(self.lengths)).sum())


@lru_cache(maxsize=None)
def bruhat_graph(ctx: GroupContext) -> BruhatGraph:
    windows = group_windows(ctx)
    lengths = ctx.lengths
    up = np.empty((ctx.order, len(ctx.reflections)), dtype=np.int32)
    for k, t in enumerate(ctx.reflections):
        # (u t)(i) = u(t(i)): the columns of u's window permuted by t
        rows = element_rows(ctx, windows[:, np.array(t.window) - 1])
        up[:, k] = np.where(lengths[rows] > lengths, rows, ctx.order)
    up.flags.writeable = False
    return BruhatGraph(ctx, lengths, up)


def directed_distances_to(graph: BruhatGraph, target: Element) -> np.ndarray:
    """l_D(u, w) for every row u at once, for w = target, as a float array
    that is +inf exactly off [id, w].

    Every edge strictly raises length, so the up-neighbours of a vertex all
    lie on higher length levels: one numpy step per level of [id, w), from
    the top down, resolves the whole interval.
    """
    if target.ctx != graph.ctx:
        raise ValueError(f"{target} is not an element of the graph's group")
    order = len(graph.lengths)
    dist = np.full(order + 1, np.inf)  # dist[order] is the sentinel's: +inf
    interval = np.flatnonzero(interval_mask(target))
    dist[interval[-1]] = 0  # w is the last row of [id, w], alone at its length
    below = interval[:-1]
    levels = np.split(below, np.flatnonzero(np.diff(graph.lengths[below])) + 1)
    for rows in reversed(levels):
        dist[rows] = 1 + dist[graph.up[rows]].min(axis=1, initial=np.inf)
    return dist[:order]


def undirected_distance(u: Element, w: Element) -> int:
    """l_T(u, w) = l_T(w^{-1} u), by the cycle formula (never BFS)."""
    return absolute_length(compose(inverse(w), u))


def interval_distances(
    w: Element, graph: BruhatGraph
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows of [id, w], l_D(u, w), l_T(u, w)) as arrays in row order.

    Raises ArithmeticError unless l_D >= l_T for every u <= w (a directed
    path is a product of reflections) and l_D, l_T and l(w) - l(u) share a
    parity (every reflection has odd length).
    """
    ctx = graph.ctx
    dist = directed_distances_to(graph, w)
    rows = np.flatnonzero(np.isfinite(dist))
    l_d = dist[rows].astype(np.int64)
    # w^{-1} u has the window i -> w^{-1}(u(i))
    winv = np.array(invert_window(w.window), dtype=np.int8)
    l_t = group_absolute_lengths(ctx)[
        element_rows(ctx, winv[group_windows(ctx)[rows] - 1])
    ]
    steps = graph.lengths[rows[-1]] - graph.lengths[rows]  # w is the last row
    bad = (l_d < l_t) | ((l_d - l_t) % 2 != 0) | ((l_d - steps) % 2 != 0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ArithmeticError(
            f"u = {ctx.elements[rows[k]]}, w = {w}: l_D = {l_d[k]}, "
            f"l_T = {l_t[k]}, l(w) - l(u) = {steps[k]}"
        )
    return rows, l_d, l_t


def distance_witnesses(
    w: Element, graph: BruhatGraph
) -> Iterator[tuple[Element, int, int]]:
    """Each u <= w with l_D(u,w) != l_T(u,w), as (u, l_D, l_T), in graded
    order: the first one has minimal length."""
    rows, l_d, l_t = interval_distances(w, graph)
    return (
        (graph.ctx.elements[rows[k]], int(l_d[k]), int(l_t[k]))
        for k in np.flatnonzero(l_d != l_t).tolist()
    )
