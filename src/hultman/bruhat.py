"""Bruhat order, the Bruhat graph, and graph distances.

The tableau criterion drives everything: u <= w iff r_u(p,q) <= r_w(p,q)
for all p, q, where r_w(p,q) = #{k <= q : w(k) >= p} is the SW rank
function.  Only the coessential boxes of w need checking (Fulton's lemma).
The production path holds one small-int matrix of rank grids per group
(`group_rank_grids`) and answers "which u lie below w" for the whole group
at once with `interval_mask`; interval sizes, distance sweeps and distance
witnesses all read that mask.  `bruhat_leq_full`, the entrywise comparison
of whole grids, is kept as the oracle.

For type B elements the order is exactly the one induced from S_{2n}, so
the same window-level test serves both families.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .groups import (
    Element,
    GroupContext,
    Window,
    absolute_length,
    compose,
    compose_windows,
    coxeter_length,
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


@lru_cache(maxsize=None)
def group_rank_grids(ctx: GroupContext) -> np.ndarray:
    """Read-only int8 matrix with one row per element of ctx.elements: the
    element's rank grid flattened row by row, so r(p,q) is in column
    (p-1)*N + (q-1).  Ranks never exceed the degree N, and no group of
    degree 128 or more can be enumerated, so int8 cannot overflow."""
    windows = np.array([e.window for e in ctx.elements], dtype=np.int8)
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
def group_absolute_lengths(ctx: GroupContext) -> dict[Window, int]:
    return {e.window: absolute_length(e) for e in ctx.elements}


@dataclass(frozen=True, eq=False)
class BruhatGraph:
    """Directed graph on the group: u -> ut for reflections t with l(ut) > l(u).

    Vertices are indices into `elements`, which is sorted by
    (Coxeter length, window); every edge strictly increases length.
    """

    ctx: GroupContext
    elements: tuple[Element, ...]
    index: dict[Window, int] = field(repr=False)
    lengths: tuple[int, ...]
    up: tuple[tuple[int, ...], ...] = field(repr=False)
    down: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.up)


@lru_cache(maxsize=None)
def bruhat_graph(ctx: GroupContext) -> BruhatGraph:
    elements = ctx.elements
    index = {e.window: i for i, e in enumerate(elements)}
    lengths = tuple(coxeter_length(e) for e in elements)
    refl = [t.window for t in ctx.reflections]
    up: list[list[int]] = [[] for _ in elements]
    down: list[list[int]] = [[] for _ in elements]
    for i, e in enumerate(elements):
        for t in refl:
            j = index[compose_windows(e.window, t)]
            if lengths[j] > lengths[i]:
                up[i].append(j)
            else:
                down[i].append(j)
    return BruhatGraph(
        ctx,
        elements,
        index,
        lengths,
        tuple(tuple(a) for a in up),
        tuple(tuple(a) for a in down),
    )


def directed_distances_to(graph: BruhatGraph, target: int) -> list[float]:
    """l_D(u, w) for every u at once, for w = elements[target].

    A directed path u -> w exists only when u <= w, and every edge moves
    strictly up in length, so one sweep over [id, w) in decreasing length
    order resolves all distances; every other vertex stays at +inf.
    """
    dist = [math.inf] * len(graph.elements)
    dist[target] = 0
    below = np.flatnonzero(interval_mask(graph.elements[target])[:target])
    for i in reversed(below.tolist()):
        best = math.inf
        for j in graph.up[i]:
            dj = dist[j]
            if dj < best:
                best = dj
        dist[i] = best + 1
    return dist


def directed_distance(u: Element, w: Element, graph: BruhatGraph | None = None) -> float:
    """Length of a shortest directed path u -> w in the Bruhat graph."""
    if graph is None:
        graph = bruhat_graph(u.ctx)
    dist = directed_distances_to(graph, graph.index[w.window])
    return dist[graph.index[u.window]]


def undirected_distance(u: Element, w: Element) -> int:
    """l_T(u, w) = l_T(w^{-1} u), by the cycle formula (never BFS)."""
    return absolute_length(compose(inverse(w), u))


def is_hultman(
    w: Element, graph: BruhatGraph | None = None
) -> tuple[bool, Element | None]:
    """Whether l_D(u,w) = l_T(u,w) for all u <= w.

    On failure the second component is a witness u of minimal length.
    """
    if graph is None:
        graph = bruhat_graph(w.ctx)
    witness = next(distance_witnesses(w, graph), None)
    return witness is None, None if witness is None else witness[0]


def distance_witnesses(
    w: Element, graph: BruhatGraph
) -> Iterator[tuple[Element, int, int]]:
    """Each u <= w with l_D(u,w) != l_T(u,w), as (u, l_D, l_T), in graded
    order: the first one has minimal length."""
    dist = directed_distances_to(graph, graph.index[w.window])
    winv = invert_window(w.window)
    abslens = group_absolute_lengths(w.ctx)
    for i in np.flatnonzero(interval_mask(w)).tolist():
        u = graph.elements[i]
        lt = abslens[compose_windows(winv, u.window)]
        if dist[i] != lt:
            yield u, int(dist[i]), lt
