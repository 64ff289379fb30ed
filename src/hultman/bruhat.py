"""Bruhat order, the Bruhat graph, and graph distances.

The tableau criterion drives everything: u <= w iff r_u(p,q) <= r_w(p,q)
for all p, q, where r_w(p,q) = #{k <= q : w(k) >= p} is the SW rank
function.  Only the coessential boxes of w need checking (Fulton's lemma).
The production path holds one small-int matrix of rank grids per group
(`group_rank_grids`) and answers "which u lie below w" for the whole group
at once with `interval_mask`.

Whole-group data are arrays indexed by row of `ctx.elements`: its window
matrix (`ctx.window_matrix`) and Coxeter lengths (`BruhatGraph.lengths`)
come from the group's one enumeration, and `group_absolute_lengths` is one
kernel call over that matrix.  The one map from windows to rows,
`element_rows`, packs each window into an int64 key and binary-searches
the group's sorted keys.  The Bruhat graph is one array of down-neighbours,
`BruhatGraph.down`, each row sorted and padded with a sentinel.  It is
built from the row maps of right multiplication: one `element_rows` call
per generator, and two gathers per other reflection, a conjugate of one
already mapped.  The generators' maps stay on the graph as
`BruhatGraph.generator_rows`.  The distance sweep is a breadth-first
search from w down the graph, one numpy step per depth, and it reaches
exactly [id, w].  l_T(u, w) is l_T of the conjugate u w^{-1}, reached by
l(w) gathers through the generators' maps and one from
`group_absolute_lengths`.
`symmetry_rows` gives the row maps of the graph automorphisms w -> w^{-1}
(and, in type A, w -> w_0 w w_0), and `orbit_representatives` each row's
least orbit member, where a sweep computes what is constant on orbits.

For type B elements the order is exactly the one induced from S_{2n}, so
the same window-level test serves both families.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .groups import (
    BLOCK_ROWS,
    Element,
    GroupContext,
    Window,
    absolute_lengths,
    compose_windows,
    invert_window,
)


def window_rank(window: Window, p: int, q: int) -> int:
    """r_w(p,q) = #{k <= q : w(k) >= p}."""
    return sum(1 for k in range(q) if window[k] >= p)


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


def _window_keys(windows: np.ndarray, degree: int) -> np.ndarray:
    """One int64 key per row of `windows`: its entries as digits in radix
    degree + 1, the first column most significant.  Rows of entries in
    1..degree get distinct keys, whatever their widths.  One product with
    the place values per block of rows keeps the int64 copy small."""
    places = (degree + 1) ** np.arange(windows.shape[1] - 1, -1, -1, dtype=np.int64)
    keys = np.empty(len(windows), dtype=np.int64)
    for k in range(0, len(windows), BLOCK_ROWS):
        keys[k : k + BLOCK_ROWS] = windows[k : k + BLOCK_ROWS].astype(np.int64) @ places
    return keys


@lru_cache(maxsize=None)
def _sorted_keys(ctx: GroupContext) -> tuple[np.ndarray, np.ndarray]:
    """The keys of the group's windows in increasing order, and the row of
    ctx.elements that each one belongs to."""
    if (ctx.degree + 1) ** ctx.degree >= 2**63:
        raise ValueError(f"windows of degree {ctx.degree} do not fit an int64 key")
    keys = _window_keys(ctx.window_matrix, ctx.degree)
    order = np.argsort(keys)
    return keys[order], order


def element_rows(ctx: GroupContext, windows) -> np.ndarray:
    """The row of ctx.elements of each window, given one window or an
    (m x degree) array of them.  This is the one map from windows to rows;
    it raises ValueError for a window that is not in the group, and for a
    group whose windows do not fit an int64 key (degree 16 and up), before
    the group is enumerated."""
    windows = np.atleast_2d(windows)
    sorted_keys, order = _sorted_keys(ctx)
    keys = _window_keys(windows, ctx.degree)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    missing = sorted_keys[pos] != keys
    if windows.size and (windows.min() < 1 or windows.max() > ctx.degree):
        # entries outside 1..degree can pack to the key of a group window
        missing |= ((windows < 1) | (windows > ctx.degree)).any(axis=1)
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
    windows = ctx.window_matrix
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
    lengths = absolute_lengths(ctx.window_matrix, ctx.family)
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
    windows = ctx.window_matrix
    inverses = np.argsort(windows, axis=1).astype(windows.dtype) + 1
    images = [inverses]
    if ctx.family == "A":
        # (w_0 w w_0)(i) = n + 1 - w(n + 1 - i)
        images += [ctx.degree + 1 - windows[:, ::-1], ctx.degree + 1 - inverses[:, ::-1]]
    maps = tuple(element_rows(ctx, image) for image in images)
    for rows in maps:
        rows.flags.writeable = False
    return maps


@lru_cache(maxsize=None)
def orbit_representatives(ctx: GroupContext) -> np.ndarray:
    """Read-only array of the least row of each row's orbit under
    `symmetry_rows`: with the identity, those maps form a group (of order 2
    in type B, a Klein four-group in type A), so an orbit is one row's images."""
    representatives = np.minimum.reduce([np.arange(ctx.order), *symmetry_rows(ctx)])
    representatives.flags.writeable = False
    return representatives


@dataclass(frozen=True, eq=False)
class BruhatGraph:
    """Directed graph on the group: u -> ut for reflections t with l(ut) > l(u).

    Vertices are rows of ctx.elements, sorted by (Coxeter length, window),
    with their lengths in `lengths`.  `down` is the N x |T| array of
    down-neighbours: row u holds the rows of u t with l(ut) < l(u) in
    increasing order, then the sentinel N (the group order).  Exactly l(u)
    reflections lower u (Björner–Brenti, Combinatorics of Coxeter Groups,
    ch. 1), so the first l(u) entries of row u are its down-neighbours and
    the rest are N.

    `generator_rows` is the n x N array of the generators' row maps of
    right multiplication, in the order of ctx.generators: entry [k, u] is
    the row of u s_k.  The graph is built from them, and
    `interval_distances` walks them to multiply by w^{-1}.
    """

    ctx: GroupContext
    lengths: np.ndarray = field(repr=False)
    down: np.ndarray = field(repr=False)
    generator_rows: np.ndarray = field(repr=False)

    @property
    def edge_count(self) -> int:
        return int((self.down < len(self.lengths)).sum())


@lru_cache(maxsize=None)
def bruhat_graph(ctx: GroupContext) -> BruhatGraph:
    """The Bruhat graph, from the row maps of right multiplication.

    Each generator's map is one `element_rows` call: (u s)(i) = u(s(i))
    permutes the columns of u's window.  Every other reflection is a
    conjugate s t s of one already mapped, and u (s t s) = ((u s) t) s, so
    its map is two gathers, R_sts = R_s[R_t[R_s]].
    """
    windows = ctx.window_matrix
    lengths = ctx.lengths
    unmapped = {t.window: k for k, t in enumerate(ctx.reflections)}  # -> column
    down = np.empty((ctx.order, len(unmapped)), dtype=np.int32)
    generator_rows = np.empty((len(ctx.generators), ctx.order), dtype=np.int32)
    for k, s in enumerate(ctx.generators):
        generator_rows[k] = element_rows(ctx, windows[:, np.array(s.window) - 1])
    # one level of conjugates at a time, so only its maps are held at once
    level = {s.window: rows for s, rows in zip(ctx.generators, generator_rows)}
    generators = list(level.items())
    while level:
        for t, rows in level.items():
            down[:, unmapped.pop(t)] = np.where(lengths[rows] < lengths, rows, ctx.order)
        conjugates = {}
        for t, r_t in level.items():
            for s, r_s in generators:
                sts = compose_windows(s, compose_windows(t, s))
                if sts in unmapped and sts not in conjugates:
                    conjugates[sts] = r_s[r_t[r_s]]
        level = conjugates
    down.sort(axis=1)
    down.flags.writeable = generator_rows.flags.writeable = False
    return BruhatGraph(ctx, lengths, down, generator_rows)


def directed_distances_to(graph: BruhatGraph, row: int) -> np.ndarray:
    """l_D(u, w) for every row u at once, for w = ctx.elements[row], as a
    float array that is +inf exactly off [id, w].

    A breadth-first search from w along down-edges: u reaches w by a
    directed path iff u <= w, and the depth at which the search first
    reaches u is l_D(u, w).  Every edge lowers length, so a vertex at depth
    k - 1 has length at most l(w) - k + 1 and at most that many
    down-neighbours: step k, which expands depth k - 1, reads only the
    first l(w) - k + 1 columns of `down`.
    """
    order = len(graph.lengths)
    dist = np.full(order, np.inf)
    dist[row] = 0
    unseen = np.ones(order + 1, dtype=bool)
    unseen[[row, order]] = False  # w is reached; the sentinel N never is
    frontier = np.array([row])
    top = int(graph.lengths[row])
    depth = 0
    while frontier.size:
        depth += 1
        hit = np.zeros(order + 1, dtype=bool)
        hit[graph.down[frontier, : top - depth + 1]] = True
        hit &= unseen
        unseen ^= hit
        frontier = np.flatnonzero(hit)
        dist[frontier] = depth
    return dist


def interval_distances(
    graph: BruhatGraph, row: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows of [id, w], l_D(u, w), l_T(u, w)) as arrays in row order, for
    w = ctx.elements[row].

    l_T(u, w) = l_T(w^{-1} u) = l_T(u w^{-1}), because the two are
    conjugate and l_T is constant on conjugacy classes.  Peeling right
    descents off w gives w s_{a_1} ... s_{a_L} = id with L = l(w), so
    u w^{-1} = u s_{a_1} ... s_{a_L}: L gathers of the interval's rows
    through `generator_rows`, then one from `group_absolute_lengths`.

    Raises ArithmeticError unless l_D >= l_T for every u <= w (a directed
    path is a product of reflections) and l_D, l_T and l(w) - l(u) share a
    parity (every reflection has odd length).
    """
    ctx = graph.ctx
    dist = directed_distances_to(graph, row)
    rows = np.flatnonzero(np.isfinite(dist))
    l_d = dist[rows].astype(np.int64)
    # rows follow length, and l(vs) = l(v) +- 1, so the least row among
    # v's products with the generators is v s for a descent s, while v != id
    maps = graph.generator_rows
    products = rows
    v = row
    while v:  # row 0 is the identity, the one element of length 0
        neighbours = maps[:, v].tolist()
        v = min(neighbours)
        products = maps[neighbours.index(v)].take(products)
    l_t = group_absolute_lengths(ctx)[products]
    steps = graph.lengths[row] - graph.lengths[rows]
    # the three share a parity iff both differences are even
    bad = (l_d < l_t) | ((((l_d - l_t) | (l_d - steps)) & 1) != 0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ArithmeticError(
            f"u = {ctx.elements[rows[k]]}, w = {ctx.elements[row]}: l_D = {l_d[k]}, "
            f"l_T = {l_t[k]}, l(w) - l(u) = {steps[k]}"
        )
    return rows, l_d, l_t
