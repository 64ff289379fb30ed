"""Bruhat order, the Bruhat graph, and graph distances.

The tableau criterion drives everything: u <= w iff r_u(p,q) <= r_w(p,q)
for all p, q, where r_w(p,q) = #{k <= q : w(k) >= p} is the SW rank
function.  Only the coessential boxes of w need checking (Fulton's lemma).
The ranks of many elements form a rank block (`rank_block`): an int8
array stored by cell, in which the ranks r_u(p,q) of every row u form one
contiguous row per cell (p,q), computed as a running sum down the
positions for each p.  The group's rank table (`group_rank_grids`) is the
block of the whole group, held once per group; `interval_mask` answers
"which u lie below w" for the whole group at once, reading one row per
coessential box of w.  Condition 3's kernel in `diagrams` computes its
own blocks instead, a few thousand rows at a time (`rank_blocks`), of the
whole group or of any window array, such as the children that the
minimal-pattern search grows; it never reads the table, which at B_8
would take 2.6 GB, so its verdicts and its memory do not depend on
whether condition 1 ran first.

Whole-group data are arrays indexed by row of the group's enumeration,
its window matrix (`ctx.window_matrix`) with lengths `BruhatGraph.lengths`;
`group_absolute_lengths` is one kernel call over that matrix.  Only an
error message builds an `Element` (`ctx.element(row)`).  The one map from
windows to rows, `element_rows`, packs each window into an int64 key and
binary-searches the group's sorted keys; one window given as a tuple, as
`classify` gives it, is keyed in Python with one scalar search.  The Bruhat graph is one array
of down-neighbours, `BruhatGraph.down`, each row sorted and padded with a
sentinel.  It is built from the row maps of right multiplication: one
`element_rows` call per generator, and two gathers per other reflection,
a conjugate of one already mapped.  The maps stay on the graph as
`BruhatGraph.reflection_rows`.  The distance sweep is a breadth-first
search from w down the graph, one numpy step per depth, and it reaches
exactly [id, w].  l_T(u, w) is l_T of the conjugate u w^{-1}, reached by
l_T(w) gathers through the reflections' maps and one from
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
from typing import Iterator, Sequence

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

# Rows per block of `rank_blocks`: a block of B_8 rows takes 512 kB, and
# twice as many rows read up to 2.5 times slower on B_7.
RANK_BLOCK_ROWS = 2048


def window_rank(window: Window, p: int, q: int) -> int:
    """r_w(p,q) = #{k <= q : w(k) >= p}."""
    return sum(1 for k in range(q) if window[k] >= p)


def coessential_boxes(window: Window) -> tuple[tuple[int, int, int], ...]:
    """Coessential boxes of the window as (p, q, r_w(p,q)) triples.

    (p,q) is coessential iff w^{-1}(p-1) <= q < w^{-1}(p) and
    w(q) < p <= w(q+1); equivalently it is a northeast-most diagram box.
    r_w(p,q) is one bit count of a running bitmask whose bit k-1 is set
    while w(k) >= p: as p steps up, position w^{-1}(p-1) leaves it.

    Not memoised.  A whole-group sweep asks once per row and never again,
    so a cache would only hold every row's boxes and window until the
    process ends; one element's `classify` asks once per condition.
    """
    n = len(window)
    inv = invert_window(window)
    above = (1 << n) - 1  # the positions k with w(k) >= 1
    boxes = []
    for p in range(2, n + 1):
        lo = inv[p - 2]  # w^{-1}(p-1)
        hi = inv[p - 1]  # w^{-1}(p)
        above ^= 1 << (lo - 1)
        for q in range(lo, hi):
            if window[q - 1] < p <= window[q]:
                boxes.append((p, q, (above & ((1 << q) - 1)).bit_count()))
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
    ctx.window_matrix that each one belongs to, both read-only."""
    if (ctx.degree + 1) ** ctx.degree >= 2**63:
        raise ValueError(f"windows of degree {ctx.degree} do not fit an int64 key")
    keys = _window_keys(ctx.window_matrix, ctx.degree)
    order = np.argsort(keys)
    keys = keys[order]
    keys.flags.writeable = order.flags.writeable = False
    return keys, order


def element_rows(ctx: GroupContext, windows) -> np.ndarray:
    """The row of ctx.window_matrix of each window, given one window or an
    (m x degree) array of them.  This is the one map from windows to rows;
    it raises ValueError for a window that is not in the group, and for a
    group whose windows do not fit an int64 key (degree 16 and up), before
    the group is enumerated.  One window given as a tuple is keyed in
    Python and found by one scalar binary search."""
    sorted_keys, order = _sorted_keys(ctx)
    if isinstance(windows, tuple):
        pos = _window_position(ctx, windows, sorted_keys)
        return order[pos : pos + 1]
    windows = np.atleast_2d(windows)
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


def _window_position(ctx: GroupContext, window: Window, sorted_keys: np.ndarray) -> int:
    """The index in sorted_keys of one window's `_window_keys` key, or
    ValueError if the window is not in the group."""
    degree = ctx.degree
    key = 0
    for value in window:
        if not 1 <= value <= degree:
            break
        key = key * (degree + 1) + value
    else:
        if len(window) == degree:
            pos = int(sorted_keys.searchsorted(key))
            if pos < len(sorted_keys) and sorted_keys[pos] == key:
                return pos
    raise ValueError(f"{window} is not a window of {ctx.name}")


def rank_block(windows: np.ndarray) -> np.ndarray:
    """The rank block of an (m x N) window array: a C-contiguous int8 array
    of shape (N, N, m) with r_u(p,q) at [p-1, q-1, u] for every row u.  It
    is stored by cell, so `block[p-1, q-1]` is one contiguous row of
    r_u(p,q) over the rows.  Each cell row of a p is a running sum of
    [u(k) >= p] down the positions, summed in int8, which cannot overflow
    since ranks never exceed N."""
    columns = windows.T  # [k-1, u] = u(k)
    block = np.empty((windows.shape[1], *columns.shape), dtype=np.int8)
    for p in range(1, windows.shape[1] + 1):
        # [q-1, u] = #{k <= q : u(k) >= p}
        np.add.accumulate((columns >= p).view(np.int8), axis=0, out=block[p - 1])
    return block


def rank_blocks(windows: np.ndarray) -> Iterator[np.ndarray]:
    """The rank block of each run of RANK_BLOCK_ROWS rows of an (m x N)
    window array, in row order, so that a reader of the ranks of many rows
    holds one block at a time and never the group's table."""
    for start in range(0, len(windows), RANK_BLOCK_ROWS):
        yield rank_block(windows[start : start + RANK_BLOCK_ROWS])


@lru_cache(maxsize=None)
def group_rank_grids(ctx: GroupContext) -> np.ndarray:
    """The group's rank table: the read-only rank block of the whole of
    ctx.window_matrix, shape (N, N, order).  A reader of a few cells, such
    as `box_mask`, reads only their rows of the group.  Of the five
    conditions only condition 1 reads it; condition 3 computes its own
    blocks (`rank_blocks`)."""
    grids = rank_block(ctx.window_matrix)
    grids.flags.writeable = False
    return grids


def box_mask(ctx: GroupContext, boxes: Sequence[tuple[int, int, int]]) -> np.ndarray:
    """Boolean mask by row of ctx.window_matrix: r_u(p,q) <= r for every
    box (p, q, r).  The one rank test over a whole group; it reads the rank
    table's row of each box's cell, one int8 comparison per row."""
    grids = group_rank_grids(ctx)
    mask = np.ones(ctx.order, dtype=bool)
    for p, q, r in boxes:
        mask &= grids[p - 1, q - 1] <= r
    return mask


def interval_mask(w: Element) -> np.ndarray:
    """[id, w] as a boolean mask over the rows of w.ctx.window_matrix, by
    the coessential boxes of w."""
    return box_mask(w.ctx, coessential_boxes(w.window))


def interval_size(w: Element) -> int:
    """s(w) = #[id, w]."""
    return int(interval_mask(w).sum())


@lru_cache(maxsize=None)
def group_absolute_lengths(ctx: GroupContext) -> np.ndarray:
    """Read-only array of l_T by row of ctx.window_matrix, by the cycle formula."""
    lengths = absolute_lengths(ctx.window_matrix, ctx.family)
    lengths.flags.writeable = False
    return lengths


@lru_cache(maxsize=None)
def symmetry_rows(ctx: GroupContext) -> tuple[np.ndarray, ...]:
    """Row maps of the nontrivial automorphisms of the Bruhat graph that
    keep l_T: entry i of a map is the row of the image of row i.

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

    Vertices are rows of ctx.window_matrix, sorted by (Coxeter length,
    window), with their lengths in `lengths`.  `down` is the N x |T| array of
    down-neighbours: row u holds the rows of u t with l(ut) < l(u) in
    increasing order, then the sentinel N (the group order).  Exactly l(u)
    reflections lower u (Björner–Brenti, Combinatorics of Coxeter Groups,
    ch. 1), so the first l(u) entries of row u are its down-neighbours and
    the rest are N.

    `reflection_rows` is the |T| x N array of the reflections' row maps of
    right multiplication, in the order of ctx.reflections: entry [k, u] is
    the row of u t_k.  The graph is built from them, and
    `interval_distances` walks them to multiply by w^{-1}.
    """

    ctx: GroupContext
    lengths: np.ndarray = field(repr=False)
    down: np.ndarray = field(repr=False)
    reflection_rows: np.ndarray = field(repr=False)

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
    index = {t.window: k for k, t in enumerate(ctx.reflections)}  # -> row of the maps
    reflection_rows = np.empty((len(index), ctx.order), dtype=np.int32)
    generators = [(s.window, reflection_rows[index[s.window]]) for s in ctx.generators]
    for s, r_s in generators:
        r_s[:] = element_rows(ctx, windows[:, np.array(s) - 1])
    level, mapped = generators, {s for s, _ in generators}
    while level:  # the conjugates of one level at a time
        conjugates = []
        for t, r_t in level:
            for s, r_s in generators:
                sts = compose_windows(s, compose_windows(t, s))
                if sts not in mapped:
                    mapped.add(sts)
                    conjugates.append((sts, reflection_rows[index[sts]]))
                    np.take(r_s, r_t[r_s], out=conjugates[-1][1])
        level = conjugates
    down = np.empty((ctx.order, len(reflection_rows)), dtype=np.int32)
    for k, rows in enumerate(reflection_rows):
        down[:, k] = np.where(lengths[rows] < lengths, rows, ctx.order)
    down.sort(axis=1)
    down.flags.writeable = reflection_rows.flags.writeable = False
    return BruhatGraph(ctx, lengths, down, reflection_rows)


def directed_distances_to(graph: BruhatGraph, row: int) -> np.ndarray:
    """l_D(u, w) for every row u at once, for the w of row `row`, as a
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
    the w of row `row`.

    l_T(u, w) = l_T(w^{-1} u) = l_T(u w^{-1}), because the two are
    conjugate and l_T is constant on conjugacy classes.  Some reflection
    lowers l_T by one from any v != id, so stepping down from w by such
    reflections gives w t_1 ... t_k = id with k = l_T(w) <= n, and
    u w^{-1} = u t_1 ... t_k: k gathers of the interval's rows through
    `reflection_rows`, then one from `group_absolute_lengths`.

    Raises ArithmeticError unless l_D >= l_T for every u <= w (a directed
    path is a product of reflections) and l_D, l_T and l(w) - l(u) share a
    parity (every reflection has odd length), and when no reflection lowers
    l_T from some v != id on the way down.
    """
    ctx = graph.ctx
    dist = directed_distances_to(graph, row)
    rows = np.flatnonzero(np.isfinite(dist))
    l_d = dist[rows].astype(np.int64)
    absolute = group_absolute_lengths(ctx)
    maps = graph.reflection_rows
    products = rows
    v = row
    while v:  # row 0 is the identity, the one element of length 0
        # l_T falls by one at each step, so the walk ends within l_T(w) steps
        lower = np.flatnonzero(absolute[maps[:, v]] == absolute[v] - 1)
        if not len(lower):
            raise ArithmeticError(
                f"{ctx.element(v)}: no reflection lowers l_T = {absolute[v]}"
            )
        products = maps[lower[0]].take(products)
        v = int(maps[lower[0], v])
    l_t = absolute[products]
    steps = graph.lengths[row] - graph.lengths[rows]
    # the three share a parity iff both differences are even
    bad = (l_d < l_t) | ((((l_d - l_t) | (l_d - steps)) & 1) != 0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ArithmeticError(
            f"u = {ctx.element(rows[k])}, w = {ctx.element(row)}: l_D = {l_d[k]}, "
            f"l_T = {l_t[k]}, l(w) - l(u) = {steps[k]}"
        )
    return rows, l_d, l_t
