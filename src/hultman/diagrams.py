"""Coessential sets, the (pseudo-)inclusion tests of condition 3, the
(relaxed) right hull tests of condition 4, and the reduced coessential set
E'(w).

Condition 3 has two paths, chosen by input size.  For a whole group,
`defined_by_inclusions_mask` marks the coessential boxes of every element
at once from the window matrix and its inverse and compares them with the
group's rank grids, a block of rows at a time.  For one element,
`violated_boxes` and `is_defined_by_(pseudo_)inclusions` read the
lru-cached `coessential_boxes`, which `interval_mask`, `window_leq` and the
hull dynamic program share.  On a B_5 element that path took 20-40 us on a
cache miss and 8-15 us on a hit, against 40-75 us for the same numpy
kernel on a batch of one (one interpreter, 2 shared CPUs).

The right hull tests are exact and always definite.  The bounds of H(w)
are nondecreasing (a skew Ferrers board), so uncrossing lets one O(N^2)
dynamic program per coessential box find the largest r_u(p,q) inside it.
The tests check it against an enumeration of H(w), which stays with them.

Grid coordinates follow the matrix convention: p is the row (a value),
q is the column (a position).  For type B elements everything is computed
in the embedded S_{2n} picture; the central box is (n+1, n).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bruhat import (
    box_mask,
    coessential_boxes,
    group_rank_grids,
    interval_mask,
    window_rank,
)
from .bruhat import window_leq  # noqa: F401  (perfbench counts calls at this binding)
from .groups import BLOCK_ROWS, Element, GroupContext, Window


@dataclass(frozen=True, order=True)
class CoessBox:
    p: int
    q: int
    r: int


def coessential_set(w: Element) -> tuple[CoessBox, ...]:
    """E(w): the northeast-most diagram boxes, with their rank values."""
    return tuple(CoessBox(p, q, r) for p, q, r in coessential_boxes(w.window))


def identity_rank(p: int, q: int) -> int:
    return max(0, q - p + 1)


def violated_boxes(w: Element) -> tuple[CoessBox, ...]:
    """Coessential boxes whose rank exceeds the identity bound."""
    return tuple(
        b for b in coessential_set(w) if b.r != identity_rank(b.p, b.q)
    )


def is_defined_by_inclusions(w: Element) -> bool:
    """Every coessential box attains r_w(p,q) = max(0, q-p+1)."""
    return not violated_boxes(w)


def is_defined_by_pseudo_inclusions(w: Element) -> bool:
    """Type B relaxation: the central box (n+1, n) may have r = 1 instead."""
    if w.ctx.family != "B":
        raise ValueError("pseudo-inclusions are defined for type B elements only")
    n = w.ctx.rank
    for b in violated_boxes(w):
        if not (b.p == n + 1 and b.q == n and b.r == 1):
            return False
    return True


def defined_by_inclusions_mask(ctx: GroupContext) -> np.ndarray:
    """Condition 3 for the whole group, as a bool array by row of
    ctx.elements: `is_defined_by_inclusions` in type A and
    `is_defined_by_pseudo_inclusions` in type B.

    The box (p,q) is coessential iff w(q) < p <= w(q+1) and
    w^{-1}(p-1) <= q < w^{-1}(p), and violated iff r_w(p,q) also exceeds
    max(0, q-p+1), or 1 at the central box (n+1, n) in type B.  The masks
    run over p = 2..N and q = 1..N-1, as int8 and bool arrays one block of
    rows at a time.
    """
    size = ctx.degree
    positions = np.arange(1, size + 1, dtype=np.int8)
    p = positions[1:, None]  # p = 2..N down axis 1
    q = positions[:-1]  # q = 1..N-1 along axis 2
    bound = np.maximum(q - p + 1, 0)
    if ctx.family == "B":
        bound[ctx.rank - 1, ctx.rank - 1] = 1  # the central box (n+1, n)
    windows = ctx.window_matrix
    ranks = group_rank_grids(ctx).reshape(len(windows), size, size)[:, 1:, :-1]
    defined = np.empty(len(windows), dtype=bool)
    for k in range(0, len(windows), BLOCK_ROWS):
        win = windows[k : k + BLOCK_ROWS]
        inv = np.empty_like(win)  # inv[:, v-1] = w^{-1}(v)
        np.put_along_axis(inv, win.astype(np.intp) - 1, positions[None, :], axis=1)
        boxes = (win[:, None, :-1] < p) & (p <= win[:, None, 1:])
        boxes &= (inv[:, :-1, None] <= q) & (q < inv[:, 1:, None])
        boxes &= ranks[k : k + BLOCK_ROWS] > bound
        defined[k : k + BLOCK_ROWS] = ~boxes.any(axis=(1, 2))
    return defined


@dataclass(frozen=True)
class HullBounds:
    """Per-column value intervals of the right hull.

    (i, j) lies in the hull iff lo[j-1] <= i <= hi[j-1], where
    lo_j = min_{k>=j} w(k) and hi_j = max_{k<=j} w(k).
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]


def hull_bounds(w: Element) -> HullBounds:
    win = w.window
    n = len(win)
    hi = []
    m = 0
    for v in win:
        m = max(m, v)
        hi.append(m)
    lo = [0] * n
    m = n + 1
    for j in range(n - 1, -1, -1):
        m = min(m, win[j])
        lo[j] = m
    return HullBounds(tuple(lo), tuple(hi))


def _best_hull_window(
    lo: Sequence[int],
    hi: Sequence[int],
    p: int,
    q: int,
    forced: tuple[int, int] | None = None,
) -> Window | None:
    """A window u with lo_k <= u(k) <= hi_k maximising r_u(p,q), or None
    when the bounds hold no window.  `forced` = (k0, v0) also asks for
    u(k0) = v0.

    Uncrossing: lo and hi are nondecreasing, so swapping an inverted pair
    of values keeps u inside the bounds, and some maximiser fills the low
    values 1..p-1 and the high values p..N each in increasing order.  The
    sweep over positions k keeps the best score for each count i of low
    values placed: k takes low value i+1 or high value p+k-1-i, only inside
    [lo_k, hi_k], and scores when it takes a high value with k <= q.
    A forced cell deletes position k0 and value v0, shifting later ones
    (and the bounds, which stay nondecreasing) down by one; the box becomes
    (p - [v0 < p], q - [k0 <= q]).
    """
    if forced is not None:
        k0, v0 = forced
        u = _best_hull_window(
            [v - (v > v0) for k, v in enumerate(lo, 1) if k != k0],
            [v - (v >= v0) for k, v in enumerate(hi, 1) if k != k0],
            p - (v0 < p),
            q - (k0 <= q),
        )
        if u is None:
            return None
        window = [v + (v >= v0) for v in u]
        window.insert(k0 - 1, v0)
        return tuple(window)

    score = [0] + [-1] * (p - 1)  # by count of low values; -1: unreachable
    took_low = []
    for k, (low_k, high_k) in enumerate(zip(lo, hi), start=1):
        gain = int(k <= q)
        nxt = [-1] * p
        via_low = [False] * p
        # high value p+k-1-i keeps the count i; low value i raises it from i-1
        for i in range(min(k + 1, p)):
            if score[i] >= 0 and low_k <= p + k - 1 - i <= high_k:
                nxt[i] = score[i] + gain
            if i and score[i - 1] > nxt[i] and low_k <= i <= high_k:
                nxt[i], via_low[i] = score[i - 1], True
        score = nxt
        took_low.append(via_low)
    i = p - 1
    if score[i] < 0:
        return None
    u = [0] * len(took_low)
    for k in range(len(took_low), 0, -1):
        if took_low[k - 1][i]:
            u[k - 1] = i
            i -= 1
        else:
            u[k - 1] = p + k - 1 - i
    return tuple(u)


def _hull_counterexample(
    w: Element, bounds: HullBounds, forced: tuple[int, int] | None = None
) -> Window | None:
    """A window inside the bounds (with the forced cell, if any) that is not
    <= w.

    u <= w fails exactly when r_u(p,q) > r for some coessential box (p,q,r)
    of w, so one maximising window per box decides the question.
    """
    for p, q, r in coessential_boxes(w.window):
        u = _best_hull_window(bounds.lo, bounds.hi, p, q, forced)
        if u is not None and window_rank(u, p, q) > r:
            return u
    return None


def right_hull_counterexample(w: Element) -> Window | None:
    """A permutation inside H(w) that is not <= w, or None when the right
    hull condition holds.  Exact, with one dynamic program per coessential
    box."""
    return _hull_counterexample(w, hull_bounds(w))


def _without_quadrant(bounds: HullBounds, n: int) -> HullBounds:
    """The bounds with the central quadrant k <= n < v blocked:
    hi_k := min(hi_k, n) for k <= n, which keeps hi nondecreasing."""
    hi = tuple(min(h, n) if k <= n else h for k, h in enumerate(bounds.hi, 1))
    return HullBounds(bounds.lo, hi)


def hull_relaxed_counterexample(w: Element) -> Window | None:
    """A window refuting the type B relaxed right hull condition, or None
    when it holds.

    The condition holds when the plain one does over all u in S_{2n}, or
    when r_w(n+1,n) = 1 and every u inside H(w) with r_u(n+1,n) <= 1 is
    <= w.  The windows with r_u(n+1,n) <= 1 use no cell of the central
    quadrant k <= n < u(k), or exactly one.  The first family lies inside
    the bounds with hi_k capped at n for k <= n; for each quadrant cell
    (k0, v0) inside H(w), the second lies inside those capped bounds with
    the cell forced.  Each is one more board for the dynamic program,
    tried only when the plain test's counterexample has r_u(n+1,n) >= 2.
    Windows range over all of S_{2n}, not only over B_n.
    """
    if w.ctx.family != "B":
        raise ValueError("the relaxed right hull condition is a type B notion")
    n = w.ctx.rank
    bounds = hull_bounds(w)
    cex = _hull_counterexample(w, bounds)
    if (
        cex is None
        or window_rank(w.window, n + 1, n) != 1
        or window_rank(cex, n + 1, n) <= 1
    ):
        return cex

    capped = _without_quadrant(bounds, n)
    cells = [
        (k0, v0)
        for k0 in range(1, n + 1)
        for v0 in range(max(n + 1, bounds.lo[k0 - 1]), bounds.hi[k0 - 1] + 1)
    ]
    # No cell with v0 = hi_k0 is known to decide a verdict: a scan of every
    # element of B_7 found 6286 that reach these boards and 1076 refuted,
    # none of them first on such a cell.  Without a proof that those cells
    # are redundant, every cell of the quadrant inside H(w) is tried.
    for forced in [None] + cells:
        cex = _hull_counterexample(w, capped, forced)
        if cex is not None:
            return cex
    return None


def _mirror_box(box: tuple[int, int], n: int) -> tuple[int, int]:
    p, q = box
    return (2 * n + 2 - p, 2 * n - q)


def reduced_coessential(w: Element) -> tuple[CoessBox, ...]:
    """E'(w): the minimal centrally symmetric subset of E(w) whose rank
    conditions still cut out [id, w] within B_n.

    Computed by greedy symmetric-pair elimination validated against a full
    scan of B_n; uniqueness of the minimal set makes the greedy order
    irrelevant.
    """
    if w.ctx.family != "B":
        raise ValueError("E'(w) is defined for type B elements only")
    n = w.ctx.rank
    boxes = {(b.p, b.q): b.r for b in coessential_set(w)}
    orbits = []
    seen = set()
    for pq in sorted(boxes):
        if pq in seen:
            continue
        mirror = _mirror_box(pq, n)
        orbit = {pq, mirror}
        seen |= orbit
        orbits.append(orbit)

    below = interval_mask(w)

    def valid(active: set[tuple[int, int]]) -> bool:
        tests = [(p, q, boxes[(p, q)]) for p, q in active]
        return bool((box_mask(w.ctx, tests) == below).all())

    active = set(boxes)
    for orbit in orbits:
        trial = active - orbit
        if valid(trial):
            active = trial
    return tuple(
        CoessBox(p, q, boxes[(p, q)]) for p, q in sorted(active)
    )
