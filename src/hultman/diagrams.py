"""Coessential sets, the (pseudo-)inclusion tests of condition 3, the
(relaxed) right hull tests of condition 4, and the reduced coessential set
E'(w).

A coessential box is the triple (p, q, r_w(p,q)) that
`bruhat.coessential_boxes` returns.  E(w) is `coessential_boxes(w.window)`;
E'(w) and the violated boxes are tuples of such triples too, in the same
sorted order.  The right hull H(w) is the pair (lo, hi) of `hull_bounds`.

Condition 3 has two paths, chosen by input size.  For a whole group, or
any array of its windows such as the children that the minimal-pattern
search grows, `defined_by_inclusions_mask` reads only ranks, from the rank
blocks of a few thousand rows that `bruhat.rank_blocks` computes one at a
time: a box is coessential exactly when four neighbouring ranks say so,
and the kernel marks and tests those boxes block by block.  It never
reads the group's rank table (`bruhat.group_rank_grids`, which condition
1 reads), so its memory stays one block's, whatever the group, and its
work is the same whether or not condition 1 ran first.
For one element, `violated_boxes` filters E(w), and the type B rule of
`pseudo_inclusions_hold` reads the violated boxes; they need no group
table at all.  E(w) is never memoised: `violated_boxes` and the hull tests
read `coessential_boxes` afresh unless the caller hands them the E(w) it
has already read, as `classify` does once per element for conditions 3
and 4 and `verify --json` once per row.

The right hull tests are exact and always definite.  The bounds of H(w)
are nondecreasing (a skew Ferrers board), so uncrossing lets one O(N^2)
dynamic program per coessential box find the largest r_u(p,q) inside it.
Most boxes need no program: every u in H(w) has r_u(p,q) <= B(p,q) =
min(#{k <= q : hi_k >= p}, (N-p+1) - #{k > q : lo_k >= p}), since u(k) <=
hi_k and each k > q with lo_k >= p holds one of the N-p+1 values >= p
after q.  A box with B(p,q) <= r_w(p,q) is cleared by that count alone.
The type B relaxation keeps one board per box too: it cuts the same
program's states after position n to the windows with r_u(n+1,n) <= 1.
In type B a box and its mirror (N+2-p, N-q) have the same verdict, since
u -> w0 u w0 maps the board onto itself and shifts r_u(p,q) and r_w(p,q)
alike, so only the boxes up to the central one, in sorted order, get a
board (the proof is in `_hull_counterexample`).  The tests check both
against an enumeration of H(w) and a Hungarian solver, which stay with
them.

Grid coordinates follow the matrix convention: p is the row (a value),
q is the column (a position).  For type B elements everything is computed
in the embedded S_{2n} picture; the central box is (n+1, n).
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Sequence

import numpy as np

from .bruhat import (
    box_mask,
    coessential_boxes,
    interval_mask,
    rank_blocks,
    window_rank,
)
from .bruhat import window_leq  # noqa: F401  (perfbench counts calls at this binding)
from .groups import Element, GroupContext, Window

Box = tuple[int, int, int]  # (p, q, r_w(p,q))


def identity_rank(p: int, q: int) -> int:
    return max(0, q - p + 1)


def violated_boxes(w: Element, boxes: Sequence[Box] | None = None) -> tuple[Box, ...]:
    """Coessential boxes whose rank exceeds the identity bound.  `boxes` is
    E(w) when the caller has already read it, and is read here otherwise."""
    if boxes is None:
        boxes = coessential_boxes(w.window)
    return tuple((p, q, r) for p, q, r in boxes if r != identity_rank(p, q))


def is_defined_by_inclusions(w: Element) -> bool:
    """Every coessential box attains r_w(p,q) = max(0, q-p+1)."""
    return not violated_boxes(w)


def pseudo_inclusions_hold(violations: Sequence[Box], n: int) -> bool:
    """The type B rule on the violated boxes of an element of B_n: the only
    one allowed is the central box (n+1, n), with r = 1."""
    return all(b == (n + 1, n, 1) for b in violations)


def is_defined_by_pseudo_inclusions(w: Element) -> bool:
    """Type B relaxation: the central box (n+1, n) may have r = 1 instead."""
    if w.ctx.family != "B":
        raise ValueError("pseudo-inclusions are defined for type B elements only")
    return pseudo_inclusions_hold(violated_boxes(w), w.ctx.rank)


def defined_by_inclusions_mask(
    ctx: GroupContext, windows: np.ndarray | None = None
) -> np.ndarray:
    """Condition 3 for many elements of ctx, as a bool array by row of
    `windows` (by default ctx.window_matrix): `is_defined_by_inclusions` in
    type A and `is_defined_by_pseudo_inclusions` in type B.  The rank
    blocks of the rows (`bruhat.rank_blocks`), computed one block at a time,
    are its only input, so it never builds or reads the group's rank table.

    Take r(p,0) = r(N+1,q) = 0.  Each step of r along an axis is 0 or 1:
    r(p,q) - r(p,q-1) = [w(q) >= p] and r(p-1,q) - r(p,q) =
    [w^{-1}(p-1) <= q].  So the two conditions for (p,q) to be coessential,
    w(q) < p <= w(q+1) and w^{-1}(p-1) <= q < w^{-1}(p), are four
    neighbour identities of the table:

        r(p,q+1) - r(p,q) = 1    (w(q+1) >= p)
        r(p,q) = r(p,q-1)        (w(q) < p)
        r(p-1,q) - r(p,q) = 1    (w^{-1}(p-1) <= q)
        r(p,q) = r(p+1,q)        (w^{-1}(p) > q)

    Since each step is 0 or 1, the first two hold together exactly when the
    second difference r(p,q+1) - 2 r(p,q) + r(p,q-1) is 1, and the last two
    when r(p-1,q) - 2 r(p,q) + r(p+1,q) is 1.  The box is violated iff it
    is coessential and r(p,q) also exceeds max(0, q-p+1), or 1 at the
    central box (n+1, n) in type B.  The masks run over p = 2..N and
    q = 1..N-1, as int8 and bool arrays one rank block at a time.
    """
    size = ctx.degree
    p = np.arange(2, size + 1, dtype=np.int8)[:, None, None]
    q = np.arange(1, size, dtype=np.int8)[:, None]
    bound = np.maximum(q - p + 1, 0)
    if ctx.family == "B":
        bound[ctx.rank - 1, ctx.rank - 1] = 1  # the central box (n+1, n)
    defined = []
    for block in rank_blocks(ctx.window_matrix if windows is None else windows):
        # [p-1, q] = r(p,q) for p = 1..N+1 and q = 0..N, zero on the added edges
        r = np.zeros((size + 1, size + 1, block.shape[2]), dtype=np.int8)
        r[:-1, 1:] = block
        boxes = np.diff(r[1:-1], n=2, axis=1) == 1
        boxes &= np.diff(r[:, 1:-1], n=2, axis=0) == 1
        boxes &= r[1:-1, 1:-1] > bound
        defined.append(~boxes.any(axis=(0, 1)))
    return np.concatenate(defined)


def hull_bounds(w: Element) -> tuple[Window, Window]:
    """H(w) as (lo, hi): (i, j) lies in the hull iff lo[j-1] <= i <= hi[j-1],
    where lo_j = min_{k>=j} w(k) and hi_j = max_{k<=j} w(k).  Both are
    nondecreasing."""
    win = w.window
    lo = tuple(accumulate(reversed(win), min))[::-1]
    return lo, tuple(accumulate(win, max))


def _best_hull_window(
    lo: Sequence[int],
    hi: Sequence[int],
    p: int,
    q: int,
    central: int | None = None,
) -> Window | None:
    """A window u with lo_k <= u(k) <= hi_k maximising r_u(p,q), or None
    when the bounds hold no window.  With `central` = n, only windows with
    r_u(n+1,n) <= 1 compete.

    Uncrossing: lo and hi are nondecreasing, so swapping an inverted pair
    of values keeps u inside the bounds, and some maximiser fills the low
    values 1..p-1 and the high values p..N each in increasing order.  The
    sweep over positions k keeps the best score for each count i of low
    values placed: k takes low value i+1 or high value p+k-1-i, only inside
    [lo_k, hi_k], and scores when it takes a high value with k <= q.

    The central cut is exact.  Swapping two inverted low values, or two
    inverted high values, keeps r_u(p,q) and moves u down in Bruhat order,
    so it never raises r_u(n+1,n): among the windows with r_u(n+1,n) <= 1,
    too, some maximiser has the sweep's form.  In that form positions 1..n
    hold the low values 1..i (all <= n) and the high values p..p+n-1-i, so
    r_u(n+1,n) = max(0, n - i - max(0, n+1-p)) is fixed by the state i
    after position n, and the states above 1 are dropped there.
    """
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
        if k == central:  # keep the states i with n - i - max(0, n+1-p) <= 1
            cut = max(0, k - 1 - max(0, k + 1 - p))
            nxt[:cut] = [-1] * cut
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


def _hull_rank_bound(lo: Sequence[int], hi: Sequence[int], p: int, q: int) -> int:
    """B(p,q) = min(#{k <= q : hi_k >= p}, (N-p+1) - #{k > q : lo_k >= p}),
    at least r_u(p,q) for every window u with lo_k <= u(k) <= hi_k.

    r_u(p,q) counts the k <= q with u(k) >= p, and u(k) <= hi_k; it is also
    N-p+1 less the k > q with u(k) >= p, which include every k > q with
    lo_k >= p.  Both bounds are nondecreasing, so each count is one bisection.
    """
    return min(max(0, q - bisect_left(hi, p)), max(q, bisect_left(lo, p)) + 1 - p)


def _hull_counterexample(
    w: Element, central: int | None, boxes: Sequence[Box] | None = None
) -> tuple[Window | None, int, int]:
    """A window inside H(w), with r_u(n+1,n) <= 1 when `central` = n, that
    is not <= w, or None; the number of boards the dynamic program solved;
    and the number that `_hull_rank_bound` cleared without it.  `boxes` is
    E(w), read here when the caller has not.

    u <= w fails exactly when r_u(p,q) > r for some coessential box (p,q,r)
    of w, so one maximising window per box decides the question.  The
    boxes are taken in `coessential_boxes` order, and the first box that
    some window violates gives the answer.  No window of the board beats
    B(p,q), and the central cut only removes windows, so a box with
    B(p,q) <= r is never violated and is skipped.  The first violated box,
    and so the window returned, are those of a program run on every box.

    In type B one box of each mirror pair suffices.  Let N = 2n, let w be
    centrally symmetric and u' = w0 u w0, so u'(k) = N+1-u(N+1-k).  Then
    r_u'(N+2-p, N-q) = #{j > q : u(j) < p} = r_u(p,q) + p-1-q, and w' = w
    gives the same shift for r_w.  H(w) is closed under u -> u', since
    lo_k = N+1 - hi_{N+1-k}; and so is the cut r_u(n+1,n) <= 1, as the
    central box is its own mirror.  So some window of the board violates
    (p,q) iff some window violates (N+2-p, N-q).  E(w) is closed under
    that map too, and of each pair the box with (p,q) <= (n+1,n) comes
    first in the sorted order.  The first violated box is therefore always
    such a box, and the boxes after (n+1,n) need no board.
    """
    lo, hi = hull_bounds(w)
    # every box of a type A element has (p,q) < (N,N)
    last = (w.ctx.rank + 1, w.ctx.rank) if w.ctx.family == "B" else (w.degree, w.degree)
    solved = cleared = 0
    for p, q, r in coessential_boxes(w.window) if boxes is None else boxes:
        if (p, q) > last:  # this box and the rest mirror boxes already decided
            break
        if _hull_rank_bound(lo, hi, p, q) <= r:
            cleared += 1
            continue
        solved += 1
        u = _best_hull_window(lo, hi, p, q, central)
        if u is not None and window_rank(u, p, q) > r:
            return u, solved, cleared
    return None, solved, cleared


def right_hull_counterexample(
    w: Element, boxes: Sequence[Box] | None = None
) -> Window | None:
    """A permutation inside H(w) that is not <= w, or None when the right
    hull condition holds.  Exact, with one dynamic program per coessential
    box (per mirror pair of boxes in type B) that the rank bound does not
    clear.  `boxes` is E(w), as for `hull_test`."""
    return _hull_counterexample(w, None, boxes)[0]


def hull_test(
    w: Element, boxes: Sequence[Box] | None = None
) -> tuple[Window | None, int, int]:
    """Condition 4 for w: a window refuting the right hull condition in
    type A or its relaxation in type B (None when it holds), the number of
    boards the dynamic program solved, and the number the rank bound
    cleared.  `boxes` is E(w) when the caller has already read it, as
    `classify` does once for conditions 3 and 4 together, and is read here
    otherwise."""
    n = w.ctx.rank
    relaxed = w.ctx.family == "B" and window_rank(w.window, n + 1, n) == 1
    return _hull_counterexample(w, n if relaxed else None, boxes)


def hull_relaxed_counterexample(
    w: Element, boxes: Sequence[Box] | None = None
) -> Window | None:
    """A window refuting the type B relaxed right hull condition, or None
    when it holds.

    The condition holds when the plain one does over all u in S_{2n}, or
    when r_w(n+1,n) = 1 and every u inside H(w) with r_u(n+1,n) <= 1 is
    <= w.  Those windows are some of H(w)'s, so the plain test decides
    unless r_w(n+1,n) = 1, and then the dynamic program cuts its states
    after position n to the windows with r_u(n+1,n) <= 1.  The cut is
    exact: the uncrossing swaps keep u inside H(w) and keep r_u(p,q), but
    move u down in Bruhat order, so they never raise r_u(n+1,n); and in
    the uncrossed form the state after position n fixes r_u(n+1,n) (see
    `_best_hull_window`).  Either way there is one board per mirror pair
    of coessential boxes that the rank bound does not clear (see
    `_hull_counterexample`).  Windows range over all of S_{2n}, not only
    over B_n.  `boxes` is E(w), as for `hull_test`.
    """
    if w.ctx.family != "B":
        raise ValueError("the relaxed right hull condition is a type B notion")
    return hull_test(w, boxes)[0]


def _mirror_box(box: tuple[int, int], n: int) -> tuple[int, int]:
    p, q = box
    return (2 * n + 2 - p, 2 * n - q)


def reduced_coessential(w: Element) -> tuple[Box, ...]:
    """E'(w): the minimal centrally symmetric subset of E(w) whose rank
    conditions still cut out [id, w] within B_n.

    Computed by greedy symmetric-pair elimination validated against a full
    scan of B_n; uniqueness of the minimal set makes the greedy order
    irrelevant.
    """
    if w.ctx.family != "B":
        raise ValueError("E'(w) is defined for type B elements only")
    n = w.ctx.rank
    boxes = {(p, q): r for p, q, r in coessential_boxes(w.window)}
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
    return tuple((p, q, boxes[(p, q)]) for p, q in sorted(active))
