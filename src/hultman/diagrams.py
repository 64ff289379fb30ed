"""Diagrams, coessential sets, inclusion tests, right hulls, and the basic
elements attached to coessential boxes.

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
`hull_windows` enumerates H(w) and serves only as the tests' oracle.

Grid coordinates follow the matrix convention: p is the row (a value),
q is the column (a position).  For type B elements everything is computed
in the embedded S_{2n} picture; the central box is (n+1, n).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterator, Sequence

import numpy as np

from .bruhat import (
    box_mask,
    bruhat_leq,
    coessential_boxes,
    group_rank_grids,
    interval_mask,
    window_leq,
    window_rank,
)
from .groups import (
    BLOCK_ROWS,
    Element,
    GroupContext,
    Window,
    compose,
    context,
    coxeter_lengths,
    invert_window,
)

@dataclass(frozen=True, order=True)
class CoessBox:
    p: int
    q: int
    r: int


def diagram(w: Element) -> frozenset[tuple[int, int]]:
    """Boxes (p, q) with p > w(q) and w^{-1}(p) > q (the strike-out rule)."""
    inv = invert_window(w.window)
    n = w.degree
    return frozenset(
        (p, q)
        for q in range(1, n + 1)
        for p in range(w.window[q - 1] + 1, n + 1)
        if inv[p - 1] > q
    )


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


def window_in_hull(u_window: Sequence[int], bounds: HullBounds) -> bool:
    return all(
        lo <= v <= hi for v, lo, hi in zip(u_window, bounds.lo, bounds.hi)
    )


def in_hull(u: Element, w: Element) -> bool:
    """u ⊆ H(w): every point (u(j), j) lies in the right hull of w."""
    if u.degree != w.degree:
        raise ValueError(f"degree mismatch: {u.degree} vs {w.degree}")
    return window_in_hull(u.window, hull_bounds(w))


def hull_windows(bounds: HullBounds) -> Iterator[Window]:
    """All windows inside the column bounds, by backtracking with a used-value
    mask.  Exponential in the degree: this is the test oracle for the
    dynamic program below, not a production path."""
    n = len(bounds.lo)
    used = [False] * (n + 1)
    current = [0] * n

    def extend(j: int) -> Iterator[Window]:
        if j == n:
            yield tuple(current)
            return
        for v in range(bounds.lo[j], bounds.hi[j] + 1):
            if used[v]:
                continue
            used[v] = True
            current[j] = v
            yield from extend(j + 1)
            used[v] = False

    yield from extend(0)


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


def hull_equiv_check(
    w: Element,
    sample: int | None = None,
    rng: random.Random | None = None,
) -> bool:
    """Verify that u ⊆ H(w) iff r_u(p,q) <= r_w(p,q) for the coessential
    boxes attaining the identity bound.

    Exhaustive over the degree's symmetric group when `sample` is None
    (sensible up to degree 7); otherwise checks `sample` random windows.
    """
    bounds = hull_bounds(w)
    tight = [
        (b.p, b.q, b.r)
        for b in coessential_set(w)
        if b.r == identity_rank(b.p, b.q)
    ]
    degree = w.degree

    def agree(u: Window) -> bool:
        lhs = window_in_hull(u, bounds)
        rhs = all(window_rank(u, p, q) <= r for p, q, r in tight)
        return lhs == rhs

    if sample is None:
        return all(agree(u) for u in permutations(range(1, degree + 1)))
    rng = rng or random.Random(0)
    values = list(range(1, degree + 1))
    for _ in range(sample):
        rng.shuffle(values)
        if not agree(tuple(values)):
            return False
    return True


def _segment(a: int, b: int) -> list[int]:
    """The run a, a+1, ..., b; empty when a > b."""
    return list(range(a, b + 1))


def basic_element(p: int, q: int, r: int, ctx: GroupContext) -> Element:
    """v(p,q,r): the minimal element whose rank at (p,q) exceeds r.

    Type A uses the one-piece closed form; type B uses the four-case table
    on the half-window (q < n, or q = n with p > n), with the remaining
    boxes reached through v(p,q,r) = v(2n+2-p, 2n-q, p-q-1+r).
    """
    if ctx.family == "A":
        n = ctx.rank
        win = (
            _segment(1, q - r - 1)
            + _segment(p, p + r)
            + _segment(q - r, p - 1)
            + _segment(p + r + 1, n)
        )
        candidate = _checked(win, p, q, r, ctx)
        return candidate

    n = ctx.rank
    if not (q < n or (q == n and p > n)):
        return basic_element(2 * n + 2 - p, 2 * n - q, p - q - 1 + r, ctx)
    if p + r <= n:
        half = (
            _segment(1, q - r - 1)
            + _segment(p, p + r)
            + _segment(q - r, p - 1)
            + _segment(p + r + 1, n)
        )
    elif p <= n:
        half = (
            _segment(1, q - r - 1)
            + _segment(p, n)
            + _segment(2 * n + 2 - p, n + r + 1)
            + _segment(q - r, n - r - 1)
        )
    elif p + q < 2 * n + 2:
        half = (
            _segment(1, q - r - 1)
            + _segment(p, p + r)
            + _segment(q - r, 2 * n - p - r)
            + _segment(2 * n + 2 - p, n)
        )
    else:
        half = (
            _segment(1, 2 * n - p - r)
            + _segment(2 * n + 2 - p, q)
            + _segment(p, p + r)
            + _segment(q + 1, n)
        )
    win = half + [2 * n + 1 - v for v in reversed(half)]
    return _checked(win, p, q, r, ctx)


def _checked(win: list[int], p: int, q: int, r: int, ctx: GroupContext) -> Element:
    if sorted(win) != list(range(1, ctx.degree + 1)):
        raise ValueError(f"infeasible box (p={p}, q={q}, r={r}) for {ctx}")
    el = Element(tuple(win), ctx)
    if window_rank(el.window, p, q) != r + 1:
        raise ValueError(f"infeasible box (p={p}, q={q}, r={r}) for {ctx}")
    return el


def basic_element_bruteforce(p: int, q: int, r: int, ctx: GroupContext) -> Element:
    """Oracle: the Bruhat-minimal group element v with r_v(p,q) > r.

    Raises if the minimal element is not unique or none exists.
    """
    offenders = [
        v for v in ctx.elements if window_rank(v.window, p, q) > r
    ]
    if not offenders:
        raise ValueError(f"no element has rank > {r} at ({p}, {q})")
    minimal = [
        v
        for v in offenders
        if not any(
            u is not v and bruhat_leq(u, v) for u in offenders
        )
    ]
    if len(minimal) != 1:
        raise ValueError(f"minimal violator at ({p},{q},{r}) is not unique")
    return minimal[0]


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


def reduced_coessential_closed_form(
    w: Element, offset: str = "p-n-1", strict_domain: bool = True
) -> tuple[CoessBox, ...]:
    """Closed-form redundancy filter for E'(w), kept for comparison only.

    `offset` selects which shift relates r_w(2n+2-p, q) to r_w(p, q) in the
    redundancy test; the three published variants do not agree, so none is
    treated as ground truth.  `strict_domain` keeps the literal p,q < n
    restriction; the corrected reading uses p <= n, q < n.
    """
    if w.ctx.family != "B":
        raise ValueError("E'(w) is defined for type B elements only")
    n = w.ctx.rank
    boxes = {(b.p, b.q): b.r for b in coessential_set(w)}
    shifts = {
        "p-n-1": lambda p, q: p - n - 1,
        "n-p+1": lambda p, q: n - p + 1,
        "p-q-1": lambda p, q: p - q - 1,
    }
    shift = shifts[offset]
    redundant: set[tuple[int, int]] = set()
    for (p, q), r in boxes.items():
        in_domain = (p < n and q < n) if strict_domain else (p <= n and q < n)
        if not in_domain:
            continue
        partner = (2 * n + 2 - p, q)
        if partner not in boxes:
            continue
        if _mirror_box((p, q), n) not in boxes:
            continue
        if boxes[partner] == r + shift(p, q):
            redundant.add((p, q))
            redundant.add(_mirror_box((p, q), n))
    return tuple(
        CoessBox(p, q, boxes[(p, q)])
        for p, q in sorted(boxes)
        if (p, q) not in redundant
    )


@lru_cache(maxsize=None)
def count_reduced_words(v: Element) -> int:
    """Number of reduced expressions, via R(v) = sum over descents of R(vs).

    Exact arbitrary-precision integers; counts grow quickly with length.
    One length call covers v and every vs.
    """
    products = [compose(v, s) for s in v.ctx.generators]
    *lengths, length = coxeter_lengths(
        [vs.window for vs in products] + [v.window], v.ctx.family
    )
    if length == 0:
        return 1
    return sum(
        count_reduced_words(vs)
        for vs, vs_length in zip(products, lengths)
        if vs_length < length
    )


def has_unique_reduced_word(v: Element) -> bool:
    return count_reduced_words(v) == 1


def coxeter_coessential(w: Element) -> tuple[Element, ...]:
    """The Coxeter-theoretic coessential set: Bruhat-minimal elements not
    below w, in graded order."""
    not_below = [w.ctx.elements[i] for i in np.flatnonzero(~interval_mask(w))]
    minimal: list[Element] = []
    for v in not_below:  # graded order: anything below v was seen earlier
        if not any(window_leq(m.window, v.window) for m in minimal):
            minimal.append(v)
    return tuple(minimal)
