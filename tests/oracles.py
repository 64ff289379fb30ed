"""Reference implementations and paper formulas that no command runs.

No production path of `hultman` calls these, and the package never imports
this module.  Each one computes by definition, or by a published closed
form, what the package computes by a faster route or takes as settled; the
tests compare the two.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Sequence

import numpy as np

from hultman import patterns
from hultman.arrangements import Plane, inversion_arrangement
from hultman.bruhat import (
    BruhatGraph,
    bruhat_leq,
    coessential_boxes,
    element_rows,
    group_absolute_lengths,
    interval_distances,
    interval_mask,
    window_leq,
    window_rank,
)
from hultman.diagrams import (
    Box,
    _best_hull_window,
    _mirror_box,
    defined_by_inclusions_mask,
    hull_bounds,
    identity_rank,
)
from hultman.groups import (
    Element,
    GroupContext,
    Window,
    absolute_length,
    compose,
    compose_windows,
    context,
    coxeter_lengths,
    inverse,
    invert_window,
    signed_window,
)
from hultman.patterns import (
    _BLOCK_BYTES,
    ParabolicEmbedding,
    _Entry,
    b_in_b_index_sets,
    first_bp_contained,
)

RankGrid = tuple[tuple[int, ...], ...]


# --- groups -----------------------------------------------------------------


def format_signed(w: Element) -> str:
    return ",".join(str(s) for s in signed_window(w))


def _type_b_windows(rank: int) -> Iterator[Window]:
    """All centrally symmetric windows: pick one value per mirror pair for the
    first half, in every order; the second half is forced."""
    n2 = 2 * rank
    pairs = [(v, n2 + 1 - v) for v in range(1, rank + 1)]
    for picks in product((0, 1), repeat=rank):
        half_values = [pairs[k][picks[k]] for k in range(rank)]
        for first_half in permutations(half_values):
            second = tuple(n2 + 1 - v for v in reversed(first_half))
            yield first_half + second


def oracle_enumeration(family: str, rank: int) -> tuple[list[Window], list[int]]:
    """Every window of the group as a tuple, sorted in Python by (Coxeter
    length, window), and the lengths in that order: type A windows from
    `itertools.permutations`, type B ones by choosing one value of each
    mirror pair for the first half (`_type_b_windows`)."""
    if family == "A":
        windows = list(permutations(range(1, rank + 1)))
    else:
        windows = list(_type_b_windows(rank))
    lengths = coxeter_lengths(windows, family).tolist()
    order = sorted(range(len(windows)), key=lambda i: (lengths[i], windows[i]))
    return [windows[i] for i in order], [lengths[i] for i in order]


# --- Bruhat order and distances ---------------------------------------------


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


def bruhat_leq_full(u: Element, w: Element) -> bool:
    """u <= w by the entrywise tableau criterion over the whole rank grid."""
    if u.degree != w.degree:
        raise ValueError(f"degree mismatch: {u.degree} vs {w.degree}")
    gu = window_rank_grid(u.window)
    gw = window_rank_grid(w.window)
    return all(a <= b for ru, rw in zip(gu, gw) for a, b in zip(ru, rw))


def undirected_distance(u: Element, w: Element) -> int:
    """l_T(u, w) = l_T(w^{-1} u), by the cycle formula for one element."""
    return absolute_length(compose(inverse(w), u))


def distance_witnesses(
    w: Element, graph: BruhatGraph
) -> Iterator[tuple[Element, int, int]]:
    """Each u <= w with l_D(u,w) != l_T(u,w), as (u, l_D, l_T), in graded
    order: the first one has minimal length."""
    if w.ctx != graph.ctx:
        raise ValueError(f"{w} is not an element of the graph's group")
    rows, l_d, l_t = interval_distances(graph, int(element_rows(w.ctx, w.window)[0]))
    return (
        (graph.ctx.elements[rows[k]], int(l_d[k]), int(l_t[k]))
        for k in np.flatnonzero(l_d != l_t).tolist()
    )


def absolute_lengths_by_lookup(ctx: GroupContext, row: int, rows: np.ndarray) -> np.ndarray:
    """l_T(u, w) = l_T(w^{-1} u) for the u at `rows` and w = ctx.elements[row]:
    compose each window with w^{-1}, then look the product up among the
    group's rows."""
    windows = ctx.window_matrix
    # w^{-1} u has the window i -> w^{-1}(u(i)); entry 0 of winv is unused
    winv = np.zeros(ctx.degree + 1, dtype=np.int8)
    winv[windows[row]] = np.arange(1, ctx.degree + 1)
    return group_absolute_lengths(ctx)[element_rows(ctx, winv[windows[rows]])]


# --- arrangements -----------------------------------------------------------


def inversion_reflections(w: Element) -> tuple[Element, ...]:
    """Inv(w) = {t in T : l(wt) < l(w)} by definition; its size equals l(w),
    and `inversion_arrangement` must give one plane for each.  One length
    call covers w and every wt."""
    reflections = w.ctx.reflections
    *lengths, lw = coxeter_lengths(
        [compose_windows(w.window, t.window) for t in reflections] + [w.window],
        w.ctx.family,
    )
    return tuple(t for t, length in zip(reflections, lengths) if length < lw)


def hyperplane_of(t: Element, ctx: GroupContext) -> Plane:
    """The fixed hyperplane of a reflection, in signed coordinates."""
    if t.ctx != ctx:
        raise ValueError("reflection does not belong to the given context")
    sigma = signed_window(t) if ctx.family == "B" else t.window
    moved = [k for k in range(1, ctx.rank + 1) if sigma[k - 1] != k]
    if len(moved) == 1 and sigma[moved[0] - 1] == -moved[0]:
        return ("zero", moved[0], 0)
    if len(moved) == 2:
        k, l = moved
        if sigma[k - 1] == l and sigma[l - 1] == k:
            return ("diff", k, l)
        if sigma[k - 1] == -l and sigma[l - 1] == -k:
            return ("sum", k, l)
    raise ValueError(f"{t} is not a reflection")


def block_counts_by_digit(planes: Iterable[Plane], n: int) -> list[int]:
    """The a[k] of `arrangements._block_counts` with one list of k counts per
    vertex set, summed entry by entry: the same DP without the packing."""
    same, opposite = [0] * n, [0] * n
    no_zero = 0
    for kind, i, j in planes:
        if kind == "zero":
            no_zero |= 1 << (i - 1)
        else:
            adjacent = opposite if kind == "diff" else same
            adjacent[i - 1] |= 1 << (j - 1)
            adjacent[j - 1] |= 1 << (i - 1)
    full = (1 << n) - 1
    # signings[s]: the minus-sets of the valid signings of s, built by
    # giving the highest vertex v of s a sign that fits its edges
    signings: list[list[int]] = [[0]]
    for s in range(1, full + 1):
        v = s.bit_length() - 1
        rest = s ^ 1 << v
        valid = []
        for minus in signings[rest]:
            plus = rest ^ minus
            if not (minus & same[v] or plus & opposite[v]):
                valid.append(minus)
            if not (minus & opposite[v] or plus & same[v]):
                valid.append(minus | 1 << v)
        signings.append(valid)
    sigma = [len(valid) for valid in signings]
    # parts[s][k]: weighted partitions of s into k blocks, built by choosing
    # the block that holds the lowest vertex of s
    parts = [[0] * (n + 1) for _ in range(full + 1)]
    parts[0][0] = 1
    for s in range(1, full + 1):
        low = s & -s
        sub = rest = s ^ low
        while True:
            block = sub | low
            for k, count in enumerate(parts[s ^ block][:n]):
                parts[s][k + 1] += sigma[block] * count
            if not sub:
                break
            sub = (sub - 1) & rest
    # a zero set has no edge inside: all 2^|z| of its signings are valid
    zero_sets = [
        z for z in range(full + 1) if not z & no_zero and sigma[z] == 1 << z.bit_count()
    ]
    return [sum(parts[full ^ z][k] for z in zero_sets) for k in range(n + 1)]


def _odd_primes_above(bound: int, count: int) -> list[int]:
    primes = []
    q = max(3, bound + 1)
    if q % 2 == 0:
        q += 1
    while len(primes) < count:
        if all(q % p for p in range(3, int(q**0.5) + 1, 2)):
            primes.append(q)
        q += 2
    return primes


def _complement_count(planes: Sequence[Plane], n: int, q: int) -> int:
    """Points of F_q^n avoiding every hyperplane, by vectorized scan."""
    total = q**n
    count = 0
    chunk = 1 << 20
    powers = [q**k for k in range(n)]
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        coords = [(idx // powers[k]) % q for k in range(n)]
        ok = np.ones(len(idx), dtype=bool)
        for kind, i, j in planes:
            if kind == "zero":
                ok &= coords[i - 1] != 0
            elif kind == "diff":
                ok &= coords[i - 1] != coords[j - 1]
            else:
                ok &= (coords[i - 1] + coords[j - 1]) % q != 0
        count += int(ok.sum())
    return count


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_eval(coeffs: Sequence[Fraction], x: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def chamber_count_ff(
    w: Element, primes: Sequence[int] | None = None
) -> int:
    """Independent chamber count via finite-field point counting.

    Counts complement points over each prime field, interpolates the
    degree-n characteristic polynomial exactly, checks consistency on the
    spare primes, and returns (-1)^n chi(-1).
    """
    n = w.ctx.rank
    planes = inversion_arrangement(w)
    if primes is None:
        primes = _odd_primes_above(2 * n, n + 3)
    primes = list(primes)
    if len(primes) < n + 1:
        raise ValueError(f"need at least {n + 1} primes, got {len(primes)}")
    if any(p <= 2 * n or p % 2 == 0 for p in primes):
        raise ValueError(f"primes must be odd and exceed {2 * n}: {primes}")

    points = [(q, _complement_count(planes, n, q)) for q in primes]
    base, spare = points[: n + 1], points[n + 1 :]

    # exact Lagrange interpolation of chi through the base points
    coeffs = [Fraction(0)] * (n + 1)
    for i, (qi, yi) in enumerate(base):
        num = [Fraction(1)]
        denom = Fraction(1)
        for j, (qj, _) in enumerate(base):
            if j == i:
                continue
            num = _poly_mul(num, [Fraction(-qj), Fraction(1)])
            denom *= qi - qj
        for k, c in enumerate(num):
            coeffs[k] += yi * c / denom

    if any(c.denominator != 1 for c in coeffs) or coeffs[n] != 1:
        raise ArithmeticError(
            f"point counts do not interpolate a monic integer polynomial: {coeffs}"
        )
    for q, y in spare:
        if _poly_eval(coeffs, q) != y:
            raise ArithmeticError(
                f"characteristic polynomial fails at spare prime {q}"
            )
    value = _poly_eval(coeffs, -1)
    return int((-1) ** n * value)


# --- diagrams and right hulls -----------------------------------------------


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


def window_in_hull(
    u_window: Sequence[int], bounds: tuple[Window, Window]
) -> bool:
    """u ⊆ H(w) for the hull with these column bounds (lo, hi): every point
    (u(j), j) lies inside them."""
    return all(lo <= v <= hi for v, lo, hi in zip(u_window, *bounds))


def hull_windows(bounds: tuple[Window, Window]) -> Iterator[Window]:
    """All windows inside the column bounds (lo, hi), by backtracking with a
    used-value mask.  Exponential in the degree: the oracle for the hull
    dynamic program."""
    lo, hi = bounds
    n = len(lo)
    used = [False] * (n + 1)
    current = [0] * n

    def extend(j: int) -> Iterator[Window]:
        if j == n:
            yield tuple(current)
            return
        for v in range(lo[j], hi[j] + 1):
            if used[v]:
                continue
            used[v] = True
            current[j] = v
            yield from extend(j + 1)
            used[v] = False

    yield from extend(0)


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
        (p, q, r)
        for p, q, r in coessential_boxes(w.window)
        if r == identity_rank(p, q)
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


# --- basic elements, reduced words and E'(w) --------------------------------


def oracle_hull_rank_bound(bounds: tuple[Window, Window], p: int, q: int) -> int:
    """min(#{k <= q : hi_k >= p}, (N-p+1) - #{k > q : lo_k >= p}), each
    count taken position by position over the hull bounds (lo, hi)."""
    lo, hi = bounds
    size = len(lo)
    reachable = sum(1 for k in range(1, q + 1) if hi[k - 1] >= p)
    forced_after = sum(1 for k in range(q + 1, size + 1) if lo[k - 1] >= p)
    return min(reachable, size - p + 1 - forced_after)


def oracle_hull_counterexample(w: Element, central: int | None) -> Window | None:
    """The hull test with one board for every coessential box, mirrors
    included: the best window of the first box, in sorted order, that a
    window of the board violates; None if there is no such box."""
    lo, hi = hull_bounds(w)
    for p, q, r in coessential_boxes(w.window):
        u = _best_hull_window(lo, hi, p, q, central)
        if u is not None and window_rank(u, p, q) > r:
            return u
    return None


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
        return _checked(win, p, q, r, ctx)

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
    """The Bruhat-minimal group element v with r_v(p,q) > r.

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


def reduced_coessential_closed_form(
    w: Element, offset: str = "p-n-1", strict_domain: bool = True
) -> tuple[Box, ...]:
    """Closed-form redundancy filter for E'(w), kept for comparison only.

    `offset` selects which shift relates r_w(2n+2-p, q) to r_w(p, q) in the
    redundancy test; the three published variants do not agree, so none is
    treated as ground truth.  `strict_domain` keeps the literal p,q < n
    restriction; the corrected reading uses p <= n, q < n.
    """
    if w.ctx.family != "B":
        raise ValueError("E'(w) is defined for type B elements only")
    n = w.ctx.rank
    boxes = {(p, q): r for p, q, r in coessential_boxes(w.window)}
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
        (p, q, boxes[(p, q)]) for p, q in sorted(boxes) if (p, q) not in redundant
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


# --- patterns ---------------------------------------------------------------


def memoise_queries(monkeypatch) -> None:
    """For one test, memoise `patterns._query` by its entries.  The package
    builds a query afresh for each `bp_contains` and `classical_contains`
    call; a test that calls them for every pair of two groups meets the
    same few host and pattern pairs thousands of times."""
    monkeypatch.setattr(patterns, "_query", lru_cache(maxsize=None)(patterns._query))


def embed_pattern(emb: ParabolicEmbedding, v: Element) -> Element:
    """The canonical isomorphism applied to a pattern element: v permutes
    the embedding's positions (mirrored on the complement for A-in-B)."""
    if v.ctx != emb.pattern_ctx:
        raise ValueError(f"{v} does not live in the pattern group of {emb}")
    n = emb.host.degree
    win = list(range(1, n + 1))
    idx = emb.indices
    for j, i in enumerate(idx, start=1):
        win[i - 1] = idx[v.window[j - 1] - 1]
    if emb.kind == "A-in-B":
        for j, i in enumerate(idx, start=1):
            win[n - i] = n + 1 - idx[v.window[j - 1] - 1]
    return Element(tuple(win), emb.host)


def generator_images(emb: ParabolicEmbedding) -> tuple[Element, ...]:
    """The canonical images of the pattern group's simple generators."""
    return tuple(embed_pattern(emb, s) for s in emb.pattern_ctx.generators)


def dynkin_reverse(v: Element) -> Element:
    """w_0 v w_0: the image of v under the type A diagram flip."""
    m = v.degree
    return Element(tuple(m + 1 - v.window[m - i] for i in range(1, m + 1)), v.ctx)


def oracle_a_in_b_index_sets(n: int, m: int) -> list[tuple[int, ...]]:
    """Size-m subsets of 1..2n with no two entries summing to 2n+1, by
    definition: every m-subset, in lexicographic order, kept unless it
    holds a mirror pair."""
    s = 2 * n + 1
    return [
        idx
        for idx in combinations(range(1, 2 * n + 1), m)
        if not any(s - i in idx for i in idx)
    ]


# Each word of a Lehmer code holds digits whose ranges multiply to at most
# 2^53.  Any bound up to 2^63 keeps the int64 products exact; this one
# splits codes from 19 positions on, so the kernel's tests at 18 to 21
# positions also cross the referee's word boundary.
_WORD_LIMIT = 1 << 53


@lru_cache(maxsize=64)
def _weights(k: int) -> np.ndarray:
    """(k(k-1)/2, words) int64 place values of the position pairs a < b of
    k positions, in `combinations` order.

    The Lehmer digit L_a = #{b > a : x_a > x_b} of a sequence of k distinct
    values lies in 0..k-1-a, and the digits determine the relative order.
    The pair (a, b) adds the place value of digit a to its word when
    x_a > x_b.  Digits are grouped from the right into words whose ranges
    multiply to at most `_WORD_LIMIT`.  For k <= 18 that is one word, where
    digit a has place value (k-1-a)!, so the code is the Lehmer rank in
    0..k!-1.
    """
    word, place = [0] * k, [0] * k
    words, value = 0, 1
    for a in reversed(range(k)):
        if value * (k - a) > _WORD_LIMIT:
            words, value = words + 1, 1
        word[a], place[a] = words, value
        value *= k - a
    weights = np.zeros((k * (k - 1) // 2, words + 1), dtype=np.int64)
    for t, (a, _) in enumerate(combinations(range(k), 2)):
        weights[t, word[a]] = place[a]
    weights.flags.writeable = False
    return weights


def _greater(windows: np.ndarray) -> np.ndarray:
    """(rows, d * d) comparison table: entry i * d + j says whether the row
    is larger at position i than at position j (0-based)."""
    rows, d = windows.shape
    return (windows[:, :, None] > windows[:, None, :]).reshape(rows, d * d)


def _pair_index(sets: np.ndarray, d: int) -> np.ndarray:
    """(K, k(k-1)/2) flat comparison-table indices of the local position
    pairs a < b of each index set, in `combinations` order."""
    a, b = np.array(list(combinations(range(sets.shape[1]), 2)), dtype=np.intp).reshape(-1, 2).T
    return (sets[:, a] - 1) * d + (sets[:, b] - 1)


def _codes(greater: np.ndarray, pairs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(rows, K, words) int64 flattening codes: the comparison-table entries
    gathered at each index set's pairs, times their place values."""
    return greater.take(pairs, axis=1) @ weights


def _index_sets(kind: str, n: int, k: int) -> list[tuple[int, ...]]:
    """The index sets of one embedding kind in lexicographic order."""
    if kind == "A-in-A":
        return list(combinations(range(1, n + 1), k))
    if kind == "A-in-B":
        return oracle_a_in_b_index_sets(n, k)
    return list(b_in_b_index_sets(n, k // 2))


def oracle_first_matches(
    entries: Sequence[_Entry | None], windows: np.ndarray
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """`patterns._first_matches` entry by entry, by another method: each
    entry's index sets listed here (the A-in-B ones by definition), and its
    Lehmer codes as int64 products of the comparison-table entries gathered
    at their pairs with `_weights` (not the kernel's masked comparison
    bits), compared with the codes of its targets.  For each row: the
    least entry that one of its index sets matches, and the first such
    index set; or len(entries) and () for no match."""
    rows, d = windows.shape
    none = len(entries)
    best = np.full(rows, none, dtype=np.intp)
    first: list[tuple[int, ...]] = [()] * rows
    for e, entry in enumerate(entries):
        if entry is None:
            continue
        kind, n, targets = entry
        k = len(targets[0])
        sets = _index_sets(kind, n, k)
        if not sets:
            continue
        weights = _weights(k)
        pairs = _pair_index(np.array(sets, dtype=np.intp), d)
        # a target is a host of degree k whose one index set is 1..k
        own = np.array(targets, dtype=np.int16)
        own = _codes(_greater(own), _pair_index(np.arange(1, k + 1)[None], k), weights)[:, 0]
        open_rows = np.flatnonzero(best == none)
        step = max(1, _BLOCK_BYTES // (8 * max(pairs.size, 1)))
        for start in range(0, len(open_rows), step):
            part = open_rows[start : start + step]
            codes = _codes(_greater(windows[part]), pairs, weights)
            # (rows, targets, K): every word of a column's code equals a target's
            hit = (codes[:, None] == own[None, :, None]).all(axis=3).any(axis=1)
            matched = hit.any(axis=1)
            best[part[matched]] = e
            for row, column in zip(part[matched].tolist(), hit[matched].argmax(axis=1).tolist()):
                first[row] = sets[column]
    return best, first


# --- the minimal-pattern search ---------------------------------------------


def oracle_find_minimal_non_hultman(max_a: int = 6, max_b: int = 5) -> tuple[Element, ...]:
    """`find_minimal_non_hultman` by scanning every element of S_4..S_max_a
    and B_3..B_max_b, with no generating tree: each group's candidates are
    its rows that fail condition 3, and those that BP contain no pattern of
    an earlier group are minimal, in row order."""
    contexts = [context("A", m) for m in range(4, max_a + 1)]
    contexts += [context("B", m) for m in range(3, max_b + 1)]
    minimal: list[Element] = []
    for ctx in contexts:
        candidates = np.flatnonzero(~defined_by_inclusions_mask(ctx))
        first = first_bp_contained(ctx, ctx.window_matrix[candidates], tuple(minimal))
        minimal += [ctx.element(row) for row in candidates[first < 0].tolist()]
    return tuple(minimal)
