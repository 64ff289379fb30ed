"""Classical and Billey-Postnikov pattern containment.

Three embedding kinds cover the parabolic subgroups that matter here:

- "A-in-A": S_m inside S_n on m chosen positions.  The diagram flip means
  w BP contains v iff w classically contains v or w_0 v w_0.
- "A-in-B": S_m inside B_n on positions i_1 < ... < i_m with no two
  summing to 2n+1 (the action is mirrored on the complementary positions).
  Enumerating all such index sets covers both diagram isomorphisms, since
  the mirrored index set realizes the flipped pattern.
- "B-in-B": B_m inside B_n on a mirror-closed set of 2m positions.  The
  B_m diagram is rigid, so only the canonical isomorphism applies and the
  flattening is compared to v directly.

Containment is decided by comparison bitmasks, in one numpy kernel.  A
plan holds, for one (embedding kind, host, pattern size k), the index
sets in lexicographic order.  A host window x flattens to v at an index
set s exactly when x and v agree on every comparison there:
[x_{s_a} > x_{s_b}] = [v_a > v_b] for each pair a < b of local positions.
Every index set is increasing, so each such comparison is [x_i > x_j] for
host positions i < j: one of the d(d-1)/2 entries of the upper triangle
of the row's comparisons, however many columns read it.  A type B window
is centrally symmetric, x_{d+1-i} = d+1 - x_i, so i < j compare as their
mirrors d+1-j < d+1-i do, and a type B host keeps one pair of each mirror
pair: n^2 of its n(2n-1) pairs.  A row holds the bits of its P kept pairs
in 63-bit int64 words, bit t % 63 of word t // 63 for the t-th pair: one
word for S_<=11 and B_<=7, two for S_12 to S_16 and B_8 to B_11.  A
search entry lists the target windows of one pattern: v and its diagram
flip for the A kinds, v alone for B-in-B and for classical containment
(which uses the A-in-A index sets).

A query holds the columns (index sets) of every plan of its entries,
ordered by pattern size, and numbers them in that order (the global
column).  It is built in one pass over the plans.  Each column is paired
with every distinct target of its plan, and the (column, target) pairs
are held in one flat list ordered by owner (the least entry holding the
target) and then by column.  A pair holds, per word, the mask of the
host pairs its column covers and the value of the target's comparisons
on them, so a row matches the pair iff (word & mask) == value in every
word.  A last sentinel pair, mask 0 and value 0, is hit by every row.
For every row of a batch of host windows, the kernel returns the first
entry whose targets the row matches at one of its columns, and the
global column where it first does: the row's upper-triangle bits, each
computed once; one integer product of them with the power of two of each
pair, which packs them into words; masked comparisons of the words with
the pairs' values; and the first hit of each row, which is its least
owner at that owner's first column, or the sentinel when no other pair
is hit.  Each word, mask and value is a sum of distinct powers of two
below 2^63, so int64 holds it exactly and the kernel makes no
floating-point call.
The query also holds every column's index set, so each caller reads the
index set of a match there.  Rows go in blocks whose largest temporary
stays under about 256 KiB.  A batch that fits one block, as a batch of one
always does, meets every pair in one expression, with no buffer.  A larger
batch goes in two stages per block: the rows' words, computed once, meet
the least owner's pairs first (a prefix of the pairs, such as the 1120
pairs of 4231 among the 8205 of B_8), and only the rows that hit none of
them meet the rest, so most rows of a group never meet most pairs.  A hit
in the prefix is the row's first hit overall, so both ways give the same
answer.  `bp_contains` and `classical_contains` run the kernel on a batch
of one, `first_bp_contained` on a batch of host windows against any
patterns, and `condition5_matches` on a whole group against the 31 listed
patterns; `avoids_condition5_list` runs that query on a batch of one and
reads its owner and column as scalars.  Only the condition 5 query of a
host is memoised.  An embedding read off a match skips the checks of
`ParabolicEmbedding`, whose index sets the plans make valid.
`relative_order` remains only for `flatten`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .groups import Element, GroupContext, Window, _position_pairs, context, parse_element

EmbeddingKind = str  # "A-in-A" | "A-in-B" | "B-in-B"


def relative_order(values: Sequence[int]) -> Window:
    """The pattern of a value sequence: ranks within the sorted values."""
    ranking = {v: i for i, v in enumerate(sorted(values), start=1)}
    return tuple(ranking[v] for v in values)


def _flip(window: Window) -> Window:
    """The window of w_0 v w_0, the image of v under the type A diagram
    flip."""
    top = len(window) + 1
    return tuple(top - x for x in reversed(window))


@dataclass(frozen=True)
class ParabolicEmbedding:
    """A parabolic subgroup of the host given by its support positions.

    `indices` are the chosen positions (all 2m of them for B-in-B); for
    A-in-B the mirrored positions carry the complementary half of the
    action and are implied.
    """

    host: GroupContext
    kind: EmbeddingKind
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = self.indices
        if list(idx) != sorted(set(idx)):
            raise ValueError(f"indices must be strictly increasing: {idx}")
        if not idx or idx[-1] > self.host.degree:
            raise ValueError(f"indices {idx} out of range for {self.host}")
        if self.kind == "A-in-A":
            if self.host.family != "A":
                raise ValueError("A-in-A embedding needs a type A host")
        elif self.kind == "A-in-B":
            if self.host.family != "B":
                raise ValueError("A-in-B embedding needs a type B host")
            s = 2 * self.host.rank + 1
            if any(i + j == s for i in idx for j in idx):
                raise ValueError(f"indices {idx} contain a mirror pair")
        elif self.kind == "B-in-B":
            if self.host.family != "B":
                raise ValueError("B-in-B embedding needs a type B host")
            s = 2 * self.host.rank + 1
            if len(idx) % 2 or any(
                idx[j] + idx[len(idx) - 1 - j] != s for j in range(len(idx) // 2)
            ):
                raise ValueError(f"indices {idx} are not mirror-closed")
        else:
            raise ValueError(f"unknown embedding kind {self.kind!r}")

    @property
    def pattern_ctx(self) -> GroupContext:
        if self.kind == "B-in-B":
            return context("B", len(self.indices) // 2)
        return context("A", len(self.indices))


def _plan_embedding(
    host: GroupContext, kind: EmbeddingKind, indices: tuple[int, ...]
) -> ParabolicEmbedding:
    """The embedding at an index set of one of a query's plans, without
    the checks of `ParabolicEmbedding.__post_init__`: a plan holds only
    valid index sets of its kind and host, by construction."""
    emb = object.__new__(ParabolicEmbedding)
    for name, value in (("host", host), ("kind", kind), ("indices", indices)):
        object.__setattr__(emb, name, value)
    return emb


def flatten(w: Element, emb: ParabolicEmbedding) -> Element:
    """The flattening of w to the parabolic, as a pattern-group element.

    Concretely: the relative order of w at the embedding's positions.
    """
    if w.ctx != emb.host:
        raise ValueError("element and embedding live in different hosts")
    values = [w.window[i - 1] for i in emb.indices]
    return Element(relative_order(values), emb.pattern_ctx)


def a_in_b_index_sets(n: int, m: int) -> list[tuple[int, ...]]:
    """Size-m subsets of 1..2n with no two entries summing to 2n+1, in
    lexicographic order: m of the n mirror pairs {i, 2n+1-i}, one side of
    each."""
    s = 2 * n + 1
    return sorted(
        tuple(sorted(sides))
        for small in combinations(range(1, n + 1), m)
        for sides in product(*((i, s - i) for i in small))
    )


def b_in_b_index_sets(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """Mirror-closed 2m-subsets of 1..2n, determined by m entries <= n."""
    s = 2 * n + 1
    for small in combinations(range(1, n + 1), m):
        yield small + tuple(s - i for i in reversed(small))


# Bytes of the largest kernel temporary for one block of host rows, so
# memory stays flat for any batch size.
_BLOCK_BYTES = 1 << 18
# Comparison bits per int64 word: bit 63 would be the sign.
_WORD_BITS = 63

# One search entry: (embedding kind, host size, target windows).  The size
# is the host's degree for "A-in-A" (which also serves classical
# containment) and its rank otherwise; the index sets have the targets'
# length.
_Entry = tuple[EmbeddingKind, int, tuple[Window, ...]]


def _plan(kind: EmbeddingKind, n: int, k: int) -> np.ndarray:
    """The index sets of one embedding kind, in lexicographic order, as a
    (K, k) array of 1-based positions."""
    if kind == "A-in-A":
        sets: Iterable[tuple[int, ...]] = combinations(range(1, n + 1), k)
    elif kind == "A-in-B":
        sets = a_in_b_index_sets(n, k)
    else:
        sets = b_in_b_index_sets(n, k // 2)
    return np.array(list(sets), dtype=np.intp).reshape(-1, k)


class _Query(NamedTuple):
    """The columns of one search, laid out for the one-pass kernel.  A
    global column numbers the index sets of all plans, plan by plan.
    Each index set is increasing, so its pair (a, b) of local positions
    compares host positions s_a < s_b: an entry of the upper triangle of
    the host's comparisons, or in a type B host its mirror pair, which
    compares alike; `upper` lists the kept pairs.  Row t of `powers` is
    2^(t % 63) in word t // 63, so the product of a row's comparison bits
    at `upper` with `powers` is the row's words, each a sum of distinct
    powers of two below 2^63 and so exact in int64.  Each column
    is paired with every distinct target of its plan, held once with its
    least owner.  A pair's mask has the bits of the host pairs its column
    covers, and its value the target's comparisons on them, so a row
    matches the pair iff (word & mask) == value in every word.  The pairs
    are ordered by owner and then by column, so the first pair a row hits
    is its least owner at that owner's first column.  A last pair of mask
    0 and value 0, which every row hits, and a last row of `sets` stand for
    no match: a row hits it first only when it hits no other pair.  The
    least owner's pairs are the first `first_pairs` (the sentinel alone
    when no entry has a pair)."""

    entries: int  # their number, the owner of a row that matches none
    upper: np.ndarray  # (2, P) host positions i < j, 0-based
    powers: np.ndarray  # (P, words) int64 bit of each position pair
    pair_columns: np.ndarray  # (M + 1,) global column of each pair, then C
    masks: np.ndarray  # (words, M + 1) int64 bits each pair compares, then 0
    values: np.ndarray  # (words, M + 1) int64 its target's bits there, then 0
    pair_owners: np.ndarray  # (M + 1,) owner of each pair, then entries
    first_pairs: int  # the pairs of pair_owners[0], a prefix of the pairs
    sets: np.ndarray  # (C + 1, k) int16 index set of each column, zero-padded
    row_bytes: int  # the largest one-pass kernel temporary per host row


def _query(entries: tuple[_Entry | None, ...]) -> _Query:
    """The columns of each distinct plan among the entries (None entries
    have no parabolic in the host and never match), ordered by pattern
    size, built in one pass over the plans."""
    by_plan: dict[tuple[int, EmbeddingKind, int], list[int]] = {}
    for e, entry in enumerate(entries):
        if entry is not None:
            kind, n, targets = entry
            by_plan.setdefault((len(targets[0]), kind, n), []).append(e)
    plans, degree, mirrored = [], 0, False
    for (k, kind, n), owners in sorted(by_plan.items()):
        if len(sets := _plan(kind, n, k)):
            plans.append((k, kind == "B-in-B", sets, owners))
            degree, mirrored = (n, False) if kind == "A-in-A" else (2 * n, True)
    i, j = _position_pairs(degree)
    # a type B host keeps the pairs i + j <= d - 1 (0-based): the other of
    # each mirror pair compares alike
    own = i + j < degree if mirrored else np.ones(len(i), dtype=bool)
    upper = np.array((i[own], j[own]), dtype=np.intp)
    t = np.arange(upper.shape[1])
    powers = np.zeros((len(t), max(1, -(-len(t) // _WORD_BITS))), dtype=np.int64)
    powers[t, t // _WORD_BITS] = np.left_shift(1, t % _WORD_BITS)
    # the kept pair, and so the bit, of each host position pair i < j
    triangle = np.zeros((degree, degree), dtype=np.intp)
    triangle[upper[0], upper[1]] = t
    if mirrored:
        triangle[degree - 1 - upper[1], degree - 1 - upper[0]] = t
    columns = sum(len(sets) for _, _, sets, _ in plans)
    stacked = np.zeros((columns + 1, max((k for k, *_ in plans), default=0)), dtype=np.int16)
    words = powers.shape[1]
    # (owners, columns, masks, values) of the pairs, from the sentinel on:
    # its owner, len(entries), sorts after every other
    none = np.zeros((1, words), dtype=np.int64)
    found = [([len(entries)], [columns], none, none)]
    c0 = 0
    for k, closed, sets, owners in plans:
        a, b = _position_pairs(k)
        if closed:  # a mirror-closed set covers both pairs of a mirror pair: read one
            a, b = a[a + b < k], b[a + b < k]
        column = np.arange(c0, c0 + len(sets))
        c0 += len(sets)
        stacked[column, :k] = sets
        # (K, pairs, words): the bit of each kept pair a column compares;
        # a column's bits are distinct, so their sum is its mask
        bit = powers[triangle[sets[:, a] - 1, sets[:, b] - 1]]
        least: dict[Window, int] = {}
        for e in owners:  # owners ascend: the first is least
            for target in entries[e][2]:
                least.setdefault(target, e)
        targets = np.array(list(least), dtype=np.int16).reshape(len(least), k)
        # (K, T, words): each target's comparisons on each column's bits
        value = (targets[:, a] > targets[:, b]).astype(np.int64) @ bit
        shape = value.shape[:2]
        found.append((
            np.broadcast_to(list(least.values()), shape).ravel(),
            np.broadcast_to(column[:, None], shape).ravel(),
            np.broadcast_to(bit.sum(axis=1)[:, None], value.shape).reshape(-1, words),
            value.reshape(-1, words),
        ))
    owner, column, mask, value = (np.concatenate(part) for part in zip(*found))
    order = np.lexsort((column, owner))
    pair_owners, pair_columns = owner[order], column[order]
    masks, values = mask[order].T.copy(), value[order].T.copy()
    for arr in (upper, powers, pair_columns, masks, values, pair_owners, stacked):
        arr.flags.writeable = False
    first_pairs = int(np.searchsorted(pair_owners, pair_owners[0], side="right"))
    # the upper-triangle bits, or one masked word per pair, all int64
    row_bytes = 8 * max(len(t), len(pair_owners))
    return _Query(
        len(entries), upper, powers, pair_columns, masks, values, pair_owners, first_pairs,
        stacked, row_bytes,
    )


def _hits(words: np.ndarray, masks: np.ndarray, values: np.ndarray):
    """The first of the given pairs that each row of `words` hits, by
    (word & mask) == value in every word, and the (rows, pairs) hits.  A
    row that hits none reads 0."""
    hit = (words[:, :1] & masks[0]) == values[0]
    for w in range(1, words.shape[1]):
        hit &= (words[:, w, None] & masks[w]) == values[w]
    return hit.argmax(axis=1), hit


def _first_matches(query: _Query, windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kernel.  For each row of `windows`: the least entry index whose
    targets the row matches at one of its columns, and the global column
    where it first does, whose row of `query.sets` is the lexicographically
    first index set of that entry's plan; or `query.entries` and the last
    row of `query.sets` if no entry matches.  A row's words are one integer
    product of its upper-triangle comparison bits with `query.powers`,
    exact since each is a sum of distinct powers of two below 2^63.  A row
    hits a pair iff (word & mask) == value in every word; the pairs are
    ordered by owner and then by column, so the row's first hit is its
    least owner at that owner's first column, and the sentinel pair, hit by
    every row, is the first hit only of a row that hits no other.

    A batch that fits one block of `query.row_bytes` (a batch of one
    always does) meets every pair in one expression, with no buffer.  A
    larger batch goes in two stages, per block: each row's words, computed
    once, meet the least owner's pairs (the first `query.first_pairs`), and
    a hit there is the row's first hit overall; only the rows that miss go
    on to the remaining pairs, which end with the sentinel (a query whose
    only pair is the sentinel has no remaining pairs, and no row misses).
    Every stage's temporaries stay under _BLOCK_BYTES."""
    i, j = query.upper
    if len(windows) <= max(1, _BLOCK_BYTES // query.row_bytes):
        words = np.greater(windows[:, i], windows[:, j]) @ query.powers
        first = _hits(words, query.masks, query.values)[0]
        return query.pair_owners[first], query.pair_columns[first]
    head, pairs = query.first_pairs, len(query.pair_owners)
    step = max(1, _BLOCK_BYTES // (8 * max(len(i), head)))
    rest = max(1, _BLOCK_BYTES // (8 * max(1, pairs - head)))
    first = np.empty(len(windows), dtype=np.intp)
    for start in range(0, len(windows), step):
        part = windows[start : start + step]
        words = np.greater(part[:, i], part[:, j]) @ query.powers
        found, hit = _hits(words, query.masks[:, :head], query.values[:, :head])
        first[start : start + step] = found
        missed = np.flatnonzero(~hit[np.arange(len(part)), found])
        for k in range(0, len(missed), rest):
            some = missed[k : k + rest]
            found = _hits(words[some], query.masks[:, head:], query.values[:, head:])[0]
            first[start + some] = head + found
    return query.pair_owners[first], query.pair_columns[first]


def _host_rows(hosts: Sequence[Element], degree: int) -> np.ndarray:
    return np.array([w.window for w in hosts], dtype=np.int16).reshape(-1, degree)


def _bp_kind(host: str, pattern: str) -> EmbeddingKind | None:
    """The embedding kind of a pattern family in a host family; None for a
    type B pattern in a type A host, which has no parabolic of its type."""
    if pattern == "A":
        return "A-in-A" if host == "A" else "A-in-B"
    return "B-in-B" if host == "B" else None


def _bp_entry(host: GroupContext, v: Element) -> _Entry | None:
    """BP containment of v as a search entry: v and, for the A kinds, its
    diagram flip; None when the host has no parabolic of v's type."""
    kind = _bp_kind(host.family, v.ctx.family)
    if kind is None:
        return None
    if kind == "B-in-B":
        return kind, host.rank, (v.window,)
    return kind, host.rank, tuple(dict.fromkeys((v.window, _flip(v.window))))


def _first_embedding(w: Element, query: _Query) -> tuple[int, ...] | None:
    """The first index set where w matches the one entry of `query`, whose
    one plan leaves its sets unpadded; None if it matches nowhere."""
    best, column = _first_matches(query, _host_rows((w,), w.degree))
    if best[0] == query.entries:
        return None
    return tuple(query.sets[column[0]].tolist())


def first_bp_contained(
    host: GroupContext, windows: np.ndarray, pats: Sequence[Element]
) -> np.ndarray:
    """For each row of `windows` (elements of host, such as rows of
    host.window_matrix), the index in `pats` of the first pattern it BP
    contains, or -1: one kernel pass over every row, and none when there
    is no row or no pattern."""
    if not len(windows) or not pats:
        return np.full(len(windows), -1, dtype=np.intp)
    query = _query(tuple(_bp_entry(host, v) for v in pats))
    best, _ = _first_matches(query, windows)
    return np.where(best < len(pats), best, -1)


def bp_contains(w: Element, v: Element) -> ParabolicEmbedding | None:
    """The first embedding (lexicographic index order) realizing v as the
    flattening of w, or None if w BP avoids v."""
    entry = _bp_entry(w.ctx, v)
    if entry is None:
        return None
    found = _first_embedding(w, _query((entry,)))
    return None if found is None else _plan_embedding(w.ctx, entry[0], found)


def classical_contains(w: Element, v: Element) -> tuple[int, ...] | None:
    """Classical pattern containment; returns the lexicographically least
    witness index set, or None."""
    return _first_embedding(w, _query((("A-in-A", w.degree, (v.window,)),)))


# The 31 minimal Billey-Postnikov obstructions for the Hultman property,
# as (family, rank, window text).
CONDITION5_SPECS: tuple[tuple[str, int, str], ...] = (
    ("A", 4, "4231"),
    ("A", 5, "35142"),
    ("A", 5, "42513"),
    ("A", 6, "351624"),
    ("B", 3, "563412"),
    ("B", 3, "653421"),
    ("B", 3, "645231"),
    ("B", 3, "635241"),
    ("B", 3, "624351"),
    ("B", 3, "642531"),
    ("B", 3, "536142"),
    ("B", 3, "426153"),
    ("B", 3, "462513"),
    ("B", 3, "623451"),
    ("B", 4, "47618325"),
    ("B", 4, "46718235"),
    ("B", 4, "57163824"),
    ("B", 4, "37581426"),
    ("B", 4, "47163825"),
    ("B", 4, "46172835"),
    ("B", 4, "37518426"),
    ("B", 4, "35718246"),
    ("B", 4, "37145826"),
    ("B", 4, "37154826"),
    ("B", 4, "52618374"),
    ("B", 4, "42681375"),
    ("B", 4, "42618375"),
    ("B", 4, "35172846"),
    ("B", 5, "3517294a68"),
    ("B", 5, "3517924a68"),
    ("B", 5, "3617294a58"),
)


@lru_cache(maxsize=1)
def condition5_patterns() -> tuple[Element, ...]:
    return tuple(
        parse_element(text, context(family, rank))
        for family, rank, text in CONDITION5_SPECS
    )


@lru_cache(maxsize=None)
def _condition5_query(host: GroupContext) -> _Query:
    """The query of the listed patterns in `host`."""
    return _query(tuple(_bp_entry(host, v) for v in condition5_patterns()))


def condition5_index_sets(ctx: GroupContext) -> int:
    """The index sets of the condition 5 query of ctx.  A whole-group scan
    by `condition5_matches` tries the first pattern's sets on every row,
    and all of them only on the rows that miss those."""
    return len(_condition5_query(ctx).sets) - 1


def condition5_second_stage_rows(ctx: GroupContext, pattern: np.ndarray) -> int:
    """The rows of a `condition5_matches` result for ctx whose first match
    is not the query's least owner: those that miss its pairs, and so go on
    to the kernel's second stage when it runs in two."""
    query = _condition5_query(ctx)
    owner = int(query.pair_owners[0])
    return int((pattern != (owner if owner < query.entries else -1)).sum())


def condition5_matches(
    ctx: GroupContext, windows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Condition 5 for many elements of ctx in one kernel pass.

    For each row of `windows` (by default ctx.window_matrix): the
    index in `condition5_patterns()` of the first listed pattern the row BP
    contains, or -1; and that pattern's first index set, as an int16 row
    of 1-based positions whose first v.degree entries are the set (the
    rest, and the whole row for -1, are zeros).
    """
    if windows is None:
        windows = ctx.window_matrix
    query = _condition5_query(ctx)
    best, column = _first_matches(query, windows)
    return np.where(best < query.entries, best, -1), query.sets[column]


def condition5_embedding(
    host: GroupContext, pattern: int, indices: np.ndarray
) -> tuple[Element, ParabolicEmbedding] | None:
    """One row of `condition5_matches` as (pattern, first embedding), or
    None for -1."""
    if pattern < 0:
        return None
    v = condition5_patterns()[pattern]
    kind = _bp_kind(host.family, v.ctx.family)
    return v, _plan_embedding(host, kind, tuple(indices[: v.degree].tolist()))


def avoids_condition5_list(
    w: Element,
) -> tuple[bool, tuple[Element, ParabolicEmbedding] | None]:
    """Whether w BP avoids all 31 listed patterns (a type A host: the four
    type A patterns, since a B pattern has no parabolic in S_n); on failure,
    the first matched pattern in list order and its first embedding.  The
    kernel of `condition5_matches` on a batch of one, whose one owner and
    column are read as scalars; the embedding is built only on a match."""
    query = _condition5_query(w.ctx)
    best, column = _first_matches(query, _host_rows((w,), w.degree))
    if best[0] == query.entries:
        return True, None
    return False, condition5_embedding(w.ctx, int(best[0]), query.sets[column[0]])
