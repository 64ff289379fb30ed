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

Containment is decided by flattening codes, in one numpy kernel.  A plan
holds, for one (embedding kind, host, pattern size k), the index sets in
lexicographic order and the k(k-1)/2 pairs a < b of local positions.  The
comparisons [x_a > x_b] of a host window x at an index set fix its
relative order there, and so does their weighted sum, the Lehmer rank
sum_{a<b} [x_a > x_b] (k-1-a)!, which lies in 0..k!-1.  The code of a
window at an index set is that rank: one int64, computed for every index
set at once by one matrix product of the comparison bits with the place
values.  It fits for k <= 20; beyond, the Lehmer digits are split over as
many int64 words as they need.  The window flattens to v exactly when its
code equals v's.  A search entry lists the target windows of one pattern:
v and its diagram flip for the A kinds, v alone for B-in-B and for
classical containment (which uses the A-in-A index sets).  For every row
of a batch of host windows, the kernel returns the first entry whose
targets one of the row's codes hits, at the first index set where it
does.  It takes the rows in blocks whose largest temporary array stays
under about 256 KiB (or one row).  `bp_contains` and `classical_contains`
run it on a batch of one.  `first_bp_contained` runs it on a batch of
host windows against any patterns, and `condition5_matches` on a whole group (or
on a batch of one, for `avoids_condition5_list`) against the 31 listed
patterns.
`relative_order` remains only for `flatten`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .groups import Element, GroupContext, Window, context, parse_element

EmbeddingKind = str  # "A-in-A" | "A-in-B" | "B-in-B"


def relative_order(values: Sequence[int]) -> Window:
    """The pattern of a value sequence: ranks within the sorted values."""
    ranking = {v: i for i, v in enumerate(sorted(values), start=1)}
    return tuple(ranking[v] for v in values)


def dynkin_reverse(v: Element) -> Element:
    """w_0 v w_0: the image of v under the type A diagram flip."""
    m = v.degree
    win = tuple(m + 1 - v.window[m - i] for i in range(1, m + 1))
    return Element(win, v.ctx)


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


def flatten(w: Element, emb: ParabolicEmbedding) -> Element:
    """The flattening of w to the parabolic, as a pattern-group element.

    Concretely: the relative order of w at the embedding's positions.
    """
    if w.ctx != emb.host:
        raise ValueError("element and embedding live in different hosts")
    values = [w.window[i - 1] for i in emb.indices]
    return Element(relative_order(values), emb.pattern_ctx)


def a_in_b_index_sets(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """Size-m subsets of 1..2n with no two entries summing to 2n+1."""
    s = 2 * n + 1
    for idx in combinations(range(1, 2 * n + 1), m):
        chosen = set(idx)
        if any(s - i in chosen for i in idx):
            continue
        yield idx


def b_in_b_index_sets(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """Mirror-closed 2m-subsets of 1..2n, determined by m entries <= n."""
    s = 2 * n + 1
    for small in combinations(range(1, n + 1), m):
        yield small + tuple(s - i for i in reversed(small))


# Bytes of the largest kernel temporary for one block of host rows, so
# memory stays flat for any batch size.
_BLOCK_BYTES = 1 << 18
# A code word is an int64, so its digits' ranges may multiply to at most 2^63.
_WORD_LIMIT = 1 << 63

# One search entry: (embedding kind, host size, target windows).  The size
# is the host's degree for "A-in-A" (which also serves classical
# containment) and its rank otherwise; the index sets have the targets'
# length.
_Entry = tuple[EmbeddingKind, int, tuple[Window, ...]]


@lru_cache(maxsize=64)
def _plan(kind: EmbeddingKind, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The index sets of one embedding kind, in lexicographic order, as a
    (K, k) array of 1-based positions; and every pair a < b of local
    positions, in `combinations` order, as a (2, k(k-1)/2) array."""
    if kind == "A-in-A":
        sets: Iterator[tuple[int, ...]] = combinations(range(1, n + 1), k)
    elif kind == "A-in-B":
        sets = a_in_b_index_sets(n, k)
    else:
        sets = b_in_b_index_sets(n, k // 2)
    table = np.array(list(sets), dtype=np.intp).reshape(-1, k)
    local = np.array(list(combinations(range(k), 2)), dtype=np.intp).reshape(-1, 2).T
    table.flags.writeable = local.flags.writeable = False
    return table, local


@lru_cache(maxsize=64)
def _weights(k: int) -> np.ndarray:
    """(k(k-1)/2, words) int64 place values of the pairs of `_plan`.

    The Lehmer digit L_a = #{b > a : x_a > x_b} of a sequence of k distinct
    values lies in 0..k-1-a, and the digits determine the relative order.
    The pair (a, b) adds the place value of digit a to its word when
    x_a > x_b.  Digits are grouped from the right into words whose ranges
    multiply to at most 2^63.  For k <= 20 that is one word, where digit a
    has place value (k-1-a)!, so the code is the Lehmer rank in 0..k!-1.
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


def _codes(greater: np.ndarray, pairs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(rows, K, words) int64 flattening codes: the matrix product of the
    comparison-table entries at pairs[k] with their place values.  Equal
    codes mean equal relative orders."""
    return greater.take(pairs, axis=1) @ weights


def _pair_index(sets: np.ndarray, a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    """Flat comparison-table indices of the pairs (a, b) of each index set."""
    return (sets[:, a] - 1) * d + (sets[:, b] - 1)


@dataclass(frozen=True, eq=False)
class _Block:
    """The columns of one plan and the target codes of its entries.

    A column matches a target when the host's code there equals the
    target's: the Lehmer rank of the relative order, in one int64 for
    k <= 20.  Each distinct target code is kept once, with its least owner.
    """

    sets: np.ndarray  # (K, k) 1-based host positions
    pairs: np.ndarray  # (K, T) comparison-table indices
    weights: np.ndarray  # (T, words) place values
    targets: np.ndarray  # (words, nt) distinct codes, owners ascending
    owners: np.ndarray  # (nt,) least entry index of each code

    @cached_property
    def row_bytes(self) -> int:
        """Bytes of the largest kernel temporary per host row: the K x T
        bits cast to int64 for the product, or the K x nt owners."""
        width, t = self.pairs.shape
        return 8 * width * max(t, self.targets.shape[1], 1)


@lru_cache(maxsize=256)
def _query(entries: tuple[_Entry | None, ...]) -> tuple[_Block, ...]:
    """One block per distinct plan among the entries (None entries have no
    parabolic in the host and never match)."""
    by_plan: dict[tuple[EmbeddingKind, int, int], list[int]] = {}
    for e, entry in enumerate(entries):
        if entry is not None:
            kind, n, targets = entry
            by_plan.setdefault((kind, n, len(targets[0])), []).append(e)
    blocks = []
    for (kind, n, k), owners in by_plan.items():
        sets, (a, b) = _plan(kind, n, k)
        if not len(sets):
            continue
        degree = n if kind == "A-in-A" else 2 * n
        weights = _weights(k)
        # a target window is a host of degree k whose one index set is 1..k
        own = _pair_index(np.arange(1, k + 1)[None], a, b, k)
        wins = [(t, e) for e in owners for t in entries[e][2]]
        windows = np.array([t for t, _ in wins], dtype=np.int16)
        least: dict[tuple[int, ...], int] = {}
        for code, (_, e) in zip(_codes(_greater(windows), own, weights)[:, 0].tolist(), wins):
            least.setdefault(tuple(code), e)  # owners ascend: the first is least
        targets = np.array(list(least), dtype=np.int64).reshape(-1, weights.shape[1])
        blocks.append(
            _Block(
                sets,
                _pair_index(sets, a, b, degree),
                weights,
                np.ascontiguousarray(targets.T),
                np.array(list(least.values()), dtype=np.intp),
            )
        )
    return tuple(blocks)


def _first_matches(
    query: tuple[_Block, ...], windows: np.ndarray, none: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel.  For each row of `windows`: the least entry index whose
    targets one of the row's codes hits (`none` if there is no such entry),
    the block holding that entry, and the block's first column where it
    hits, which is the lexicographically first index set."""
    rows = len(windows)
    # one row per block, and a last row of `none` for a query with no block
    best = np.full((len(query) + 1, rows), none, dtype=np.intp)
    column = np.zeros_like(best)
    step = max(1, _BLOCK_BYTES // max((b.row_bytes for b in query), default=1))
    for start in range(0, rows, step):
        part = slice(start, start + step)
        greater = _greater(windows[part])
        for i, block in enumerate(query):
            codes = _codes(greater, block.pairs, block.weights)
            # (nt, rows, K): the targets axis leads, so that the owner
            # reduction runs over whole (rows, K) slices
            hit = codes[:, :, 0] == block.targets[0, :, None, None]
            for j in range(1, len(block.targets)):
                hit &= codes[:, :, j] == block.targets[j, :, None, None]
            owner = np.where(hit, block.owners[:, None, None], none).min(axis=0)
            best[i, part] = first = owner.min(axis=1)
            column[i, part] = (owner == first[:, None]).argmax(axis=1)
    # an entry lives in one block, so the least entry picks the block
    where = best.argmin(axis=0)
    picked = np.arange(rows)
    return best[where, picked], column[where, picked], where


def _host_rows(hosts: Sequence[Element], degree: int) -> np.ndarray:
    return np.array([w.window for w in hosts], dtype=np.int16).reshape(-1, degree)


def _bp_entry(host: GroupContext, v: Element) -> _Entry | None:
    """BP containment of v as a search entry; None when the host has no
    parabolic subgroup of v's type (a type B pattern in a type A host)."""
    if v.ctx.family == "A":
        kind = "A-in-A" if host.family == "A" else "A-in-B"
        flip = dynkin_reverse(v).window
        return kind, host.rank, tuple(dict.fromkeys((v.window, flip)))
    if host.family == "B":
        return "B-in-B", host.rank, (v.window,)
    return None


def _first_embedding(
    w: Element, query: tuple[_Block, ...], count: int
) -> tuple[int, tuple[int, ...]] | None:
    """The first matching entry (of `count`) for one host, and its index
    set; None if no entry matches."""
    best, column, where = _first_matches(query, _host_rows((w,), w.degree), count)
    if best[0] == count:
        return None
    return int(best[0]), tuple(int(i) for i in query[where[0]].sets[column[0]])


def first_bp_contained(
    host: GroupContext, windows: np.ndarray, pats: Sequence[Element]
) -> np.ndarray:
    """For each row of `windows` (elements of host, such as rows of
    host.window_matrix), the index in `pats` of the first pattern it BP
    contains, or -1: one kernel pass over every row."""
    if not len(windows):
        return np.zeros(0, dtype=np.intp)
    query = _query(tuple(_bp_entry(host, v) for v in pats))
    best, _, _ = _first_matches(query, windows, len(pats))
    return np.where(best < len(pats), best, -1)


def bp_contains(w: Element, v: Element) -> ParabolicEmbedding | None:
    """The first embedding (lexicographic index order) realizing v as the
    flattening of w, or None if w BP avoids v."""
    entry = _bp_entry(w.ctx, v)
    if entry is None:
        return None
    found = _first_embedding(w, _query((entry,)), 1)
    if found is None:
        return None
    return ParabolicEmbedding(w.ctx, entry[0], found[1])


def classical_contains(w: Element, v: Element) -> tuple[int, ...] | None:
    """Classical pattern containment; returns the lexicographically least
    witness index set, or None."""
    found = _first_embedding(w, _query((("A-in-A", w.degree, (v.window,)),)), 1)
    return None if found is None else found[1]


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
def _condition5_query(host: GroupContext) -> tuple[tuple[_Block, ...], np.ndarray, np.ndarray]:
    """The blocks of the listed patterns in `host`; every block's index
    sets, padded with zeros to the widest, stacked over a last zero row;
    and the row in that stack where each block starts, then the zero row."""
    query = _query(tuple(_bp_entry(host, v) for v in condition5_patterns()))
    width = max((b.sets.shape[1] for b in query), default=0)
    sizes = [len(b.sets) for b in query]
    stacked = np.zeros((sum(sizes) + 1, width), dtype=np.intp)
    starts = np.cumsum([0] + sizes)
    for block, start in zip(query, starts):
        stacked[start : start + len(block.sets), : block.sets.shape[1]] = block.sets
    stacked.flags.writeable = starts.flags.writeable = False
    return query, stacked, starts


def condition5_matches(
    ctx: GroupContext, windows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Condition 5 for many elements of ctx in one kernel pass.

    For each row of `windows` (by default the rows of ctx.elements): the
    index in `condition5_patterns()` of the first listed pattern the row BP
    contains, or -1; and that pattern's first index set, as a row of
    1-based positions whose first v.degree entries are the set (the rest,
    and the whole row for -1, are zeros).
    """
    if windows is None:
        windows = ctx.window_matrix
    query, stacked, starts = _condition5_query(ctx)
    count = len(CONDITION5_SPECS)
    best, column, where = _first_matches(query, windows, count)
    found = best < count
    rows = np.where(found, starts[where] + column, len(stacked) - 1)
    return np.where(found, best, -1), stacked[rows]


def condition5_embedding(
    host: GroupContext, pattern: int, indices: np.ndarray
) -> tuple[Element, ParabolicEmbedding] | None:
    """One row of `condition5_matches` as (pattern, first embedding), or
    None for -1."""
    if pattern < 0:
        return None
    v = condition5_patterns()[pattern]
    kind = _bp_entry(host, v)[0]
    return v, ParabolicEmbedding(host, kind, tuple(indices[: v.degree].tolist()))


def avoids_condition5_list(
    w: Element,
) -> tuple[bool, tuple[Element, ParabolicEmbedding] | None]:
    """Whether w BP avoids all 31 listed patterns (a type A host: the four
    type A patterns, since a B pattern has no parabolic in S_n); on failure,
    the first matched pattern in list order and its first embedding.  A
    batch of one of `condition5_matches`."""
    pattern, indices = condition5_matches(w.ctx, _host_rows((w,), w.degree))
    matched = condition5_embedding(w.ctx, int(pattern[0]), indices[0])
    return matched is None, matched
