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
window at an index set is that rank: one int64 for k <= 20; beyond, the
Lehmer digits are split over as many int64 words as they need.  The
window flattens to v exactly when its code equals v's.  A search entry
lists the target windows of one pattern: v and its diagram flip for the A
kinds, v alone for B-in-B and for classical containment (which uses the
A-in-A index sets).

A query holds one block of columns (index sets) per plan of its entries,
ordered by pattern size.  For every row of a batch of host windows, the
kernel returns the first entry whose targets one of the row's codes hits,
at the first index set where it does, in one pass over all blocks: one
gather of the comparison bits of every column; one matrix product per
pattern size into one code array; one lookup from each code to the least
owner of the equal target of its block; and one reduction whose first
least owner gives the block and the index set.  The lookup hashes a code
to a slot of its block's table and compares it with the slot's target,
so it is exact for codes of any number of words and never adds code
ranges that could overflow.  Rows go in blocks whose largest temporary
stays under about 256 KiB (or one row), and a batch of one runs the same
calls as a whole group.  `bp_contains` and `classical_contains` run the
kernel on a batch of one, `first_bp_contained` on a batch of host
windows against any patterns, and `condition5_matches` on a whole group
(or on a batch of one, for `avoids_condition5_list`) against the 31
listed patterns.
`relative_order` remains only for `flatten`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, count
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .groups import Element, GroupContext, Window, context, parse_element

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


class _Block(NamedTuple):
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


# Odd multipliers for the slot hash: the golden-ratio constant times odd
# numbers, so that the first one is Fibonacci hashing.
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class _Query(NamedTuple):
    """Every block of one search, laid out for the one-pass kernel.  A
    code hashes to a slot of its block's table (`_slot`), where the
    block's targets all take distinct slots, so a column's slot holds the
    only target it can equal."""

    blocks: tuple[_Block, ...]
    entries: int  # their number, the owner of a column that matches none
    starts: np.ndarray  # (blocks + 1,) first column of each block, then C
    pairs: np.ndarray  # (P,) comparison-table indices, column by column
    sizes: tuple[tuple[int, int, int, np.ndarray], ...]  # (c0, c1, p0, weights)
    mixers: np.ndarray  # (words,) uint64
    shift: np.uint64  # 64 - bits
    base: np.ndarray  # (C,) first slot of each column's block
    slot_codes: np.ndarray  # (words, slots) the target in each slot; -1: none
    slot_owners: np.ndarray  # (slots,) least owner of that target; entries: none
    row_bytes: int  # the largest kernel temporary per host row


def _slot(key: tuple[int, ...], mixers: list[int], bits: int) -> int:
    """A code's slot in its block's table: the top `bits` bits of
    sum_w key_w * mixers_w mod 2^64."""
    return (sum(c * m for c, m in zip(key, mixers)) & _MASK64) >> 64 - bits


def _slot_search(keys: list[list[tuple[int, ...]]], words: int) -> tuple[list[int], int]:
    """Odd mixers and a table width `bits` under which each list of
    distinct keys takes distinct slots.  Multiply-shift hashing collides a
    pair with probability about 2^-bits, so each try takes new mixers and
    every second try doubles the tables; a try costs one Python set per
    block."""
    widest = max(map(len, keys), default=1)
    for attempt in count():
        mixers = [_GOLDEN * (2 * (attempt * words + w) + 1) & _MASK64 for w in range(words)]
        bits = min(63, widest.bit_length() + 1 + attempt // 2)
        if all(len({_slot(key, mixers, bits) for key in block}) == len(block) for block in keys):
            return mixers, bits


def _stack(blocks: tuple[_Block, ...], entries: int) -> _Query:
    """The `_Query` of blocks ordered by pattern size, for `entries`
    entries."""
    widths = [len(b.sets) for b in blocks]
    starts = np.cumsum([0] + widths)
    words = max((b.weights.shape[1] for b in blocks), default=1)
    # one matrix product per pattern size, over the columns of its blocks;
    # the place values are padded with zero words to the widest block
    sizes = []
    p0 = 0
    for b, c0, c1 in zip(blocks, starts.tolist(), starts[1:].tolist()):
        if sizes and len(sizes[-1][3]) == len(b.weights):  # k as before
            sizes[-1] = (sizes[-1][0], c1, *sizes[-1][2:])
        else:
            weights = np.zeros((len(b.weights), words), dtype=np.int64)
            weights[:, : b.weights.shape[1]] = b.weights
            weights.flags.writeable = False
            sizes.append((c0, c1, p0, weights))
        p0 += b.pairs.size
    keys = [
        [tuple(col) + (0,) * (words - len(col)) for col in b.targets.T.tolist()]
        for b in blocks
    ]
    mixers, bits = _slot_search(keys, words)
    width = 1 << bits
    slot_codes = np.full((words, len(blocks) * width), -1, dtype=np.int64)
    slot_owners = np.full(len(blocks) * width, entries, dtype=np.intp)
    for i, (block, b) in enumerate(zip(keys, blocks)):
        for key, owner in zip(block, b.owners.tolist()):
            slot = i * width + _slot(key, mixers, bits)
            slot_codes[:, slot], slot_owners[slot] = key, owner
    base = np.repeat(np.arange(len(blocks), dtype=np.intp) * width, widths)
    pairs = np.concatenate([b.pairs.ravel() for b in blocks] or [np.zeros(0, np.intp)])
    for a in (starts, pairs, base, slot_codes, slot_owners):
        a.flags.writeable = False
    # the bits of one pattern size cast to int64 for its product, or one
    # (columns, words) int64 array
    products = max(((c1 - c0) * len(w) for c0, c1, _, w in sizes), default=0)
    return _Query(
        blocks,
        entries,
        starts,
        pairs,
        tuple(sizes),
        np.array(mixers, dtype=np.uint64),
        np.uint64(64 - bits),
        base,
        slot_codes,
        slot_owners,
        8 * max(products, int(starts[-1]) * words, 1),
    )


@lru_cache(maxsize=256)
def _query(entries: tuple[_Entry | None, ...]) -> _Query:
    """One block per distinct plan among the entries (None entries have no
    parabolic in the host and never match), ordered by pattern size."""
    by_plan: dict[tuple[int, EmbeddingKind, int], list[int]] = {}
    for e, entry in enumerate(entries):
        if entry is not None:
            kind, n, targets = entry
            by_plan.setdefault((len(targets[0]), kind, n), []).append(e)
    blocks = []
    for (k, kind, n), owners in sorted(by_plan.items()):
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
    return _stack(tuple(blocks), len(entries))


def _first_matches(
    query: _Query, windows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel, one pass over all blocks.  For each row of `windows`:
    the least entry index whose targets one of the row's codes hits
    (`query.entries` if there is no such entry), the block holding that
    entry, and the block's first column where it hits, which is the
    lexicographically first index set."""
    rows, none = len(windows), query.entries
    best = np.full(rows, none, dtype=np.intp)
    column = np.zeros(rows, dtype=np.intp)
    if query.blocks:
        step = max(1, _BLOCK_BYTES // query.row_bytes)
        codes = np.empty((min(step, rows), query.starts[-1], len(query.mixers)), dtype=np.int64)
        for start in range(0, rows, step):
            part = slice(start, start + step)
            bits = _greater(windows[part]).take(query.pairs, axis=1)
            code = codes[: len(bits)]
            for c0, c1, p0, weights in query.sizes:
                t = len(weights)
                pairs = bits[:, p0 : p0 + (c1 - c0) * t].reshape(len(bits), c1 - c0, t)
                np.matmul(pairs, weights, out=code[:, c0:c1])
            # the slot: the top bits of sum_w code_w * mixer_w mod 2^64,
            # in the table of the column's block
            word = code.view(np.uint64)
            slot = word[:, :, 0] * query.mixers[0]
            for w in range(1, len(query.mixers)):
                slot += word[:, :, w] * query.mixers[w]
            slot >>= query.shift
            slot = slot.view(np.intp)
            slot += query.base
            hit = query.slot_codes[0].take(slot) == code[:, :, 0]
            for w in range(1, len(query.mixers)):
                hit &= query.slot_codes[w].take(slot) == code[:, :, w]
            owner = np.where(hit, query.slot_owners.take(slot), none)
            # the first column of the least owner
            column[part] = first = owner.argmin(axis=1)
            best[part] = np.take_along_axis(owner, first[:, None], axis=1)[:, 0]
    # an entry lives in one block, so the least entry picks the block
    where = np.searchsorted(query.starts, column, side="right") - 1
    return best, column - query.starts[where], where


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


def _first_embedding(w: Element, query: _Query) -> tuple[int, tuple[int, ...]] | None:
    """The first matching entry for one host, and its index set; None if
    no entry matches."""
    best, column, where = _first_matches(query, _host_rows((w,), w.degree))
    if best[0] == query.entries:
        return None
    return int(best[0]), tuple(int(i) for i in query.blocks[where[0]].sets[column[0]])


def first_bp_contained(
    host: GroupContext, windows: np.ndarray, pats: Sequence[Element]
) -> np.ndarray:
    """For each row of `windows` (elements of host, such as rows of
    host.window_matrix), the index in `pats` of the first pattern it BP
    contains, or -1: one kernel pass over every row."""
    if not len(windows):
        return np.zeros(0, dtype=np.intp)
    query = _query(tuple(_bp_entry(host, v) for v in pats))
    best, _, _ = _first_matches(query, windows)
    return np.where(best < len(pats), best, -1)


def bp_contains(w: Element, v: Element) -> ParabolicEmbedding | None:
    """The first embedding (lexicographic index order) realizing v as the
    flattening of w, or None if w BP avoids v."""
    entry = _bp_entry(w.ctx, v)
    if entry is None:
        return None
    found = _first_embedding(w, _query((entry,)))
    if found is None:
        return None
    return ParabolicEmbedding(w.ctx, entry[0], found[1])


def classical_contains(w: Element, v: Element) -> tuple[int, ...] | None:
    """Classical pattern containment; returns the lexicographically least
    witness index set, or None."""
    found = _first_embedding(w, _query((("A-in-A", w.degree, (v.window,)),)))
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
def _condition5_query(host: GroupContext) -> tuple[_Query, np.ndarray]:
    """The query of the listed patterns in `host`, and every block's index
    sets, padded with zeros to the widest, stacked by column over a last
    zero row."""
    query = _query(tuple(_bp_entry(host, v) for v in condition5_patterns()))
    width = max((b.sets.shape[1] for b in query.blocks), default=0)
    stacked = np.zeros((query.starts[-1] + 1, width), dtype=np.intp)
    for block, start in zip(query.blocks, query.starts):
        stacked[start : start + len(block.sets), : block.sets.shape[1]] = block.sets
    stacked.flags.writeable = False
    return query, stacked


def condition5_index_sets(ctx: GroupContext) -> int:
    """The index sets that `condition5_matches` scans in each row of ctx."""
    return int(_condition5_query(ctx)[0].starts[-1])


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
    query, stacked = _condition5_query(ctx)
    best, column, where = _first_matches(query, windows)
    found = best < query.entries
    rows = np.where(found, query.starts[where] + column, len(stacked) - 1)
    return np.where(found, best, -1), stacked[rows]


def condition5_embedding(
    host: GroupContext, pattern: int, indices: np.ndarray
) -> tuple[Element, ParabolicEmbedding] | None:
    """One row of `condition5_matches` as (pattern, first embedding), or
    None for -1."""
    if pattern < 0:
        return None
    v = condition5_patterns()[pattern]
    kind = _bp_kind(host.family, v.ctx.family)
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
