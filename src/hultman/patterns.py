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
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

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

    @property
    def support(self) -> tuple[int, ...]:
        """All positions moved by the parabolic (mirrors included)."""
        if self.kind != "A-in-B":
            return self.indices
        s = 2 * self.host.rank + 1
        return tuple(sorted(set(self.indices) | {s - i for i in self.indices}))

    def generator_images(self) -> tuple[Element, ...]:
        """The canonical images of the pattern group's simple generators."""
        return tuple(
            embed_pattern(self, s) for s in self.pattern_ctx.generators
        )


def flatten(w: Element, emb: ParabolicEmbedding) -> Element:
    """The flattening of w to the parabolic, as a pattern-group element.

    Concretely: the relative order of w at the embedding's positions.
    """
    if w.ctx != emb.host:
        raise ValueError("element and embedding live in different hosts")
    values = [w.window[i - 1] for i in emb.indices]
    return Element(relative_order(values), emb.pattern_ctx)


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


def bp_contains(w: Element, v: Element) -> ParabolicEmbedding | None:
    """The first embedding (lexicographic index order) realizing v as the
    flattening of w, or None if w BP avoids v."""
    host, pat = w.ctx, v.ctx
    if pat.family == "A":
        m = pat.rank
        targets = {v.window, dynkin_reverse(v).window}
        if host.family == "A":
            if m > host.rank:
                return None
            sets: Iterator[tuple[int, ...]] = combinations(
                range(1, host.rank + 1), m
            )
            kind = "A-in-A"
        else:
            if m > host.rank:
                return None  # a sum-free set picks at most one per mirror pair
            sets = a_in_b_index_sets(host.rank, m)
            kind = "A-in-B"
        for idx in sets:
            if relative_order([w.window[i - 1] for i in idx]) in targets:
                return ParabolicEmbedding(host, kind, idx)
        return None
    # type B pattern: only a type B host has B-parabolics
    if host.family != "B" or pat.rank > host.rank:
        return None
    for idx in b_in_b_index_sets(host.rank, pat.rank):
        if relative_order([w.window[i - 1] for i in idx]) == v.window:
            return ParabolicEmbedding(host, "B-in-B", idx)
    return None


def classical_contains(w: Element, v: Element) -> tuple[int, ...] | None:
    """Classical pattern containment; returns the lexicographically least
    witness index set, or None."""
    if v.degree > w.degree:
        return None
    for idx in combinations(range(1, w.degree + 1), v.degree):
        if relative_order([w.window[i - 1] for i in idx]) == v.window:
            return idx
    return None


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


def avoids_condition5_list(
    w: Element,
) -> tuple[bool, tuple[Element, ParabolicEmbedding] | None]:
    """Whether w BP avoids all 31 listed patterns (a type A host: the four
    type A patterns, since a B pattern has no parabolic in S_n); on failure,
    the first matched pattern and its embedding."""
    for v in condition5_patterns():
        if v.ctx.family == "B" and w.ctx.family == "A":
            continue
        emb = bp_contains(w, v)
        if emb is not None:
            return False, (v, emb)
    return True, None
