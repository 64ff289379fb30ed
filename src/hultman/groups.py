"""Elements of the symmetric and hyperoctahedral groups, and their lengths.

Conventions used throughout the package:

- Windows are 1-indexed one-line notation: ``window[i-1] == w(i)``.
- A type A context of rank n is S_n acting on {1..n}.
- A type B context of rank n is the hyperoctahedral group B_n embedded in
  S_{2n} as the centrally symmetric permutations, those with
  w(i) + w(2n+1-i) = 2n+1 for all i.  The embedded window is the single
  source of truth; the length-n signed window is a derived view.
- Composition is right-to-left: ``compose(u, v)(i) == u(v(i))``.

Each length is one numpy kernel over an (m x degree) window array, run in
blocks of rows: `coxeter_lengths` counts inversions, `absolute_lengths`
counts cycles by pointer doubling.  `coxeter_length(w)` and
`absolute_length(w)` are batches of one.  `GroupContext.elements`, the one
enumeration of a group, orders the int8 window matrix by (length, window)
with one `np.lexsort` and keeps it and the lengths, by row, as
`window_matrix` and `lengths`; `bruhat` builds its group tables from them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial
from typing import Iterator, Sequence

import numpy as np

# Digits for one-line text form; 'a' stands for 10, 'b' for 11, and so on.
DIGITS = "123456789abcdefghijklmnopqrstuvwxyz"

Window = tuple[int, ...]
SignedWindow = tuple[int, ...]

# Rows per block of a length kernel: its temporaries stay in the tens of kB.
BLOCK_ROWS = 512


@dataclass(frozen=True)
class GroupContext:
    """Ambient group descriptor: family 'A' (S_n) or 'B' (B_n in S_{2n})."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in ("A", "B"):
            raise ValueError(f"unknown family {self.family!r}; expected 'A' or 'B'")
        if self.rank < 1:
            raise ValueError(f"rank must be positive, got {self.rank}")

    @property
    def degree(self) -> int:
        """Size of the ambient symmetric group: n for type A, 2n for type B."""
        return self.rank if self.family == "A" else 2 * self.rank

    @property
    def name(self) -> str:
        """The group as the paper writes it: S_n for type A, B_n for type B."""
        return f"{'S' if self.family == 'A' else 'B'}_{self.rank}"

    @property
    def order(self) -> int:
        if self.family == "A":
            return factorial(self.rank)
        return 2**self.rank * factorial(self.rank)

    @cached_property
    def identity(self) -> "Element":
        return Element(tuple(range(1, self.degree + 1)), self)

    @cached_property
    def generators(self) -> tuple["Element", ...]:
        """Simple generators: s_1..s_{n-1} for type A; s_0..s_{n-1} for type B."""
        n = self.rank
        gens = []
        if self.family == "A":
            for i in range(1, n):
                gens.append(Element(_swap(identity_window(n), i, i + 1), self))
        else:
            gens.append(Element(_swap(identity_window(2 * n), n, n + 1), self))
            for i in range(1, n):
                win = _swap(identity_window(2 * n), n - i, n - i + 1)
                win = _swap(win, n + i, n + i + 1)
                gens.append(Element(win, self))
        return tuple(gens)

    @cached_property
    def reflections(self) -> tuple["Element", ...]:
        """All conjugates of the generators, in window-lexicographic order.

        There are n(n-1)/2 reflections in type A and n^2 in type B.
        """
        seen: set[Window] = {g.window for g in self.generators}
        frontier = list(seen)
        gens = [g.window for g in self.generators]
        while frontier:
            new = []
            for t in frontier:
                for s in gens:
                    conj = compose_windows(s, compose_windows(t, s))
                    if conj not in seen:
                        seen.add(conj)
                        new.append(conj)
            frontier = new
        return tuple(Element(w, self) for w in sorted(seen))

    @cached_property
    def elements(self) -> tuple["Element", ...]:
        """Every group element, sorted by (Coxeter length, window).  Rows of
        `window_matrix` and `lengths`, stored here, follow the same order."""
        if self.family == "A":
            windows = list(itertools.permutations(range(1, self.rank + 1)))
        else:
            windows = list(_type_b_windows(self.rank))
        matrix = np.array(windows, dtype=np.int8)
        lengths = coxeter_lengths(matrix, self.family)
        # lengths (< 2^13 at degree < 128) are the primary key, as int16 to save memory
        order = np.lexsort((*matrix.T[::-1], lengths.astype(np.int16)))
        matrix, lengths = matrix[order], lengths[order]
        matrix.flags.writeable = lengths.flags.writeable = False
        self.__dict__.update(_window_matrix=matrix, _lengths=lengths)
        return tuple(Element(windows[i], self) for i in order.tolist())

    @property
    def window_matrix(self) -> np.ndarray:
        """Read-only int8 matrix whose row i is the window of elements[i]
        (no group of degree 128 or more can be enumerated)."""
        self.elements  # the enumeration stores it
        return self.__dict__["_window_matrix"]

    @property
    def lengths(self) -> np.ndarray:
        """Read-only int64 array of Coxeter lengths by row of elements."""
        self.elements  # the enumeration stores it
        return self.__dict__["_lengths"]

    @cached_property
    def longest_element(self) -> "Element":
        n = self.degree
        return Element(tuple(range(n, 0, -1)), self)


@dataclass(frozen=True)
class Element:
    """A group element in embedded one-line notation."""

    window: Window
    ctx: GroupContext

    def __post_init__(self) -> None:
        object.__setattr__(self, "window", tuple(self.window))
        n = self.ctx.degree
        if len(self.window) != n:
            raise ValueError(
                f"window length {len(self.window)} does not match degree {n}"
            )
        if not is_bijective_window(self.window):
            raise ValueError(f"window {self.window} is not a bijection on 1..{n}")
        if self.ctx.family == "B" and not is_type_b_window(self.window, self.ctx.rank):
            raise ValueError(
                f"window {self.window} violates the central symmetry of B_{self.ctx.rank}"
            )

    def __call__(self, i: int) -> int:
        return self.window[i - 1]

    def __str__(self) -> str:
        return format_window(self.window)

    @property
    def degree(self) -> int:
        return len(self.window)


def identity_window(n: int) -> Window:
    return tuple(range(1, n + 1))


def _swap(window: Window, i: int, j: int) -> Window:
    out = list(window)
    out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
    return tuple(out)


def is_bijective_window(window: Sequence[int]) -> bool:
    n = len(window)
    return sorted(window) == list(range(1, n + 1))


def is_type_b_window(window: Sequence[int], rank: int) -> bool:
    """Central symmetry test: w(i) + w(2n+1-i) = 2n+1 for all i <= n."""
    n2 = 2 * rank
    if len(window) != n2:
        return False
    return all(window[i] + window[n2 - 1 - i] == n2 + 1 for i in range(rank))


def _type_b_windows(rank: int) -> Iterator[Window]:
    """All centrally symmetric windows: pick one value per mirror pair for the
    first half, in every order; the second half is forced."""
    n2 = 2 * rank
    pairs = [(v, n2 + 1 - v) for v in range(1, rank + 1)]
    for picks in itertools.product((0, 1), repeat=rank):
        half_values = [pairs[k][picks[k]] for k in range(rank)]
        for first_half in itertools.permutations(half_values):
            second = tuple(n2 + 1 - v for v in reversed(first_half))
            yield first_half + second


def compose_windows(u: Window, v: Window) -> Window:
    """(u∘v)(i) = u(v(i)) on raw windows."""
    return tuple(u[k - 1] for k in v)


def invert_window(window: Window) -> Window:
    inv = [0] * len(window)
    for pos, val in enumerate(window, start=1):
        inv[val - 1] = pos
    return tuple(inv)


def compose(u: Element, v: Element) -> Element:
    """Compose two elements, applying v first: (u∘v)(i) = u(v(i)).

    The type B context is preserved when both inputs share it; composing
    elements of equal degree but different contexts lands in type A.
    """
    if u.degree != v.degree:
        raise ValueError(f"degree mismatch: {u.degree} vs {v.degree}")
    ctx = u.ctx if u.ctx == v.ctx else context("A", u.degree)
    return Element(compose_windows(u.window, v.window), ctx)


def inverse(w: Element) -> Element:
    return Element(invert_window(w.window), w.ctx)


@lru_cache(maxsize=None)
def _position_pairs(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of positions i < j of a window, as two index arrays."""
    return np.triu_indices(degree, 1)


def coxeter_lengths(windows: Sequence[Sequence[int]], family: str) -> np.ndarray:
    """Coxeter length of each row of an (m x degree) window array.

    Type A counts inversions.  Type B uses the embedded form of the
    signed-permutation length (Björner–Brenti, Combinatorics of Coxeter
    Groups, ch. 8): (inv(w) + #{i <= n : w(i) > n}) / 2, with inv taken in
    S_{2n}.
    """
    windows = np.asarray(windows)
    degree = windows.shape[1]
    i, j = _position_pairs(degree)
    lengths = np.empty(len(windows), dtype=np.int64)
    for k in range(0, len(windows), BLOCK_ROWS):
        block = windows[k : k + BLOCK_ROWS]
        inv = (block[:, i] > block[:, j]).sum(axis=1)
        if family == "B":
            inv = (inv + (block[:, : degree // 2] > degree // 2).sum(axis=1)) // 2
        lengths[k : k + BLOCK_ROWS] = inv
    return lengths


def absolute_lengths(windows: Sequence[Sequence[int]], family: str) -> np.ndarray:
    """Reflection length of each row of an (m x degree) window array.

    Type A: degree - #cycles.  Type B: n minus the number of pairs of
    distinct mirrored cycles, (#cycles - #self-mirrored cycles) / 2, where
    the mirror of a cycle c is w_0 c w_0.  Each cycle is labelled by its
    least point, found by pointer doubling.
    """
    windows = np.asarray(windows)
    degree = windows.shape[1]
    lengths = np.empty(len(windows), dtype=np.int64)
    for k in range(0, len(windows), BLOCK_ROWS):
        block = windows[k : k + BLOCK_ROWS]
        # point numbers run on from row to row: a row's points are its
        # 0-based positions plus one offset, so minima stay within the row
        point = np.arange(block.size).reshape(block.shape)
        image = (block - 1 + (point - point % degree)).ravel()
        leader = point.ravel()
        # after r rounds, leader[i] is the least of the first 2^r points of
        # i's orbit, and image[i] is 2^r steps along it
        for _ in range((degree - 1).bit_length()):
            leader = np.minimum(leader, leader[image])
            image = image[image]
        leader = leader.reshape(block.shape)
        is_leader = leader == point
        cycles = is_leader.sum(axis=1)
        if family == "A":
            lengths[k : k + BLOCK_ROWS] = degree - cycles
        else:
            # a cycle is its own mirror when it holds its least point's mirror
            mirrored = (is_leader & (leader[:, ::-1] == point)).sum(axis=1)
            lengths[k : k + BLOCK_ROWS] = degree // 2 - (cycles - mirrored) // 2
    return lengths


def coxeter_length(w: Element) -> int:
    """Length with respect to the simple generators (`coxeter_lengths`)."""
    return int(coxeter_lengths([w.window], w.ctx.family)[0])


def absolute_length(w: Element) -> int:
    """Length with respect to all reflections (`absolute_lengths`)."""
    return int(absolute_lengths([w.window], w.ctx.family)[0])


def signed_window(w: Element) -> SignedWindow:
    """Signed one-line form σ(1..n), read off positions n+1..2n of the window.

    σ(k) = w(n+k) - n when w(n+k) > n, and -(n+1-w(n+k)) otherwise.  Under
    this convention s_0 flips the sign of coordinate 1 and s_i swaps
    coordinates i and i+1, matching the reflection action on R^n.
    """
    if w.ctx.family != "B":
        raise ValueError("signed windows are defined for type B elements only")
    n = w.ctx.rank
    out = []
    for k in range(1, n + 1):
        v = w.window[n + k - 1]
        out.append(v - n if v > n else -(n + 1 - v))
    return tuple(out)


def element_from_signed(sigma: Sequence[int], rank: int) -> Element:
    """Inverse of signed_window: build the embedded B_rank element."""
    if len(sigma) != rank:
        raise ValueError(f"signed window length {len(sigma)} != rank {rank}")
    if sorted(abs(s) for s in sigma) != list(range(1, rank + 1)):
        raise ValueError(f"{tuple(sigma)} is not a signed permutation of 1..{rank}")
    n = rank
    second = [n + s if s > 0 else n + 1 + s for s in sigma]
    first = [2 * n + 1 - v for v in reversed(second)]
    return Element(tuple(first + second), context("B", rank))


def parse_element(text: str, ctx: GroupContext) -> Element:
    """Parse digit text ('a'=10, ...) or, for type B, a comma-separated
    signed window of length n (e.g. '-3,2,-1')."""
    text = text.strip()
    if "," in text:
        if ctx.family != "B":
            raise ValueError("signed-window input is only valid for type B")
        entries = tuple(int(part) for part in text.split(","))
        return element_from_signed(entries, ctx.rank)
    values = []
    for ch in text:
        idx = DIGITS.find(ch)
        if idx < 0:
            raise ValueError(f"bad character {ch!r} in element text {text!r}")
        values.append(idx + 1)
    return Element(tuple(values), ctx)


def format_window(window: Sequence[int]) -> str:
    if max(window, default=0) > len(DIGITS):
        raise ValueError(f"degree {max(window)} too large for digit notation")
    return "".join(DIGITS[v - 1] for v in window)


@lru_cache(maxsize=None)
def context(family: str, rank: int) -> GroupContext:
    """Interned context, so views like `elements` are computed once."""
    return GroupContext(family, rank)
