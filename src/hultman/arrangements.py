"""Inversion arrangements and exact chamber counting.

Hyperplanes come in the three reflection shapes x_i = x_j, x_i = -x_j,
and x_i = 0 (type A uses only the first).  Intersections of such
hyperplanes are "signed partition" subspaces: a zero block plus blocks of
coordinates equal up to sign.  That exact combinatorial encoding avoids
rational linear algebra entirely; regions are counted by Zaslavsky's
theorem, sum over intersection-lattice flats of |mu|.

Everything here is exact integer arithmetic.  The finite-field point
count is an independent test oracle, not a production path.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .groups import (
    Element,
    GroupContext,
    compose,
    coxeter_length,
    signed_window,
)


@dataclass(frozen=True, order=True)
class Hyperplane:
    """One of x_i - x_j = 0 ("diff"), x_i + x_j = 0 ("sum"), x_i = 0
    ("zero", with j = 0); canonical form has i < j."""

    kind: str
    i: int
    j: int

    def __post_init__(self) -> None:
        if self.kind not in ("diff", "sum", "zero"):
            raise ValueError(f"unknown hyperplane kind {self.kind!r}")
        if self.kind == "zero":
            if self.j != 0:
                raise ValueError("zero hyperplane takes j = 0")
        elif not (0 < self.i < self.j):
            raise ValueError(f"need 0 < i < j, got ({self.i}, {self.j})")

    def __str__(self) -> str:
        if self.kind == "zero":
            return f"x{self.i}=0"
        op = "-" if self.kind == "diff" else "+"
        return f"x{self.i}{op}x{self.j}=0"


@dataclass(frozen=True)
class FlatPartition:
    """An intersection subspace: coordinates in `zero` vanish; each block
    lists (coordinate, sign) pairs equal up to sign, least coordinate
    first with sign +1.  Dimension = number of blocks."""

    n: int
    zero: tuple[int, ...]
    blocks: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.blocks)

    @property
    def codim(self) -> int:
        return self.n - len(self.blocks)


def ambient_flat(n: int) -> FlatPartition:
    return FlatPartition(
        n, (), tuple(((c, 1),) for c in range(1, n + 1))
    )


def hyperplane_flat(h: Hyperplane, n: int) -> FlatPartition:
    constraints = [(h.i, h.j, 1 if h.kind == "diff" else -1)] if h.kind != "zero" else []
    zero = [h.i] if h.kind == "zero" else []
    return _from_constraints(n, zero, constraints)


def _from_constraints(
    n: int,
    zeros: Iterable[int],
    relations: Iterable[tuple[int, int, int]],
) -> FlatPartition:
    """Build the subspace cut out by x_c = 0 (c in zeros) and
    x_a = s * x_b ((a, b, s) in relations), via union-find with signs.

    Node 0 is the zero sink; sign conflicts send a whole class to zero.
    """
    parent = list(range(n + 1))
    sign = [1] * (n + 1)

    def find(x: int) -> tuple[int, int]:
        s = 1
        while parent[x] != x:
            s *= sign[x]
            x = parent[x]
        return x, s

    def union(a: int, b: int, s: int) -> None:
        # constraint: val_a = s * val_b
        ra, sa = find(a)
        rb, sb = find(b)
        if ra == rb:
            if ra != 0 and sa != s * sb:
                parent[ra] = 0  # x = -x forces the class to zero
            return
        if ra == 0:
            parent[rb] = 0
        elif rb == 0:
            parent[ra] = 0
        else:
            parent[ra] = rb
            sign[ra] = sa * s * sb

    for c in zeros:
        union(c, 0, 1)
    for a, b, s in relations:
        union(a, b, s)

    zero_set = []
    groups: dict[int, list[tuple[int, int]]] = {}
    for c in range(1, n + 1):
        root, s = find(c)
        if root == 0:
            zero_set.append(c)
        else:
            groups.setdefault(root, []).append((c, s))
    blocks = []
    for members in groups.values():
        members.sort()
        lead_sign = members[0][1]
        blocks.append(tuple((c, s * lead_sign) for c, s in members))
    blocks.sort()
    return FlatPartition(n, tuple(zero_set), tuple(blocks))


def meet(a: FlatPartition, b: FlatPartition) -> FlatPartition:
    """Intersection of two flats (always nonempty: everything is central)."""
    if a.n != b.n:
        raise ValueError("flats live in different ambient spaces")
    zeros = list(a.zero) + list(b.zero)
    relations = []
    for flat in (a, b):
        for block in flat.blocks:
            c0, s0 = block[0]
            for c, s in block[1:]:
                relations.append((c, c0, s * s0))
    return _from_constraints(a.n, zeros, relations)


def flat_in_hyperplane(f: FlatPartition, h: Hyperplane) -> bool:
    """Whether the subspace f is contained in the hyperplane h."""
    where: dict[int, tuple[int, int] | None] = {}
    for c in f.zero:
        where[c] = None
    for bi, block in enumerate(f.blocks):
        for c, s in block:
            where[c] = (bi, s)
    if h.kind == "zero":
        return where[h.i] is None
    a, b = where[h.i], where[h.j]
    if a is None and b is None:
        return True
    if a is None or b is None:
        return False
    want = 1 if h.kind == "diff" else -1
    return a[0] == b[0] and a[1] * want == b[1]


@dataclass(eq=False)
class IntersectionPoset:
    """Flats of an arrangement ordered by reverse inclusion, with Mobius
    values mu(ambient, x)."""

    n: int
    planes: tuple[Hyperplane, ...]
    flats: tuple[FlatPartition, ...]
    mobius: tuple[int, ...]

    @property
    def region_count(self) -> int:
        return sum(abs(m) for m in self.mobius)

    def characteristic_polynomial(self) -> tuple[int, ...]:
        """Coefficients of chi(t) = sum_x mu(x) t^{dim x}, ascending degree."""
        coeffs = [0] * (self.n + 1)
        for flat, m in zip(self.flats, self.mobius):
            coeffs[flat.dim] += m
        return tuple(coeffs)


def intersection_poset(
    planes: Iterable[Hyperplane], n: int
) -> IntersectionPoset:
    """All intersections of subsets of `planes`, with Mobius values.

    Built by incremental closure: after hyperplane k is processed, the
    flat set holds every intersection of a subset of the first k planes.
    """
    plane_list = sorted(set(planes))
    flats = [ambient_flat(n)]
    seen = {flats[0]}
    for h in plane_list:
        hf = hyperplane_flat(h, n)
        for f in list(flats):
            g = meet(f, hf)
            if g not in seen:
                seen.add(g)
                flats.append(g)
    flats.sort(key=lambda f: (f.codim, f.zero, f.blocks))

    masks = []
    for f in flats:
        mask = 0
        for t, h in enumerate(plane_list):
            if flat_in_hyperplane(f, h):
                mask |= 1 << t
        masks.append(mask)

    mobius = [0] * len(flats)
    mobius[0] = 1
    for x in range(1, len(flats)):
        mx = masks[x]
        acc = 0
        for y in range(x):
            my = masks[y]
            if my != mx and (my & mx) == my:
                acc += mobius[y]
        mobius[x] = -acc
        # geometric lattice: mu alternates in sign with codimension
        if mobius[x] == 0 or (mobius[x] > 0) != (flats[x].codim % 2 == 0):
            raise ArithmeticError(
                f"Möbius value {mobius[x]} at a codimension-{flats[x].codim} flat"
            )
    return IntersectionPoset(n, tuple(plane_list), tuple(flats), tuple(mobius))


def inversion_reflections(w: Element) -> tuple[Element, ...]:
    """Inv(w) = {t in T : l(wt) < l(w)}; its size equals l(w)."""
    lw = coxeter_length(w)
    return tuple(
        t for t in w.ctx.reflections if coxeter_length(compose(w, t)) < lw
    )


@lru_cache(maxsize=None)
def _reflection_hyperplanes(ctx: GroupContext) -> dict[tuple[int, ...], Hyperplane]:
    return {t.window: hyperplane_of(t, ctx) for t in ctx.reflections}


def hyperplane_of(t: Element, ctx: GroupContext) -> Hyperplane:
    """The fixed hyperplane of a reflection, in signed coordinates."""
    if t.ctx != ctx:
        raise ValueError("reflection does not belong to the given context")
    if ctx.family == "A":
        moved = [i for i in range(1, ctx.rank + 1) if t.window[i - 1] != i]
        if len(moved) == 2 and t.window[moved[0] - 1] == moved[1]:
            return Hyperplane("diff", moved[0], moved[1])
        raise ValueError(f"{t} is not a reflection")
    sigma = signed_window(t)
    moved = [k for k in range(1, ctx.rank + 1) if sigma[k - 1] != k]
    if len(moved) == 1 and sigma[moved[0] - 1] == -moved[0]:
        return Hyperplane("zero", moved[0], 0)
    if len(moved) == 2:
        k, l = moved
        if sigma[k - 1] == l and sigma[l - 1] == k:
            return Hyperplane("diff", k, l)
        if sigma[k - 1] == -l and sigma[l - 1] == -k:
            return Hyperplane("sum", k, l)
    raise ValueError(f"{t} is not a reflection")


def inversion_arrangement(w: Element) -> tuple[Hyperplane, ...]:
    table = _reflection_hyperplanes(w.ctx)
    return tuple(sorted(table[t.window] for t in inversion_reflections(w)))


def chamber_count(w: Element) -> int:
    """c(w): chambers of the inversion arrangement, by Zaslavsky's theorem."""
    poset = intersection_poset(inversion_arrangement(w), w.ctx.rank)
    return poset.region_count


def chamber_poset(w: Element) -> IntersectionPoset:
    return intersection_poset(inversion_arrangement(w), w.ctx.rank)


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


def _complement_count(planes: Sequence[Hyperplane], n: int, q: int) -> int:
    """Points of F_q^n avoiding every hyperplane, by vectorized scan."""
    total = q**n
    count = 0
    chunk = 1 << 20
    powers = [q**k for k in range(n)]
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        coords = [(idx // powers[k]) % q for k in range(n)]
        ok = np.ones(len(idx), dtype=bool)
        for h in planes:
            if h.kind == "zero":
                ok &= coords[h.i - 1] != 0
            elif h.kind == "diff":
                ok &= coords[h.i - 1] != coords[h.j - 1]
            else:
                ok &= (coords[h.i - 1] + coords[h.j - 1]) % q != 0
        count += int(ok.sum())
    return count


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
