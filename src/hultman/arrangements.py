"""Inversion arrangements and exact chamber counting.

Hyperplanes come in the three reflection shapes x_i = x_j, x_i = -x_j and
x_i = 0 (type A uses only the first), so an arrangement is a signed graph.
chi(t) counts its proper colourings (Zaslavsky, "Signed graph coloring",
1982), and one exact subset DP over them gives chi(t) and the chamber count
c(w) = (-1)^n chi(-1).  The intersection lattice with its Möbius values and
the finite-field point count are independent test oracles.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Sequence

import numpy as np

from .groups import (
    Element,
    GroupContext,
    compose_windows,
    coxeter_lengths,
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


def _block_counts(planes: Iterable[Hyperplane], n: int) -> list[int]:
    """a[k], so that chi(2m+1) = sum_k a[k] (m)_k.  A proper colouring by
    -m..m is its zero set Z (no zero plane, no edge inside) plus the blocks
    of equal |x|, which take k distinct values in 1..m; a[k] sums, over Z
    and the partitions of the rest into k blocks B, prod_B sigma(B), where
    sigma(B) counts the signings of B in which each "diff" edge has opposite
    signs and each "sum" edge equal ones."""
    same, opposite = [0] * n, [0] * n
    no_zero = 0
    for h in planes:
        if h.kind == "zero":
            no_zero |= 1 << (h.i - 1)
        else:
            adjacent = opposite if h.kind == "diff" else same
            adjacent[h.i - 1] |= 1 << (h.j - 1)
            adjacent[h.j - 1] |= 1 << (h.i - 1)
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


def characteristic_polynomial(planes: Iterable[Hyperplane], n: int) -> tuple[int, ...]:
    """Coefficients of chi(t), ascending degree, by signed-graph colouring:
    chi(t) = sum_k a[k] (m)_k with m = (t - 1) / 2."""
    coeffs = [Fraction(0)] * (n + 1)
    falling = [Fraction(1)]
    for k, count in enumerate(_block_counts(planes, n)):
        for d, c in enumerate(falling):
            coeffs[d] += count * c
        falling = _poly_mul(falling, [Fraction(-1 - 2 * k, 2), Fraction(1, 2)])
    if any(c.denominator != 1 for c in coeffs) or coeffs[n] != 1:
        raise ArithmeticError(
            f"colouring count is not a monic integer polynomial: {coeffs}"
        )
    return tuple(int(c) for c in coeffs)


@dataclass(eq=False)
class IntersectionPoset:
    """Flats of an arrangement ordered by reverse inclusion, with Mobius
    values mu(ambient, x).  A flat is the closed set of planes containing
    it, as a bitmask over `planes`."""

    n: int
    planes: tuple[Hyperplane, ...]
    flats: tuple[int, ...]
    codims: tuple[int, ...]
    mobius: tuple[int, ...]

    @property
    def region_count(self) -> int:
        return sum(abs(m) for m in self.mobius)

    def characteristic_polynomial(self) -> tuple[int, ...]:
        """Coefficients of chi(t) = sum_x mu(x) t^{dim x}, ascending degree."""
        coeffs = [0] * (self.n + 1)
        for codim, m in zip(self.codims, self.mobius):
            coeffs[self.n - codim] += m
        return tuple(coeffs)


def _reduce(basis: list[tuple[int, list[int]]], v: list[int]) -> list[int]:
    """v reduced against echelon rows (pivot, row) by fraction-free integer
    elimination; zero iff v lies in their span."""
    for p, row in basis:
        if v[p]:
            v = [row[p] * x - v[p] * y for x, y in zip(v, row)]
    return v


def intersection_poset(planes: Iterable[Hyperplane], n: int) -> IntersectionPoset:
    """Test oracle for chi(t): every intersection of a subset of `planes`,
    with its Mobius value, by exact rank closure.  A plane contains the
    intersection iff its normal lies in the span of the chosen normals."""
    plane_list = tuple(sorted(set(planes)))
    normals = []
    for h in plane_list:
        v = [0] * n
        v[h.i - 1] = 1
        if h.kind != "zero":
            v[h.j - 1] = -1 if h.kind == "diff" else 1
        normals.append(v)

    def closure(mask: int) -> tuple[int, int]:
        basis: list[tuple[int, list[int]]] = []
        for t, v in enumerate(normals):
            v = _reduce(basis, v)
            if mask >> t & 1 and any(v):
                basis.append((next(p for p, x in enumerate(v) if x), v))
        closed = [t for t, v in enumerate(normals) if not any(_reduce(basis, v))]
        return sum(1 << t for t in closed), len(basis)

    # flat -> codimension; after plane t, every intersection of planes <= t
    codim = {0: 0}
    for t in range(len(plane_list)):
        codim.update(closure(f | 1 << t) for f in list(codim))
    flats = sorted(codim, key=lambda f: (codim[f], f))

    mobius = [1]
    for x in range(1, len(flats)):
        fx = flats[x]
        mobius.append(-sum(mobius[y] for y in range(x) if flats[y] & fx == flats[y]))
        # geometric lattice: mu alternates in sign with codimension
        if mobius[x] == 0 or (mobius[x] > 0) != (codim[fx] % 2 == 0):
            raise ArithmeticError(
                f"Möbius value {mobius[x]} at a codimension-{codim[fx]} flat"
            )
    return IntersectionPoset(
        n, plane_list, tuple(flats), tuple(codim[f] for f in flats), tuple(mobius)
    )


def inversion_reflections(w: Element) -> tuple[Element, ...]:
    """Inv(w) = {t in T : l(wt) < l(w)}; its size equals l(w).  One length
    call covers w and every wt."""
    reflections = w.ctx.reflections
    *lengths, lw = coxeter_lengths(
        [compose_windows(w.window, t.window) for t in reflections] + [w.window],
        w.ctx.family,
    )
    return tuple(t for t, length in zip(reflections, lengths) if length < lw)


def hyperplane_of(t: Element, ctx: GroupContext) -> Hyperplane:
    """The fixed hyperplane of a reflection, in signed coordinates."""
    if t.ctx != ctx:
        raise ValueError("reflection does not belong to the given context")
    sigma = signed_window(t) if ctx.family == "B" else t.window
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
    """The fixed planes of Inv(w), read off the signed window sigma (type
    A: the window): x_i = x_j for i < j with sigma_i > sigma_j, and in type
    B also x_i = -x_j for i < j with -sigma_i > sigma_j and x_i = 0 for
    sigma_i < 0.  `inversion_reflections` is the definition it must match."""
    b = w.ctx.family == "B"
    sigma = signed_window(w) if b else w.window
    n = len(sigma)
    planes = [Hyperplane("zero", i + 1, 0) for i in range(n) if b and sigma[i] < 0]
    for i in range(n):
        for j in range(i + 1, n):
            if sigma[i] > sigma[j]:
                planes.append(Hyperplane("diff", i + 1, j + 1))
            if b and -sigma[i] > sigma[j]:
                planes.append(Hyperplane("sum", i + 1, j + 1))
    return tuple(sorted(planes))


def chamber_count(w: Element) -> int:
    """c(w) = (-1)^n chi(-1), the chambers of the inversion arrangement.

    At t = -1, m = -1 and (m)_k = (-1)^k k!, so this is integer arithmetic.
    """
    n = w.ctx.rank
    counts = _block_counts(inversion_arrangement(w), n)
    return (-1) ** n * sum(
        count * (-1) ** k * factorial(k) for k, count in enumerate(counts)
    )


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
