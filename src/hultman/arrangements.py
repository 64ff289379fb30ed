"""Inversion arrangements and exact chamber counting.

A hyperplane is a plain triple: ("diff", i, j) is x_i = x_j and ("sum",
i, j) is x_i = -x_j, both with 0 < i < j, and ("zero", i, 0) is x_i = 0.
Type A uses only the first.  Sorted triples order the kinds "diff" <
"sum" < "zero", then (i, j).  An arrangement is thus a signed graph, and
chi(t) counts its proper colourings (Zaslavsky, "Signed graph coloring",
1982).  One exact subset DP over them, `_block_counts`, gives chi(t) and
the chamber count c(w) = (-1)^n chi(-1).  It keeps the counts of every
block number k of a vertex set as the digits of one int, wide enough for
a proven bound, so one big-int multiply-add does the work of a loop over
k.  chi(t) is then summed in integers, as 2^n chi(t).  The tests check
chi(t) against two independent oracles, and the packed digits against the
same DP with one list entry per k.  The intersection lattice with its
Möbius values stays here only because the benchmark's tracer wraps
`intersection_poset` in this module.  The finite-field point count, the
rational polynomial product it interpolates with, and the definition
Inv(w) = {t in T : l(wt) < l(w)} that `inversion_arrangement` must match
live with the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial
from typing import Iterable

from .groups import Element, signed_window

# ("diff", i, j), ("sum", i, j) or ("zero", i, 0)
Plane = tuple[str, int, int]


def _digit_width(n: int) -> int:
    """Bits per digit of the packed partition counts of `_block_counts`.

    Digit k of the counts of a vertex set s sums, over the partitions of s
    into k blocks, a product of sigma(B) <= 2^|B|: at most Bell(|s|) terms
    of at most 2^|s| each.  a[k] sums that over at most 2^n zero sets Z.
    Bell(n) <= n!, so 4^n n! bounds every digit of every sum formed."""
    return (4**n * factorial(n)).bit_length()


def _block_counts(planes: Iterable[Plane], n: int) -> list[int]:
    """a[k], so that chi(2m+1) = sum_k a[k] (m)_k.  A proper colouring by
    -m..m is its zero set Z (no zero plane, no edge inside) plus the blocks
    of equal |x|, which take k distinct values in 1..m; a[k] sums, over Z
    and the partitions of the rest into k blocks B, prod_B sigma(B), where
    sigma(B) counts the signings of B in which each "diff" edge has opposite
    signs and each "sum" edge equal ones.

    The partition counts of a vertex set s, one for each k, are held as the
    digits of one int: digit k at bit k * width, with the width of
    `_digit_width`.  The digits are nonnegative and below 2^width, so
    adding and scaling the ints adds and scales them digit by digit with no
    carry, and each (s, block) pair is one multiply-add.  The top digit is
    checked: a[n] = 2^n for every arrangement (the singletons, each signed
    freely, with Z empty), so ArithmeticError is raised unless the packed
    sum reads exactly 2^n from digit n up, as it would not if digit n
    overflowed or a carry reached it.
    """
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
    # parts[s]: weighted partitions of s into k blocks as digit k, built by
    # choosing the block that holds the lowest vertex of s; that block adds
    # one to k, which is one shift of the sum
    width = _digit_width(n)
    parts = [1] + [0] * full
    for s in range(1, full + 1):
        low = s & -s
        sub = rest = s ^ low
        acc = sigma[low] * parts[rest]
        while sub:
            acc += sigma[sub | low] * parts[rest ^ sub]
            sub = (sub - 1) & rest
        parts[s] = acc << width
    # a zero set has no edge inside: all 2^|z| of its signings are valid
    packed = sum(
        parts[full ^ z]
        for z in range(full + 1)
        if not z & no_zero and sigma[z] == 1 << z.bit_count()
    )
    if packed >> n * width != 1 << n:
        raise ArithmeticError(f"packed partition counts overflow {width}-bit digits")
    digit = (1 << width) - 1
    return [packed >> k * width & digit for k in range(n + 1)]


def characteristic_polynomial(planes: Iterable[Plane], n: int) -> tuple[int, ...]:
    """Coefficients of chi(t), ascending degree, by signed-graph colouring:
    chi(t) = sum_k a[k] (m)_k with m = (t - 1) / 2.  Since (m)_k =
    2^-k prod_{j<k} (t - 1 - 2j), the sum is taken in integers as

        2^n chi(t) = sum_k a[k] 2^(n-k) prod_{j<k} (t - 1 - 2j),

    and ArithmeticError is raised unless every coefficient of it is
    divisible by 2^n and the leading one is 2^n.  A plane that is not a
    hyperplane of R^n in the triple form of this module raises ValueError.
    """
    planes = tuple(planes)
    for plane in planes:
        kind, i, j = plane
        if kind == "zero":
            valid = 0 < i <= n and j == 0
        else:
            valid = kind in ("diff", "sum") and 0 < i < j <= n
        if not valid:
            raise ValueError(f"not a hyperplane of R^{n}: {plane!r}")
    scaled = [0] * (n + 1)
    falling = [1]  # prod_{j<k} (t - 1 - 2j), ascending degree
    for k, count in enumerate(_block_counts(planes, n)):
        for d, c in enumerate(falling):
            scaled[d] += (count << n - k) * c
        falling = [b - (1 + 2 * k) * a for a, b in zip(falling + [0], [0] + falling)]
    if scaled[n] != 1 << n or any(c % (1 << n) for c in scaled):
        raise ArithmeticError(
            f"colouring count is not a monic integer polynomial: 2^{n} chi(t) = {scaled}"
        )
    return tuple(c >> n for c in scaled)


@dataclass(eq=False)
class IntersectionPoset:
    """Flats of an arrangement ordered by reverse inclusion, with Mobius
    values mu(ambient, x).  A flat is the closed set of planes containing
    it, as a bitmask over `planes`."""

    n: int
    planes: tuple[Plane, ...]
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


def intersection_poset(planes: Iterable[Plane], n: int) -> IntersectionPoset:
    """Test oracle for chi(t): every intersection of a subset of `planes`,
    with its Mobius value, by exact rank closure.  A plane contains the
    intersection iff its normal lies in the span of the chosen normals."""
    plane_list = tuple(sorted(set(planes)))
    normals = []
    for kind, i, j in plane_list:
        v = [0] * n
        v[i - 1] = 1
        if kind != "zero":
            v[j - 1] = -1 if kind == "diff" else 1
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


def inversion_arrangement(w: Element) -> tuple[Plane, ...]:
    """The fixed planes of Inv(w), read off the signed window sigma (type
    A: the window): x_i = x_j for i < j with sigma_i > sigma_j, and in type
    B also x_i = -x_j for i < j with -sigma_i > sigma_j and x_i = 0 for
    sigma_i < 0.  Each inversion reflection has one plane, so there are
    l(w) of them."""
    b = w.ctx.family == "B"
    sigma = signed_window(w) if b else w.window
    pairs = list(combinations(range(n := len(sigma)), 2))
    # built in sorted order: kinds "diff" < "sum" < "zero", then (i, j)
    planes = [("diff", i + 1, j + 1) for i, j in pairs if sigma[i] > sigma[j]]
    if b:
        planes += [("sum", i + 1, j + 1) for i, j in pairs if -sigma[i] > sigma[j]]
        planes += [("zero", i + 1, 0) for i in range(n) if sigma[i] < 0]
    return tuple(planes)


def chamber_count(w: Element) -> int:
    """c(w) = (-1)^n chi(-1), the chambers of the inversion arrangement.

    At t = -1, m = -1 and (m)_k = (-1)^k k!, so this is integer arithmetic.
    """
    n = w.ctx.rank
    counts = _block_counts(inversion_arrangement(w), n)
    return (-1) ** n * sum(
        count * (-1) ** k * factorial(k) for k, count in enumerate(counts)
    )

