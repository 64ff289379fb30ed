import random

import pytest

from hultman import arrangements
from hultman.arrangements import (
    _block_counts,
    chamber_count,
    characteristic_polynomial,
    intersection_poset,
    inversion_arrangement,
)
from hultman.bruhat import interval_size
from hultman.cli import _plane_text
from hultman.groups import (
    Element,
    context,
    coxeter_length,
    element_from_signed,
    inverse,
    parse_element,
)
from oracles import (
    _complement_count,
    block_counts_by_digit,
    chamber_count_ff,
    hyperplane_of,
    inversion_reflections,
)

A3 = context("A", 3)
A4 = context("A", 4)
A5 = context("A", 5)
B2 = context("B", 2)
B3 = context("B", 3)


def test_hyperplane_canonical_form():
    # planes from a caller are checked: i < j, j = 0 on a zero plane, a
    # known kind, and coordinates within R^n
    for plane, n in [
        (("diff", 3, 2), 3),
        (("zero", 1, 2), 2),
        (("sum", 1, 3), 2),
        (("ratio", 1, 2), 2),
    ]:
        with pytest.raises(ValueError):
            characteristic_polynomial([plane], n)
    assert _plane_text(("sum", 1, 3)) == "x1+x3=0"


def test_hyperplane_of_generators():
    s0 = B3.generators[0]
    assert hyperplane_of(s0, B3) == ("zero", 1, 0)
    s1 = B3.generators[1]
    assert hyperplane_of(s1, B3) == ("diff", 1, 2)
    t = A4.generators[2]
    assert hyperplane_of(t, A4) == ("diff", 3, 4)


def test_hyperplane_of_rejects_non_reflections():
    with pytest.raises(ValueError):
        hyperplane_of(parse_element("362514", B3), B3)


def test_reflection_hyperplanes_cover_all_three_shapes():
    kinds = {}
    for t in B3.reflections:
        kind, _, _ = hyperplane_of(t, B3)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds == {"diff": 3, "sum": 3, "zero": 3}


def test_inversion_reflections_size_is_length():
    assert inversion_reflections(A4.identity) == ()
    for ctx in (A4, B3):
        for w in ctx.elements:
            assert len(inversion_reflections(w)) == coxeter_length(w)


def test_inversion_arrangement_3412():
    planes = set(inversion_arrangement(parse_element("3412", A4)))
    assert planes == {
        ("diff", 1, 3),
        ("diff", 1, 4),
        ("diff", 2, 3),
        ("diff", 2, 4),
    }


@pytest.mark.parametrize("family, rank", [("A", 5), ("A", 6), ("B", 4)])
def test_inversion_arrangement_is_the_planes_of_inversion_reflections(family, rank):
    # the planes themselves, not only their chamber counts: c(w) = c(w^-1),
    # so reading the inversions of w^-1 would pass a count check
    ctx = context(family, rank)
    for w in ctx.elements:
        planes = inversion_arrangement(w)
        assert planes == tuple(sorted(planes))
        assert set(planes) == {hyperplane_of(t, ctx) for t in inversion_reflections(w)}
        assert len(planes) == coxeter_length(w)


def test_longest_element_uses_every_reflection():
    w0 = A5.longest_element
    assert len(inversion_reflections(w0)) == len(A5.reflections) == 10
    assert len(inversion_reflections(B3.longest_element)) == 9


def test_flat_meet_and_zero_propagation():
    # x1 = x2 and x1 = -x2 meet in the origin: chi = t^2 - 2t + 1, 4 regions
    planes = [("diff", 1, 2), ("sum", 1, 2)]
    assert characteristic_polynomial(planes, 2) == (1, -2, 1)
    poset = intersection_poset(planes, 2)
    assert poset.characteristic_polynomial() == (1, -2, 1)
    assert poset.region_count == 4


def test_single_hyperplane_poset():
    poset = intersection_poset([("diff", 1, 2)], 2)
    assert len(poset.flats) == 2
    assert poset.mobius == (1, -1)
    assert poset.region_count == 2


def test_braid_arrangement_r3():
    planes = [
        ("diff", 1, 2),
        ("diff", 1, 3),
        ("diff", 2, 3),
    ]
    poset = intersection_poset(planes, 3)
    assert poset.region_count == 6
    assert poset.characteristic_polynomial() == (0, 2, -3, 1)


def test_full_b2_arrangement():
    planes = [hyperplane_of(t, B2) for t in B2.reflections]
    poset = intersection_poset(planes, 2)
    assert poset.region_count == 8


def test_chamber_count_values():
    assert chamber_count(A4.identity) == 1
    assert chamber_count(parse_element("3412", A4)) == 14
    assert chamber_count(parse_element("4231", A4)) == 18
    for n in (3, 4, 5, 6):
        ctx = context("A", n)
        assert chamber_count(ctx.longest_element) == ctx.order


def test_chamber_count_of_longest_type_b():
    assert chamber_count(B2.longest_element) == 8
    assert chamber_count(B3.longest_element) == 48
    assert chamber_count(context("B", 4).longest_element) == 384
    assert chamber_count(context("B", 5).longest_element) == 3840


@pytest.mark.parametrize(
    "family, rank, total", [("A", 5, 3651), ("A", 6, 90921), ("B", 4, 36225)]
)
def test_chamber_count_sums(family, rank, total):
    # pinned from the intersection-lattice count, which is too slow here
    assert sum(chamber_count(w) for w in context(family, rank).elements) == total


@pytest.mark.parametrize(
    "family, rank", [("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3)]
)
def test_colouring_polynomial_matches_lattice_oracle(family, rank):
    for w in context(family, rank).elements:
        planes = inversion_arrangement(w)
        chi = characteristic_polynomial(planes, rank)
        poset = intersection_poset(planes, rank)
        assert chi == poset.characteristic_polynomial(), w
        assert chamber_count(w) == poset.region_count, w


def test_chamber_count_invariant_under_inverse():
    for w in B3.elements:
        assert chamber_count(w) == chamber_count(inverse(w))


def test_chambers_at_most_interval_size():
    for ctx in (A4, B3):
        for w in ctx.elements:
            assert chamber_count(w) <= interval_size(w)


def test_characteristic_polynomial_vanishes_at_one():
    for text in ("3412", "4231", "4321"):
        planes = inversion_arrangement(parse_element(text, A4))
        chi = characteristic_polynomial(planes, 4)
        assert sum(chi) == 0  # chi(1) = 0 for a nonempty arrangement


def test_mobius_recursion_identity():
    # sum over the interval [ambient, x] of mu is zero for x below ambient
    # (flats are the sets of planes containing them, as bitmasks)
    poset = intersection_poset(inversion_arrangement(parse_element("426153", B3)), 3)
    flats = poset.flats
    assert flats[0] == 0 and len(set(flats)) == len(flats)
    for x in range(1, len(flats)):
        total = sum(
            poset.mobius[y]
            for y in range(len(flats))
            if flats[y] | flats[x] == flats[x]
        )
        assert total == 0


def test_ff_oracle_examples():
    assert chamber_count_ff(A4.identity) == 1
    assert chamber_count_ff(parse_element("3412", A4)) == 14
    assert chamber_count_ff(parse_element("4231", A4)) == 18


def test_ff_oracle_matches_zaslavsky_on_samples():
    rng = random.Random(11)
    for w in rng.sample(list(B3.elements), 12):
        assert chamber_count_ff(w) == chamber_count(w)


def test_ff_oracle_agrees_with_poset_polynomial():
    # the colouring polynomial counts the complement points over F_q
    w = parse_element("426153", B3)
    planes = inversion_arrangement(w)
    chi = characteristic_polynomial(planes, 3)
    primes = [7, 11, 13, 17]
    for q in primes:
        val = sum(c * q**d for d, c in enumerate(chi))
        assert _complement_count(planes, 3, q) == val


def test_ff_oracle_prime_validation():
    w = parse_element("3412", A4)
    with pytest.raises(ValueError):
        chamber_count_ff(w, primes=[11, 13])  # too few
    with pytest.raises(ValueError):
        chamber_count_ff(w, primes=[3, 5, 7, 11, 13])  # not above 2n


def _random_element(ctx, rng):
    """A uniformly drawn element, without enumerating the group."""
    values = rng.sample(range(1, ctx.rank + 1), ctx.rank)
    if ctx.family == "A":
        return Element(tuple(values), ctx)
    return element_from_signed([rng.choice((v, -v)) for v in values], ctx.rank)


def _with_roots(roots):
    """Coefficients of prod_r (t - r), ascending degree."""
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return tuple(coeffs)


@pytest.mark.parametrize(
    "ctx",
    [context("A", n) for n in range(1, 7)] + [context("B", n) for n in range(1, 5)],
    ids=lambda c: c.name,
)
def test_packed_block_counts_equal_the_digit_loop_oracle(ctx):
    for w in ctx.elements:
        planes = inversion_arrangement(w)
        assert _block_counts(planes, ctx.rank) == block_counts_by_digit(planes, ctx.rank), w


@pytest.mark.parametrize(
    "family, rank, count", [("A", 7, 200), ("A", 8, 40), ("B", 5, 200), ("B", 6, 100)]
)
def test_packed_block_counts_equal_the_digit_loop_oracle_on_a_sample(family, rank, count):
    ctx = context(family, rank)
    rng = random.Random(23)
    for _ in range(count):
        planes = inversion_arrangement(_random_element(ctx, rng))
        assert _block_counts(planes, rank) == block_counts_by_digit(planes, rank), planes


@pytest.mark.parametrize("n", range(2, 11))
def test_longest_element_of_type_a_has_the_braid_polynomial(n):
    # the braid arrangement: chi(t) = t (t - 1) ... (t - n + 1)
    ctx = context("A", n)
    w0 = ctx.longest_element
    assert characteristic_polynomial(inversion_arrangement(w0), n) == _with_roots(range(n))
    assert chamber_count(w0) == ctx.order


@pytest.mark.parametrize("n", range(2, 9))
def test_longest_element_of_type_b_has_the_coxeter_polynomial(n):
    # the B_n arrangement: chi(t) = (t - 1)(t - 3) ... (t - 2n + 1)
    ctx = context("B", n)
    w0 = ctx.longest_element
    roots = range(1, 2 * n, 2)
    assert characteristic_polynomial(inversion_arrangement(w0), n) == _with_roots(roots)
    assert chamber_count(w0) == ctx.order


@pytest.mark.parametrize(
    "family, n", [("A", n) for n in range(2, 11)] + [("B", n) for n in range(2, 9)]
)
def test_identity_has_the_polynomial_t_to_the_n(family, n):
    # no planes: every signing is valid, so the digits are the largest
    identity = context(family, n).identity
    assert characteristic_polynomial(inversion_arrangement(identity), n) == _with_roots([0] * n)
    assert chamber_count(identity) == 1


def test_packed_block_counts_need_only_digits_below_the_width(monkeypatch):
    n = 4
    expected = block_counts_by_digit((), n)
    # the least width that holds every digit of the largest counts
    monkeypatch.setattr(arrangements, "_digit_width", lambda n: max(expected).bit_length())
    assert _block_counts((), n) == expected
    monkeypatch.setattr(arrangements, "_digit_width", lambda n: 2)
    with pytest.raises(ArithmeticError):
        _block_counts((), n)
    with pytest.raises(ArithmeticError):
        chamber_count(B3.identity)


def test_characteristic_polynomial_checks_the_scaled_coefficients(monkeypatch):
    # 2^n chi(t) must have every coefficient divisible by 2^n and lead with
    # 2^n: counts [0, 1, 4] give 2^2 chi = 4t^2 - 14t + 10, and [0, 0, 8]
    # give 8t^2 - 32t + 24
    for counts in ([0, 1, 4], [0, 0, 8]):
        monkeypatch.setattr(arrangements, "_block_counts", lambda planes, n, c=counts: c)
        with pytest.raises(ArithmeticError):
            characteristic_polynomial((), 2)
