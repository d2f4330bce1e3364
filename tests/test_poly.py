"""Monomial order, polynomial structure, and homogenization."""

import itertools
import random

import numpy as np
import pytest

from solvdeg import (
    LengthMismatch,
    Monomial,
    PolySystem,
    Polynomial,
    PolynomialRing,
    PrimeField,
    ZeroPolynomial,
    dehomogenize_last,
    field_equations,
    homogenize,
    homogenize_system,
    monomials_of_degree,
    monomials_up_to,
    top_part,
)
from solvdeg.poly import MonomialIndex, degree_keys, monomial_keys
from solvdeg.randsys import random_polynomial


def brute_cmp(a, b):
    """Direct transcription of the order definition."""
    if sum(a) != sum(b):
        return 1 if sum(a) > sum(b) else -1
    diff = [x - y for x, y in zip(a, b)]
    last = next((d for d in reversed(diff) if d != 0), 0)
    if last == 0:
        return 0
    return 1 if last < 0 else -1


def key_cmp(a, b):
    """Three-way comparison of two monomials by Monomial.sort_key."""
    ka, kb = a.sort_key(), b.sort_key()
    return (ka > kb) - (ka < kb)


def test_degree_one_order():
    x, y, z = Monomial((1, 0, 0)), Monomial((0, 1, 0)), Monomial((0, 0, 1))
    assert key_cmp(x, y) == 1
    assert key_cmp(y, z) == 1
    assert key_cmp(z, x) == -1


def test_degree_two_order_n3():
    expected = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    got = [m.exps for m in monomials_of_degree(3, 2)]
    assert got == expected
    for i, a in enumerate(expected):
        for j, b in enumerate(expected):
            want = 0 if i == j else (1 if i < j else -1)
            assert key_cmp(Monomial(a), Monomial(b)) == want


def test_mixed_exponent_comparison():
    assert key_cmp(Monomial((1, 2, 0)), Monomial((2, 0, 1))) == 1


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        Monomial((1, 2)).mul(Monomial((1, 2, 0)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_order_matches_definition_exhaustively(n):
    monos = [m.exps for d in range(7) for m in monomials_of_degree(n, d)]
    for a in monos:
        for b in monos:
            assert key_cmp(Monomial(a), Monomial(b)) == brute_cmp(a, b)


def test_order_refines_degree():
    for n in (2, 3, 4):
        for a in monomials_up_to(n, 6):
            for b in monomials_up_to(n, 6):
                if a.degree > b.degree:
                    assert key_cmp(a, b) == 1


def _oracle_degree(n, d):
    """The degree-d monomials by brute force: one per multiset of d
    variables, sorted descending by Monomial.sort_key."""
    monos = []
    for chosen in itertools.combinations_with_replacement(range(n), d):
        exps = [0] * n
        for i in chosen:
            exps[i] += 1
        monos.append(Monomial(tuple(exps)))
    return sorted(monos, key=Monomial.sort_key, reverse=True)


def test_monomials_up_to_counts():
    from math import comb

    for n in (1, 2, 3, 5):
        for d in (0, 1, 2, 4):
            ms = monomials_up_to(n, d)
            assert len(ms) == comb(n + d, n)
            # strictly descending
            for a, b in zip(ms, ms[1:]):
                assert key_cmp(a, b) == 1
    for n, d in [(1, 0), (1, 5), (10, 6), (12, 5), (3, 18), (32, 3)]:
        oracle = _oracle_degree(n, d)
        keys = degree_keys(n, d)
        assert not keys.flags.writeable
        assert keys.tolist() == monomial_keys(oracle).tolist()
        assert monomials_of_degree(n, d) == oracle
        assert _key_ranks(MonomialIndex(n, d), keys) == list(range(len(keys)))


def _key_ranks(index, keys):
    """Positions of the keys under index, as products with the unit
    monomial."""
    one = np.zeros((1, index.n), dtype=np.int64)
    return index.product_positions(keys, one)[0].tolist()


def _ranks(index, monos):
    """Positions of monos under index."""
    return _key_ranks(index, monomial_keys(monos))


@pytest.mark.parametrize("n, d", [(1, 4), (2, 6), (3, 18), (6, 4), (6, 5),
                                  (10, 6), (32, 3)])
def test_monomial_index_matches_enumeration(n, d):
    index = MonomialIndex(n, d)
    up_to = monomials_up_to(n, d)
    assert index.size == len(up_to)
    assert _ranks(index, up_to) == list(range(len(up_to)))
    graded = monomials_of_degree(n, d)
    assert _ranks(index, graded) == list(range(len(graded)))
    assert _key_ranks(index, degree_keys(n, d)) == list(range(len(graded)))


def test_monomial_index_products():
    n, d = 3, 5
    index = MonomialIndex(n, d)
    col = {m.exps: i for i, m in enumerate(monomials_up_to(n, d))}
    terms = monomials_up_to(n, 3)
    mults = monomials_up_to(n, 2)
    got = index.product_positions(monomial_keys(terms), monomial_keys(mults))
    assert got.tolist() == [[col[m.mul(u).exps] for m in terms]
                            for u in mults]


@pytest.mark.parametrize("n, d", [(1, 4), (3, 4), (32, 3)])
def test_monomial_index_rejects_degree_above_d(n, d):
    index = MonomialIndex(n, d)
    for mono in monomials_of_degree(n, d + 1):
        with pytest.raises(IndexError):
            _ranks(index, [mono])


def test_monomial_algebra():
    a, b = Monomial((2, 0, 1)), Monomial((1, 1, 0))
    assert a.mul(b).exps == (3, 1, 1)
    assert b.divides(a.mul(b)) and not b.divides(a)
    assert a.lcm(b).exps == (2, 1, 1)
    assert a.mul(b).div(b) == a


def test_polynomial_normalization(ring_xy):
    f = ring_xy.poly({(1, 0): 3, (0, 1): 0, (0, 0): 9})
    assert [(m.exps, c.value) for m, c in f.terms] == [((1, 0), 3), ((0, 0), 2)]
    # duplicate monomials merge
    F = ring_xy.modulus
    g = Polynomial(
        [(Monomial((1, 0)), F(3)), (Monomial((1, 0)), F(4))], 2, F
    )
    assert g.is_zero()


def test_polynomial_terms_sorted_descending(ring_xy):
    f = ring_xy.poly({(0, 0): 1, (2, 0): 1, (1, 1): 1, (0, 1): 1})
    exps = [m.exps for m, _ in f.terms]
    assert exps == [(2, 0), (1, 1), (0, 1), (0, 0)]
    assert f.degree == 2
    assert f.leading_monomial.exps == (2, 0)


def test_polynomial_arithmetic_roundtrip(ring_xy):
    rng = random.Random(5)
    for _ in range(25):
        f = random_polynomial(ring_xy, 3, rng)
        g = random_polynomial(ring_xy, 2, rng)
        assert (f + g) - g == f
        assert f * g == g * f
        assert (f * g).degree == f.degree + g.degree


def test_homogenize_example(ring_xy):
    f = ring_xy.poly({(2, 0): 1, (0, 1): 1, (0, 0): 1})  # x^2 + y + 1
    h = homogenize(f)
    assert h.nvars == 3
    assert {(m.exps, c.value) for m, c in h.terms} == {
        ((2, 0, 0), 1), ((0, 1, 1), 1), ((0, 0, 2), 1)
    }
    assert h.is_homogeneous()


def test_homogenize_fixed_point(ring_xy):
    f = ring_xy.poly({(2, 0): 1, (1, 1): 1})  # already homogeneous
    h = homogenize(f)
    assert all(m.exps[-1] == 0 for m, _ in h.terms)


def test_homogenize_gap_system(ring_xy):
    polys = [
        ring_xy.poly({(4, 0): 1, (0, 0): -1}),
        ring_xy.poly({(2, 1): 1, (2, 0): -1}),
        ring_xy.poly({(0, 2): 1, (0, 0): -1}),
    ]
    hs = [homogenize(f) for f in polys]
    expect = [
        {((4, 0, 0), 1), ((0, 0, 4), 6)},
        {((2, 1, 0), 1), ((2, 0, 1), 6)},
        {((0, 2, 0), 1), ((0, 0, 2), 6)},
    ]
    for h, e in zip(hs, expect):
        assert {(m.exps, c.value) for m, c in h.terms} == e


def test_homogenize_preserves_terms_and_t1_recovers(ring_xyz):
    rng = random.Random(11)
    for _ in range(30):
        f = random_polynomial(ring_xyz, rng.randrange(1, 5), rng)
        h = homogenize(f)
        assert len(h.terms) == len(f.terms)
        assert sorted(c.value for _, c in h.terms) == sorted(
            c.value for _, c in f.terms
        )
        assert dehomogenize_last(h, 1) == f


def test_homogenize_system_names_new_variable():
    # The new variable is t, or the first of t0, t1, ... not yet taken.
    for names, new in [(("x", "y"), "t"), (("t", "t0"), "t1")]:
        ring = PolynomialRing(names, PrimeField(7))
        f = ring.poly({(1, 1): 1, (0, 0): 1})
        H = homogenize_system(PolySystem(ring, (f,)))
        assert H.ring.names == names + (new,)
        assert H.polys == (homogenize(f),)


def test_top_part_examples(ring_xy):
    f = ring_xy.poly({(2, 0): 1, (0, 1): 1, (0, 0): 1})
    assert top_part(f) == ring_xy.poly({(2, 0): 1})
    assert top_part(ring_xy.poly({(4, 0): 1, (0, 0): -1})) == ring_xy.poly({(4, 0): 1})
    assert top_part(ring_xy.poly({(2, 1): 1, (2, 0): -1})) == ring_xy.poly({(2, 1): 1})
    assert top_part(ring_xy.poly({(0, 2): 1, (0, 0): -1})) == ring_xy.poly({(0, 2): 1})
    homo = ring_xy.poly({(2, 0): 3, (1, 1): 4})
    assert top_part(homo) == homo
    with pytest.raises(ZeroPolynomial):
        top_part(ring_xy.zero())


def test_top_part_is_dehomogenize_at_zero(ring_xyz):
    rng = random.Random(13)
    for _ in range(30):
        f = random_polynomial(ring_xyz, rng.randrange(1, 5), rng)
        assert top_part(f) == dehomogenize_last(homogenize(f), 0)


def test_field_equations():
    R7 = PolynomialRing(("x", "y", "z"), PrimeField(7))
    eqs = field_equations(R7)
    assert [
        {(m.exps, c.value) for m, c in f.terms} for f in eqs
    ] == [
        {((7, 0, 0), 1), ((1, 0, 0), 6)},
        {((0, 7, 0), 1), ((0, 1, 0), 6)},
        {((0, 0, 7), 1), ((0, 0, 1), 6)},
    ]
    R2 = PolynomialRing(("x",), PrimeField(2))
    (f,) = field_equations(R2)
    assert {(m.exps, c.value) for m, c in f.terms} == {((2,), 1), ((1,), 1)}
    R3 = PolynomialRing(("x", "y"), PrimeField(3))
    assert len(field_equations(R3)) == 2


def test_system_flags(ring_xy):
    hom = PolySystem(ring_xy, (ring_xy.poly({(2, 0): 1, (1, 1): 2}),))
    assert hom.is_homogeneous
    inhom = PolySystem(ring_xy, (ring_xy.poly({(2, 0): 1, (0, 0): 2}),))
    assert not inhom.is_homogeneous


def test_ring_validation():
    with pytest.raises(ValueError):
        PolynomialRing(("x", "x"), PrimeField(7))
    with pytest.raises(ValueError):
        PolynomialRing((), PrimeField(7))
