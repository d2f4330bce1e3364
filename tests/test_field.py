"""GF(p) arithmetic: exhaustive axioms for tiny p, randomized for large."""

import random

import pytest

from solvdeg import FieldElement, ModulusMismatch, NonPrimeField, PrimeField


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms_exhaustive(p):
    F = PrimeField(p)
    elems = [F(v) for v in range(p)]
    for a in elems:
        assert (a + F(0)) == a
        assert (a * F(1)) == a
        assert (a + (-a)).value == 0
        for b in elems:
            assert (a + b) == (b + a)
            assert (a * b) == (b * a)
            assert (a + b).value == (a.value + b.value) % p
            assert (a * b).value == (a.value * b.value) % p
            for c in elems:
                assert ((a + b) + c) == (a + (b + c))
                assert ((a * b) * c) == (a * (b * c))
                assert (a * (b + c)) == (a * b + a * c)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_inverses_exhaustive(p):
    F = PrimeField(p)
    for a in map(F, range(p)):
        if a.value == 0:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert (a.inverse() * a) == F(1)


def test_inverse_randomized_large_prime():
    p = 2**31 - 1
    F = PrimeField(p)
    rng = random.Random(123)
    for _ in range(300):
        a = F(rng.randrange(1, p))
        assert (a.inverse() * a).value == 1


def test_small_arithmetic_mod7():
    F = PrimeField(7)
    assert (F(3) + F(5)).value == 1
    assert F(3).inverse().value == 5
    assert (F(3) * F(5)).value == 1


def test_characteristic_two_negation():
    F = PrimeField(2)
    assert (-F(1)).value == 1


def test_canonical_residues():
    F = PrimeField(11)
    assert F(-1).value == 10
    assert F(23).value == 1
    assert (F(5) - F(9)).value == 7


def test_division():
    F = PrimeField(101)
    a, b = F(17), F(64)
    assert ((a / b) * b) == a
    with pytest.raises(ZeroDivisionError):
        a / F(0)


def test_modulus_mismatch():
    a = PrimeField(7)(3)
    b = PrimeField(11)(3)
    with pytest.raises(ModulusMismatch):
        a + b
    with pytest.raises(ModulusMismatch):
        a * b


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 2**31, 2**31 + 11, -7])
def test_nonprime_rejected(bad):
    with pytest.raises(NonPrimeField):
        PrimeField(bad)


def test_int_interop():
    F = PrimeField(7)
    assert (F(3) + 5).value == 1
    assert (5 + F(3)).value == 1
    assert (1 - F(3)).value == 5
    assert F(3) == 10
    assert int(F(6)) == 6


def test_pow():
    F = PrimeField(13)
    assert (F(2) ** 12).value == 1
    assert (F(2) ** -1) == F(2).inverse()
    assert (F(2) ** -2) == F(2).inverse() * F(2).inverse()
    # Zero has no inverse, whichever way it is asked for.
    for invert in (lambda z: z ** -1, lambda z: z.inverse(), lambda z: 1 / z):
        with pytest.raises(ZeroDivisionError):
            invert(F(0))


def test_hash_and_bool():
    F = PrimeField(7)
    assert hash(F(3)) == hash(FieldElement(3, F))
    assert bool(F(3)) and not bool(F(0))
    assert F(0).is_zero()
