"""Seeded random polynomial systems with uniform coefficients.

Generation uses the standard library Mersenne Twister with an explicit
seed, drawing one residue per monomial in a fixed enumeration order, so a
given (seed, parameters) pair reproduces the same system bit for bit on
any platform.
"""

from __future__ import annotations

import random
from typing import Sequence

from .field import FieldElement
from .poly import (
    PolySystem,
    Polynomial,
    PolynomialRing,
    monomials_of_degree,
    monomials_up_to,
)


def random_polynomial(ring: PolynomialRing, degree: int, rng: random.Random,
                      homogeneous: bool = False) -> Polynomial:
    """Uniform coefficients over every monomial of the given (top) degree.

    Redraws until the top-degree part is nonzero, so the polynomial's
    degree is exactly `degree`.
    """
    p = ring.modulus.p
    while True:
        if homogeneous:
            monos = monomials_of_degree(ring.n, degree)
        else:
            monos = monomials_up_to(ring.n, degree)
        terms = []
        top_nonzero = False
        for m in monos:
            c = rng.randrange(p)
            if c:
                terms.append((m, FieldElement(c, ring.modulus)))
                if m.degree == degree:
                    top_nonzero = True
        if top_nonzero:
            return Polynomial(terms, ring.n, ring.modulus)


def random_system(p: int, n: int, degrees: Sequence[int], seed: int,
                  homogeneous: bool = False) -> PolySystem:
    """A system of len(degrees) random polynomials over GF(p)."""
    from .field import PrimeField

    ring = PolynomialRing(tuple(f"x{i+1}" for i in range(n)), PrimeField(p))
    rng = random.Random(seed)
    polys = tuple(
        random_polynomial(ring, d, rng, homogeneous=homogeneous)
        for d in degrees
    )
    return PolySystem(ring, polys)


def random_corpus(count: int, seed: int, first_seed: int) -> list[PolySystem]:
    """Small inhomogeneous random systems over GF(2), GF(7) and GF(101).

    System i has p = (2, 7, 101)[i % 3], n = (1, 2, 3)[(i // 3) % 3] and
    m = n + i % 3 equations, whose degrees (2 or 3) are drawn from one
    Random(seed); its coefficients come from seed first_seed + i.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        p = (2, 7, 101)[i % 3]
        n = (1, 2, 3)[(i // 3) % 3]
        m = n + (i % 3)
        degrees = [rng.choice((2, 3)) for _ in range(m)]
        out.append(random_system(p, n, degrees, seed=first_seed + i))
    return out
