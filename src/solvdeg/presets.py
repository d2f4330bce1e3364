"""Built-in GF(7) benchmark systems with a solving-degree/regularity gap.

These are the regression workloads for the verification suite: a small
two-variable system whose solving degree exceeds its degree of regularity
by one, and two three-variable product constructions (products of a few
base polynomials plus the field equations) where the gap is much larger.
The product systems are expanded here at construction time from their
base factors.
"""

from __future__ import annotations

import itertools

from .field import PrimeField
from .poly import PolySystem, PolynomialRing, field_equations


def gap_quartic_system() -> PolySystem:
    """{x^4 - 1, x^2 y - x^2, y^2 - 1} over GF(7), x > y.

    Degree of regularity 4, solving degree 5, reduced basis {y-1, x^4-1}.
    """
    ring = PolynomialRing(("x", "y"), PrimeField(7))
    return PolySystem(ring, (
        ring.poly({(4, 0): 1, (0, 0): -1}),
        ring.poly({(2, 1): 1, (2, 0): -1}),
        ring.poly({(0, 2): 1, (0, 0): -1}),
    ))


def _f7_ring() -> PolynomialRing:
    return PolynomialRing(("x", "y", "z"), PrimeField(7))


def _base_quintic(ring):
    # x^5 + y^5 + z^5 - 1
    return ring.poly({(5, 0, 0): 1, (0, 5, 0): 1, (0, 0, 5): 1, (0, 0, 0): -1})


def _base_cubic(ring):
    # x^3 + y^3 + z^2 - 1
    return ring.poly({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 2): 1, (0, 0, 0): -1})


def triple_product_system() -> PolySystem:
    """All triple products of four base polynomials, plus field equations.

    23 polynomials in GF(7)[x, y, z] of degree up to 18; the degree of
    regularity is 15, and the measured solving degree 18, the largest
    input degree.
    """
    ring = _f7_ring()
    f = [
        _base_quintic(ring),
        _base_cubic(ring),
        ring.poly({(0, 6, 0): 1, (0, 0, 0): -1}),  # y^6 - 1
        ring.poly({(0, 0, 6): 1, (0, 0, 0): -1}),  # z^6 - 1
    ]
    polys = [
        f[i] * f[j] * f[k]
        for i, j, k in itertools.combinations_with_replacement(range(4), 3)
    ]
    polys.extend(field_equations(ring))
    return PolySystem(ring, tuple(polys))


def pair_product_system() -> PolySystem:
    """All pairwise products of five base polynomials, plus field equations.

    18 polynomials in GF(7)[x, y, z] of degree up to 14; the degree of
    regularity is 13.
    """
    ring = _f7_ring()
    fx, fy, fz = field_equations(ring)
    f = [_base_quintic(ring), _base_cubic(ring), fx, fy, fz]
    polys = [
        f[i] * f[j]
        for i, j in itertools.combinations_with_replacement(range(5), 2)
    ]
    polys.extend([fx, fy, fz])
    return PolySystem(ring, tuple(polys))
