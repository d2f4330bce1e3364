"""Multivariate monomials, polynomials and systems under degrevlex.

Exponent vectors are dense tuples.  Polynomial terms are kept sorted in
strictly descending degrevlex order so leading-term queries are O(1);
addition merges sorted term lists.  The homogenization variable, when
introduced, is always appended as the degrevlex-least variable, which is
what makes saturation by it readable off a Groebner basis.

The column order of the Macaulay matrices lives here alone, as two
inverse maps: degree_keys enumerates the monomials of one degree in
descending degrevlex, as integer keys, and MonomialIndex turns a key
back into its position.  monomials_of_degree, monomials_up_to and
monomial_keys_up_to are all read off degree_keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable

import numpy as np

from .field import FieldElement, PrimeField


class LengthMismatch(ValueError):
    """Monomials from rings with different variable counts."""


class ZeroPolynomial(ValueError):
    """Operation undefined for the zero polynomial."""


@dataclass(frozen=True)
class Monomial:
    """A power product, stored as its exponent vector."""

    exps: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.exps)

    @property
    def nvars(self) -> int:
        return len(self.exps)

    def sort_key(self):
        """Key that orders monomials ascending in degrevlex.

        Larger key == larger monomial, so sorted(..., reverse=True) yields
        the descending column order used everywhere in this package.
        """
        return (self.degree, tuple(-e for e in reversed(self.exps)))

    def mul(self, other: "Monomial") -> "Monomial":
        if len(self.exps) != len(other.exps):
            raise LengthMismatch("cannot multiply monomials of different arity")
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def div(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(tuple(a - b for a, b in zip(self.exps, other.exps)))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exps)

    def __repr__(self) -> str:
        return "*".join(
            f"x{i}^{e}" if e > 1 else f"x{i}"
            for i, e in enumerate(self.exps) if e
        ) or "1"


@lru_cache(maxsize=128)
def degree_keys(n: int, d: int) -> np.ndarray:
    """Keys of the degree-d monomials in n variables, descending degrevlex
    (a read-only array, one row per monomial; see monomial_keys).

    Of two monomials of one degree, the larger in degrevlex is the one
    whose key is larger at the last entry where the keys differ, so the
    keys are built from the last entry to the first, each descending
    within the entries after it: R_{n-1} = d, then each R_i runs from
    R_{i+1} down to 0.  MonomialIndex(n, d) ranks them 0, 1, 2, ...
    """
    keys = np.full((1, n), d, dtype=np.int64)
    for i in range(n - 2, -1, -1):
        top = keys[:, i + 1]
        counts = top + 1
        starts = np.cumsum(counts) - counts
        keys = np.repeat(keys, counts, axis=0)
        # Row starts[j] + t of the new array, 0 <= t <= top[j], gets
        # R_i = top[j] - t.
        keys[:, i] = np.repeat(top + starts, counts) - np.arange(len(keys))
    keys.setflags(write=False)
    return keys


def monomials_of_degree(n: int, d: int) -> list[Monomial]:
    """All degree-d monomials in n variables, descending degrevlex."""
    exps = np.diff(degree_keys(n, d), axis=1, prepend=0)
    return [Monomial(tuple(e)) for e in exps.tolist()]


@lru_cache(maxsize=128)
def monomials_up_to(n: int, d: int) -> tuple[Monomial, ...]:
    """All monomials of degree <= d in n variables, descending degrevlex."""
    out: list[Monomial] = []
    for deg in range(d, -1, -1):
        out.extend(monomials_of_degree(n, deg))
    return tuple(out)


def monomial_keys(monos: Iterable[Monomial]) -> np.ndarray:
    """One row per monomial: the prefix sums R_i = e_0 + ... + e_i.

    Keys add under multiplication, key(u*m) = key(u) + key(m), and the
    last entry of a key is the monomial's degree.
    """
    exps = np.array([m.exps for m in monos], dtype=np.int64)
    return np.cumsum(exps, axis=1)


def term_arrays(f: "Polynomial") -> tuple[np.ndarray, np.ndarray]:
    """Keys and integer coefficients of f's terms, in term order."""
    return (monomial_keys(m for m, _ in f.terms),
            np.array([c.value for _, c in f.terms], dtype=np.int64))


@lru_cache(maxsize=128)
def monomial_keys_up_to(n: int, d: int) -> np.ndarray:
    """Keys of monomials_up_to(n, d), row for row (a read-only array)."""
    keys = np.concatenate([degree_keys(n, e) for e in range(d, -1, -1)])
    keys.setflags(write=False)
    return keys


class MonomialIndex:
    """Degrevlex positions of the monomials of degree <= d in n variables.

    The position of the monomial with key R in monomial_keys_up_to(n, d) is

        C(n + d, n) - 1 - sum_{i < n} C(R_i + i, i + 1),

    its rank in the combinatorial number system.  That list starts with
    the degree-d monomials, so for them the position is also the index in
    degree_keys(n, d).  The binomials come from one flattened
    table with d + 1 entries per variable, and R_{n-1}, the degree, falls
    in the last stretch: a key of degree above d indexes past the table
    and raises IndexError instead of landing in a wrong column.
    """

    def __init__(self, n: int, d: int):
        self.n = n
        self.size = comb(n + d, n)
        self._table = np.array(
            [comb(r + i, i + 1) for i in range(n) for r in range(d + 1)],
            dtype=np.int64,
        )
        self._offsets = np.arange(n, dtype=np.int64) * (d + 1)

    def product_positions(self, src_keys: np.ndarray,
                          mult_keys: np.ndarray) -> np.ndarray:
        """Positions of the products u*m of every multiplier u and term m.

        Takes the keys of the terms m (rows of src_keys) and of the
        multipliers u (rows of mult_keys); returns one row per multiplier
        and one column per term.
        """
        out = np.full((len(mult_keys), len(src_keys)), self.size - 1,
                      dtype=np.int64)
        for i, offset in enumerate(self._offsets):
            out -= self._table[(src_keys[:, i] + offset)
                               + mult_keys[:, i, None]]
        return out


class Polynomial:
    """Terms sorted strictly descending in degrevlex, no zero coefficients.

    A polynomial knows its arity and coefficient field even when zero, so
    the zero polynomial of every ring is representable.
    """

    __slots__ = ("terms", "nvars", "field", "_hash")

    def __init__(
        self,
        terms: Iterable[tuple[Monomial, FieldElement]],
        nvars: int,
        field: PrimeField,
    ):
        merged: dict[tuple[int, ...], int] = {}
        for mono, coeff in terms:
            if mono.nvars != nvars:
                raise LengthMismatch("term arity does not match polynomial arity")
            c = int(coeff) % field.p
            if c == 0 and mono.exps not in merged:
                continue
            merged[mono.exps] = (merged.get(mono.exps, 0) + c) % field.p
        cleaned = [
            (Monomial(e), FieldElement(c, field))
            for e, c in merged.items() if c != 0
        ]
        cleaned.sort(key=lambda t: t[0].sort_key(), reverse=True)
        self.terms: tuple[tuple[Monomial, FieldElement], ...] = tuple(cleaned)
        self.nvars = nvars
        self.field = field
        self._hash = None

    # -- structure queries --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return self.terms[0][0].degree

    @property
    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading monomial")
        return self.terms[0][0]

    @property
    def leading_coefficient(self) -> FieldElement:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        d = self.terms[0][0].degree
        return all(m.degree == d for m, _ in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _like(self, terms) -> "Polynomial":
        return Polynomial(terms, self.nvars, self.field)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return self._like(list(self.terms) + list(other.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return self._like(
            list(self.terms) + [(m, -c) for m, c in other.terms]
        )

    def __neg__(self) -> "Polynomial":
        return self._like([(m, -c) for m, c in self.terms])

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._check(other)
            acc: dict[tuple[int, ...], int] = {}
            p = self.field.p
            for m1, c1 in self.terms:
                v1 = c1.value
                for m2, c2 in other.terms:
                    key = tuple(a + b for a, b in zip(m1.exps, m2.exps))
                    acc[key] = (acc.get(key, 0) + v1 * c2.value) % p
            return self._like(
                (Monomial(e), FieldElement(c, self.field)) for e, c in acc.items()
            )
        if isinstance(other, Monomial):
            return self._like([(m.mul(other), c) for m, c in self.terms])
        if isinstance(other, (FieldElement, int)):
            s = other if isinstance(other, FieldElement) else self.field(other)
            return self._like([(m, c * s) for m, c in self.terms])
        return NotImplemented

    __rmul__ = __mul__

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        inv = self.leading_coefficient.inverse()
        return self * inv

    def _check(self, other: "Polynomial") -> None:
        if other.nvars != self.nvars:
            raise LengthMismatch("polynomials from different rings")
        if other.field.p != self.field.p:
            raise ValueError("polynomials over different fields")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.field.p == other.field.p
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, self.field.p, self.terms))
        return self._hash

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{m}" for m, c in self.terms)


@dataclass(frozen=True)
class PolynomialRing:
    """GF(p)[x_1, ..., x_n] with x_1 > ... > x_n in degrevlex."""

    names: tuple[str, ...]
    modulus: PrimeField

    def __post_init__(self) -> None:
        if len(self.names) < 1:
            raise ValueError("a ring needs at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")

    @property
    def n(self) -> int:
        return len(self.names)

    def zero(self) -> Polynomial:
        return Polynomial([], self.n, self.modulus)

    def poly(self, coeffs: dict[tuple[int, ...], int]) -> Polynomial:
        """Build a polynomial from {exponent tuple: integer coefficient}."""
        return Polynomial(
            ((Monomial(e), self.modulus(c)) for e, c in coeffs.items()),
            self.n,
            self.modulus,
        )

    def extend(self) -> "PolynomialRing":
        """Append one degrevlex-least variable (used for homogenization).

        It is named t, or t0, t1, ... when t is taken.
        """
        name = "t"
        k = 0
        while name in self.names:
            name = f"t{k}"
            k += 1
        return PolynomialRing(self.names + (name,), self.modulus)


@dataclass(frozen=True)
class PolySystem:
    """A polynomial system: ring descriptor plus the equations."""

    ring: PolynomialRing
    polys: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        for f in self.polys:
            if f.nvars != self.ring.n:
                raise LengthMismatch("system polynomial arity != ring arity")
            if f.field.p != self.ring.modulus.p:
                raise ValueError("system polynomial over a different field")

    @property
    def is_homogeneous(self) -> bool:
        return all(f.is_homogeneous() for f in self.polys)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(f.degree for f in self.polys if not f.is_zero())

    def nonzero(self) -> tuple[Polynomial, ...]:
        return tuple(f for f in self.polys if not f.is_zero())

    def __iter__(self):
        return iter(self.polys)

    def __len__(self) -> int:
        return len(self.polys)


# -- homogenization and top parts -------------------------------------------


def homogenize(f: Polynomial) -> Polynomial:
    """f^h in one more variable, appended degrevlex-last.

    Every term is padded with a power of the new variable so all terms
    reach deg(f); substituting 1 for the new variable recovers f.
    """
    d = f.degree
    if d < 0:
        return Polynomial([], f.nvars + 1, f.field)
    return Polynomial(
        [(Monomial(m.exps + (d - m.degree,)), c) for m, c in f.terms],
        f.nvars + 1,
        f.field,
    )


def dehomogenize_last(f: Polynomial, value: int = 1) -> Polynomial:
    """Substitute a constant for the last variable (inverse of homogenize)."""
    fld = f.field
    out = []
    for m, c in f.terms:
        scale = pow(value % fld.p, m.exps[-1], fld.p)
        out.append((Monomial(m.exps[:-1]), c * scale))
    return Polynomial(out, f.nvars - 1, fld)


def top_part(f: Polynomial) -> Polynomial:
    """The homogeneous part of highest degree, as a polynomial in the same ring."""
    if f.is_zero():
        raise ZeroPolynomial("top part of the zero polynomial is undefined")
    d = f.degree
    return Polynomial(
        [(m, c) for m, c in f.terms if m.degree == d], f.nvars, f.field
    )


def homogenize_system(F: PolySystem) -> PolySystem:
    ring = F.ring.extend()
    return PolySystem(ring, tuple(homogenize(f) for f in F.polys))


def top_system(F: PolySystem) -> PolySystem:
    return PolySystem(
        F.ring, tuple(top_part(f) for f in F.polys if not f.is_zero())
    )


def field_equations(ring: PolynomialRing) -> list[Polynomial]:
    """The equations x_i^p - x_i for the ring's prime p."""
    p = ring.modulus.p
    out = []
    for i in range(ring.n):
        hi = [0] * ring.n
        hi[i] = p
        lo = [0] * ring.n
        lo[i] = 1
        out.append(ring.poly({tuple(hi): 1, tuple(lo): -1}))
    return out

