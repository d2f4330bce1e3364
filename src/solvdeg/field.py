"""Exact arithmetic in the prime field GF(p).

Every coefficient in this package is a canonical residue in [0, p-1] for a
prime p < 2**31.  The cap keeps products of two residues inside 64-bit
integers, which the dense linear algebra kernel relies on.
"""

from __future__ import annotations

from dataclasses import dataclass


class NonPrimeField(ValueError):
    """Raised when a field modulus fails the primality check."""


class ModulusMismatch(ValueError):
    """Raised when elements of different prime fields are combined."""


_MAX_MODULUS = 2**31


def is_prime(p: int) -> bool:
    """Deterministic trial-division primality test, valid for p < 2**31."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0 or p % 3 == 0:
        return False
    d = 5
    while d * d <= p:
        if p % d == 0 or p % (d + 2) == 0:
            return False
        d += 6
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field GF(p) for a prime 2 <= p < 2**31."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int):
            raise NonPrimeField(f"modulus must be an integer, got {self.p!r}")
        if not (2 <= self.p < _MAX_MODULUS):
            raise NonPrimeField(f"modulus must satisfy 2 <= p < 2**31, got {self.p}")
        if not is_prime(self.p):
            raise NonPrimeField(f"{self.p} is not prime")

    def __call__(self, value: int) -> "FieldElement":
        return FieldElement(value % self.p, self)

    def __repr__(self) -> str:
        return f"GF({self.p})"


@dataclass(frozen=True)
class FieldElement:
    """A canonical residue in [0, p-1] tied to its PrimeField.

    Immutable; all operators return new elements and require matching
    moduli.  Plain ints are accepted on either side and reduced mod p.
    """

    value: int
    field: PrimeField

    def __post_init__(self) -> None:
        if not (0 <= self.value < self.field.p):
            object.__setattr__(self, "value", self.value % self.field.p)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field.p != self.field.p:
                raise ModulusMismatch(
                    f"GF({self.field.p}) vs GF({other.field.p})"
                )
            return other
        if isinstance(other, int):
            return FieldElement(other % self.field.p, self.field)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement((self.value + o.value) % self.field.p, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement((self.value - o.value) % self.field.p, self.field)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement((self.value * o.value) % self.field.p, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement((-self.value) % self.field.p, self.field)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        """Power mod p; a negative exponent is a power of the inverse."""
        if e < 0 and self.value == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.field.p})")
        return FieldElement(pow(self.value, e, self.field.p), self.field)

    def inverse(self) -> "FieldElement":
        return self ** -1

    def is_zero(self) -> bool:
        return self.value == 0

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.value == other.value and self.field.p == other.field.p
        if isinstance(other, int):
            return self.value == other % self.field.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.field.p))

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"{self.value}"
