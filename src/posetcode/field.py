"""Exact arithmetic in prime fields GF(p)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

MAX_CHARACTERISTIC = 1 << 16


def _is_prime(n: int) -> bool:
    """Primality of n >= 2 by trial division."""
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field of integers modulo a prime p, 2 <= p < 2**16.

    Elements are canonical residues in [0, p); every operation reduces
    eagerly.  Instances are immutable and compare by characteristic.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not 2 <= p < MAX_CHARACTERISTIC:
            raise ValueError(f"field characteristic must be in [2, 2**16), got {p}")
        if not _is_prime(p):
            raise ValueError(f"field characteristic must be prime, got {p}")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeField is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"

    # Raw residue arithmetic behind FieldElement, the scalar-level API.
    # Vectors, matrices and the packed row kernel reduce their own ints.

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return pow(a, self.p - 2, self.p)

    def element(self, value: int) -> "FieldElement":
        return FieldElement(value % self.p, self)

    # Alias matching the scalar constructor naming used elsewhere.
    from_int = element

    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    def elements(self) -> Iterator["FieldElement"]:
        for v in range(self.p):
            yield FieldElement(v, self)


@dataclass(frozen=True)
class FieldElement:
    """A canonical residue together with its field."""

    value: int
    field: PrimeField

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.field != self.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field.add(self.value, other.value), self.field)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field.sub(self.value, other.value), self.field)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field.mul(self.value, other.value), self.field)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field.neg(self.value), self.field)

    def inv(self) -> "FieldElement":
        return FieldElement(self.field.inv(self.value), self.field)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return self * other.inv()

    def __bool__(self) -> bool:
        return self.value != 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.field.p})"
