"""The characteristic of a prime field GF(p).

This module only checks p.  It does no arithmetic: vectors, matrices
and the packed row kernel in `linear` reduce their own residues mod p.
"""

from __future__ import annotations

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
    """A validated prime characteristic p, 2 <= p < 2**16.

    Instances are immutable and compare by characteristic.
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
