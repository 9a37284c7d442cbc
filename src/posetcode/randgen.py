"""Seeded random instances for property tests, the selftest and bench."""

from __future__ import annotations

import random

from .field import PrimeField
from .linear import Code, Matrix
from .poset import Poset


def random_poset(rng: random.Random, n: int, density: float | None = None) -> Poset:
    """A random order: forward edges along a shuffled axis, then closure."""
    if density is None:
        density = rng.uniform(0.1, 0.6)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                pairs.append((order[i], order[j]))
    return Poset.from_relations(n, pairs)


def random_hierarchical_poset(rng: random.Random, n: int) -> Poset:
    """A random ordered partition of the ground set, read as levels."""
    elements = list(range(1, n + 1))
    rng.shuffle(elements)
    blocks: list[list[int]] = [[]]
    for x in elements:
        blocks[-1].append(x)
        if rng.random() < 0.5:
            blocks.append([])
    if not blocks[-1]:
        blocks.pop()
    return Poset.hierarchical_from_levels(blocks)


def random_matrix(rng: random.Random, field: PrimeField, k: int, n: int) -> Matrix:
    return Matrix(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(k)])


def _full_rank(rng: random.Random, field: PrimeField, k: int, n: int) -> Matrix:
    """A random k x n matrix, resampled until it has rank k."""
    while True:
        m = random_matrix(rng, field, k, n)
        if m.rank() == k:
            return m


def random_code(rng: random.Random, field: PrimeField, n: int, k: int) -> Code:
    """A random [n, k] code, 1 <= k <= n; resamples until the generator
    has full rank."""
    if not 1 <= k <= n:
        raise ValueError(f"a random [n, k] code needs 1 <= k <= n, got n={n}, k={k}")
    return Code(_full_rank(rng, field, k, n))


def random_invertible(rng: random.Random, field: PrimeField, k: int) -> Matrix:
    """A random invertible k x k matrix, k >= 1."""
    if k < 1:
        raise ValueError(f"a random invertible matrix needs k >= 1, got k={k}")
    return _full_rank(rng, field, k, k)
