"""Shared brute-force oracles used to cross-check library routines.

These deliberately re-derive everything from definitions, independent of
the code paths they validate.
"""

from __future__ import annotations

import itertools

from posetcode.decode import parity_check, unproject_support
from posetcode.field import PrimeField
from posetcode.linear import Code, Matrix, Vector, p_distance
from posetcode.poset import Poset


def all_vectors(field: PrimeField, n: int) -> list[Vector]:
    return [Vector(field, c) for c in itertools.product(range(field.p), repeat=n)]


def brute_ideal(poset: Poset, seed: set[int]) -> set[int]:
    """Downward closure by repeated scanning of the relation."""
    closed = set(seed)
    grew = True
    while grew:
        grew = False
        for a in range(1, poset.n + 1):
            if a in closed:
                continue
            if any(poset.leq(a, b) for b in closed):
                closed.add(a)
                grew = True
    return closed


def brute_heights(poset: Poset) -> list[int]:
    """Longest-chain heights by enumerating all chains."""
    n = poset.n
    heights = [0] * n
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            is_chain = all(
                poset.leq(a, b) or poset.leq(b, a) for a, b in itertools.combinations(subset, 2)
            )
            if not is_chain:
                continue
            top = max(subset, key=lambda a: sum(poset.leq(b, a) for b in subset))
            if all(poset.leq(b, top) for b in subset):
                heights[top - 1] = max(heights[top - 1], size)
    return heights


def brute_weight(v: Vector, poset: Poset) -> int:
    supp = {i + 1 for i, c in enumerate(v.coords) if c}
    return len(brute_ideal(poset, supp))


def brute_packing_radius(code: Code, poset: Poset) -> int:
    """Largest radius with pairwise disjoint balls, straight from the
    ball definition."""
    words = sorted(code.codeword_set(), key=lambda v: v.coords)
    space = all_vectors(code.field, code.n)
    r = -1
    while True:
        candidate = r + 1
        ok = True
        for i, c1 in enumerate(words):
            for c2 in words[i + 1 :]:
                ball1 = {x.coords for x in space if p_distance(x, c1, poset) <= candidate}
                if any(
                    x.coords in ball1
                    for x in space
                    if p_distance(x, c2, poset) <= candidate
                ):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            return r
        r = candidate
        if r > code.n:
            return code.n


def brute_nearest_distance(words, y: Vector, poset: Poset) -> int:
    return min(p_distance(y, c, poset) for c in words)


# -- reference decoders ---------------------------------------------------
#
# The literal decoding path: every received word is carried into the
# decomposed domain, projected onto each group's support, decoded by the
# group table and unprojected, then carried back.  The library folds all
# of this into maps precomputed per plan; these keep the long way round.


def reference_leaders(code: Code, weight) -> dict[tuple[int, ...], Vector]:
    """Least-weight word per syndrome, scanning the space in
    lexicographic order and replacing a leader only on strictly lower
    weight."""
    parity = parity_check(code)
    best: dict[tuple[int, ...], tuple[int, Vector]] = {}
    for v in all_vectors(code.field, code.n):
        s = _reference_syndrome(parity, v)
        w = weight(v)
        if s not in best or w < best[s][0]:
            best[s] = (w, v)
    return {s: v for s, (w, v) in best.items()}


def _reference_syndrome(parity: Matrix, y: Vector) -> tuple[int, ...]:
    p = parity.field.p
    return tuple(sum(h * c for h, c in zip(row, y.coords)) % p for row in parity.rows)


def reference_decode_full(table, y: Vector) -> Vector:
    return y - table.leaders[_reference_syndrome(table.parity, y)]


def _reference_apply(m: Matrix | None, v: Vector) -> Vector:
    if m is None:
        return v
    p = m.field.p
    return Vector(m.field, (sum(a * c for a, c in zip(row, v.coords)) % p for row in m.rows))


def _reference_blocks(plan, y: Vector):
    """Per group, lowest first: whether the block is in error, and the
    block as received and as decoded, unprojected in the decomposed
    domain."""
    inner = _reference_apply(plan.to_decomposed, y)
    for group in plan.groups:
        support = list(group.support)
        block = Vector(inner.field, (inner.coords[i - 1] for i in support))
        yield (
            any(_reference_syndrome(group.table.parity, block)),
            unproject_support(support, plan.n, block),
            unproject_support(support, plan.n, reference_decode_full(group.table, block)),
        )


def reference_decode_alg1(plan, y: Vector) -> Vector:
    out = Vector(y.field, [0] * plan.n)
    for _, _, decoded in _reference_blocks(plan, y):
        out = out + decoded
    return _reference_apply(plan.from_decomposed, out)


def reference_decode_alg2(plan, y: Vector) -> Vector:
    out = Vector(y.field, [0] * plan.n)
    for in_error, received, decoded in reversed(list(_reference_blocks(plan, y))):
        if in_error:
            out = out + decoded
            break
        out = out + received
    return _reference_apply(plan.from_decomposed, out)
