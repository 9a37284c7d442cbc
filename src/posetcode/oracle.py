"""Brute-force ground truth at tiny sizes.

Enumerates the weight-preserving linear maps of an ordered space, the
order automorphisms, and all hierarchical posets on a small ground set;
computes the maximal decomposition degree by exhausting the whole
isometry group.  Everything here is deliberately literal and budgeted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .budget import DEFAULT_BUDGET, check_budget
from .decomp import components_from_matrix, degree, PDecomposition
from .field import PrimeField
from .linear import Code, Matrix, p_weight, row_reduce_inverse
from .poset import Poset


@dataclass(frozen=True)
class Isometry:
    """An invertible weight-preserving map with its induced permutation.

    The permutation sends i to the unique maximal element of the support
    of the image of e_i.
    """

    matrix: Matrix
    induced_map: tuple[int, ...]


def induced_permutation(m: Matrix, poset: Poset) -> tuple[int, ...]:
    """phi(i) = the maximal element of supp(T(e_i)); raises if any image
    support has more than one maximal element."""
    if m.k != m.n or m.n != poset.n:
        raise ValueError("need a square matrix matching the ground set")
    out = []
    for i in range(m.n):
        col_support = [r + 1 for r in range(m.n) if m.rows[r][i]]
        if not col_support:
            raise ValueError(f"column {i + 1} of the map is zero")
        maxima = poset.maximal_elements(col_support)
        if len(maxima) != 1:
            raise ValueError(
                f"image of basis vector {i + 1} has {len(maxima)} maximal support elements"
            )
        out.append(next(iter(maxima)))
    return tuple(out)


def _strict_pairs(poset: Poset) -> list[tuple[int, int]]:
    return sorted(poset.relations())


def enum_g_p(poset: Poset, q: int, budget: int = DEFAULT_BUDGET) -> Iterator[Isometry]:
    """All maps sending e_j to x_jj e_j + sum over i < j of x_ij e_i,
    with each x_jj nonzero: the isometries inducing the identity
    permutation."""
    field = PrimeField(q)
    n = poset.n
    pairs = _strict_pairs(poset)
    check_budget("reducing-isometry enumeration", (q - 1) ** n * q ** len(pairs), budget)
    units = list(range(1, q))
    identity = tuple(range(1, n + 1))
    for diag in itertools.product(units, repeat=n):
        for offs in itertools.product(range(q), repeat=len(pairs)):
            rows = [[0] * n for _ in range(n)]
            for j in range(n):
                rows[j][j] = diag[j]
            for (i, j), x in zip(pairs, offs):
                rows[i - 1][j - 1] = x
            yield Isometry(Matrix(field, rows), identity)


def enum_aut(poset: Poset, budget: int = DEFAULT_BUDGET) -> Iterator[tuple[int, ...]]:
    """All permutations preserving the order in both directions."""
    n = poset.n
    check_budget("automorphism enumeration", math.factorial(n), budget)
    rels = poset.relations()
    for perm in itertools.permutations(range(1, n + 1)):
        # forward inclusion alone suffices: the induced pair map is
        # injective, so mapping rels into rels means mapping onto rels
        if all((perm[a - 1], perm[b - 1]) in rels for a, b in rels):
            yield perm


def permutation_matrix(perm: Sequence[int], field: PrimeField) -> Matrix:
    """The map sending e_i to e_perm(i) (1-indexed images)."""
    n = len(perm)
    rows = [[0] * n for _ in range(n)]
    for i, img in enumerate(perm):
        rows[img - 1][i] = 1
    return Matrix(field, rows)


def enum_gl_p(poset: Poset, q: int, budget: int = DEFAULT_BUDGET) -> Iterator[Isometry]:
    """The full isometry group: reducing part composed with each
    order-automorphism-induced permutation."""
    field = PrimeField(q)
    n = poset.n
    pairs = len(_strict_pairs(poset))
    bound = (q - 1) ** n * q**pairs * math.factorial(n)
    check_budget("isometry-group enumeration", bound, budget)
    auts = list(enum_aut(poset, budget))
    for phi in auts:
        phi_matrix = permutation_matrix(phi, field)
        for reducing in enum_g_p(poset, q, budget):
            composite = reducing.matrix @ phi_matrix
            yield Isometry(composite, phi)


def is_isometry(m: Matrix, poset: Poset, budget: int = DEFAULT_BUDGET) -> bool:
    """Exhaustive check that the map preserves the order weight.

    The vectors are mapped in blocks of at most 2^10, one matrix product
    per block: each block fixes the leading coordinates and runs the
    trailing ones through every value.
    """
    if m.k != m.n or m.n != poset.n:
        return False
    q, n = m.field.p, m.n
    check_budget("isometry verification", q**n, budget)
    if m.rank() != n:
        return False
    free = next(t for t in range(n, -1, -1) if q**t <= 1 << 10)
    tails = list(itertools.product(range(q), repeat=free))
    for head in itertools.product(range(q), repeat=n - free):
        block = Matrix(m.field, [head + tail for tail in tails], n=n)
        pairs = zip(block.row_vectors(), m.apply_to_rows(block).row_vectors())
        if any(p_weight(v, poset) != p_weight(w, poset) for v, w in pairs):
            return False
    return True


def brute_max_degree(code: Code, poset: Poset, budget: int = DEFAULT_BUDGET) -> int:
    """Maximum decomposition degree over the entire isometry group.

    For every isometry, the image code's right-most-pivot reduced
    generator determines a maximal decomposition; the best degree over
    all images is the invariant the canonicalization must reach.
    """
    best: int | None = None
    for iso in enum_gl_p(poset, code.q, budget):
        transformed = iso.matrix.apply_to_rows(code.gen)
        reduced = row_reduce_inverse(transformed)
        d = components_from_matrix(reduced)
        value = degree(PDecomposition(original=code, decomposition=d, witness=iso.matrix))
        if best is None or value > best:
            best = value
    assert best is not None
    return best


def _ordered_set_partitions(elements: list[int]) -> Iterator[list[list[int]]]:
    if not elements:
        yield []
        return
    rest = elements[1:]
    first = elements[0]
    for sub in _subsets(rest):
        block = [first] + sub
        remaining = [x for x in rest if x not in sub]
        for tail in _ordered_set_partitions(remaining):
            for pos in range(len(tail) + 1):
                yield tail[:pos] + [block] + tail[pos:]


def _subsets(elements: list[int]) -> Iterator[list[int]]:
    for r in range(len(elements) + 1):
        yield from (list(c) for c in itertools.combinations(elements, r))


def ordered_bell(n: int) -> int:
    a = [1] + [0] * n
    for m in range(1, n + 1):
        a[m] = sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1))
    return a[n]


def enum_hierarchical(n: int, budget: int = DEFAULT_BUDGET) -> Iterator[Poset]:
    """One hierarchical poset per ordered set partition of the ground set."""
    check_budget("hierarchical poset enumeration", ordered_bell(n), budget)
    for blocks in _ordered_set_partitions(list(range(1, n + 1))):
        yield Poset.hierarchical_from_levels(blocks)


def enum_posets(n: int, budget: int = DEFAULT_BUDGET) -> Iterator[Poset]:
    """Every partial order on the ground set, by filtering all strict
    relation sets for antisymmetry and transitivity."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    check_budget("poset enumeration", 2 ** len(pairs), budget)
    for bits in range(2 ** len(pairs)):
        up = [1 << i for i in range(n)]
        for idx, (a, b) in enumerate(pairs):
            if bits >> idx & 1:
                up[a] |= 1 << b
        try:
            yield Poset(n, up)
        except ValueError:
            continue


def random_reducing_isometry(poset: Poset, q: int, rng) -> Matrix:
    """A random member of the identity-permutation isometries."""
    field = PrimeField(q)
    n = poset.n
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[j][j] = rng.randrange(1, q)
    for i, j in _strict_pairs(poset):
        rows[i - 1][j - 1] = rng.randrange(q)
    return Matrix(field, rows)
