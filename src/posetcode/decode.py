"""Syndrome decoding: full lookup table, support projection, independent
and hierarchically ordered component groups, and the two leveled
decoders with their table-size accounting.

A table weighs each enumerated word by the order ideals of its
coordinates: the weight is the size of the union of those ideals over
the word's support.  A decode plan folds its witness into per-group
maps when it is built, so a leveled decode reads each group's syndrome
straight off the received word and costs a few row dot products, one
lookup per group and one output `Vector`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from functools import reduce
from operator import and_, mul, or_, sub
from typing import Iterable, Mapping, Sequence

from .budget import DEFAULT_BUDGET, check_budget
from .decomp import Decomposition, _row_graph_groups, maximal_p_decomposition
from .field import PrimeField
from .linear import Code, Matrix, Vector, apply_map, classical_rref, invert_matrix
from .poset import Poset, cut_levels


def parity_check(code: Code) -> Matrix:
    """A full-rank (n-k) x n matrix whose kernel is the code."""
    rref, pivots = classical_rref(code.gen)
    p = code.field.p
    pivot_set = set(pivots)
    free_cols = [j for j in range(code.n) if j not in pivot_set]
    rows = []
    for f in free_cols:
        vec = [0] * code.n
        vec[f] = 1
        for i, piv in enumerate(pivots):
            vec[piv] = (-rref.rows[i][f]) % p
        rows.append(vec)
    return Matrix(code.field, rows, n=code.n)


@dataclass(frozen=True)
class SyndromeTable:
    """Coset leaders keyed by syndrome.

    Leaders have minimal weight within their coset; ties are broken by
    the lexicographic order on coordinate residues, so tables are
    reproducible.  `poset` is set when the weight is a plain order
    weight on the table's own coordinates; group tables inside a decode
    plan instead weigh words by the ideals their coordinates generate
    in the full space.
    """

    code: Code
    parity: Matrix
    leaders: Mapping[tuple[int, ...], Vector]
    poset: Poset | None = None

    def syndrome(self, y: Vector) -> tuple[int, ...]:
        if len(y) != self.code.n:
            raise ValueError(f"vector length {len(y)} does not match code length {self.code.n}")
        p = self.code.field.p
        return tuple(sum(map(mul, row, y.coords)) % p for row in self.parity.rows)

    def decode(self, y: Vector) -> Vector:
        if y.field != self.code.field:
            raise ValueError(f"field mismatch: {y.field} vs {self.code.field}")
        leader = self.leaders[self.syndrome(y)]
        return Vector(y.field, map(sub, y.coords, leader.coords))


def _build_table(
    code: Code,
    ideals: Sequence[int],
    budget: int,
    poset: Poset | None = None,
) -> SyndromeTable:
    """Enumerate the ambient space and keep a least-weight word per syndrome.

    `ideals[j]` is the order ideal generated by table coordinate j, as a
    bitmask over the full space; a word weighs the number of elements
    in the union of the ideals over its support.
    """
    q, n, k = code.q, code.n, code.k
    check_budget("syndrome table size", q ** (n - k), budget)
    check_budget("syndrome table enumeration", q**n, budget)
    parity = parity_check(code)
    rows = parity.rows
    p = code.field.p
    leaders: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    for coords in itertools.product(range(q), repeat=n):
        s = tuple(sum(map(mul, row, coords)) % p for row in rows)
        w = reduce(or_, itertools.compress(ideals, coords), 0).bit_count()
        best = leaders.get(s)
        if best is None or w < best[0]:
            leaders[s] = (w, coords)
    return SyndromeTable(
        code=code,
        parity=parity,
        leaders={s: Vector(code.field, coords) for s, (w, coords) in leaders.items()},
        poset=poset,
    )


def _coordinate_ideals(poset: Poset, coordinates: Iterable[int]) -> list[int]:
    """Ideal bitmask of each 1-indexed coordinate."""
    return [poset.ideal_mask(1 << (i - 1)) for i in coordinates]


def build_table(code: Code, poset: Poset, budget: int = DEFAULT_BUDGET) -> SyndromeTable:
    """Complete coset-leader table for the code under the order weight."""
    if poset.n != code.n:
        raise ValueError(f"poset ground set {poset.n} does not match code length {code.n}")
    ideals = _coordinate_ideals(poset, range(1, code.n + 1))
    return _build_table(code, ideals, budget, poset=poset)


def decode_full(table: SyndromeTable, y: Vector) -> Vector:
    """Subtract the coset leader of y's syndrome; the result is a nearest
    codeword under the table's weight."""
    return table.decode(y)


def project(code: Code, y: Vector) -> Vector:
    """Coordinates of y on the support of the code, in ascending index order."""
    return project_support(sorted(code.support()), y)


def project_support(support: list[int], y: Vector) -> Vector:
    return Vector(y.field, (y.coords[i - 1] for i in support))


def unproject_support(support: list[int], n: int, v: Vector) -> Vector:
    """Place v's coordinates at the given positions, zeros elsewhere."""
    coords = [0] * n
    for pos, c in zip(support, v.coords):
        coords[pos - 1] = c
    return Vector(v.field, coords)


def independent_groups(d: Decomposition, poset: Poset) -> tuple[tuple[int, ...], ...]:
    """Partition of component indices into groups whose generated ideals
    are pairwise disjoint; decoding separates exactly across groups."""
    ideals = [
        poset.ideal_mask(_support_mask(comp.support())) for comp in d.components
    ]
    return tuple(tuple(group) for group in _row_graph_groups(ideals))


def _support_mask(supp: frozenset[int]) -> int:
    mask = 0
    for i in supp:
        mask |= 1 << (i - 1)
    return mask


def hierarchical_groups(d: Decomposition, poset: Poset) -> tuple[tuple[int, ...], ...]:
    """Finest ordered partition of component indices whose consecutive
    support unions are hierarchically related, lowest group first.

    The groups are the levels between the nested complete cuts of the
    quotient order on components, where component i lies below
    component j when every element of its support is strictly below
    every element of j's.
    """
    supports = [comp.support() for comp in d.components]
    # supports are disjoint, so S_i lies strictly below S_j exactly when it
    # lies inside the ideal of every element of S_j
    full = (1 << poset.n) - 1
    under = [reduce(and_, _coordinate_ideals(poset, s), full) for s in supports]
    below = [
        (i + 1, j + 1)
        for i, mask in enumerate(map(_support_mask, supports))
        for j, ideal in enumerate(under)
        if i != j and not mask & ~ideal
    ]
    quotient = Poset.from_relations(len(supports), below)
    return tuple(tuple(i - 1 for i in level) for level in cut_levels(quotient))


@dataclass(frozen=True)
class PlanGroup:
    """One ordered group of components with its projected code and table.

    The remaining fields act on received words in the plan's input
    domain.  `syndrome_rows` give the table syndrome of the group's
    block; `leader_images` map each syndrome to its leader, unprojected
    and carried out of the decomposed domain; `keep` carries a word
    into the decomposed domain, keeps the coordinates of this group and
    of every group above it, and carries the result back.
    """

    indices: tuple[int, ...]
    support: tuple[int, ...]
    code: Code
    table: SyndromeTable
    syndrome_rows: tuple[tuple[int, ...], ...] = dataclass_field(repr=False)
    leader_images: Mapping[tuple[int, ...], tuple[int, ...]] = dataclass_field(repr=False)
    keep: tuple[tuple[int, ...], ...] = dataclass_field(repr=False)


@dataclass(frozen=True)
class DecodePlan:
    """Per-group syndrome tables over an ordered, hierarchically related
    grouping of decomposition components.

    When the decomposition describes a transformed image of the code
    actually being decoded, `to_decomposed` (W) carries received words
    into the decomposed domain and `from_decomposed` (W^-1) carries
    decoded words back; both are absent, and act as the identity, for
    plans decoding the decomposition's own code.  The maps preserve the
    order weight, so distances agree in both domains.

    Decoding never applies W or W^-1: `build_plan` folds them into each
    group's `syndrome_rows` (H_g times the rows of W on the group's
    support), `leader_images` (W^-1 times each unprojected leader) and
    `keep` map (W^-1 P W, P keeping the supports of the group and the
    groups above it).
    """

    decomposition: Decomposition
    poset: Poset
    pointer_support: frozenset[int]
    groups: tuple[PlanGroup, ...]
    to_decomposed: Matrix | None = None
    from_decomposed: Matrix | None = None

    @property
    def n(self) -> int:
        return self.decomposition.code.n


def build_plan(
    d: Decomposition,
    poset: Poset,
    budget: int = DEFAULT_BUDGET,
    witness: Matrix | None = None,
) -> DecodePlan:
    """Group the components hierarchically and build one table per group.

    Group tables decode in the projected coordinates; a leader's weight
    is that of its pull-back to the full space with zeros on the
    dropped coordinates.  `witness`, when given, is the weight-
    preserving map carrying the code to be decoded onto the
    decomposition's code.  Each group also gets its syndrome rows,
    leader images and keep map (see `DecodePlan`), so that decoding
    needs no per-word projection or change of domain.
    """
    if poset.n != d.code.n:
        raise ValueError(f"poset ground set {poset.n} does not match code length {d.code.n}")
    field, n = d.code.field, d.code.n
    inward = Matrix.identity(field, n) if witness is None else witness
    outward = Matrix.identity(field, n) if witness is None else invert_matrix(witness)
    ordered = hierarchical_groups(d, poset)
    supports = [
        sorted(set().union(*(d.components[i].support() for i in indices)))
        for indices in ordered
    ]
    zero = (0,) * n
    plan_groups = []
    for t, (indices, support_list) in enumerate(zip(ordered, supports)):
        rows = [row for i in indices for row in d.components[i].gen.rows]
        projected = Code(Matrix(field, [[row[i - 1] for i in support_list] for row in rows]))
        table = _build_table(projected, _coordinate_ideals(poset, support_list), budget)
        block = Matrix(field, [inward.rows[i - 1] for i in support_list])
        kept = set().union(*supports[t:])
        kept_rows = Matrix(
            field, [row if i in kept else zero for i, row in enumerate(inward.rows, 1)]
        )
        plan_groups.append(
            PlanGroup(
                indices=indices,
                support=tuple(support_list),
                code=projected,
                table=table,
                syndrome_rows=(table.parity @ block).rows,
                leader_images={
                    s: apply_map(outward, unproject_support(support_list, n, leader)).coords
                    for s, leader in table.leaders.items()
                },
                keep=(outward @ kept_rows).rows,
            )
        )
    return DecodePlan(
        decomposition=d,
        poset=poset,
        pointer_support=d.pointer_support,
        groups=tuple(plan_groups),
        to_decomposed=witness,
        from_decomposed=None if witness is None else outward,
    )


def build_plan_for_code(code: Code, poset: Poset, budget: int = DEFAULT_BUDGET) -> DecodePlan:
    """Decode plan for the code over its maximal decomposition.

    The decomposition lives on a weight-equivalent image of the code;
    the plan carries the witness so decoding round-trips through the
    decomposed domain."""
    pd = maximal_p_decomposition(code, poset)
    return build_plan(pd.decomposition, poset, budget, witness=pd.witness)


def _plan_field(plan: DecodePlan, y: Vector) -> PrimeField:
    """The plan's field, once y is checked to be a word of its space."""
    field = plan.decomposition.code.field
    if y.field != field:
        raise ValueError(f"field mismatch: {y.field} vs {field}")
    if len(y) != plan.n:
        raise ValueError(f"vector length {len(y)} does not match code length {plan.n}")
    return field


def decode_leveled_alg1(plan: DecodePlan, y: Vector) -> Vector:
    """Syndrome-decode every group's projection and reassemble.

    In the decomposed domain, coordinates outside the component supports
    are ignored and the output is zero there.  With the precomputed
    maps this is M_0 y minus the leader image of every group's syndrome.
    """
    field = _plan_field(plan, y)
    p, coords = field.p, y.coords
    out = [sum(map(mul, row, coords)) for row in plan.groups[0].keep]
    for group in plan.groups:
        s = tuple(sum(map(mul, row, coords)) % p for row in group.syndrome_rows)
        if any(s):
            out = list(map(sub, out, group.leader_images[s]))
    return Vector(field, out)


def decode_leveled_alg2(plan: DecodePlan, y: Vector) -> Vector:
    """Scan groups from the highest down; keep blocks that are codewords
    of their group, syndrome-decode the first erroneous block, and
    leave zeros on all groups below it.

    With the precomputed maps, the first group t from the top with a
    nonzero syndrome s gives M_t y minus its leader image of s; when no
    group has one, the result is M_0 y.
    """
    field = _plan_field(plan, y)
    p, coords = field.p, y.coords
    for group in reversed(plan.groups):
        s = tuple(sum(map(mul, row, coords)) % p for row in group.syndrome_rows)
        if any(s):
            kept = (sum(map(mul, row, coords)) for row in group.keep)
            return Vector(field, map(sub, kept, group.leader_images[s]))
    return Vector(field, (sum(map(mul, row, coords)) for row in plan.groups[0].keep))


def table_sizes(plan: DecodePlan) -> dict[str, int]:
    """Stored-entry accounting for the full, projected and leveled tables."""
    code = plan.decomposition.code
    q = code.q
    full = q ** (code.n - code.k)
    reduced = 1
    for comp in plan.decomposition.components:
        reduced *= q ** (len(comp.support()) - comp.k)
    group_sizes = []
    for group in plan.groups:
        size = 1
        for i in group.indices:
            comp = plan.decomposition.components[i]
            size *= q ** (len(comp.support()) - comp.k)
        group_sizes.append(size)
    return {
        "full": full,
        "reduced": reduced,
        "leveled_total": sum(group_sizes),
        "worst_single_lookup": max(group_sizes),
    }
