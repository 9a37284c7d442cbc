"""Syndrome decoding: full lookup table, support projection, independent
and hierarchically ordered component groups, and the two leveled
decoders with their table-size accounting.

A table weighs each enumerated word by the order ideals of its
coordinates: the weight is the size of the union of those ideals over
the word's support.

Every syndrome is one packed `RowKernel` int.  A table keeps the p
multiples of each packed column of its parity matrix, so a word's
syndrome is one kernel add per nonzero coordinate.  The table build
lists the words on the first half of the coordinates and on the second
half, each with its packed syndrome and ideal union, and scans the
pairs in lexicographic order.  A decode plan's accumulator is one
matrix product S W: column i of S stacks every group's H_g e_i and
W^-1 e_i on the decomposed domain, and the witness W is applied once,
when the plan is built.  A leveled decode is then one pass over the
received word, a slice per group, one lookup per group that fires, one
packed subtraction and one output `Vector`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import reduce
from operator import and_, sub
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .budget import DEFAULT_BUDGET, check_budget
from .decomp import Decomposition, maximal_p_decomposition
from .linear import (
    Code,
    Matrix,
    RowKernel,
    Vector,
    classical_rref,
    invert_matrix,
    row_kernel,
)
from .poset import Poset, _elements_mask, _row_graph_groups, cut_levels


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


def _packed_columns(
    kernel: RowKernel, rows: Sequence[Sequence[int]], n: int
) -> tuple[list[int], ...]:
    """The p multiples of each of the n packed columns of the rows."""
    return tuple(kernel.multiples(kernel.pack([row[j] for row in rows])) for j in range(n))


def _accumulate(
    add: Callable[[int, int], int], columns: Sequence[list[int]], coords: Sequence[int]
) -> int:
    """The packed image of a word: y_j times column j, summed over j."""
    acc = 0
    for col, c in zip(columns, coords):
        if c:
            acc = add(acc, col[c])
    return acc


@dataclass(frozen=True)
class SyndromeTable:
    """Coset leaders keyed by syndrome.

    Leaders have minimal weight within their coset; ties are broken by
    the lexicographic order on coordinate residues, so tables are
    reproducible.

    Decoding reads the packed parity columns and a private index from
    packed syndrome to leader coordinates, in the order of `leaders`.
    """

    code: Code
    parity: Matrix
    leaders: Mapping[tuple[int, ...], Vector]
    _kernel: RowKernel = dataclass_field(repr=False, compare=False, kw_only=True)
    _columns: tuple[list[int], ...] = dataclass_field(repr=False, compare=False, kw_only=True)
    _index: Mapping[int, tuple[int, ...]] = dataclass_field(
        repr=False, compare=False, kw_only=True
    )

    def _packed_syndrome(self, y: Vector) -> int:
        _check_word(self.code, y)
        return _accumulate(self._kernel.add, self._columns, y.coords)

    def syndrome(self, y: Vector) -> tuple[int, ...]:
        return tuple(self._kernel.unpack(self._packed_syndrome(y)))


def _check_word(code: Code, y: Vector) -> None:
    """Reject a word that does not lie in the ambient space of the code."""
    if y.field != code.field:
        raise ValueError(f"field mismatch: {y.field} vs {code.field}")
    if len(y) != code.n:
        raise ValueError(f"vector length {len(y)} does not match code length {code.n}")


def _half_words(
    add: Callable[[int, int], int],
    columns: Sequence[list[int]],
    ideals: Sequence[int],
    positions: range,
) -> list[tuple[int, int, tuple[int, ...]]]:
    """Every word on the given coordinates, in lexicographic order, as
    (packed syndrome, union of the ideals over its support, residues)."""
    words = [(0, 0, ())]
    for j in positions:
        col, ideal = columns[j], ideals[j]
        words = [
            (add(s, multiple), union | ideal if c else union, coords + (c,))
            for s, union, coords in words
            for c, multiple in enumerate(col)
        ]
    return words


def _build_table(code: Code, ideals: Sequence[int], budget: int) -> SyndromeTable:
    """Enumerate the ambient space and keep a least-weight word per syndrome.

    `ideals[j]` is the order ideal generated by table coordinate j, as a
    bitmask over the full space; a word weighs the number of elements
    in the union of the ideals over its support.  The words are the
    pairs of a head word on the first n // 2 coordinates and a tail
    word on the rest, scanned head-major: that is lexicographic order,
    so a leader is replaced only by a strictly lighter word that comes
    later in it.
    """
    q, n, k = code.q, code.n, code.k
    check_budget("syndrome table size", q ** (n - k), budget)
    check_budget("syndrome table enumeration", q**n, budget)
    parity = parity_check(code)
    kernel = row_kernel(code.field.p, n - k)
    add = kernel.add
    columns = _packed_columns(kernel, parity.rows, n)
    tail = _half_words(add, columns, ideals, range(n // 2, n))
    best: dict[int, tuple[int, tuple[int, ...]]] = {}
    for head_s, head_union, head in _half_words(add, columns, ideals, range(n // 2)):
        for tail_s, tail_union, tail_coords in tail:
            s = add(head_s, tail_s)
            w = (head_union | tail_union).bit_count()
            leader = best.get(s)
            if leader is None or w < leader[0]:
                best[s] = (w, head + tail_coords)
    return SyndromeTable(
        code=code,
        parity=parity,
        leaders={
            tuple(kernel.unpack(s)): Vector(code.field, coords) for s, (w, coords) in best.items()
        },
        _kernel=kernel,
        _columns=columns,
        _index={s: coords for s, (w, coords) in best.items()},
    )


def _coordinate_ideals(poset: Poset, coordinates: Iterable[int]) -> list[int]:
    """Ideal bitmask of each 1-indexed coordinate."""
    return [poset.ideal_mask(1 << (i - 1)) for i in coordinates]


def build_table(code: Code, poset: Poset, budget: int = DEFAULT_BUDGET) -> SyndromeTable:
    """Complete coset-leader table for the code under the order weight."""
    poset._check_ground_set(code.n)
    ideals = _coordinate_ideals(poset, range(1, code.n + 1))
    return _build_table(code, ideals, budget)


def decode_full(table: SyndromeTable, y: Vector) -> Vector:
    """Subtract the coset leader of y's syndrome; the result is a nearest
    codeword under the table's weight."""
    leader = table._index[table._packed_syndrome(y)]
    return Vector(y.field, map(sub, y.coords, leader))


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
    poset._check_ground_set(d.code.n)
    ideals = [
        poset.ideal_mask(_elements_mask(comp.support())) for comp in d.components
    ]
    return tuple(tuple(group) for group in _row_graph_groups(ideals))


def hierarchical_groups(d: Decomposition, poset: Poset) -> tuple[tuple[int, ...], ...]:
    """Finest ordered partition of component indices whose consecutive
    support unions are hierarchically related, lowest group first.

    The groups are the levels between the nested complete cuts of the
    quotient order on components, where component i lies below
    component j when every element of its support is strictly below
    every element of j's.
    """
    poset._check_ground_set(d.code.n)
    supports = [comp.support() for comp in d.components]
    # supports are disjoint, so S_i lies strictly below S_j exactly when it
    # lies inside the ideal of every element of S_j.  That relation is
    # transitive already; bit i is set on its own, since S_i need not lie
    # inside its own meet of ideals.
    full = (1 << poset.n) - 1
    under = [reduce(and_, _coordinate_ideals(poset, s), full) for s in supports]
    up = [
        1 << i | sum(1 << j for j, ideal in enumerate(under) if not mask & ~ideal)
        for i, mask in enumerate(map(_elements_mask, supports))
    ]
    quotient = Poset(len(supports), up)
    return tuple(tuple(i - 1 for i in level) for level in cut_levels(quotient))


@dataclass(frozen=True)
class PlanGroup:
    """One ordered group of components with its projected code and table."""

    indices: tuple[int, ...]
    support: tuple[int, ...]
    code: Code
    table: SyndromeTable


class _Slots(NamedTuple):
    """Where one group sits in a plan's packed accumulator: the bit shift
    and mask of its syndrome slots, the bit shift of its n keep-map
    slots, and its negated leader images by packed syndrome."""

    syndrome_shift: int
    syndrome_mask: int
    keep_shift: int
    images: Mapping[int, int]


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

    Decoding never applies W or W^-1: `build_plan` folds them into one
    packed accumulator S W.  Column i of S stacks, group after group
    from the lowest, H_g e_i when i is in the group's support (the group
    syndrome) and then W^-1 e_i when i is in the support of g or of a
    group above it (the keep map W^-1 P_g W, once multiplied by W).
    Each group's leaders are stored unprojected, carried out by W^-1 and
    negated, as packed n-slot rows.
    """

    decomposition: Decomposition
    poset: Poset
    pointer_support: frozenset[int]
    groups: tuple[PlanGroup, ...]
    to_decomposed: Matrix | None = None
    from_decomposed: Matrix | None = None
    _kernel: RowKernel = dataclass_field(repr=False, compare=False, kw_only=True)
    _columns: tuple[list[int], ...] = dataclass_field(repr=False, compare=False, kw_only=True)
    _slots: tuple[_Slots, ...] = dataclass_field(repr=False, compare=False, kw_only=True)
    _out: RowKernel = dataclass_field(repr=False, compare=False, kw_only=True)

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
    decomposition's code.  The plan also gets its packed accumulator
    (see `DecodePlan`), so that decoding needs no per-word projection
    or change of domain.
    """
    poset._check_ground_set(d.code.n)
    field, n, p = d.code.field, d.code.n, d.code.field.p
    out = row_kernel(p, n)
    outward = Matrix.identity(field, n) if witness is None else invert_matrix(witness)
    # the p multiples of column i of W^-1, the image of e_i
    outward_columns = _packed_columns(out, outward.rows, n)
    plan_groups, slots, keep_shifts = [], [], []
    stacked = [0] * n  # column i of S, filled group by group
    shift = 0
    for indices in hierarchical_groups(d, poset):
        support_list = sorted(set().union(*(d.components[i].support() for i in indices)))
        rows = [row for i in indices for row in d.components[i].gen.rows]
        projected = Code(Matrix(field, [[row[i - 1] for i in support_list] for row in rows]))
        table = _build_table(projected, _coordinate_ideals(poset, support_list), budget)
        plan_groups.append(
            PlanGroup(indices=indices, support=tuple(support_list), code=projected, table=table)
        )
        keep_shift = shift + table._kernel.m * out.w
        keep_shifts.append(keep_shift)
        # H_g e_i at this group's syndrome shift, and W^-1 e_i at the keep
        # shift of this group and of every group below it
        for i, multiples in zip(support_list, table._columns):
            image = outward_columns[i - 1][1]
            stacked[i - 1] |= multiples[1] << shift | sum(image << k for k in keep_shifts)
        columns = [outward_columns[i - 1] for i in support_list]
        images = {
            s: _accumulate(out.add, columns, [-c % p for c in coords])
            for s, coords in table._index.items()
        }
        slots.append(_Slots(shift, (1 << (keep_shift - shift)) - 1, keep_shift, images))
        shift = keep_shift + n * out.w
    kernel = row_kernel(p, shift // out.w)
    accumulator = tuple(map(kernel.multiples, stacked))
    if witness is not None:  # column j of S W
        accumulator = tuple(
            kernel.multiples(_accumulate(kernel.add, accumulator, w)) for w in zip(*witness.rows)
        )
    return DecodePlan(
        decomposition=d,
        poset=poset,
        pointer_support=d.pointer_support,
        groups=tuple(plan_groups),
        to_decomposed=witness,
        from_decomposed=None if witness is None else outward,
        _kernel=kernel,
        _columns=accumulator,
        _slots=tuple(slots),
        _out=out,
    )


def build_plan_for_code(code: Code, poset: Poset, budget: int = DEFAULT_BUDGET) -> DecodePlan:
    """Decode plan for the code over its maximal decomposition.

    The decomposition lives on a weight-equivalent image of the code;
    the plan carries the witness so decoding round-trips through the
    decomposed domain."""
    pd = maximal_p_decomposition(code, poset)
    return build_plan(pd.decomposition, poset, budget, witness=pd.witness)


def decode_leveled_alg1(plan: DecodePlan, y: Vector) -> Vector:
    """Syndrome-decode every group's projection and reassemble.

    In the decomposed domain, coordinates outside the component supports
    are ignored and the output is zero there.  With the precomputed
    maps this is M_0 y minus the leader image of every group's syndrome.
    """
    _check_word(plan.decomposition.code, y)
    acc = _accumulate(plan._kernel.add, plan._columns, y.coords)
    out = plan._out
    word = acc >> plan._slots[0].keep_shift & out.coords
    for syndrome_shift, syndrome_mask, _, images in plan._slots:
        s = acc >> syndrome_shift & syndrome_mask
        if s:
            word = out.add(word, images[s])
    return Vector(y.field, out.unpack(word))


def decode_leveled_alg2(plan: DecodePlan, y: Vector) -> Vector:
    """Scan groups from the highest down; keep blocks that are codewords
    of their group, syndrome-decode the first erroneous block, and
    leave zeros on all groups below it.

    With the precomputed maps, the first group t from the top with a
    nonzero syndrome s gives M_t y minus its leader image of s; when no
    group has one, the result is M_0 y.
    """
    _check_word(plan.decomposition.code, y)
    acc = _accumulate(plan._kernel.add, plan._columns, y.coords)
    out = plan._out
    for syndrome_shift, syndrome_mask, keep_shift, images in reversed(plan._slots):
        s = acc >> syndrome_shift & syndrome_mask
        if s:
            return Vector(y.field, out.unpack(out.add(acc >> keep_shift & out.coords, images[s])))
    return Vector(y.field, out.unpack(acc >> plan._slots[0].keep_shift & out.coords))


def table_sizes(plan: DecodePlan) -> dict[str, int]:
    """Stored-entry accounting for the full, projected and leveled tables."""
    code = plan.decomposition.code
    q = code.q
    full = q ** (code.n - code.k)
    sizes = [q ** (len(comp.support()) - comp.k) for comp in plan.decomposition.components]
    group_sizes = [math.prod(sizes[i] for i in group.indices) for group in plan.groups]
    return {
        "full": full,
        "reduced": math.prod(sizes),
        "leveled_total": sum(group_sizes),
        "worst_single_lookup": max(group_sizes),
    }
