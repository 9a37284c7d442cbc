"""Syndrome decoding: full lookup table, support projection, independent
and hierarchically ordered component groups, and the two leveled
decoders with their table-size accounting.

A table weighs each enumerated word by the order ideals of its
coordinates: the weight is the size of the union of those ideals over
the word's support.

Every syndrome is one packed `RowKernel` int.  The leader scan lists
the words on the first half of the coordinates and on the second half,
each with its packed syndrome and ideal union, and scans their pairs in
rounds of a weight bound B, taken over the union sizes that occur among
the halves: round B adds the pairs whose two unions each have at most B
elements.  It stops after the first round in which every syndrome has a
word of weight at most B, since every word that light has both halves
within B.  Ties go to the lexicographically first word, as in a scan of
all q^n words, and the leaders are listed in the order in which such a
scan first meets their syndromes.  That is their lexicographic order:
H is the identity on the non-pivot columns of the generator's reduced
echelon form, and each of its pivot columns combines only non-pivot
columns to its right.  It keeps the leaders and nothing else.  Both
halves come from `linear._lexicographic`: the syndromes as combinations
of the parity columns, the unions as combinations of the coordinate
ideals under `|`.

Every decoder reads a received word through one packed accumulator,
built by `_build_decoder` from groups of (support, leader table) given
lowest first and the witness W.  Column i of the accumulator S stacks
every group's H_g e_i and W^-1 e_i on the decomposed domain, and W is
applied once, when it is built.  A full table is the one-group case:
its group covers all n coordinates and there is no witness, so S
stacks H e_j over n keep slots that copy e_j.  The accumulator is
stored as chunk tables: the coordinates are cut into runs of c, the
most with p^c <= 256 (8 over GF(2), 5 over GF(3), 1 from GF(17) up),
and each run maps every residue tuple to its packed image, listed by
`linear._lexicographic` in the order of `_residue_runs`.  A decode
is then one slice, one lookup and one add per run, a slice per group,
one lookup of a negated leader for the group that fires, one packed
add, and a table read of the result's residues (`RowKernel.residues`)
into a `Vector` that is not reduced again.  `decode_full` is the
single-group case of `decode_leveled_alg2`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace
from functools import reduce
from operator import and_, or_
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .budget import DEFAULT_BUDGET, check_budget
from .decomp import Decomposition, maximal_p_decomposition
from .field import PrimeField
from .linear import (
    Code,
    Matrix,
    RowKernel,
    Vector,
    _chunk_slots,
    _lexicographic,
    _packed_columns,
    _residue_runs,
    _residue_vector,
    classical_rref,
    invert_matrix,
    row_kernel,
)
from .poset import Poset, _downs, _elements_mask, _row_graph_groups, cut_levels


def parity_check(code: Code) -> Matrix:
    """A full-rank (n-k) x n matrix whose kernel is the code.

    Row t is 1 at the t-th non-pivot column of the generator's reduced
    echelon form and 0 at the others, so H is the identity there.  At
    pivot column c it is minus the rref row of c at that non-pivot
    column, zero left of c: a pivot column of H combines only non-pivot
    columns to its right.  The leader tables' order rests on both facts.
    """
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


def _accumulate(kernel: RowKernel, columns: Sequence[int], coords: Sequence[int]) -> int:
    """The packed image of a word: y_j times column j, summed over j."""
    add, scale = kernel.add, kernel.scale
    acc = 0
    for col, c in zip(columns, coords):
        if c:
            acc = add(acc, scale(col, c))
    return acc


_Chunks = tuple[tuple[slice, Mapping[tuple[int, ...], int]], ...]
"""A packed linear map read by runs of coordinates: per run, its slice
of a word and the image of every residue tuple the slice can hold."""


def _chunk_tables(kernel: RowKernel, columns: Sequence[int]) -> _Chunks:
    """The map with the given packed columns, as chunk tables over runs
    of `_chunk_slots(p)` coordinates."""
    p, add, c = kernel.p, kernel.add, _chunk_slots(kernel.p)
    chunks = []
    for a in range(0, len(columns), c):
        run = columns[a : a + c]
        images = _lexicographic(add, 0, map(kernel.multiples, run))
        chunks.append((slice(a, a + c), dict(zip(_residue_runs(p, len(run)), images))))
    return tuple(chunks)


def _lookup(add: Callable[[int, int], int], chunks: _Chunks, coords: tuple[int, ...]) -> int:
    """The packed image of a word under a map stored as chunk tables."""
    acc = 0
    for cut, images in chunks:
        acc = add(acc, images[coords[cut]])
    return acc


class _Slots(NamedTuple):
    """Where one group sits in a packed accumulator: the bit shift and
    mask of its syndrome slots, the bit shift of its n keep slots, and
    its negated leader images by packed syndrome."""

    syndrome_shift: int
    syndrome_mask: int
    keep_shift: int
    images: Mapping[int, int]


class _Decoder(NamedTuple):
    """A packed accumulator, read by `add` from its chunk tables; the
    `_Slots` of its groups, lowest first; and the kernel of the decoded
    word."""

    add: Callable[[int, int], int]
    chunks: _Chunks
    slots: tuple[_Slots, ...]
    out: RowKernel


@dataclass(frozen=True)
class SyndromeTable:
    """Coset leaders keyed by syndrome.

    Leaders have minimal weight within their coset; ties are broken by
    the lexicographic order on coordinate residues, so tables are
    reproducible.

    A table from `build_table` decodes through a private `_Decoder`,
    the one-group accumulator of the module docstring, whose `_Slots`
    entry maps each packed syndrome to the negated packed leader, in
    the order of `leaders`.  A plan's group tables keep the leaders
    only and decode through their plan.  Every table keeps the columns
    of `parity` as its leader scan packed them.
    """

    code: Code
    parity: Matrix
    leaders: Mapping[tuple[int, ...], Vector]
    _parity_columns: Sequence[int] = dataclass_field(repr=False, compare=False, kw_only=True)
    _decoder: _Decoder | None = dataclass_field(
        default=None, repr=False, compare=False, kw_only=True
    )

    def syndrome(self, y: Vector) -> tuple[int, ...]:
        _check_word(self.code, y)
        kernel = row_kernel(self.code.field.p, self.parity.k)
        return tuple(kernel.unpack(_accumulate(kernel, self._parity_columns, y.coords)))


def _check_word(code: Code, y: Vector) -> None:
    """Reject a word that does not lie in the ambient space of the code."""
    if y.field != code.field:
        raise ValueError(f"field mismatch: {y.field} vs {code.field}")
    if len(y) != code.n:
        raise ValueError(f"vector length {len(y)} does not match code length {code.n}")


def _build_table(code: Code, ideals: Sequence[int], budget: int) -> SyndromeTable:
    """Keep a least-weight word per syndrome, scanning the words in rounds
    of a weight bound until every syndrome has a word within it.

    `ideals[j]` is the order ideal generated by table coordinate j, as a
    bitmask over the full space; a word weighs the number of elements
    in the union of the ideals over its support, which can exceed n when
    the ideals reach outside the table's coordinates.  The words are
    the pairs of a head word on the first n // 2 coordinates and a tail
    word on the rest; a pair's rank, head index times the number of
    tails plus tail index, is its place in lexicographic order.

    The bounds B are the union sizes that occur among the halves, in
    increasing order.  Round B scans the pairs not scanned yet whose
    head union and tail union each have at most B elements, and the
    scan stops after the first round in which every syndrome has a word
    of weight at most B.  That is exact: a word of weight at most B has
    both halves within B, so every word as light as a leader has been
    scanned by then.  A pair scores its weight times q^n plus its rank,
    so the least score is the lightest word and, among equally light
    ones, the lexicographically first, as in a scan of all q^n words.

    `leaders` lists the syndromes in the order in which that scan first
    meets them: their lexicographic order.  `parity_check` makes H the
    identity on the non-pivot columns, in order, and each pivot column
    of H combines only non-pivot columns to its right, so moving a
    pivot coordinate onto them keeps the syndrome and gives an earlier
    word.  The first word of each coset lies on the non-pivot columns,
    and its coordinates there are its syndrome.  The table has no decoder.
    """
    q, n, k = code.q, code.n, code.k
    size = q ** (n - k)
    check_budget("syndrome table size", size, budget)
    check_budget("syndrome table enumeration", q**n, budget)
    parity = parity_check(code)
    kernel = row_kernel(code.field.p, n - k)
    add = kernel.add
    columns = _packed_columns(kernel, parity.rows, n)
    multiples = [kernel.multiples(col) for col in columns]
    unions = [[0] + [ideal] * (q - 1) for ideal in ideals]  # the multiples of an ideal under |
    tail_count, ranks = q ** (n - n // 2), q**n
    heaviest = (reduce(or_, ideals, 0).bit_count() + 1) * ranks  # above every score

    def layers(half: slice, step: int) -> dict[int, list[tuple[int, int, int]]]:
        # union size -> (index times step, packed syndrome, union), in index order
        out: dict[int, list[tuple[int, int, int]]] = {}
        words = zip(_lexicographic(add, 0, multiples[half]), _lexicographic(or_, 0, unions[half]))
        for index, (s, union) in enumerate(words):
            out.setdefault(union.bit_count(), []).append((index * step, s, union))
        return out

    best: dict[int, int] = {}  # packed syndrome -> least score

    def scan(heads: list[tuple[int, int, int]], tails: list[tuple[int, int, int]]) -> None:
        get = best.get
        for head_rank, head_s, head_union in heads:
            for tail_rank, tail_s, tail_union in tails:
                s = add(head_s, tail_s)
                score = (head_union | tail_union).bit_count() * ranks + head_rank + tail_rank
                if score < get(s, heaviest):
                    best[s] = score

    head_layers = layers(slice(n // 2), tail_count)
    tail_layers = layers(slice(n // 2, n), 1)
    heads: list[tuple[int, int, int]] = []
    tails: list[tuple[int, int, int]] = []
    for bound in sorted(head_layers.keys() | tail_layers.keys()):
        new_heads, new_tails = head_layers.get(bound, []), tail_layers.get(bound, [])
        scan(new_heads, tails)
        heads += new_heads
        tails += new_tails
        scan(heads, new_tails)
        if len(best) == size and max(best.values()) < (bound + 1) * ranks:
            break

    head_runs, tail_runs = _residue_runs(q, n // 2), _residue_runs(q, n - n // 2)
    leaders = {}
    for key in _residue_runs(q, n - k):
        head, tail = divmod(best[kernel.pack(key)] % ranks, tail_count)
        leaders[key] = _residue_vector(code.field, head_runs[head] + tail_runs[tail])
    return SyndromeTable(code, parity, leaders, _parity_columns=columns)


def _build_decoder(
    groups: Sequence[tuple[Sequence[int], SyndromeTable]],
    outward: Matrix,
    witness: Matrix | None,
) -> _Decoder:
    """The packed accumulator S W of the groups, given lowest first as
    (1-indexed support, leader table) pairs, with W^-1 = `outward`.

    Column i of S stacks, group after group, H_g e_i when i is in the
    group's support (the group syndrome) and then W^-1 e_i when i is in
    the support of g or of a group above it (the keep map W^-1 P_g W,
    once multiplied by W).  Each group's leaders are stored
    unprojected, carried out by W^-1 and negated, as packed n-slot rows
    of the output kernel, whose residue table reads the decoded word.
    """
    n, p = outward.n, outward.field.p
    out = row_kernel(p, n)
    # column i of W^-1, the image of e_i
    outward_columns = _packed_columns(out, outward.rows, n)
    slots, keep_shifts = [], []
    stacked = [0] * n  # column i of S, filled group by group
    shift = 0
    for support, table in groups:
        syndromes = row_kernel(p, table.parity.k)
        keep_shift = shift + syndromes.m * out.w
        keep_shifts.append(keep_shift)
        # H_g e_i at this group's syndrome shift, and W^-1 e_i at the keep
        # shift of this group and of every group below it
        for i, column in zip(support, table._parity_columns):
            image = outward_columns[i - 1]
            stacked[i - 1] |= column << shift | sum(image << k for k in keep_shifts)
        columns = [outward_columns[i - 1] for i in support]
        images = {
            syndromes.pack(s): _accumulate(out, columns, [-c % p for c in leader.coords])
            for s, leader in table.leaders.items()
        }
        slots.append(_Slots(shift, (1 << (keep_shift - shift)) - 1, keep_shift, images))
        shift = keep_shift + n * out.w
    kernel = row_kernel(p, shift // out.w)
    if witness is not None:  # column j of S W
        stacked = [_accumulate(kernel, stacked, w) for w in zip(*witness.rows)]
    return _Decoder(kernel.add, _chunk_tables(kernel, stacked), tuple(slots), out)


def _coordinate_ideals(poset: Poset, coordinates: Iterable[int]) -> list[int]:
    """Ideal bitmask of each 1-indexed coordinate."""
    downs = _downs(poset)
    return [downs[i - 1] for i in coordinates]


def build_table(code: Code, poset: Poset, budget: int = DEFAULT_BUDGET) -> SyndromeTable:
    """Complete coset-leader table for the code under the order weight."""
    poset._check_ground_set(code.n)
    coordinates = range(1, code.n + 1)
    table = _build_table(code, _coordinate_ideals(poset, coordinates), budget)
    decoder = _build_decoder(((coordinates, table),), Matrix.identity(code.field, code.n), None)
    return replace(table, _decoder=decoder)


def _decoded(field: PrimeField, out: RowKernel, word: int) -> Vector:
    """The output step of every decoder: the packed decoded word, whose
    slots are normalized, read into a `Vector` without a second
    reduction."""
    return _residue_vector(field, out.residues(word))


def _decode_top_down(decoder: _Decoder, y: Vector) -> Vector:
    """The first group t from the top with a nonzero syndrome s gives
    the keep map of t applied to y plus the negated leader image of s;
    when no group has one, the keep map of the lowest group."""
    add, chunks, slots, out = decoder
    acc = _lookup(add, chunks, y.coords)
    for syndrome_shift, syndrome_mask, keep_shift, images in reversed(slots):
        s = acc >> syndrome_shift & syndrome_mask
        if s:
            return _decoded(y.field, out, out.add(acc >> keep_shift & out.coords, images[s]))
    return _decoded(y.field, out, acc >> slots[0].keep_shift & out.coords)


def decode_full(table: SyndromeTable, y: Vector) -> Vector:
    """Subtract the coset leader of y's syndrome; the result is a nearest
    codeword under the table's weight.  The table is one group with its
    whole word kept, so this is `decode_leveled_alg2`'s step."""
    decoder = table._decoder
    if decoder is None:
        raise ValueError("a plan's group table decodes through its plan")
    _check_word(table.code, y)
    return _decode_top_down(decoder, y)


def project(code: Code, y: Vector) -> Vector:
    """Coordinates of y on the support of the code, in ascending index order."""
    _check_word(code, y)
    return project_support(sorted(code.support()), y)


def _check_positions(support: Sequence[int], n: int) -> None:
    """Reject positions outside 1..n, or a position given twice."""
    if not all(1 <= pos <= n for pos in support):
        raise ValueError(f"positions {list(support)} do not all lie in 1..{n}")
    if len(set(support)) != len(support):
        raise ValueError(f"positions {list(support)} repeat a position")


def project_support(support: list[int], y: Vector) -> Vector:
    """y's coordinates at the given positions, in the order given."""
    _check_positions(support, len(y))
    return Vector(y.field, (y.coords[i - 1] for i in support))


def unproject_support(support: list[int], n: int, v: Vector) -> Vector:
    """Place v's coordinates at the given positions, zeros elsewhere."""
    if len(support) != len(v):
        raise ValueError(f"{len(support)} positions for a word of length {len(v)}")
    _check_positions(support, n)
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
    """One ordered group of components with its projected code and its
    leader table, which decodes through the plan."""

    indices: tuple[int, ...]
    support: tuple[int, ...]
    code: Code
    table: SyndromeTable


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

    Decoding never applies W or W^-1: the plan's private `_Decoder` is
    the accumulator S W of every group, lowest first (`_build_decoder`),
    so that decoding needs no per-word projection or change of domain.
    """

    decomposition: Decomposition
    poset: Poset
    pointer_support: frozenset[int]
    groups: tuple[PlanGroup, ...]
    to_decomposed: Matrix | None = None
    from_decomposed: Matrix | None = None
    _decoder: _Decoder = dataclass_field(repr=False, compare=False, kw_only=True)

    @property
    def n(self) -> int:
        return self.decomposition.code.n


def build_plan(
    d: Decomposition,
    poset: Poset,
    budget: int = DEFAULT_BUDGET,
    witness: Matrix | None = None,
) -> DecodePlan:
    """Group the components hierarchically and scan one leader table per
    group, then build the plan's one accumulator.

    Group tables live in the projected coordinates; a leader's weight
    is that of its pull-back to the full space with zeros on the
    dropped coordinates.  `witness`, when given, is the weight-
    preserving map carrying the code to be decoded onto the
    decomposition's code: an invertible n x n matrix over the code's
    field.
    """
    poset._check_ground_set(d.code.n)
    field, n = d.code.field, d.code.n
    if witness is not None and (witness.field != field or witness.k != n or witness.n != n):
        raise ValueError(f"witness must be a {n} x {n} matrix over {field}")
    outward = Matrix.identity(field, n) if witness is None else invert_matrix(witness)
    plan_groups = []
    for indices in hierarchical_groups(d, poset):
        support = tuple(sorted(set().union(*(d.components[i].support() for i in indices))))
        rows = [row for i in indices for row in d.components[i].gen.rows]
        projected = Code(Matrix(field, [[row[i - 1] for i in support] for row in rows]))
        table = _build_table(projected, _coordinate_ideals(poset, support), budget)
        plan_groups.append(PlanGroup(indices=indices, support=support, code=projected, table=table))
    return DecodePlan(
        decomposition=d,
        poset=poset,
        pointer_support=d.pointer_support,
        groups=tuple(plan_groups),
        to_decomposed=witness,
        from_decomposed=None if witness is None else outward,
        _decoder=_build_decoder([(g.support, g.table) for g in plan_groups], outward, witness),
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
    add, chunks, slots, out = plan._decoder
    acc = _lookup(add, chunks, y.coords)
    word = acc >> slots[0].keep_shift & out.coords
    for syndrome_shift, syndrome_mask, _, images in slots:
        s = acc >> syndrome_shift & syndrome_mask
        if s:
            word = out.add(word, images[s])
    return _decoded(y.field, out, word)


def decode_leveled_alg2(plan: DecodePlan, y: Vector) -> Vector:
    """Scan groups from the highest down; keep blocks that are codewords
    of their group, syndrome-decode the first erroneous block, and
    leave zeros on all groups below it.

    With the precomputed maps, the first group t from the top with a
    nonzero syndrome s gives M_t y minus its leader image of s; when no
    group has one, the result is M_0 y.
    """
    _check_word(plan.decomposition.code, y)
    return _decode_top_down(plan._decoder, y)


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
