"""Pointed partitions, code decompositions and order-canonical forms.

Canonicalization works with the moves available to weight-preserving
maps: every column may absorb any combination of the columns strictly
above it in the order.  Coset passes zero whatever can be zeroed;
an exact search then re-chooses representatives wherever that lets a
component fall apart into pieces with independent spans.  Every move is
accumulated into a witness matrix carrying the input code onto the
output code.

Both run on the packed rows of `linear.RowKernel`, one int per
coordinate j holding column j of the generator in its coordinate slots
and row j of the witness in its tag slots.  A move on column j takes
the same combination of witness rows as of columns, so a single kernel
addition carries out both.  The split search builds its candidates on
the whole packed columns, so a split it finds is applied by assigning
them.  It first decides whether a component splits at all, placing its
fixed columns (those with no column above them in the component)
first, and searches in height order only a component that does; the
verdict cannot depend on the order, as `_Canonicalizer._split_component`
shows.  The height-order search skips every state the fixed-first one
exhausted.  Every basis here is triangular (`RowKernel.adjoin`), the split
search's two side bases too, which key the states it has visited.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .linear import (Basis, Code, Matrix, RowKernel, _lexicographic, _packed_columns,
                     _residue_matrix, is_generalized_rref, p_weight, row_kernel)
from .poset import Poset, _downs, _mask_to_set, _nonzero_mask, _row_graph_groups, _strict_ups


@dataclass(frozen=True)
class PointedPartition:
    """A partition of {1, ..., n} with a distinguished, possibly empty part."""

    n: int
    pointer: frozenset[int]
    parts: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen = set(self.pointer)
        for part in self.parts:
            if not part:
                raise ValueError("parts other than the pointer must be nonempty")
            if part & seen:
                raise ValueError("pointer and parts must be pairwise disjoint")
            seen |= part
        if seen != set(range(1, self.n + 1)):
            raise ValueError(f"pointer and parts must partition [1, {self.n}]")


def is_partition_refinement(fine: PointedPartition, coarse: PointedPartition) -> bool:
    """Whether `fine` is reachable from `coarse` by part splits and
    single-element moves into the pointer.

    Equivalently: the pointer only grows, every fine part sits inside
    one coarse part, and no coarse part is absorbed into the pointer
    entirely (a move must leave its source part nonempty).
    """
    if fine.n != coarse.n:
        raise ValueError(f"ground-set mismatch: {fine.n} vs {coarse.n}")
    if not coarse.pointer <= fine.pointer:
        return False
    for part in fine.parts:
        if not any(part <= cp for cp in coarse.parts):
            return False
    for cp in coarse.parts:
        if not any(fp <= cp for fp in fine.parts):
            return False
    return True


@dataclass(frozen=True)
class Decomposition:
    """A code split into components with pairwise disjoint supports.

    `pointer_support` collects the coordinates on which no codeword is
    nonzero; together with the component supports it partitions the
    coordinate set.
    """

    code: Code
    components: tuple[Code, ...]
    pointer_support: frozenset[int]

    def __post_init__(self):
        self.partition()  # raises unless pointer and supports partition [1, n]

    def partition(self) -> PointedPartition:
        return PointedPartition(
            self.code.n,
            self.pointer_support,
            tuple(comp.support() for comp in self.components),
        )


@dataclass(frozen=True)
class Profile:
    """Support sizes and dimensions: (n0, k0) for the pointer part, then
    (n_i, k_i) per component."""

    entries: tuple[tuple[int, int], ...]

    @property
    def pointer_entry(self) -> tuple[int, int]:
        return self.entries[0]

    @property
    def component_entries(self) -> tuple[tuple[int, int], ...]:
        return self.entries[1:]

    def matches_up_to_order(self, other: "Profile") -> bool:
        return self.pointer_entry == other.pointer_entry and sorted(
            self.component_entries
        ) == sorted(other.component_entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class PDecomposition:
    """A decomposition of a weight-equivalent code, with the witness map.

    `witness` is the n x n matrix of the weight-preserving linear map
    (columns hold basis-vector images) sending the original code onto
    the decomposed one.
    """

    original: Code
    decomposition: Decomposition
    witness: Matrix


def components_from_matrix(g: Matrix) -> Decomposition:
    """The decomposition a generator matrix determines.

    Rows are grouped into connected components of the graph joining rows
    with intersecting supports; each group spans one component, and null
    columns form the pointer support.
    """
    code = Code(g)  # checks the rank before any component does
    masks = [_nonzero_mask(row) for row in g.rows]
    components = tuple(
        Code(_residue_matrix(g.field, tuple(g.rows[r] for r in group), g.n))
        for group in _row_graph_groups(masks)
    )
    pointer = _mask_to_set(((1 << g.n) - 1) & ~functools.reduce(operator.or_, masks))
    return Decomposition(code, components, pointer)


def _coset_representative(
    kernel: RowKernel, cols: Sequence[int], r: int, above: Sequence[int]
) -> int:
    """Canonical representative of cols[r] modulo the span of the cols[j],
    j in `above`.

    The spanning columns are adjoined to a triangular basis in the order
    given, skipping any whose coordinates depend on the earlier ones, so
    pivots sit at the smallest row indices.  Tag slots ride along: they
    take the same combination of the spanning columns as the coordinates.
    """
    basis: Basis = ()
    for j in above:
        basis = kernel.adjoin(basis, cols[j]) or basis
    return kernel.reduce(cols[r], basis)


def _sides(b1: Basis, b2: Basis, dim: int) -> tuple[int, ...]:
    """The sides on which the split search tries the next column, or ()
    when the state holds no split.

    The first column goes to side 0.  With side 1 still empty, a side 0
    spanning all `dim` rows leaves no candidate a place on side 1.
    """
    if not b2:
        if not b1:
            return (0,)
        if len(b1) == dim:
            return ()
    return (0, 1)


def _dead_column(
    reduce: Callable[[int, Basis], int],
    adjoin: Callable[[Basis, int], Basis | None],
    cosets: Iterable[tuple[int, Basis]],
    b1: Basis,
    b2: Basis,
    comb: Basis,
) -> bool:
    """Whether some column has no candidate that either side of a split
    state can take.

    A column (c, u) has as candidates the vectors of the coset c + span(u).
    A side with basis b can take a candidate h when h lies in span(b) or
    outside span(comb) = span(b1) + span(b2); this is decided on subspaces,
    with a few reductions per column however many candidates it has.
    """
    for c, u in cosets:
        if reduce(c, comb) or any(reduce(row, comb) for _, row in u):
            continue  # some candidate lies outside span(comb)
        rest1, rest2 = reduce(c, b1), reduce(c, b2)
        if not (rest1 and rest2):
            continue  # c itself lies in a side
        for b, rest in ((b1, rest1), (b2, rest2)):
            # reducing by b is linear, so the coset meets span(b) exactly
            # when the rest of c lies in the span of the rests of u
            rests: Basis = ()
            for _, row in u:
                rests = adjoin(rests, reduce(row, b)) or rests
            if not reduce(rest, rests):
                break
        else:
            return True
    return False


class _Canonicalizer:
    """Carries the working generator and the accumulated witness map.

    The whole state is `cols`, one row of `row_kernel(p, k, n)` per
    coordinate j: its k coordinate slots hold column j of the generator
    and its n tag slots hold row j of the witness.  Every move adds
    multiples of some columns to a column, and the witness must take the
    same combination of its rows, so one kernel addition moves both.
    Row reduction acts on the coordinate slots alone.

    Two kinds of weight-preserving moves are applied.  Coset passes
    replace each column by the canonical representative of its coset
    modulo the span of the columns strictly above it (zeroing every
    column that can be zeroed).  Split moves re-choose representatives
    inside one component so that its columns fall apart into sets with
    independent spans; those are found by an exact search, since coset
    passes alone can stop short of the finest reachable decomposition.
    """

    def __init__(self, g: Matrix, poset: Poset):
        self.field = g.field
        self.p = g.field.p
        self.n, self.k = g.n, g.k
        self.poset = poset
        self.ups = _strict_ups(poset)
        self.kernel = kernel = row_kernel(self.p, self.k, self.n)
        packed = _packed_columns(kernel, g.rows, g.n)
        self.cols = [col | kernel.unit(self.k + j) for j, col in enumerate(packed)]
        self.rereduce()

    def rereduce(self) -> None:
        """Bring the generator rows to right-most-pivot reduced form.

        Pivot columns are picked greedily from the right, and every
        column is replaced by its coordinates over them, the i-th pivot
        giving row i.  Rejects rank-deficient rows.

        Only the n - k columns that are not pivots are reduced.  A pivot
        column is set to the negation of the tag it was adjoined with,
        which is what reducing it would return: the adjoined row (column
        plus tag) reduces to zero, reduction is linear, and the tag, with
        no coordinate slot set, reduces to itself.
        """
        k, p, coords = self.k, self.p, self.kernel.coords
        scratch = row_kernel(p, k, k)
        shift, scale, reduce = scratch.w * k, scratch.scale, scratch.reduce
        basis: Basis = ()
        pivots: dict[int, int] = {}  # pivot column -> its coordinates over the pivots
        for j in range(self.n - 1, -1, -1):
            if len(basis) == k:
                break
            # tagging pivot i with -1 leaves +(coordinates) in the tags of a reduced column
            tag = (p - 1) * scratch.unit(k + len(basis))
            grown = scratch.adjoin(basis, self.cols[j] & coords | tag)
            if grown is not None:
                basis = grown
                pivots[j] = scale(tag, p - 1) >> shift
        if len(basis) < k:
            raise ValueError(f"rank deficiency: rank {len(basis)} < {k} rows")
        self.cols = [c & ~coords | (pivots[j] if j in pivots else reduce(c & coords, basis) >> shift)
                     for j, c in enumerate(self.cols)]

    def score(self) -> int:
        """Component count plus null-column count; the degree up to a
        constant depending only on the original code."""
        # columns join when their nonzero slots share a row; a null column stands alone
        return len(_row_graph_groups([self.kernel.nonzero(c) for c in self.cols]))

    def coset_passes(self) -> bool:
        """Right-to-left column reduction, re-reducing rows between
        passes; True once a pass changes nothing, False on a repeat.

        Each pass starts on a reduced matrix, which re-reduction would
        leave as it is, so a pass that changed nothing skips it.  A pass
        whose output re-reduction leaves as it is is the last one too.  A
        move on column j adds only columns above j, so above r when j is:
        a pass keeps the span of each column's above-set fixed.  The
        pivots of a reduction basis depend only on that span, each column
        left the pass zero at its above-set's pivots, and a column zero at
        the pivots reduces to itself, so another pass would change
        nothing.  Nor could it meet a repeat: every state the loop started
        from led to a changing pass.  The representative rule and the row
        reduction can chase each other in a cycle; a repeated matrix
        presents the same code, and the accumulated witness remains valid
        for it, so the first repeat is a sound deterministic stopping
        point.

        On either return each nonzero column lies outside the span of the
        columns strictly above it: a pass keeps that span fixed and
        reduces the column modulo it, and row reduction keeps every
        linear relation.
        """
        seen: set[tuple[int, ...]] = set()
        coords = self.kernel.coords
        while True:
            key = tuple(c & coords for c in self.cols)
            if key in seen:
                return False
            seen.add(key)
            changed = False
            cols = self.cols
            for r in range(self.n - 1, -1, -1):
                # reduction reads coordinate slots only, so a column with
                # none nonzero is its own representative, tags included
                if self.ups[r] and cols[r] & coords:
                    rep = _coset_representative(self.kernel, cols, r, self.ups[r])
                    if rep != cols[r]:
                        cols[r], changed = rep, True
            if not changed:
                return True
            self.rereduce()
            if self.cols == cols:
                return True

    def apply_split(self, columns: dict[int, int]) -> None:
        """Replace the chosen columns, each by a whole packed column
        (coordinates and witness tags) that the split search built."""
        for r, col in columns.items():
            self.cols[r] = col
        self.rereduce()

    def find_split(self) -> dict[int, int] | None:
        """Search every current component for a reachable two-way split.

        Representatives may be re-chosen within a component (columns may
        only absorb columns strictly above them inside the same
        component's support); a split is a side assignment whose two
        span sets stay independent.  Exact but worst-case exponential in
        the component dimension; fine at the scales this library
        targets.  Components are searched by their smallest row; the
        cuts that prune it without changing the split it finds are set
        out in `_split_component`.
        """
        masks = [self.kernel.nonzero(c) for c in self.cols]
        components = []
        for support in _row_graph_groups(masks):
            rows = 0
            for j in support:
                rows |= masks[j]
            if rows & (rows - 1):  # a one-dimensional component never splits
                components.append((rows & -rows, support))
        for _, support in sorted(components):
            result = self._split_component(support)
            if result is not None:
                return result
        return None

    def _split_component(self, support: list[int]) -> dict[int, int] | None:
        """The first split of one component in height order, or None.

        Columns are placed one at a time, each on one of two sides with
        one of its candidates; the side bases must keep independent
        spans.  A column's candidates come from `linear._lexicographic`:
        the column plus every combination of its sources, in
        `itertools.product` order of the coefficients, the first
        source's changing slowest.  They are pushed in that order, and
        the stack pops the last one first; together with the column
        order these decide which split is found first, so reordering any
        of them can change the output.

        The search (`first_split`) runs in two column orders.  Height
        order places the columns highest first; its first split is the
        one applied.  Fixed-first order places first the fixed columns,
        those with no source in the component, which are placed as they
        are, then the rest, each group highest first.  It runs first, and
        a component in which it finds no split cannot split.

        That verdict is exact.  Each rule below holds for any order that
        places every column after its sources, so in either order the
        search reaches every split, up to the exact duplicates that
        `seen` and `tried` remove: whether it returns a split does not
        depend on the order.  Both orders place sources first: a source
        lies strictly above its column in the poset, so it is higher,
        and a fixed column has no source.  The cuts remove only states
        that hold no split, and whether one removes a state depends only
        on its key, so the first split found does not depend on them.

        - A component in which no column has a source cannot split.  The
          matrix is in right-most-pivot reduced form here (construction,
          splits and coset passes all leave it so), a standard
          representation [I | A] up to column order, and its matroid is
          connected exactly when the bipartite row-column graph of A is;
          one component of `_row_graph_groups` is such a connected
          graph.  With every column fixed, a split would be a separation
          of that connected matroid.
        - The first column goes to side 0: the two sides are symmetric.
        - A state with side 1 empty and side 0 spanning the component
          (`len(b1) == dim`) is dead: no candidate leaves span(b1), so
          none can start side 1, and spans only grow.
        - A state is dead when some column still to be placed has only
          candidates h in span(b1 + b2) but in neither span(b1) nor
          span(b2): neither side can take h now, and deeper states
          cannot either.  The sides only grow and keep independent
          spans, so h = u1 + u2 with u2 a nonzero vector of the second
          side never enters the first side's span, and likewise for the
          second.  A column's candidates are the vectors of a coset, so
          `_dead_column` decides this on subspaces, not candidate by
          candidate: a column with m sources has p^m candidates.  A child
          whose spans did not grow skips the check: its parent found no
          dead column among `cosets[idx:]` with the same spans, and that
          covers every column the child still has to place.

        Two facts leave no other check.  Sources come first: each source s
        of r is placed before r, as s plus columns above s (sources of r
        too), so their span lies in span(b1 + b2) when r is placed.  No
        candidate is zero (`coset_passes`), so the first column placed
        fills side 0: a state splits if side 1 is nonempty.  Only equal
        reductions give a side one span: red and a.red, a != 1, put
        (1 - a)c in span(b1 + b2), where no candidate extends `comb`.

        Every basis is triangular: the side bases b1 and b2, the combined
        basis `comb` and each column's source basis u.  A state's key, the
        set of placed columns with b1 and b2, fixes both spans, and a
        repeated key is skipped only once its first copy's subtree has
        been searched, so the dedupe is exact.

        The two searches share one `seen`, and height order skips every
        state the fixed-first search exhausted:

        - What a key left in the set means.  A popped state that is not
          on the current path has had its whole subtree popped.  So once
          the keys on the path to the split found are removed, every key
          left names a state whose subtree held no split: exhausted, cut,
          or already seen.
        - Why that verdict carries over to height order.  Whether a state
          can be completed depends only on the set of placed columns,
          span(b1) and span(b2).  The argument above that the verdict does
          not depend on the order applies from any state whose remaining
          columns come after their sources.  Both orders place the same
          column first, the highest, which is fixed, so side 0 means the
          same thing in both.
        - Why the skip adds nothing new.  Dropping split-free states is
          what the cuts already do, so the first split in height order
          cannot change.

        Every full placement popped is a split, with side 1 nonempty.  A
        searched component has a column with a source, so at least two
        columns, and its last column is not its first.  The chosen
        candidates span all `dim` rows, so a full placement with side 1
        empty ends with a column that raised side 0 from rank `dim - 1`.
        `_sides` gives that column (0, 1), and the same candidate, outside
        span(b1) = span(comb), starts side 1: a complete split, pushed
        after the side 0 placements and popped first.  Were this wrong,
        the applied split would not raise the score, and `canonical_form`
        would raise.
        """
        support_set = set(support)
        # the sources of each column: the columns strictly above it in the component
        sources = {r: [j for j in self.ups[r] if j in support_set] for r in support}
        if not any(sources.values()):
            return None
        heights = self.poset.heights()
        by_height = sorted(support, key=lambda j: (-heights[j], j))
        add, multiples, coords = self.kernel.add, self.kernel.multiples, self.kernel.coords
        rows = functools.reduce(operator.or_, (self.kernel.nonzero(self.cols[j]) for j in support))
        dim = bin(rows).count("1")
        search = row_kernel(self.p, self.k)  # coordinate parts need no tag slots
        reduce, adjoin = search.reduce, search.adjoin
        candidates_at: dict[int, list[tuple[int, int]]] = {}

        def candidates(r: int) -> list[tuple[int, int]]:
            """Every col_r + sum x_j col_j over the sources j above r in the
            component, in `_lexicographic` order of the x_j, as
            (coordinates, whole column with tags)."""
            if r not in candidates_at:
                out = _lexicographic(add, self.cols[r],
                                     (multiples(self.cols[j]) for j in sources[r]))
                candidates_at[r] = [(h & coords, h) for h in out]
            return candidates_at[r]

        # each column as (coordinates, triangular basis of its sources' coordinates)
        coset_of = {}
        for r in support:
            u: Basis = ()
            for j in sources[r]:
                u = adjoin(u, self.cols[j] & coords) or u
            coset_of[r] = (self.cols[r] & coords, u)

        def first_split(order: list[int], seen: set) -> dict[int, int] | None:
            """The first split found placing the columns in `order`, or None,
            skipping the states whose keys are in `seen`."""
            cosets = [coset_of[r] for r in order]
            placed = [0]  # placed[idx]: the mask of the columns order[:idx]
            for r in order:
                placed.append(placed[-1] | 1 << r)
            # state: (position, side bases, combined basis, whether the spans
            # grew, chosen as (parent, index, whole column, parent's key))
            stack = [(0, (), (), (), True, None)]
            while stack:
                idx, b1, b2, comb, grown, chosen = stack.pop()
                if idx == len(order):
                    columns = {}
                    while chosen is not None:
                        chosen, r, col, key = chosen
                        columns[r] = col
                        seen.discard(key)  # its subtree holds this split
                    return columns
                key = (placed[idx], b1, b2)
                if key in seen:
                    continue
                seen.add(key)
                # with the second side empty, span(b1 + b2) = span(b1) and no
                # column is dead; with the spans as the parent left them, the
                # parent's check covered every column left
                if b2 and grown and _dead_column(reduce, adjoin, cosets[idx:], b1, b2, comb):
                    continue
                r = order[idx]
                for side in _sides(b1, b2, dim):
                    own = b1 if side == 0 else b2
                    tried = set()
                    for h, col in candidates(r):
                        red = reduce(h, own)
                        if red:
                            if red in tried:
                                continue  # same reduction as an earlier candidate
                            tried.add(red)
                            new_comb = adjoin(comb, red)
                            if new_comb is None:
                                continue  # would intersect the other side
                            new_own = adjoin(own, red)
                        else:
                            # span unchanged on its own side: combined is unchanged too
                            new_own, new_comb = own, comb
                        stack.append((idx + 1, new_own if side == 0 else b1,
                                      new_own if side == 1 else b2, new_comb,
                                      new_comb is not comb, (chosen, r, col, key)))
            return None

        seen: set = set()
        # fixed columns first, each group still highest first, as the sort is stable
        if first_split(sorted(by_height, key=lambda r: bool(sources[r])), seen) is None:
            return None
        return first_split(by_height, seen)


def canonical_form(g: Matrix, poset: Poset) -> tuple[Matrix, Matrix]:
    """Reduce a generator matrix to a canonical maximal-decomposition
    presentation of a weight-equivalent code.

    Column coset passes zero everything that can be zeroed; an exact
    per-component search then re-chooses representatives wherever that
    makes a component fall apart, and the passes repeat.  Passes keep
    each column in its component, so they never lower `score()`; a split
    must raise it, and it is at most n, so at most n splits run.  If the
    first passes stop on a repeat they run once more: walking the cycle
    again moves only the witness, and the witnesses the tests pin rely on it.
    The returned matrix is right-most-pivot reduced; the second value is
    the witness map carrying the input's row space onto the output's.
    """
    poset._check_ground_set(g.n, "matrix width")
    state = _Canonicalizer(g, poset)
    if not state.coset_passes():
        state.coset_passes()
    while (split := state.find_split()) is not None:
        before = state.score()
        state.apply_split(split)
        if state.score() <= before:
            raise RuntimeError("split application did not refine the decomposition")
        state.coset_passes()
    # columns hold generator columns in their coordinate slots and witness
    # rows in their tag slots, which a width-n kernel reads once shifted down
    kernel, n, shift = state.kernel, state.n, state.kernel.w * state.k
    tags = row_kernel(state.p, n)
    return (
        _residue_matrix(state.field, tuple(zip(*map(kernel.residues, state.cols))), n),
        _residue_matrix(state.field, tuple(tags.residues(c >> shift) for c in state.cols), n),
    )


def is_p_canonical(g: Matrix, poset: Poset) -> bool:
    """Fixpoint predicate: permuted-echelon form and no column movable.

    True when the matrix is in generalized right-most-pivot reduced form
    and every column already equals the canonical representative of its
    coset modulo the span of the columns strictly above it.
    """
    poset._check_ground_set(g.n, "matrix width")
    if not is_generalized_rref(g):
        return False
    kernel = row_kernel(g.field.p, g.k)
    cols = _packed_columns(kernel, g.rows, g.n)
    return all(
        _coset_representative(kernel, cols, r, above) == cols[r]
        for r, above in enumerate(_strict_ups(poset))
    )


def maximal_p_decomposition(code: Code, poset: Poset) -> PDecomposition:
    """Canonicalize the generator and decompose the resulting matrix."""
    gstar, witness = canonical_form(code.gen, poset)
    decomposition = components_from_matrix(gstar)
    return PDecomposition(original=code, decomposition=decomposition, witness=witness)


def profile(d: Decomposition) -> Profile:
    """Support sizes and dimensions, pointer entry first."""
    entries = [(len(d.pointer_support), len(d.pointer_support))]
    entries.extend((len(comp.support()), comp.k) for comp in d.components)
    return Profile(tuple(entries))


def degree(pd: PDecomposition) -> int:
    """Number of refinement steps separating this from a trivial split:
    (r - 1) plus the growth of the pointer support over the original."""
    r = len(pd.decomposition.components)
    original_null = pd.original.n - len(pd.original.support())
    return (r - 1) + len(pd.decomposition.pointer_support) - original_null


def max_degree(code: Code, poset: Poset) -> int:
    return degree(maximal_p_decomposition(code, poset))


def witness_in_reducing_group(witness: Matrix, poset: Poset) -> bool:
    """Structural membership test for accumulated witnesses: every basis
    image e_j maps into span{e_i : i <= j} with a nonzero e_j part."""
    if witness.k != witness.n or witness.n != poset.n:
        return False
    for j, below in enumerate(_downs(poset)):
        if not witness.rows[j][j] or any(
            row[j] and not below >> i & 1 for i, row in enumerate(witness.rows)
        ):
            return False
    return True


def validate_p_decomposition(pd: PDecomposition, poset: Poset) -> None:
    """Check the witness is invertible, weight-preserving on the original
    generators, and carries the original code onto the decomposed one."""
    w = pd.witness
    if w.k != w.n or w.n != pd.original.n:
        raise ValueError("witness must be square of the code length")
    if w.rank() != w.n:
        raise ValueError("witness is singular")
    transformed = w.apply_to_rows(pd.original.gen)
    target = pd.decomposition.code
    for orig_row, image in zip(pd.original.gen.row_vectors(), transformed.row_vectors()):
        if p_weight(orig_row, poset) != p_weight(image, poset):
            raise ValueError("witness does not preserve weights on the generators")
        if not target.contains(image):
            raise ValueError("witness maps a generator outside the decomposed code")
    # an invertible witness keeps the rank, so the image is onto exactly
    # when the dimensions agree
    if target.k != pd.original.k:
        raise ValueError("witness maps the code into, but not onto, the decomposition")
