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
addition carries out both; the split search keeps its bases as tuples
of packed columns, which also serve as the keys of the states it has
visited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .linear import Basis, Code, Matrix, RowKernel, is_generalized_rref, p_weight, row_kernel
from .poset import Poset


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
        seen: set[int] = set(self.pointer_support)
        for comp in self.components:
            supp = comp.support()
            if supp & seen:
                raise ValueError("component supports must be pairwise disjoint")
            seen |= supp
        if seen != set(range(1, self.code.n + 1)):
            raise ValueError("supports and pointer must partition the coordinate set")

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


def _row_support_masks(rows: Sequence[Sequence[int]]) -> list[int]:
    masks = []
    for row in rows:
        mask = 0
        for i, c in enumerate(row):
            if c:
                mask |= 1 << i
        masks.append(mask)
    return masks


def _row_graph_groups(masks: Sequence[int]) -> list[list[int]]:
    """Connected components of the graph joining indices whose masks
    intersect, in order of their smallest index, each sorted.

    Rows sharing a column, columns sharing a row and components sharing
    an ideal are all grouped here; a zero mask stands alone."""
    # one pass: index r joins every group whose union meets its mask,
    # so the unions of distinct groups stay disjoint
    groups: list[tuple[int, list[int]]] = []
    for r, mask in enumerate(masks):
        union, members, rest = mask, [r], []
        for group in groups:
            if group[0] & mask:
                union |= group[0]
                members = group[1] + members
            else:
                rest.append(group)
        groups = rest + [(union, members)]
    return sorted(sorted(members) for _, members in groups)


def components_from_matrix(g: Matrix) -> Decomposition:
    """The decomposition a generator matrix determines.

    Rows are grouped into connected components of the graph joining rows
    with intersecting supports; each group spans one component, and null
    columns form the pointer support.
    """
    if g.rank() != g.k:
        raise ValueError(f"rank deficiency: generator has rank {g.rank()} < {g.k} rows")
    masks = _row_support_masks(g.rows)
    groups = _row_graph_groups(masks)
    components = tuple(
        Code(Matrix(g.field, [g.rows[r] for r in group], n=g.n)) for group in groups
    )
    covered = 0
    for m in masks:
        covered |= m
    pointer = frozenset(i + 1 for i in range(g.n) if not covered >> i & 1)
    return Decomposition(Code(g), components, pointer)


def _strict_ups(poset: Poset) -> list[list[int]]:
    """For each 0-indexed column r, the 0-indexed columns strictly above it."""
    n = poset.n
    downs = [poset.ideal_mask(1 << j) for j in range(n)]
    return [[j for j in range(n) if j != r and downs[j] >> r & 1] for r in range(n)]


def _coset_representative(
    kernel: RowKernel, cols: Sequence[int], r: int, above: Sequence[int]
) -> int:
    """Canonical representative of cols[r] modulo the span of the cols[j],
    j in `above`.

    The spanning columns are echelonized in the order given, skipping any
    whose coordinates depend on the earlier ones, so pivots sit at the
    smallest row indices.  Tag slots ride along: they take the same
    combination of the spanning columns as the coordinates.
    """
    basis: Basis = ()
    for j in above:
        basis = kernel.extend(basis, cols[j]) or basis
    return kernel.reduce(cols[r], basis)


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
        self.cols = [kernel.pack(g.column(j)) | kernel.unit(self.k + j) for j in range(self.n)]
        self.rereduce()

    def rereduce(self) -> None:
        """Bring the generator rows to right-most-pivot reduced form.

        Pivot columns are picked greedily from the right, and every
        column is replaced by its coordinates over them, the i-th pivot
        giving row i.  Rejects rank-deficient rows.
        """
        k, p, coords = self.k, self.p, self.kernel.coords
        scratch = row_kernel(p, k, k)
        basis: Basis = ()
        rank = 0
        for c in reversed(self.cols):
            if rank == k:
                break
            # tagging pivot i with -1 leaves +(coordinates) in the tags of a reduced column
            extended = scratch.extend(basis, c & coords | (p - 1) * scratch.unit(k + rank))
            if extended is not None:
                basis, rank = extended, rank + 1
        if rank < k:
            raise ValueError(f"rank deficiency: rank {rank} < {k} rows")
        shift, reduce = scratch.w * k, scratch.reduce
        self.cols = [c & ~coords | reduce(c & coords, basis) >> shift for c in self.cols]

    def score(self) -> int:
        """Component count plus null-column count; the degree up to a
        constant depending only on the original code."""
        # columns join when their nonzero slots share a row; a null column stands alone
        return len(_row_graph_groups([self.kernel.nonzero(c) for c in self.cols]))

    def coset_passes(self) -> None:
        """Right-to-left column reduction, re-reducing rows between
        passes, until a pass changes nothing or a matrix repeats.

        The representative rule and the row reduction can chase each
        other in a cycle; a repeated matrix presents the same code, and
        the accumulated witness remains valid for it, so the first
        repeat is a sound deterministic stopping point.
        """
        seen: set[tuple[int, ...]] = set()
        while True:
            key = tuple(c & self.kernel.coords for c in self.cols)
            if key in seen:
                return
            seen.add(key)
            changed = False
            cols = self.cols
            for r in range(self.n - 1, -1, -1):
                if self.ups[r]:
                    rep = _coset_representative(self.kernel, cols, r, self.ups[r])
                    if rep != cols[r]:
                        cols[r], changed = rep, True
            self.rereduce()
            if not changed:
                return

    def apply_split(self, choices: dict[int, dict[int, int]]) -> None:
        """Replace the chosen columns simultaneously; choices[r] maps
        source columns j above r to coefficients x with
        new col_r = col_r + sum x * col_j."""
        old = tuple(self.cols)
        add, scale = self.kernel.add, self.kernel.scale
        for r, combo in choices.items():
            col = old[r]
            for j, x in combo.items():
                col = add(col, scale(old[j], x))
            self.cols[r] = col
        self.rereduce()

    def find_split(self) -> dict[int, dict[int, int]] | None:
        """Search every current component for a reachable two-way split.

        Representatives may be re-chosen within a component (columns may
        only absorb columns strictly above them inside the same
        component's support); a split is a side assignment whose two
        span sets stay independent.  Exact but worst-case exponential in
        the component dimension; fine at the scales this library
        targets.  Components are searched by their smallest row.
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

    def _split_component(self, support: list[int]) -> dict[int, dict[int, int]] | None:
        support_set = set(support)
        heights = self.poset.heights()
        order = sorted(support, key=lambda j: (-heights[j], j))
        local_ups = {r: [j for j in self.ups[r] if j in support_set] for r in support}
        kernel = row_kernel(self.p, self.k)
        add, reduce, extend = kernel.add, kernel.reduce, kernel.extend
        columns = {j: self.cols[j] & kernel.coords for j in support}
        candidates_at: dict[int, list[tuple[int, tuple[int, ...]]]] = {}

        def candidates(r: int) -> list[tuple[int, tuple[int, ...]]]:
            """Nonzero col_r + sum x_j col_j over the sources j, with the
            coefficients, in itertools.product order."""
            if r not in candidates_at:
                out = [(columns[r], ())]
                for j in local_ups[r]:
                    mult = kernel.multiples(columns[j])
                    out = [(add(h, m), xs + (x,)) for h, xs in out for x, m in enumerate(mult)]
                candidates_at[r] = [(h, xs) for h, xs in out if h]
            return candidates_at[r]

        seen: set = set()
        # state: (position, side bases, combined basis, chosen columns); chosen
        # columns form a linked list of (parent, column, coefficients).  A side
        # is used exactly when its basis is nonempty: column 0 always goes to
        # side 0 with a nonzero candidate, and a candidate reduces to zero only
        # against a nonempty basis.
        stack = [(0, (), (), (), None)]
        while stack:
            idx, b1, b2, comb, chosen = stack.pop()
            if idx == len(order):
                if b1 and b2:
                    choices = {}
                    while chosen is not None:
                        chosen, r, xs = chosen
                        combo = {j: x for j, x in zip(local_ups[r], xs) if x}
                        if combo:
                            choices[r] = combo
                    return choices
                continue
            key = (idx, b1, b2)
            if key in seen:
                continue
            seen.add(key)
            r = order[idx]
            sides = (0,) if idx == 0 else (0, 1)
            for side in sides:
                own = b1 if side == 0 else b2
                tried, seen_spans = set(), set()
                for h, xs in candidates(r):
                    red = reduce(h, own)
                    if red:
                        if red in tried:
                            continue  # same span as an earlier candidate, or dependent
                        tried.add(red)
                        new_comb = extend(comb, red)
                        if new_comb is None:
                            continue  # would intersect the other side
                        new_own = extend(own, red)
                        if new_own in seen_spans:
                            continue
                        seen_spans.add(new_own)
                    else:
                        # span unchanged on its own side: combined is unchanged too
                        new_own, new_comb = own, comb
                    stack.append((idx + 1, new_own if side == 0 else b1,
                                  new_own if side == 1 else b2,
                                  new_comb, (chosen, r, xs)))
        return None


def canonical_form(g: Matrix, poset: Poset) -> tuple[Matrix, Matrix]:
    """Reduce a generator matrix to a canonical maximal-decomposition
    presentation of a weight-equivalent code.

    Column coset passes zero everything that can be zeroed; an exact
    per-component search then re-chooses representatives wherever that
    makes a component fall apart, and the passes repeat.  The returned
    matrix is in right-most-pivot reduced form; the second value is the
    witness map carrying the input's row space onto the output's.
    """
    if poset.n != g.n:
        raise ValueError(f"poset ground set {poset.n} does not match matrix width {g.n}")
    state = _Canonicalizer(g, poset)
    state.coset_passes()
    for _ in range(state.n + 2):
        before = state.score()
        snap = tuple(state.cols)
        state.coset_passes()
        if state.score() < before:
            state.cols = list(snap)
        split = state.find_split()
        if split is None:
            break
        before = state.score()
        state.apply_split(split)
        if state.score() <= before:
            raise RuntimeError("split application did not refine the decomposition")
    else:
        raise RuntimeError("decomposition refinement did not settle")
    kernel, k, n = state.kernel, state.k, state.n
    return (
        Matrix(state.field, zip(*(kernel.unpack(c) for c in state.cols)), n=n),
        Matrix(state.field, (kernel.unpack(c, k, k + n) for c in state.cols)),
    )


def is_p_canonical(g: Matrix, poset: Poset) -> bool:
    """Fixpoint predicate: permuted-echelon form and no column movable.

    True when the matrix is in generalized right-most-pivot reduced form
    and every column already equals the canonical representative of its
    coset modulo the span of the columns strictly above it.
    """
    if poset.n != g.n:
        raise ValueError(f"poset ground set {poset.n} does not match matrix width {g.n}")
    if not is_generalized_rref(g):
        return False
    kernel = row_kernel(g.field.p, g.k)
    cols = [kernel.pack(g.column(j)) for j in range(g.n)]
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
    for j in range(witness.n):
        below = poset.ideal_mask(1 << j)
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
            raise ValueError("witness does not map the code onto the decomposition")
    if transformed.rank() != pd.original.k:
        raise ValueError("witness collapses the code")
