"""Shared brute-force oracles used to cross-check library routines.

These deliberately re-derive everything from definitions, independent of
the code paths they validate.  `run_fresh` runs a script in a new
interpreter, for tests of what importing the package loads.

Every Hypothesis test draws the same examples on every run: the loaded
profile derandomizes them, seeding each test from its own source, so
what the suite catches does not vary between runs.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import settings

from posetcode.decode import parity_check, unproject_support
from posetcode.field import PrimeField
from posetcode.linear import Code, Matrix, Vector, p_distance
from posetcode.poset import Poset

SRC = Path(__file__).resolve().parents[1] / "src"

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def run_fresh(script: str) -> str:
    """Stdout of `script` run by a new interpreter that imports the
    package from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout


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


def brute_complete_cuts(poset: Poset) -> list[frozenset[int]]:
    """Every subset A with a < b for all a in A and b outside it, found by
    testing all subsets, smallest first."""
    ground = range(1, poset.n + 1)
    return [
        frozenset(a)
        for size in range(poset.n + 1)
        for a in itertools.combinations(ground, size)
        if all(poset.strictly_less(x, y) for x in a for y in ground if y not in a)
    ]


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


def reference_packing_radius(code: Code, poset: Poset) -> int:
    """Exact packing radius by the whole-support scan: one less than the
    smallest, over the inclusion-minimal nonzero codeword supports S, of
    min over all 2^|S| subsets A of S of max(|<A>|, |<S minus A>|)."""
    supports = {c.support_mask() for c in code.codewords()}
    supports.discard(0)
    minimal: list[int] = []
    for s in sorted(supports, key=int.bit_count):
        if not any(m & s == m for m in minimal):
            minimal.append(s)
    best = None
    for s in minimal:
        coords = [i for i in range(code.n) if s >> i & 1]
        for size in range(len(coords) + 1):
            for part in itertools.combinations(coords, size):
                a = sum(1 << i for i in part)
                value = max(
                    poset.ideal_mask(a).bit_count(), poset.ideal_mask(s & ~a).bit_count()
                )
                if best is None or value < best:
                    best = value
    return best - 1


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


def reference_hierarchical_groups(d, poset: Poset) -> tuple[tuple[int, ...], ...]:
    """Hierarchical groups from the quotient order closed by
    `Poset.from_relations`, component i below j when every element of
    its support is strictly below every element of j's: the differences
    of consecutive complete cuts of the quotient, found over all subsets."""
    supports = [comp.support() for comp in d.components]
    below = [
        (i + 1, j + 1)
        for i, lo in enumerate(supports)
        for j, hi in enumerate(supports)
        if i != j and all(poset.strictly_less(a, b) for a in lo for b in hi)
    ]
    cuts = brute_complete_cuts(Poset.from_relations(len(supports), below))
    return tuple(tuple(sorted(i - 1 for i in hi - lo)) for lo, hi in zip(cuts, cuts[1:]))


# -- reference canonicalizer ----------------------------------------------
#
# The list-based canonicalizer the packed kernel replaced: the generator
# rows and the witness as lists of lists, row reduction, coset reduction
# with explicit combination dictionaries replayed on the witness, and the
# split search reducing and extending coordinate lists.  It shares no
# code with the library's canonicalizer.


def reference_echelon(field: PrimeField, rows: list[list[int]]) -> list[list[int]]:
    """Classical reduced row echelon form, zero rows dropped."""
    p = field.p
    work = [r[:] for r in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot_row = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = pow(work[rank][col], -1, p)
        work[rank] = [c * inv % p for c in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [(a - factor * b) % p for a, b in zip(work[r], work[rank])]
        rank += 1
    return work[:rank]


def reference_row_reduce_inverse(field: PrimeField, rows) -> list[list[int]]:
    """Right-most-pivot reduced form of full-rank rows."""
    reduced = reference_echelon(field, [list(r)[::-1] for r in rows])
    assert len(reduced) == len(rows), "reference input must have full rank"
    return [r[::-1] for r in reduced]


def reference_coset_reduce(field: PrimeField, col, indexed_cols):
    """Canonical representative of col modulo the span of the columns,
    and coefficients x_j with new_col = col - sum_j x_j * column_j."""
    p = field.p
    basis: list[tuple[int, list[int], dict[int, int]]] = []
    for j, raw in indexed_cols:
        vec = list(raw)
        combo = {j: 1}
        for t, b, bc in basis:
            if vec[t]:
                f = vec[t]
                vec = [(a - f * x) % p for a, x in zip(vec, b)]
                for jj, c in bc.items():
                    combo[jj] = (combo.get(jj, 0) - f * c) % p
        pivot = next((t for t, a in enumerate(vec) if a), None)
        if pivot is None:
            continue
        inv = pow(vec[pivot], -1, p)
        vec = [a * inv % p for a in vec]
        combo = {jj: c * inv % p for jj, c in combo.items()}
        for idx, (t, b, bc) in enumerate(basis):
            if b[pivot]:
                f = b[pivot]
                new_b = [(a - f * x) % p for a, x in zip(b, vec)]
                new_bc = dict(bc)
                for jj, c in combo.items():
                    new_bc[jj] = (new_bc.get(jj, 0) - f * c) % p
                basis[idx] = (t, new_b, new_bc)
        basis.append((pivot, vec, combo))
    out = list(col)
    used: dict[int, int] = {}
    for t, b, bc in basis:
        if out[t]:
            f = out[t]
            out = [(a - f * x) % p for a, x in zip(out, b)]
            for jj, c in bc.items():
                used[jj] = (used.get(jj, 0) + f * c) % p
    return out, {jj: c for jj, c in used.items() if c}


def _reference_row_groups(rows) -> list[tuple[list[int], int]]:
    """Connected components of the rows-share-a-column graph, seeded at
    the smallest unassigned row: (rows, column mask) per component."""
    masks = [sum(1 << j for j, c in enumerate(row) if c) for row in rows]
    unassigned = list(range(len(rows)))
    groups = []
    while unassigned:
        group = [unassigned.pop(0)]
        mask = masks[group[0]]
        grew = True
        while grew:
            grew = False
            for r in list(unassigned):
                if masks[r] & mask:
                    unassigned.remove(r)
                    group.append(r)
                    mask |= masks[r]
                    grew = True
        groups.append((sorted(group), mask))
    return groups


class ReferenceCanonicalizer:
    def __init__(self, g: Matrix, poset: Poset):
        self.field, self.p = g.field, g.field.p
        self.n, self.k = g.n, g.k
        self.poset = poset
        self.ups = [
            [j for j in range(self.n) if poset.strictly_less(r + 1, j + 1)] for r in range(self.n)
        ]
        self.rows = reference_row_reduce_inverse(self.field, g.rows)
        self.witness = [[1 if i == j else 0 for j in range(self.n)] for i in range(self.n)]

    def column(self, j: int) -> list[int]:
        return [self.rows[i][j] for i in range(self.k)]

    def score(self) -> int:
        groups = _reference_row_groups(self.rows)
        covered = 0
        for _, mask in groups:
            covered |= mask
        return len(groups) + self.n - bin(covered).count("1")

    def snapshot(self):
        return [r[:] for r in self.rows], [r[:] for r in self.witness]

    def restore(self, snap) -> None:
        self.rows = [r[:] for r in snap[0]]
        self.witness = [r[:] for r in snap[1]]

    def _witness_add_row(self, r: int, j: int, coeff: int) -> None:
        # accumulate T(e_j) = e_j + coeff * e_r on the witness
        self.witness[r] = [
            (a + coeff * b) % self.p for a, b in zip(self.witness[r], self.witness[j])
        ]

    def find_split(self):
        for group, mask in _reference_row_groups(self.rows):
            if len(group) < 2:
                continue  # a one-dimensional component never splits
            result = self._split_component([j for j in range(self.n) if mask >> j & 1])
            if result is not None:
                return result
        return None

    def _rereduce(self) -> None:
        self.rows = reference_row_reduce_inverse(self.field, self.rows)

    def coset_passes(self) -> None:
        seen: set[tuple[tuple[int, ...], ...]] = set()
        while True:
            key = tuple(tuple(r) for r in self.rows)
            if key in seen:
                return
            seen.add(key)
            changed = False
            for r in range(self.n - 1, -1, -1):
                above = self.ups[r]
                if not above:
                    continue
                col = self.column(r)
                new_col, combo = reference_coset_reduce(
                    self.field, col, [(j, self.column(j)) for j in above]
                )
                if new_col != col:
                    changed = True
                    for i in range(self.k):
                        self.rows[i][r] = new_col[i]
                    for j, x in combo.items():
                        self._witness_add_row(r, j, -x)
            self._rereduce()
            if not changed:
                return

    def apply_split(self, choices) -> None:
        originals = {r: self.column(r) for r in choices}
        originals.update({j: self.column(j) for combo in choices.values() for j in combo})
        new_witness_rows = {}
        for r, combo in choices.items():
            col = originals[r][:]
            for j, x in combo.items():
                col = [(a + x * b) % self.p for a, b in zip(col, originals[j])]
            for i in range(self.k):
                self.rows[i][r] = col[i]
            wr = self.witness[r][:]
            for j, x in combo.items():
                wr = [(a + x * b) % self.p for a, b in zip(wr, self.witness[j])]
            new_witness_rows[r] = wr
        for r, wr in new_witness_rows.items():
            self.witness[r] = wr
        self._rereduce()

    def _split_component(self, support):
        support_set = set(support)
        heights = self.poset.heights()
        order = sorted(support, key=lambda j: (-heights[j], j))
        local_ups = {r: [j for j in self.ups[r] if j in support_set] for r in support}
        columns = {j: tuple(self.column(j)) for j in support}
        p, k = self.p, self.k

        def reduce_vec(vec, basis):
            for pivot, b in basis:
                if vec[pivot]:
                    f = vec[pivot]
                    vec = [(a - f * x) % p for a, x in zip(vec, b)]
            return vec

        def extend(basis, vec):
            red = reduce_vec(list(vec), basis)
            pivot = next((t for t, a in enumerate(red) if a), None)
            if pivot is None:
                return None
            inv = pow(red[pivot], -1, p)
            red = tuple(a * inv % p for a in red)
            out = []
            for pv, b in basis:
                if b[pivot]:
                    f = b[pivot]
                    out.append((pv, tuple((a - f * x) % p for a, x in zip(b, red))))
                else:
                    out.append((pv, b))
            out.append((pivot, red))
            out.sort()
            return out

        def basis_key(basis):
            return tuple(b for _, b in basis)

        seen: set = set()
        stack = [(0, [], [], [], ({}, {}), (False, False))]
        while stack:
            idx, b1, b2, comb, choices, used = stack.pop()
            if idx == len(order):
                if used[0] and used[1]:
                    merged = {**choices[0], **choices[1]}
                    return {r: combo for r, combo in merged.items() if combo}
                continue
            key = (idx, basis_key(b1), basis_key(b2), used)
            if key in seen:
                continue
            seen.add(key)
            r = order[idx]
            sources = local_ups[r]
            candidates = []
            for coeffs in itertools.product(range(p), repeat=len(sources)):
                h = list(columns[r])
                for j, x in zip(sources, coeffs):
                    if x:
                        h = [(a + x * b) % p for a, b in zip(h, columns[j])]
                if any(h):
                    candidates.append((tuple(h), {j: x for j, x in zip(sources, coeffs) if x}))
            for side in (0,) if idx == 0 else (0, 1):
                own = b1 if side == 0 else b2
                seen_spans = set()
                for h, combo in candidates:
                    new_choices = (dict(choices[0]), dict(choices[1]))
                    new_choices[side][r] = combo
                    new_used = (used[0] or side == 0, used[1] or side == 1)
                    if not any(reduce_vec(list(h), own)):
                        # span unchanged on its own side: combined is unchanged too
                        new_own, new_comb = own, comb
                    else:
                        new_comb = extend(comb, h)
                        if new_comb is None:
                            continue  # would intersect the other side
                        new_own = extend(own, h)
                        if basis_key(new_own) in seen_spans:
                            continue
                        seen_spans.add(basis_key(new_own))
                    stack.append((idx + 1, new_own if side == 0 else b1,
                                  new_own if side == 1 else b2,
                                  new_comb, new_choices, new_used))
        return None


def reference_canonical_form(g: Matrix, poset: Poset) -> tuple[Matrix, Matrix]:
    """canonical_form driven by the reference canonicalizer."""
    state = ReferenceCanonicalizer(g, poset)
    state.coset_passes()
    for _ in range(state.n + 2):
        before = state.score()
        snap = state.snapshot()
        state.coset_passes()
        if state.score() < before:
            state.restore(snap)
        split = state.find_split()
        if split is None:
            break
        before = state.score()
        state.apply_split(split)
        assert state.score() > before, "split application did not refine the decomposition"
    else:
        raise AssertionError("decomposition refinement did not settle")
    return Matrix(state.field, state.rows, n=state.n), Matrix(state.field, state.witness)
