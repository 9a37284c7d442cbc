"""Partial orders on the coordinate set {1, ..., n}.

Construction by reflexive-transitive closure, order ideals, heights and
levels, the chain/antichain/hierarchical predicates, the containment
order between posets on the same ground set, and the hierarchical
upper/lower neighbors.

It also hosts the bit-mask helpers the other modules share: `_bits`,
`_nonzero_mask`, `_elements_mask` and `_mask_to_set` convert between
masks and coordinates, `_row_graph_groups` groups indices whose masks
intersect (code components, plan groups and the levels between
complete cuts), `_strict_ups` lists the elements strictly above each
element, and `_downs` gives the down-set of each element as a mask.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

# Ground sets are capped so element subsets fit in one machine word.
MAX_GROUND_SET = 64


class Poset:
    """A reflexive, antisymmetric, transitive relation on {1, ..., n}.

    Elements are 1-indexed throughout the public API.  Internally the
    relation is stored as per-element bitmasks over 0-indexed bit
    positions.  Instances are immutable and hashable.
    """

    def __init__(self, n: int, up_masks: Sequence[int]):
        if not 1 <= n <= MAX_GROUND_SET:
            raise ValueError(f"ground-set size must be in [1, {MAX_GROUND_SET}], got {n}")
        up = tuple(up_masks)
        if len(up) != n:
            raise ValueError("need one relation mask per element")
        for i, mask in enumerate(up):
            if not 0 <= mask < 1 << n:
                raise ValueError(f"relation mask of element {i + 1} has bits outside [1, {n}]")
        self._n = n
        self._up = up  # bit j of _up[i] set  <=>  (i+1) <= (j+1)
        # down[j] = elements below-or-equal j; the ideal machinery runs on these.
        # The same walk over the pairs checks the order axioms.
        down = [0] * n
        for i in range(n):
            if not up[i] >> i & 1:
                raise ValueError(f"relation is not reflexive at element {i + 1}")
            for j in _bits(up[i]):
                if i != j and up[j] >> i & 1:
                    raise ValueError(
                        f"relation is not antisymmetric: {i + 1} and {j + 1} are mutually related"
                    )
                if up[j] & ~up[i]:
                    raise ValueError(f"relation is not transitive above element {i + 1}")
                down[j] |= 1 << i
        self._down = tuple(down)
        self._heights: tuple[int, ...] | None = None

    # -- construction ------------------------------------------------

    @classmethod
    def from_relations(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Poset":
        """Build the poset generated by `a <= b` pairs on {1, ..., n}.

        The reflexive-transitive closure of the pairs is taken; a cycle
        among distinct elements is rejected with the offending cycle.
        """
        if not 1 <= n <= MAX_GROUND_SET:
            raise ValueError(f"ground-set size must be in [1, {MAX_GROUND_SET}], got {n}")
        pair_list = []
        for a, b in pairs:
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"relation ({a}, {b}) is outside the ground set [1, {n}]")
            pair_list.append((a, b))
        up = [1 << i for i in range(n)]
        for a, b in pair_list:
            up[a - 1] |= 1 << (b - 1)
        # Warshall closure on bitmask rows.
        for k in range(n):
            mask_k = up[k]
            bit_k = 1 << k
            for i in range(n):
                if up[i] & bit_k:
                    up[i] |= mask_k
        try:
            return cls(n, up)
        except ValueError:
            # the closure is reflexive and transitive, so the axiom walk
            # failed on two mutually related elements: name a cycle through
            # the first such pair
            i, j = next(
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if up[i] >> j & 1 and up[j] >> i & 1
            )
        cycle = _find_cycle(pair_list, i + 1, j + 1)
        raise ValueError(
            "relations contain a cycle (antisymmetry violated): "
            + " <= ".join(str(x) for x in cycle)
        )

    @classmethod
    def chain(cls, n: int, order: Sequence[int] | None = None) -> "Poset":
        """Total order; `order` lists the elements from bottom to top."""
        seq = list(order) if order is not None else list(range(1, n + 1))
        if sorted(seq) != list(range(1, n + 1)):
            raise ValueError("chain order must enumerate the ground set exactly once")
        return cls.from_relations(n, [(seq[i], seq[i + 1]) for i in range(n - 1)])

    @classmethod
    def antichain(cls, n: int) -> "Poset":
        return cls(n, [1 << i for i in range(n)])

    @classmethod
    def hierarchical_from_levels(cls, blocks: Sequence[Iterable[int]]) -> "Poset":
        """Hierarchical poset whose i-th level is blocks[i] (bottom first).

        Every element lies below every element of each higher level, and
        the elements of one level are pairwise incomparable.
        """
        elems = [set(b) for b in blocks]
        flat = [x for b in elems for x in b]
        n = len(flat)
        if sorted(flat) != list(range(1, n + 1)):
            raise ValueError("level blocks must partition the ground set")
        return cls(n, _level_up_masks(elems, n))

    # -- basic queries -----------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    def leq(self, a: int, b: int) -> bool:
        """Whether a <= b in this order (1-indexed)."""
        self._check_element(a)
        self._check_element(b)
        return bool(self._up[a - 1] >> (b - 1) & 1)

    def strictly_less(self, a: int, b: int) -> bool:
        return a != b and self.leq(a, b)

    def relations(self) -> frozenset[tuple[int, int]]:
        """All strict pairs (a, b) with a < b in this order."""
        return frozenset(
            (i + 1, j + 1) for i, m in enumerate(self._up) for j in _bits(m & ~(1 << i))
        )

    def _check_element(self, a: int) -> None:
        if not 1 <= a <= self._n:
            raise ValueError(f"element {a} is outside the ground set [1, {self._n}]")

    def _check_ground_set(self, n: int, what: str = "code length") -> None:
        """Reject a code or matrix whose n coordinates are not this ground set."""
        if self._n != n:
            raise ValueError(f"poset ground set {self._n} does not match {what} {n}")

    def _check_subset(self, elements: Iterable[int]) -> int:
        elements = tuple(elements)
        for a in elements:
            self._check_element(a)
        return _elements_mask(elements)

    # -- ideals ------------------------------------------------------

    def ideal_mask(self, mask: int) -> int:
        """Downward closure of a 0-indexed bitmask of elements: the union
        of the stored down-sets of its elements."""
        closed = 0
        for i in _bits(mask):
            closed |= self._down[i]
        return closed

    def ideal(self, elements: Iterable[int]) -> frozenset[int]:
        """Smallest downward-closed superset of the given elements."""
        mask = self.ideal_mask(self._check_subset(elements))
        return _mask_to_set(mask)

    def is_ideal(self, elements: Iterable[int]) -> bool:
        mask = self._check_subset(elements)
        return self.ideal_mask(mask) == mask

    def maximal_elements(self, elements: Iterable[int]) -> frozenset[int]:
        """Elements of the subset with nothing of the subset strictly above."""
        return _mask_to_set(self.maximal_mask(self._check_subset(elements)))

    def maximal_mask(self, mask: int) -> int:
        """The elements of a 0-indexed bitmask with nothing of the mask
        strictly above them, as a bitmask."""
        up = self._up
        top = 0
        for i in _bits(mask):
            if up[i] & mask == 1 << i:
                top |= 1 << i
        return top

    # -- heights and levels -------------------------------------------

    def heights(self) -> tuple[int, ...]:
        """h(a) for a = 1..n: length of the longest chain with a on top."""
        if self._heights is None:
            n = self._n
            h = [0] * n
            order = sorted(range(n), key=lambda i: bin(self._down[i]).count("1"))
            for i in order:
                h[i] = 1 + max((h[j] for j in _bits(self._down[i] & ~(1 << i))), default=0)
            self._heights = tuple(h)
        return self._heights

    def height(self, a: int) -> int:
        self._check_element(a)
        return self.heights()[a - 1]

    def height_of_poset(self) -> int:
        return max(self.heights())

    def levels(self) -> tuple[frozenset[int], ...]:
        """Partition of the ground set by height, bottom level first."""
        h = self.heights()
        top = max(h)
        buckets: list[list[int]] = [[] for _ in range(top)]
        for i, hi in enumerate(h):
            buckets[hi - 1].append(i + 1)
        return tuple(frozenset(b) for b in buckets)

    # -- structural predicates -----------------------------------------

    def is_chain(self) -> bool:
        full = (1 << self._n) - 1
        return all(up | down == full for up, down in zip(self._up, self._down))

    def is_antichain(self) -> bool:
        return all(self._up[i] == 1 << i for i in range(self._n))

    def is_hierarchical(self) -> bool:
        """Whether any two elements at different heights are comparable,
        that is, whether the order is its own upper neighbor."""
        return self._up == tuple(_level_up_masks(self.levels(), self._n))

    # -- order between posets -------------------------------------------

    def __le__(self, other: "Poset") -> bool:
        return leq_poset(self, other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poset) and self._n == other._n and self._up == other._up

    def __hash__(self) -> int:
        return hash((self._n, self._up))

    def __repr__(self) -> str:
        rels = sorted(self.relations())
        return f"Poset(n={self._n}, relations={rels})"


def _bits(mask: int) -> Iterator[int]:
    """0-indexed positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _level_up_masks(blocks: Sequence[Iterable[int]], n: int) -> list[int]:
    """Up masks of the hierarchical order whose levels, bottom first, are
    the blocks, a partition of {1, ..., n}: each element lies below
    itself and every element of each higher level."""
    up = [0] * n
    above = 0  # every element of the levels above the current one
    for block in reversed(blocks):
        for x in block:
            up[x - 1] = above | 1 << (x - 1)
        above |= _elements_mask(block)
    return up


def _nonzero_mask(coords: Iterable[int]) -> int:
    """Bit i set when slot i of a residue sequence is nonzero."""
    mask = 0
    for i, c in enumerate(coords):
        if c:
            mask |= 1 << i
    return mask


def _elements_mask(elements: Iterable[int]) -> int:
    """Bit a - 1 set for each 1-indexed element a."""
    mask = 0
    for a in elements:
        mask |= 1 << (a - 1)
    return mask


def _mask_to_set(mask: int) -> frozenset[int]:
    """The 1-indexed elements of a 0-indexed bitmask."""
    return frozenset(i + 1 for i in _bits(mask))


def _row_graph_groups(masks: Sequence[int]) -> list[list[int]]:
    """Connected components of the graph joining indices whose masks
    intersect, in order of their smallest index, each sorted.

    Rows sharing a column, columns sharing a row, components sharing an
    ideal and incomparable elements (`cut_levels`) are all grouped here;
    a zero mask stands alone."""
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


def _strict_ups(poset: Poset) -> list[list[int]]:
    """For each 0-indexed element r, the 0-indexed elements strictly above it."""
    return [list(_bits(up & ~(1 << r))) for r, up in enumerate(poset._up)]


def _downs(poset: Poset) -> tuple[int, ...]:
    """For each 0-indexed element, the mask of the elements at or below it:
    the stored down-sets `Poset.ideal_mask` takes unions of."""
    return poset._down


def _find_cycle(pairs: list[tuple[int, int]], a: int, b: int) -> list[int]:
    """A directed cycle a -> ... -> b -> ... -> a among the input pairs."""
    adj: dict[int, list[int]] = {}
    for x, y in pairs:
        if x != y:
            adj.setdefault(x, []).append(y)
    return _path(adj, a, b) + _path(adj, b, a)[1:]


def _path(adj: dict[int, list[int]], src: int, dst: int) -> list[int]:
    """A shortest path from src to dst, which must exist, by breadth-first search."""
    prev = {src: src}
    queue = [src]
    for cur in queue:  # the loop also visits what it appends
        for nxt in adj.get(cur, ()):
            if nxt not in prev:
                prev[nxt] = cur
                queue.append(nxt)
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    return path[::-1]


def leq_poset(p: Poset, q: Poset) -> bool:
    """Whether every relation of p also holds in q."""
    if p.n != q.n:
        raise ValueError(f"ground-set mismatch: {p.n} vs {q.n}")
    return all(not (p._up[i] & ~q._up[i]) for i in range(p.n))


def upper_neighbor(p: Poset) -> Poset:
    """Least hierarchical poset containing p.

    Its i-th level is exactly the i-th level of p: a < b whenever
    h(a) < h(b).
    """
    return Poset.hierarchical_from_levels(p.levels())


def complete_cuts(p: Poset) -> list[frozenset[int]]:
    """All subsets A with a < b for every a in A, b outside A.

    The cuts are totally ordered by inclusion and returned smallest
    first: the empty set, then the running unions of `cut_levels`, whose
    lower segments are exactly the complete cuts.  The trivial cuts
    (empty set and the whole ground set) are always present.
    """
    cuts = [frozenset()]
    for level in cut_levels(p):
        cuts.append(cuts[-1] | frozenset(level))
    return cuts


def cut_levels(p: Poset) -> list[list[int]]:
    """Consecutive differences of the nested complete cuts, bottom first.

    Every element of a level lies strictly below every element of each
    higher level; the levels are the finest partition with that
    property.  They are the connected components of the graph joining
    incomparable elements:

    - No complete cut separates two incomparable elements.
    - Take two different components C and D.  Every x in C is comparable
      with every y in D.  Suppose x < y, and x' is incomparable with x.
      Then x' < y, because x' > y would give x' > x.  By connectivity
      all of C lies below y, and by the same step on D, all of C lies
      below all of D.
    - So the components form a chain, and the complete cuts are the
      unions of its lower segments.
    - x < y implies |down(x)| < |down(y)|, so any member's down-set size
      orders the chain.
    """
    full = (1 << p.n) - 1
    groups = _row_graph_groups(
        [full & ~(up | down) | 1 << i for i, (up, down) in enumerate(zip(p._up, p._down))]
    )
    return [
        [x + 1 for x in group]
        for group in sorted(groups, key=lambda group: p._down[group[0]].bit_count())
    ]


def lower_neighbor(p: Poset) -> Poset:
    """Greatest hierarchical poset contained in p.

    The levels between the nested complete cuts of p (`cut_levels`) are
    its levels, bottom first.
    """
    return Poset.hierarchical_from_levels(cut_levels(p))
