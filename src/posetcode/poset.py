"""Partial orders on the coordinate set {1, ..., n}.

Construction by reflexive-transitive closure, order ideals, heights and
levels, the chain/antichain/hierarchical predicates, the containment
order between posets on the same ground set, and the hierarchical
upper/lower neighbors.
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

    def __init__(self, n: int, up_masks: Sequence[int], _validated: bool = False):
        if not 1 <= n <= MAX_GROUND_SET:
            raise ValueError(f"ground-set size must be in [1, {MAX_GROUND_SET}], got {n}")
        up = tuple(up_masks)
        if len(up) != n:
            raise ValueError("need one relation mask per element")
        self._n = n
        self._up = up  # bit j of _up[i] set  <=>  (i+1) <= (j+1)
        if not _validated:
            self._validate()
        # down[j] = elements below-or-equal j; the ideal machinery runs on these
        down = [0] * n
        for i in range(n):
            for j in _bits(up[i]):
                down[j] |= 1 << i
        self._down = tuple(down)
        self._heights: tuple[int, ...] | None = None

    def _validate(self) -> None:
        n, up = self._n, self._up
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
        for i in range(n):
            for j in range(i + 1, n):
                if up[i] >> j & 1 and up[j] >> i & 1:
                    cycle = _find_cycle(n, pair_list, i + 1, j + 1)
                    raise ValueError(
                        "relations contain a cycle (antisymmetry violated): "
                        + " <= ".join(str(x) for x in cycle)
                    )
        return cls(n, up, _validated=True)

    @classmethod
    def chain(cls, n: int, order: Sequence[int] | None = None) -> "Poset":
        """Total order; `order` lists the elements from bottom to top."""
        seq = list(order) if order is not None else list(range(1, n + 1))
        if sorted(seq) != list(range(1, n + 1)):
            raise ValueError("chain order must enumerate the ground set exactly once")
        return cls.from_relations(n, [(seq[i], seq[i + 1]) for i in range(n - 1)])

    @classmethod
    def antichain(cls, n: int) -> "Poset":
        return cls(n, [1 << i for i in range(n)], _validated=True)

    @classmethod
    def hierarchical_from_levels(cls, blocks: Sequence[Iterable[int]]) -> "Poset":
        """Hierarchical poset whose i-th level is blocks[i] (bottom first)."""
        elems = [sorted(set(b)) for b in blocks]
        flat = [x for b in elems for x in b]
        n = len(flat)
        if sorted(flat) != list(range(1, n + 1)):
            raise ValueError("level blocks must partition the ground set")
        pairs = []
        for lo in range(len(elems)):
            for hi in range(lo + 1, len(elems)):
                pairs.extend((a, b) for a in elems[lo] for b in elems[hi])
        return cls.from_relations(n, pairs)

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

    def _check_subset(self, elements: Iterable[int]) -> int:
        mask = 0
        for a in elements:
            self._check_element(a)
            mask |= 1 << (a - 1)
        return mask

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
        mask = self._check_subset(elements)
        return frozenset(i + 1 for i in _bits(mask) if not self._up[i] & ~(1 << i) & mask)

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
        """Whether any two elements at different heights are comparable."""
        h = self.heights()
        for i in range(self._n):
            for j in range(self._n):
                if h[i] < h[j] and not self._up[i] >> j & 1:
                    return False
        return True

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


def _mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in _bits(mask))


def _find_cycle(n: int, pairs: list[tuple[int, int]], a: int, b: int) -> list[int]:
    """A directed cycle a -> ... -> b -> ... -> a among the input pairs."""
    forward = _path(n, pairs, a, b)
    backward = _path(n, pairs, b, a)
    return forward + backward[1:]


def _path(n: int, pairs: list[tuple[int, int]], src: int, dst: int) -> list[int]:
    adj: dict[int, list[int]] = {}
    for x, y in pairs:
        if x != y:
            adj.setdefault(x, []).append(y)
    prev = {src: 0}
    queue = [src]
    while queue:
        cur = queue.pop(0)
        if cur == dst:
            path = [dst]
            while path[-1] != src:
                path.append(prev[path[-1]])
            return path[::-1]
        for nxt in adj.get(cur, ()):
            if nxt not in prev:
                prev[nxt] = cur
                queue.append(nxt)
    return [src, dst]  # unreachable for pairs that produced a closure cycle


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
    h = p.heights()
    n = p.n
    up = []
    for i in range(n):
        mask = 1 << i
        for j in range(n):
            if h[i] < h[j]:
                mask |= 1 << j
        up.append(mask)
    return Poset(n, up, _validated=True)


def complete_cuts(p: Poset) -> list[frozenset[int]]:
    """All subsets A with a < b for every a in A, b outside A.

    The cuts are totally ordered by inclusion and returned smallest
    first; the trivial cuts (empty set and the whole ground set) are
    always present.
    """
    n = p.n
    full = (1 << n) - 1
    strict_up = [p._up[i] & ~(1 << i) for i in range(n)]
    above_count = [bin(m).count("1") for m in strict_up]
    cuts = []
    for k in range(n + 1):
        cand = 0
        for i in range(n):
            if above_count[i] >= n - k:
                cand |= 1 << i
        if bin(cand).count("1") != k:
            continue
        outside = full & ~cand
        if all(strict_up[i] & outside == outside for i in _bits(cand)):
            cuts.append(cand)
    return [_mask_to_set(m) for m in cuts]


def cut_levels(p: Poset) -> list[list[int]]:
    """Consecutive differences of the nested complete cuts, bottom first.

    Every element of a level lies strictly below every element of each
    higher level; the levels are the finest partition with that
    property.
    """
    levels = []
    prev: frozenset[int] = frozenset()
    for cut in complete_cuts(p):
        diff = cut - prev
        if diff:
            levels.append(sorted(diff))
        prev = cut
    return levels


def lower_neighbor(p: Poset) -> Poset:
    """Greatest hierarchical poset contained in p.

    The levels between the nested complete cuts of p (`cut_levels`) are
    its levels, bottom first.
    """
    return Poset.hierarchical_from_levels(cut_levels(p))
