"""Exact packing radius from the maxima of codeword supports, and
hierarchical-neighbor bounds.

The exact radius never enumerates the ambient space.  It walks one
nonzero codeword per scalar class as a packed row, keeps the distinct
maxima of their supports, and scans the bipartitions of each maxima
set in order of a lower bound on its value, stopping once the bound
reaches the best value found.  The budget is charged the q^k codewords
up front, then 2^(|M| - 1) for each maxima set M actually scanned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import DEFAULT_BUDGET, check_budget
from .decomp import maximal_p_decomposition
from .linear import Code, _word_supports
from .poset import Poset, _bits, _downs, lower_neighbor, upper_neighbor


@dataclass(frozen=True)
class RadiusBounds:
    lower: int
    upper: int
    exact: int | None = None

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"lower bound {self.lower} exceeds upper bound {self.upper}")
        if self.exact is not None and not self.lower <= self.exact <= self.upper:
            raise ValueError("exact value must lie between the bounds")


def packing_radius_exact(code: Code, poset: Poset, budget: int = DEFAULT_BUDGET) -> int:
    """Largest r such that radius-r balls around codewords are disjoint.

    By translation invariance this is one less than the smallest, over
    nonzero codewords c, of min over all x of max(w(x), w(x - c)).  Each
    coordinate of S = supp(c) lies in supp(x) or in supp(x - c), and
    coordinates outside S never help, so the inner minimum is
    min over A subset of S of max(|<A>|, |<S minus A>|).  Only the
    maximal elements M of S matter: for B = A meet M, the part of S
    below B generates <B>, inside <A>, and the rest of S generates
    <M minus B>, inside <S minus A>.  So the value is
    min over B subset of M of max(|<B>|, |<M minus B>|), the same for
    every q, and since the pair is symmetric the lowest element of M
    stays in B: 2^(|M| - 1) bipartitions.

    Each distinct M is scanned once, in increasing order of the lower
    bound max(ceil(|<M>| / 2), largest |<m>| for m in M), which holds
    because <B> and <M minus B> cover <M> and each m lies in one of
    them.  The scan stops once the bound reaches the best value found.
    The value only grows with S, so no minimal-support filter is needed.

    The budget is charged the q^k codewords, checked first, then a
    running total of 2^(|M| - 1) over the maxima sets M actually
    scanned, checked before each scan.
    """
    poset._check_ground_set(code.n)
    check_budget("packing radius codeword enumeration", code.q**code.k, budget)
    downs = _downs(poset)
    queue = sorted(
        (_lower_bound(downs, top), top.bit_count(), top)
        for top in {poset.maximal_mask(s) for s in set(_word_supports(code))}
    )
    best = code.n + 1  # above every value
    charged = 0
    for bound, size, top in queue:
        if bound >= best:
            break
        charged += 1 << (size - 1)
        check_budget("packing radius support bipartition", charged, budget)
        best = min(best, _split_meet(downs, top))
    return best - 1


def _lower_bound(downs: tuple[int, ...], top: int) -> int:
    """max(ceil(|<top>| / 2), largest |<m>| for m in top)."""
    whole = largest = 0
    for i in _bits(top):
        whole |= downs[i]
        largest = max(largest, downs[i].bit_count())
    return max((whole.bit_count() + 1) // 2, largest)


def _split_meet(downs: tuple[int, ...], top: int) -> int:
    """min over B subset of top, holding its lowest element, of
    max(|<B>|, |<top minus B>|)."""
    low = top & -top
    first = downs[low.bit_length() - 1]
    ideals = [0]
    for i in _bits(top ^ low):
        down = downs[i]
        ideals += [ideal | down for ideal in ideals]
    with_first = [(ideal | first).bit_count() for ideal in ideals]
    sizes = [ideal.bit_count() for ideal in ideals]
    # Index t lists the rest of B by its bits; the last index minus t
    # lists the rest of top, so the reversed list pairs each B with it.
    return min(map(max, with_first, reversed(sizes)))


def packing_radius_bounds(
    code: Code,
    poset: Poset,
    budget: int = DEFAULT_BUDGET,
    with_exact: bool = True,
) -> RadiusBounds:
    """Bracket the packing radius between its hierarchical neighbors.

    The lower bound evaluates the whole code under the lower neighbor;
    the upper bound is the smallest upper-neighbor radius over the
    components of the maximal decomposition.
    """
    lower = packing_radius_exact(code, lower_neighbor(poset), budget)
    up = upper_neighbor(poset)
    pd = maximal_p_decomposition(code, poset)
    upper = min(
        packing_radius_exact(comp, up, budget) for comp in pd.decomposition.components
    )
    exact = packing_radius_exact(code, poset, budget) if with_exact else None
    return RadiusBounds(lower=lower, upper=upper, exact=exact)
