"""Exact packing radius by support bipartition, and hierarchical-neighbor bounds."""

from __future__ import annotations

from dataclasses import dataclass

from .budget import DEFAULT_BUDGET, check_budget
from .decomp import maximal_p_decomposition
from .linear import Code
from .poset import Poset, _bits, lower_neighbor, upper_neighbor


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
    min over A subset of S of max(|<A>|, |<S minus A>|).  That depends
    only on S, whatever q is, and can only grow with S, so only the
    inclusion-minimal supports are scanned.  The cost is the q^k
    codewords plus 2^|S| per minimal support.
    """
    if poset.n != code.n:
        raise ValueError(f"poset ground set {poset.n} does not match code length {code.n}")
    check_budget("packing radius codeword enumeration", code.q**code.k, budget)
    supports = {c.support_mask() for c in code.codewords(budget)}
    supports.discard(0)
    minimal: list[int] = []
    for s in sorted(supports, key=int.bit_count):
        if not any(m & s == m for m in minimal):
            minimal.append(s)
    check_budget(
        "packing radius support bipartition",
        sum(1 << s.bit_count() for s in minimal),
        budget,
    )
    return min(_support_meet(poset, s) for s in minimal) - 1


def _support_meet(poset: Poset, support: int) -> int:
    """min over A subset of the support of max(|<A>|, |<support minus A>|)."""
    ideals = [0]
    for i in _bits(support):
        down = poset.ideal_mask(1 << i)
        ideals += [ideal | down for ideal in ideals]
    sizes = [ideal.bit_count() for ideal in ideals]
    # Index t lists a subset A by its bits; the last index minus t lists
    # the rest of the support, so the reversed list pairs each A with it.
    return min(map(max, sizes, reversed(sizes)))


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
