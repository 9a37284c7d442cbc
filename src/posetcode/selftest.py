"""Oracle-agreement suite behind the `selftest` command.

Each property pits a library routine against an independent brute-force
computation at tiny sizes and reports pass/fail; a property that raises
fails.  `field-axioms` runs over GF(2), GF(3) and GF(5).
`decoder-optimality` and `profile-invariance` draw over GF(2) and then
GF(3), where a sign error shows: every decoded word must be a codeword,
and every canonical generator right-most-pivot reduced with unit pivots
and a witness that `validate_p_decomposition` accepts.
`radius-brackets` draws over GF(2) and then GF(3), where a Gray walk
stepping in base 2 shows: every antichain `min_distance` must equal the
least weight of the literal `Code.codewords` walk.
`neighbor-extremality` involves no field.  `degree-oracle-agreement`
and `isometry-group` stay at GF(2), where their oracles enumerate
every weight-preserving map; `weight-axioms` draws over GF(2) only as
well.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable

from . import oracle
from .budget import DEFAULT_BUDGET, BudgetExceededError
from .decomp import Profile, max_degree, maximal_p_decomposition, profile, validate_p_decomposition
from .decode import build_plan_for_code, build_table, decode_full, decode_leveled_alg1, decode_leveled_alg2, unproject_support
from .field import PrimeField
from .linear import (Code, Matrix, Vector, apply_map, min_distance, p_distance, p_weight,
                     row_kernel, row_reduce_inverse)
from .poset import Poset, leq_poset, lower_neighbor, upper_neighbor
from .radius import packing_radius_bounds, packing_radius_exact
from .randgen import random_code, random_invertible, random_poset


def _field_axioms() -> bool:
    # the packed kernel every computation runs, against residues mod p;
    # each row holds every residue once, so a carry across slots shows
    for p in (2, 3, 5):
        kernel = row_kernel(p, p)
        coords = [[(a + i) % p for i in range(p)] for a in range(p)]
        rows = [kernel.pack(x) for x in coords]
        for x, row in zip(coords, rows):
            for y, other in zip(coords, rows):
                if kernel.add(row, other) != kernel.pack([(s + t) % p for s, t in zip(x, y)]):
                    return False
            multiples = kernel.multiples(row)
            for c in range(1, p):
                scaled = kernel.scale(row, c)
                if not scaled == multiples[c] == kernel.pack([c * s % p for s in x]):
                    return False
                if kernel.scale(scaled, pow(c, -1, p)) != row:
                    return False
    return True


def _neighbor_extremality(budget: int) -> bool:
    # upper neighbor: minimal among hierarchical posets above; lower
    # neighbor: the maximum hierarchical poset below
    hier = list(oracle.enum_hierarchical(3, budget))
    for poset in oracle.enum_posets(3, budget):
        up = upper_neighbor(poset)
        lo = lower_neighbor(poset)
        if not (up.is_hierarchical() and lo.is_hierarchical()):
            return False
        if not (leq_poset(poset, up) and leq_poset(lo, poset)):
            return False
        for h in hier:
            if leq_poset(poset, h) and leq_poset(h, up) and h != up:
                return False
            if leq_poset(h, poset) and not leq_poset(h, lo):
                return False
    return True


def _degree_oracle_agreement(rng: random.Random, budget: int) -> bool:
    f2 = PrimeField(2)
    for poset in oracle.enum_posets(3, budget):
        for k in (1, 2):
            code = random_code(rng, f2, 3, k)
            if max_degree(code, poset) != oracle.brute_max_degree(code, poset, budget):
                return False
    return True


def _isometry_group(budget: int) -> bool:
    f2 = PrimeField(2)
    for poset in (
        Poset.chain(3),
        Poset.antichain(3),
        Poset.from_relations(3, [(1, 3)]),
    ):
        members = list(oracle.enum_gl_p(poset, 2, budget))
        strict = len(poset.relations())
        auts = len(list(oracle.enum_aut(poset, budget)))
        if len({m.matrix for m in members}) != (2 ** strict) * auts:
            return False
        if Matrix.identity(f2, 3) not in {m.matrix for m in members}:
            return False
        for iso in members:
            if not oracle.is_isometry(iso.matrix, poset, budget):
                return False
    return True


def _decoder_optimality(rng: random.Random, budget: int) -> bool:
    # every decoded word is a codeword at the least distance; GF(3)
    # shows a leader added where it should be subtracted, so its codes
    # are drawn with k < n and have nonzero syndromes
    f2, f3 = PrimeField(2), PrimeField(3)
    for field, max_n, max_k in ((f2, 6, 3),) * 4 + ((f3, 4, 2),) * 2:
        n = rng.randint(3, max_n)
        k = rng.randint(1, min(max_k, n))
        code = random_code(rng, field, n, k)
        poset = random_poset(rng, n)
        table = build_table(code, poset, budget)
        plan = build_plan_for_code(code, poset, budget)
        words = code.codeword_set(budget)
        comp_support = sorted(
            set().union(*(c.support() for c in plan.decomposition.components))
        )
        for coords in itertools.product(range(field.p), repeat=n):
            y = Vector(field, coords)
            best = min(p_distance(y, c, poset) for c in words)
            decoded = decode_full(table, y)
            if decoded not in words or p_distance(y, decoded, poset) != best:
                return False
        # optimality is proven for words whose image in the decomposed
        # domain avoids the pointer, so draw them there and carry them out
        for coords in itertools.product(range(field.p), repeat=len(comp_support)):
            y = apply_map(
                plan.from_decomposed, unproject_support(comp_support, n, Vector(field, coords))
            )
            best = min(p_distance(y, c, poset) for c in words)
            for decoded in (decode_leveled_alg1(plan, y), decode_leveled_alg2(plan, y)):
                if decoded not in words or p_distance(y, decoded, poset) != best:
                    return False
    return True


def _checked_profile(code: Code, poset: Poset) -> Profile | None:
    """The profile of the maximal decomposition, or None unless its
    generator is right-most-pivot reduced with unit pivots.  A witness
    that `validate_p_decomposition` rejects raises, which fails the
    property."""
    pd = maximal_p_decomposition(code, poset)
    validate_p_decomposition(pd, poset)
    gen = pd.decomposition.code.gen
    return profile(pd.decomposition) if row_reduce_inverse(gen) == gen else None


def _profile_invariance(rng: random.Random) -> bool:
    # GF(3) shows a sign slip in the canonical form that GF(2) hides
    for field, max_n, draws in ((PrimeField(2), 5, 10), (PrimeField(3), 4, 3)):
        for _ in range(draws):
            n = rng.randint(2, max_n)
            k = rng.randint(1, n)
            code = random_code(rng, field, n, k)
            poset = random_poset(rng, n)
            base = _checked_profile(code, poset)
            if base is None:
                return False
            scrambled = Code(random_invertible(rng, field, k) @ code.gen)
            alt = _checked_profile(scrambled, poset)
            if alt is None or not base.matches_up_to_order(alt):
                return False
            iso = oracle.random_reducing_isometry(poset, field.p, rng)
            if iso.rank() == n:
                alt = _checked_profile(Code(iso.apply_to_rows(code.gen)), poset)
                if alt is None or not base.matches_up_to_order(alt):
                    return False
    return True


def _radius_brackets(rng: random.Random, budget: int) -> bool:
    # GF(3) shows a Gray walk stepping in the wrong base, which GF(2)
    # hides; the literal codeword walk checks the antichain distance
    for field, max_n, max_k, draws in ((PrimeField(2), 6, 3, 6), (PrimeField(3), 5, 2, 3)):
        for _ in range(draws):
            n = rng.randint(2, max_n)
            k = rng.randint(1, min(max_k, n))
            code = random_code(rng, field, n, k)
            poset = random_poset(rng, n)
            bounds = packing_radius_bounds(code, poset, budget)
            if not bounds.lower <= bounds.exact <= bounds.upper:
                return False
            antichain = Poset.antichain(n)
            distance = min_distance(code, antichain, budget)
            words = (w for w in code.codewords(budget) if not w.is_zero())
            if distance != min(p_weight(w, antichain) for w in words):
                return False
            if packing_radius_exact(code, antichain, budget) != (distance - 1) // 2:
                return False
    return True


def _weight_is_a_weight(rng: random.Random) -> bool:
    f2 = PrimeField(2)
    for _ in range(5):
        n = rng.randint(2, 6)
        poset = random_poset(rng, n)
        vectors = [Vector(f2, coords) for coords in itertools.product(range(2), repeat=n)]
        for v in vectors:
            if (p_weight(v, poset) == 0) != v.is_zero():
                return False
            if p_weight(v, poset) != p_weight(-v, poset):
                return False
        for _ in range(40):
            u, v = rng.choice(vectors), rng.choice(vectors)
            if p_weight(u + v, poset) > p_weight(u, poset) + p_weight(v, poset):
                return False
    return True


def run_selftest(seed: int = 0, budget: int = DEFAULT_BUDGET) -> list[tuple[str, bool]]:
    """(name, passed) for every property, in order.  A property that
    raises fails; only a budget overrun propagates."""
    rng = random.Random(seed)
    checks: list[tuple[str, Callable[[], bool]]] = [
        ("field-axioms", _field_axioms),
        ("weight-axioms", lambda: _weight_is_a_weight(rng)),
        ("neighbor-extremality", lambda: _neighbor_extremality(budget)),
        ("degree-oracle-agreement", lambda: _degree_oracle_agreement(rng, budget)),
        ("isometry-group", lambda: _isometry_group(budget)),
        ("decoder-optimality", lambda: _decoder_optimality(rng, budget)),
        ("profile-invariance", lambda: _profile_invariance(rng)),
        ("radius-brackets", lambda: _radius_brackets(rng, budget)),
    ]
    results = []
    for name, fn in checks:
        try:
            passed = bool(fn())
        except BudgetExceededError:
            raise
        except Exception:
            passed = False
        results.append((name, passed))
    return results
