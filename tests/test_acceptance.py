"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them on success).

All tolerances are exact integer equalities.  Seeds are fixed constants
so every run exercises the same instances.
"""

import itertools
import random

import pytest

from conftest import all_vectors, brute_nearest_distance
from posetcode import oracle
from posetcode.decomp import (
    components_from_matrix,
    degree,
    is_p_canonical,
    max_degree,
    maximal_p_decomposition,
    profile,
)
from posetcode.decode import (
    build_plan_for_code,
    build_table,
    decode_full,
    decode_leveled_alg1,
    decode_leveled_alg2,
    table_sizes,
)
from posetcode.field import PrimeField
from posetcode.linear import (
    Code,
    Matrix,
    apply_map,
    invert_matrix,
    is_generalized_rref,
    min_distance,
    p_distance,
    p_weight,
    row_reduce_inverse,
)
from posetcode.poset import Poset, leq_poset, lower_neighbor, upper_neighbor
from posetcode.radius import packing_radius_bounds, packing_radius_exact
from posetcode.randgen import (
    random_code,
    random_hierarchical_poset,
    random_invertible,
    random_poset,
)

F2 = PrimeField(2)

# published 3x5 reduction example
G_FIVE = Matrix(F2, [[1, 0, 1, 1, 0], [1, 1, 0, 1, 1], [0, 1, 0, 1, 1]])
G_FIVE_REDUCED = ((0, 1, 1, 0, 1), (0, 0, 1, 1, 0), (1, 0, 0, 0, 0))
G_FIVE_CLASSICAL = Matrix(F2, [[1, 0, 0, 0, 0], [0, 1, 0, 1, 1], [0, 0, 1, 1, 0]])

# published 3x6 canonicalization example and its two orders
G_SIX = Matrix(F2, [[0, 0, 1, 1, 0, 1], [1, 0, 1, 1, 1, 0], [1, 1, 0, 0, 0, 0]])
ORDER_A = Poset.from_relations(6, [(1, 2), (3, 4)])
ORDER_B = Poset.from_relations(6, [(1, 2), (3, 4), (4, 5)])


def _report(num: int, ok: bool, detail: str = "") -> bool:
    tail = f" - {detail}" if detail else ""
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def test_criterion_01_inverse_echelon_fixture():
    reduced = row_reduce_inverse(G_FIVE)
    ok = reduced.rows == G_FIVE_REDUCED and is_generalized_rref(reduced)
    assert _report(1, ok, "right-most-pivot reduction is bit-exact")


def test_criterion_02_component_fixture():
    expected_first = {
        frozenset({(0, 0, 0, 0, 0), (0, 1, 0, 1, 1), (0, 0, 1, 1, 0), (0, 1, 1, 0, 1)}),
        frozenset({(0, 0, 0, 0, 0), (1, 0, 0, 0, 0)}),
    }
    expected_second = {
        frozenset({(0, 0, 0, 0, 0), (0, 1, 1, 0, 1), (0, 0, 1, 1, 0), (0, 1, 0, 1, 1)}),
        frozenset({(0, 0, 0, 0, 0), (1, 0, 0, 0, 0)}),
    }
    got_first = {
        frozenset(v.coords for v in comp.codewords())
        for comp in components_from_matrix(G_FIVE_CLASSICAL).components
    }
    got_second = {
        frozenset(v.coords for v in comp.codewords())
        for comp in components_from_matrix(Matrix(F2, G_FIVE_REDUCED)).components
    }
    ok = got_first == expected_first and got_second == expected_second
    assert _report(2, ok, "component codeword sets match the printed codes")


def test_criterion_03_canonicalization_fixture():
    code = Code(G_SIX)
    pd_a = maximal_p_decomposition(code, ORDER_A)
    ok = is_p_canonical(pd_a.decomposition.code.gen, ORDER_A)
    ok = ok and list(profile(pd_a.decomposition)) == [(1, 1), (4, 2), (1, 1)]
    ok = ok and degree(pd_a) == 2
    pd_b = maximal_p_decomposition(code, ORDER_B)
    ok = ok and is_p_canonical(pd_b.decomposition.code.gen, ORDER_B)
    ok = ok and list(profile(pd_b.decomposition)) == [(1, 1), (2, 1), (2, 1), (1, 1)]
    ok = ok and degree(pd_b) == 3
    assert _report(3, ok, "profiles (1,1),(4,2),(1,1) / degree 2 and (1,1),(2,1),(2,1),(1,1) / degree 3")


def test_criterion_04_isometry_fixture():
    star = Poset.from_relations(4, [(1, 4), (2, 4), (3, 4)])
    t = Matrix(F2, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]])
    ok = oracle.is_isometry(t, star)
    code = Code.from_rows(F2, [[1, 0, 0, 1]])
    image = {apply_map(t, v).coords for v in code.codewords()}
    ok = ok and image == {(0, 0, 0, 0), (0, 1, 1, 1)}
    other = Code.from_rows(F2, [[0, 1, 1, 1]])
    p1 = profile(maximal_p_decomposition(code, star).decomposition)
    p2 = profile(maximal_p_decomposition(other, star).decomposition)
    ok = ok and p1.matches_up_to_order(p2)
    assert _report(4, ok, "map accepted, codes exchanged, equal profiles")


def test_criterion_05_profile_uniqueness():
    rng = random.Random(2031)
    failures = 0
    for _ in range(200):
        n = rng.randint(2, 8)
        k = rng.randint(1, n)
        code = random_code(rng, F2, n, k)
        poset = random_poset(rng, n)
        base = profile(maximal_p_decomposition(code, poset).decomposition)
        if n <= 4:
            members = [iso.matrix for iso in oracle.enum_gl_p(poset, 2)]
            t = members[rng.randrange(len(members))]
            moved = Code(t.apply_to_rows(code.gen))
        else:
            moved = Code(random_invertible(rng, F2, k) @ code.gen)
        alt = profile(maximal_p_decomposition(moved, poset).decomposition)
        if not base.matches_up_to_order(alt):
            failures += 1
    assert _report(5, failures == 0, f"{failures} of 200 instances changed profile")


def test_criterion_06_degree_matches_brute_force():
    rng = random.Random(2032)
    checked = mismatches = 0
    for n in (2, 3):
        for poset in oracle.enum_posets(n):
            for _ in range(2):
                code = random_code(rng, F2, n, rng.randint(1, n))
                checked += 1
                if max_degree(code, poset) != oracle.brute_max_degree(code, poset):
                    mismatches += 1
    posets4 = list(oracle.enum_posets(4))
    rng.shuffle(posets4)
    for poset in posets4[:30]:
        code = random_code(rng, F2, 4, rng.randint(1, 3))
        checked += 1
        if max_degree(code, poset) != oracle.brute_max_degree(code, poset):
            mismatches += 1
    for _ in range(5):
        poset = random_poset(rng, 5, density=0.3)
        code = random_code(rng, F2, 5, rng.randint(1, 4))
        checked += 1
        if max_degree(code, poset) != oracle.brute_max_degree(code, poset):
            mismatches += 1
    ok = mismatches == 0 and checked >= 55
    assert _report(6, ok, f"{checked} instances, {mismatches} mismatches")


def test_criterion_07_degree_monotonicity_and_brackets():
    # the second clause follows the direction forced by the first:
    # lower_neighbor(P) <= P <= upper_neighbor(P), and the degree is
    # monotone along the poset order
    rng = random.Random(2033)
    violations = 0
    done = 0
    while done < 200:
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        code = random_code(rng, F2, n, k)
        poset = random_poset(rng, n, density=0.25)
        extra = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
        rng.shuffle(extra)
        bigger = None
        for a, b in extra:
            try:
                bigger = Poset.from_relations(n, list(poset.relations()) + [(a, b)])
                break
            except ValueError:
                continue
        if bigger is None:
            continue
        done += 1
        d = max_degree(code, poset)
        if leq_poset(poset, bigger) and not d <= max_degree(code, bigger):
            violations += 1
        if not (
            max_degree(code, lower_neighbor(poset))
            <= d
            <= max_degree(code, upper_neighbor(poset))
        ):
            violations += 1
    assert _report(7, violations == 0, f"{violations} violations over 200 instances")


def test_criterion_08_neighbor_correctness():
    failures = 0
    checked = 0

    def check(poset, hier):
        nonlocal failures, checked
        checked += 1
        up, lo = upper_neighbor(poset), lower_neighbor(poset)
        if not (up.is_hierarchical() and lo.is_hierarchical()):
            failures += 1
            return
        if not (leq_poset(poset, up) and leq_poset(lo, poset)):
            failures += 1
            return
        for h in hier:
            # up is minimal above (no hierarchical order strictly between);
            # lo is the maximum below
            if leq_poset(poset, h) and leq_poset(h, up) and h != up:
                failures += 1
                return
            if leq_poset(h, poset) and not leq_poset(h, lo):
                failures += 1
                return

    for n in (1, 2, 3, 4):
        hier = list(oracle.enum_hierarchical(n))
        for poset in oracle.enum_posets(n):
            check(poset, hier)
    rng = random.Random(2034)
    hier5 = list(oracle.enum_hierarchical(5))
    for _ in range(100):
        check(random_poset(rng, 5), hier5)
    assert _report(8, failures == 0, f"{checked} posets checked, {failures} failures")


def test_criterion_09_packing_radius():
    rng = random.Random(2035)
    failures = 0
    for _ in range(100):
        n = rng.randint(2, 10)
        k = rng.randint(1, min(6, n))
        code = random_code(rng, F2, n, k)
        anti = Poset.antichain(n)
        if packing_radius_exact(code, anti) != (min_distance(code, anti) - 1) // 2:
            failures += 1
    for _ in range(50):
        n = rng.randint(2, 10)
        k = rng.randint(1, min(6, n))
        code = random_code(rng, F2, n, k)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        chain = Poset.chain(n, order=order)
        if packing_radius_exact(code, chain) != min_distance(code, chain) - 1:
            failures += 1
    for _ in range(100):
        n = rng.randint(2, 9)
        k = rng.randint(1, min(5, n))
        code = random_code(rng, F2, n, k)
        poset = random_poset(rng, n)
        b = packing_radius_bounds(code, poset)
        if not b.lower <= b.exact <= b.upper:
            failures += 1
    for _ in range(40):
        n = rng.randint(2, 8)
        k = rng.randint(1, min(5, n))
        code = random_code(rng, F2, n, k)
        poset = random_hierarchical_poset(rng, n)
        b = packing_radius_bounds(code, poset)
        if not b.lower == b.exact == b.upper:
            failures += 1
    assert _report(9, failures == 0, f"{failures} failures across closed forms and brackets")


@pytest.fixture(scope="module")
def decoder_instances():
    rng = random.Random(20260810)
    out = []
    for _ in range(30):
        n = rng.randint(2, 10)
        k = rng.randint(1, min(6, n))
        code = random_code(rng, F2, n, k)
        poset = random_poset(rng, n)
        out.append((code, poset))
    return out


def test_criterion_10_decoder_optimality(decoder_instances):
    bad_instances = []
    first_example = None
    for idx, (code, poset) in enumerate(decoder_instances):
        table = build_table(code, poset)
        plan = build_plan_for_code(code, poset)
        words = code.codeword_set()
        bad_here = 0
        for y in all_vectors(F2, code.n):
            best = brute_nearest_distance(words, y, poset)
            d_full = p_distance(y, decode_full(table, y), poset)
            d_1 = p_distance(y, decode_leveled_alg1(plan, y), poset)
            d_2 = p_distance(y, decode_leveled_alg2(plan, y), poset)
            if not (d_full == best and d_1 == best and d_2 == best and d_1 == d_full):
                bad_here += 1
                if first_example is None:
                    first_example = (idx, y.coords, best, d_full, d_1, d_2)
        if bad_here:
            bad_instances.append((idx, bad_here))
    ok = not bad_instances
    detail = "all decoders optimal on every received word"
    if not ok:
        detail = (
            f"{len(bad_instances)} of 30 instances have received words where the leveled "
            f"decoders miss the minimum (first: instance {first_example[0]}, "
            f"y={first_example[1]}, min={first_example[2]}, full={first_example[3]}, "
            f"alg1={first_example[4]}, alg2={first_example[5]}); the full-table decoder "
            "never misses.  Received words with noise on dropped (pointer) coordinates "
            "whose ideals meet component ideals admit no per-group table that is optimal "
            "for every such word."
        )
    assert _report(10, ok, detail)


def test_criterion_11_table_accounting(decoder_instances):
    identity_failures = 0
    bound_failures = 0
    equality_failures = 0
    for code, poset in decoder_instances:
        plan = build_plan_for_code(code, poset)
        sizes = table_sizes(plan)
        q, n, k = code.q, code.n, code.k
        n0 = len(plan.pointer_support)
        if q**n0 * sizes["reduced"] != q ** (n - k) or sizes["full"] != q ** (n - k):
            identity_failures += 1
        if not sizes["leveled_total"] <= sizes["full"]:
            bound_failures += 1
        is_equal = sizes["leveled_total"] == sizes["full"]
        expect_equal = len(plan.groups) == 1 and n0 == 0
        if is_equal != expect_equal:
            equality_failures += 1
    ok = identity_failures == 0 and bound_failures == 0 and equality_failures == 0
    detail = "storage identity, bound and equality characterization hold"
    if not ok:
        detail = (
            f"identity failures: {identity_failures}, leveled_total<=full failures: "
            f"{bound_failures}, equality-characterization failures: {equality_failures} "
            "(stacked groups of full-space components store one entry each, so their sum "
            "can reach or exceed the single full-table count)"
        )
    assert _report(11, ok, detail)


def test_criterion_12_isometry_group_enumeration():
    failures = 0
    rng = random.Random(2036)
    f2 = F2
    for n in (1, 2, 3, 4):
        posets = list(oracle.enum_posets(n))
        closure_sample = posets if n <= 3 else rng.sample(posets, 15)
        closure_ids = {id(p) for p in closure_sample}
        for poset in posets:
            members = [iso.matrix for iso in oracle.enum_gl_p(poset, 2)]
            unique = set(members)
            strict = len(poset.relations())
            auts = len(list(oracle.enum_aut(poset)))
            if len(unique) != 2**strict * auts:
                failures += 1
                continue
            if Matrix.identity(f2, n) not in unique:
                failures += 1
                continue
            # every vector's weight against its image's, one product per member
            vectors = all_vectors(f2, n)
            block = Matrix(f2, [v.coords for v in vectors])
            weights = [p_weight(v, poset) for v in vectors]
            for m in unique:
                images = m.apply_to_rows(block).row_vectors()
                if [p_weight(w, poset) for w in images] != weights:
                    failures += 1
                    break
            if id(poset) in closure_ids:
                for a in unique:
                    if invert_matrix(a) not in unique:
                        failures += 1
                        break
                pairs = itertools.product(unique, repeat=2)
                if any((a @ b) not in unique for a, b in pairs):
                    failures += 1
    assert _report(12, failures == 0, f"{failures} group-structure failures")
