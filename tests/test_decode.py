import itertools
import random

import pytest

from conftest import (
    all_vectors,
    brute_nearest_distance,
    brute_weight,
    reference_decode_alg1,
    reference_decode_alg2,
    reference_decode_full,
    reference_leaders,
)
from posetcode.budget import BudgetExceededError
from posetcode.decomp import components_from_matrix, maximal_p_decomposition
from posetcode.decode import (
    build_plan,
    build_plan_for_code,
    build_table,
    decode_full,
    decode_leveled_alg1,
    decode_leveled_alg2,
    hierarchical_groups,
    independent_groups,
    parity_check,
    project,
    project_support,
    table_sizes,
    unproject_support,
)
from posetcode.field import PrimeField
from posetcode.linear import Code, Matrix, Vector, p_distance
from posetcode.poset import Poset
from posetcode.randgen import random_code, random_hierarchical_poset, random_poset

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


class TestParityCheck:
    def test_forced_single_check(self):
        h = parity_check(Code.from_rows(F2, [[1, 1]]))
        assert h.rows == ((1, 1),)

    def test_full_space_has_empty_parity(self):
        h = parity_check(Code.from_rows(F2, [[1, 0], [0, 1]]))
        assert h.k == 0 and h.n == 2

    def test_orthogonality_and_rank(self):
        rng = random.Random(1)
        for p in (2, 3):
            field = PrimeField(p)
            for _ in range(15):
                n = rng.randint(1, 6)
                k = rng.randint(1, n)
                code = random_code(rng, field, n, k)
                h = parity_check(code)
                assert h.k == n - k
                if h.k:
                    assert h.rank() == n - k
                product = code.gen @ h.transpose()
                assert all(all(c == 0 for c in row) for row in product.rows)


class TestSyndromeTable:
    def test_repetition_code_hamming_leaders(self):
        code = Code.from_rows(F2, [[1, 1, 1]])
        table = build_table(code, Poset.antichain(3))
        assert len(table.leaders) == 4
        assert all(sum(v.coords) <= 1 for v in table.leaders.values())

    def test_chain_leaders_minimize_top_of_support(self):
        code = Code.from_rows(F2, [[1, 1, 1]])
        table = build_table(code, Poset.chain(3))
        coset = {(1, 0, 0), (0, 1, 1)}
        syndrome = table.syndrome(Vector(F2, [1, 0, 0]))
        assert table.syndrome(Vector(F2, [0, 1, 1])) == syndrome
        assert table.leaders[syndrome].coords == (1, 0, 0)

    def test_full_space_single_leader(self):
        code = Code.from_rows(F2, [[1, 0], [0, 1]])
        table = build_table(code, Poset.antichain(2))
        assert dict(table.leaders) == {(): Vector(F2, [0, 0])}

    def test_rebuild_is_identical(self):
        rng = random.Random(2)
        code = random_code(rng, F2, 5, 2)
        p = random_poset(rng, 5)
        t1 = build_table(code, p)
        t2 = build_table(code, p)
        assert t1.leaders == t2.leaders and t1.parity == t2.parity

    def test_leaders_match_reference_enumeration(self):
        # the full table and every plan group table keep exactly the
        # leaders of a literal scan: same words, same insertion order
        rng = random.Random(10)
        for field, max_n in ((F2, 7), (F3, 5), (F5, 3)):
            for _ in range(4):
                n = rng.randint(2, max_n)
                code = random_code(rng, field, n, rng.randint(1, n))
                p = random_hierarchical_poset(rng, n) if rng.random() < 0.5 else random_poset(rng, n)
                table = build_table(code, p)
                expected = reference_leaders(code, lambda v: brute_weight(v, p))
                assert list(table.leaders.items()) == list(expected.items())
                for group in build_plan_for_code(code, p).groups:
                    support = list(group.support)
                    expected = reference_leaders(
                        group.code, lambda v: brute_weight(unproject_support(support, n, v), p)
                    )
                    assert list(group.table.leaders.items()) == list(expected.items())

    def test_budget(self):
        code = Code.from_rows(F2, [[1] + [0] * 11])
        with pytest.raises(BudgetExceededError):
            build_table(code, Poset.antichain(12), budget=100)


class TestProjection:
    def test_full_support_is_identity(self):
        code = Code.from_rows(F2, [[1, 1], [0, 1]])
        y = Vector(F2, [1, 0])
        assert project(code, y) == y

    def test_coordinate_selection(self):
        code = Code.from_rows(F2, [[1, 0, 0, 1]])
        y = Vector(F2, [1, 1, 0, 1])
        assert project(code, y).coords == (1, 1)

    def test_round_trip(self):
        support = [2, 5]
        v = Vector(F2, [1, 1])
        lifted = unproject_support(support, 5, v)
        assert lifted.coords == (0, 1, 0, 0, 1)
        assert project_support(support, lifted) == v


class TestGrouping:
    def test_antichain_components_all_independent(self):
        d = components_from_matrix(Matrix(F2, [[1, 1, 0, 0], [0, 0, 1, 1]]))
        groups = independent_groups(d, Poset.antichain(4))
        assert groups == ((0,), (1,))

    def test_intersecting_ideals_grouped(self):
        p = Poset.from_relations(6, [(1, 2), (3, 4), (4, 5)])
        d = components_from_matrix(
            Matrix(F2, [[0, 0, 0, 1, 0, 1], [1, 0, 0, 0, 1, 0], [0, 1, 0, 0, 0, 0]])
        )
        supports = [sorted(c.support()) for c in d.components]
        assert supports == [[4, 6], [1, 5], [2]]
        groups = independent_groups(d, p)
        # ideals of {4,6} and {1,5} share {3,4}; {2} shares 1 with {1,5}
        assert groups == ((0, 1, 2),)

    def test_single_component_one_group(self):
        d = components_from_matrix(Matrix(F2, [[1, 1, 1]]))
        assert independent_groups(d, Poset.chain(3)) == ((0,),)

    def test_hierarchical_levels_give_ordered_groups(self):
        p = Poset.hierarchical_from_levels([[1, 2], [3, 4]])
        d = components_from_matrix(Matrix(F2, [[0, 0, 1, 1], [1, 0, 0, 0]]))
        groups = hierarchical_groups(d, p)
        supports = [sorted(d.components[i].support()) for g in groups for i in g]
        assert groups == ((1,), (0,))
        assert supports == [[1], [3, 4]]

    def test_antichain_many_components_single_group(self):
        d = components_from_matrix(Matrix(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert hierarchical_groups(d, Poset.antichain(3)) == ((0, 1, 2),)

    def test_group_supports_are_hierarchically_related(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 7)
            k = rng.randint(1, n)
            code = random_code(rng, F2, n, k)
            p = random_poset(rng, n)
            d = maximal_p_decomposition(code, p).decomposition
            groups = hierarchical_groups(d, p)
            assert sorted(i for g in groups for i in g) == list(range(len(d.components)))
            for gi, gj in zip(groups, groups[1:]):
                lo = set().union(*(d.components[i].support() for i in gi))
                hi = set().union(*(d.components[j].support() for j in gj))
                assert all(p.strictly_less(a, b) for a in lo for b in hi)


class TestDecoding:
    def test_codewords_decode_to_themselves(self):
        rng = random.Random(4)
        for field, n in ((F2, 5), (F3, 5), (F5, 3)):
            code = random_code(rng, field, n, 2)
            p = random_poset(rng, n)
            table = build_table(code, p)
            plan = build_plan_for_code(code, p)
            for c in code.codewords():
                assert decode_full(table, c) == c
                assert decode_leveled_alg1(plan, c) == c
                assert decode_leveled_alg2(plan, c) == c

    def test_decoders_reject_words_of_another_field_or_length(self):
        code = Code.from_rows(F2, [[1, 1, 0], [0, 1, 1]])
        p = Poset.chain(3)
        table = build_table(code, p)
        plan = build_plan_for_code(code, p)
        decoders = (
            lambda y: decode_full(table, y),
            lambda y: decode_leveled_alg1(plan, y),
            lambda y: decode_leveled_alg2(plan, y),
        )
        for decode in decoders:
            with pytest.raises(ValueError, match="field mismatch"):
                decode(Vector(F3, [1, 2, 0]))
            with pytest.raises(ValueError, match="length"):
                decode(Vector(F2, [1, 0]))

    def test_single_hamming_error_corrected(self):
        code = Code.from_rows(F2, [[1, 1, 1]])
        table = build_table(code, Poset.antichain(3))
        assert decode_full(table, Vector(F2, [1, 1, 0])).coords == (1, 1, 1)

    def test_full_decoder_is_optimal_everywhere(self):
        rng = random.Random(5)
        for field, max_n in ((F2, 7), (F3, 5), (F5, 3)):
            for _ in range(10):
                n = rng.randint(2, max_n)
                k = rng.randint(1, min(4, n))
                code = random_code(rng, field, n, k)
                p = random_poset(rng, n)
                table = build_table(code, p)
                words = code.codeword_set()
                for y in all_vectors(field, n):
                    out = decode_full(table, y)
                    assert out in words
                    assert p_distance(y, out, p) == brute_nearest_distance(words, y, p)

    def test_leveled_decoders_optimal_without_pointer_content(self):
        # received words supported on the component supports of the
        # decomposed code: both leveled decoders attain the minimum
        rng = random.Random(6)
        for field, max_n in ((F2, 7), (F3, 5), (F5, 3)):
            for _ in range(12):
                n = rng.randint(2, max_n)
                k = rng.randint(1, min(4, n))
                code = random_code(rng, field, n, k)
                p = random_poset(rng, n)
                d = maximal_p_decomposition(code, p).decomposition
                plan = build_plan(d, p)
                words = d.code.codeword_set()
                comp_support = sorted(set().union(*(c.support() for c in d.components)))
                for coords in itertools.product(range(field.p), repeat=len(comp_support)):
                    y = unproject_support(comp_support, n, Vector(field, coords))
                    best = brute_nearest_distance(words, y, p)
                    o1 = decode_leveled_alg1(plan, y)
                    o2 = decode_leveled_alg2(plan, y)
                    assert o1 in words and o2 in words
                    assert p_distance(y, o1, p) == best
                    assert p_distance(y, o2, p) == best

    def test_plans_for_original_code_return_its_codewords(self):
        rng = random.Random(7)
        for field, max_n in ((F2, 6), (F3, 5), (F5, 3)):
            for _ in range(10):
                n = rng.randint(2, max_n)
                k = rng.randint(1, min(4, n))
                code = random_code(rng, field, n, k)
                p = random_poset(rng, n)
                plan = build_plan_for_code(code, p)
                words = code.codeword_set()
                for y in all_vectors(field, n):
                    assert decode_leveled_alg1(plan, y) in words
                    assert decode_leveled_alg2(plan, y) in words

    def test_decoders_match_reference(self):
        # every decoder returns the vector of the literal path, with and
        # without a witness, including groups whose table is the whole
        # space and has an empty parity matrix
        rng = random.Random(12)
        instances = []
        for field, max_n in ((F2, 7), (F3, 5), (F5, 3)):
            for _ in range(6):
                n = rng.randint(2, max_n)
                code = random_code(rng, field, n, rng.randint(1, min(4, n)))
                p = random_hierarchical_poset(rng, n) if rng.random() < 0.5 else random_poset(rng, n)
                instances.append((code, p))
            # a level of two coordinates over a full-space top level
            stacked = Poset.hierarchical_from_levels([[1, 2], [3]])
            instances.append((Code.from_rows(field, [[1, 1, 0], [0, 0, 1]]), stacked))
        empty_parity = 0
        for code, p in instances:
            table = build_table(code, p)
            d = maximal_p_decomposition(code, p).decomposition
            plans = (build_plan_for_code(code, p), build_plan(d, p))
            assert plans[1].to_decomposed is None
            empty_parity += sum(not g.table.parity.k for plan in plans for g in plan.groups)
            for y in all_vectors(code.field, code.n):
                assert decode_full(table, y) == reference_decode_full(table, y)
                for plan in plans:
                    assert decode_leveled_alg1(plan, y) == reference_decode_alg1(plan, y)
                    assert decode_leveled_alg2(plan, y) == reference_decode_alg2(plan, y)
        assert empty_parity

    def test_ordered_scan_keeps_valid_top_and_zeroes_below_error(self):
        # two stacked components, already decomposed (identity witness):
        # an error confined to the bottom level leaves the top block as
        # received and zeroes nothing above it
        p = Poset.hierarchical_from_levels([[1, 2], [3, 4]])
        code = Code.from_rows(F2, [[1, 1, 0, 0], [0, 0, 1, 1]])
        d = components_from_matrix(code.gen)
        plan = build_plan(d, p)
        y = Vector(F2, [1, 0, 1, 1])  # bottom block in error, top block valid
        out2 = decode_leveled_alg2(plan, y)
        assert out2.coords[2:] == (1, 1)
        # error in the top block: the scan stops there and zeroes the
        # bottom coordinates regardless of what was received
        y_top = Vector(F2, [1, 1, 1, 0])
        out_top = decode_leveled_alg2(plan, y_top)
        assert out_top.coords[:2] == (0, 0)
        out_top1 = decode_leveled_alg1(plan, y_top)
        assert p_distance(y_top, out_top, p) == p_distance(y_top, out_top1, p)

    def test_separable_distance_sum_when_ideals_disjoint(self):
        rng = random.Random(8)
        checked = 0
        while checked < 10:
            n = rng.randint(2, 6)
            k = rng.randint(1, min(4, n))
            code = random_code(rng, F2, n, k)
            p = random_poset(rng, n)
            d = maximal_p_decomposition(code, p).decomposition
            groups = independent_groups(d, p)
            if len(groups) < 2 or len(groups) != len(d.components):
                continue
            checked += 1
            words = d.code.codeword_set()
            comp_support = sorted(set().union(*(c.support() for c in d.components)))
            for coords in itertools.product(range(2), repeat=len(comp_support)):
                y = unproject_support(comp_support, n, Vector(F2, coords))
                total = brute_nearest_distance(words, y, p)
                parts = 0
                for comp in d.components:
                    supp = sorted(comp.support())
                    block = unproject_support(
                        supp, n, project_support(supp, y)
                    )
                    parts += brute_nearest_distance(comp.codeword_set(), block, p)
                assert total == parts


class TestTableSizes:
    def test_accounting_identity(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(2, 7)
            k = rng.randint(1, n)
            code = random_code(rng, F2, n, k)
            p = random_poset(rng, n)
            plan = build_plan_for_code(code, p)
            sizes = table_sizes(plan)
            q = 2
            n0 = len(plan.pointer_support)
            assert q**n0 * sizes["reduced"] == sizes["full"] == q ** (n - k)
            assert sizes["worst_single_lookup"] <= sizes["leveled_total"]
            group_sizes = [len(g.table.leaders) for g in plan.groups]
            assert sizes["leveled_total"] == sum(group_sizes)
            assert sizes["worst_single_lookup"] == max(group_sizes)

    def test_single_group_full_support_collapses_to_full(self):
        code = Code.from_rows(F2, [[1, 1, 0], [0, 1, 1]])
        plan = build_plan_for_code(code, Poset.antichain(3))
        sizes = table_sizes(plan)
        assert len(plan.groups) == 1 and not plan.pointer_support
        assert sizes["leveled_total"] == sizes["full"] == 2

    def test_degenerate_stacked_full_spaces_can_exceed_full(self):
        # the whole space under a chain splits into stacked trivial
        # groups, each storing one entry, while the single full table
        # stores q^0 = 1: the leveled total genuinely exceeds it
        code = Code.from_rows(F2, [[1, 0], [0, 1]])
        plan = build_plan_for_code(code, Poset.chain(2))
        sizes = table_sizes(plan)
        assert sizes["full"] == 1
        assert sizes["leveled_total"] == 2
