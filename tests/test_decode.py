import functools
import itertools
import random

import pytest

from conftest import (
    _reference_syndrome,
    all_vectors,
    brute_nearest_distance,
    brute_weight,
    reference_decode_alg1,
    reference_decode_alg2,
    reference_decode_full,
    reference_hierarchical_groups,
    reference_leaders,
)
from posetcode import decode as decode_module
from posetcode import oracle
from posetcode.budget import DEFAULT_BUDGET, BudgetExceededError
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
from posetcode.linear import Code, Matrix, RowKernel, Vector, p_distance
from posetcode.poset import Poset
from posetcode.randgen import random_code, random_hierarchical_poset, random_poset

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
F17 = PrimeField(17)


@functools.cache
def _chunk_boundary_instances():
    """(code, order, full table, plan with a witness, plan without) for
    word lengths that fill several chunk runs and end in a partial one:
    runs are 8 long over GF(2), 5 over GF(3), 3 over GF(5), 2 over
    GF(7) and 1 over GF(17)."""
    rng = random.Random(20)
    instances = []
    for field, n in ((F2, 9), (F2, 10), (F2, 11), (F2, 12), (F3, 6), (F3, 7), (F5, 4), (F7, 3),
                     (F17, 3)):
        code = random_code(rng, field, n, rng.randint(1, n - 1))
        p = random_hierarchical_poset(rng, n)
        bare = build_plan(maximal_p_decomposition(code, p).decomposition, p)
        instances.append((code, p, build_table(code, p), build_plan_for_code(code, p), bare))
    return instances


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

    def test_syndrome_packs_the_parity_columns_once_per_table(self, monkeypatch):
        # a full table and a plan's group table, which has no decoder
        calls = []
        packed_columns = decode_module._packed_columns
        monkeypatch.setattr(
            decode_module, "_packed_columns", lambda *args: calls.append(args) or packed_columns(*args)
        )
        code = Code.from_rows(F3, [[1, 2, 0, 0], [0, 0, 1, 1]])
        p = Poset.antichain(4)
        for table in (build_table(code, p), build_plan_for_code(code, p).groups[0].table):
            assert table.parity.k
            del calls[:]
            words = [Vector(F3, [1] * table.code.n), Vector(F3, [2] + [0] * (table.code.n - 1))]
            assert [table.syndrome(y) for y in words] == [
                _reference_syndrome(table.parity, y) for y in words
            ]
            assert len(calls) == 1

    def test_full_space_single_leader(self):
        # k = n leaves one syndrome and an empty parity matrix; at n = 1 the
        # head half of the leader scan is empty too
        for code, p in (
            (Code.from_rows(F2, [[1, 0], [0, 1]]), Poset.antichain(2)),
            (Code.from_rows(F3, [[1, 2, 0], [0, 1, 1], [0, 0, 2]]), Poset.chain(3)),
            (Code.from_rows(F3, [[2]]), Poset.antichain(1)),
        ):
            table = build_table(code, p)
            assert table.parity.k == 0
            assert dict(table.leaders) == {(): Vector(code.field, [0] * code.n)}

    def test_rebuild_is_identical(self):
        rng = random.Random(2)
        code = random_code(rng, F2, 5, 2)
        p = random_poset(rng, 5)
        t1 = build_table(code, p)
        t2 = build_table(code, p)
        assert t1.leaders == t2.leaders and t1.parity == t2.parity

    def test_leaders_match_reference_enumeration(self):
        # the full table and every plan group table keep exactly the
        # leaders of a literal scan: same words, same insertion order.  At
        # the longer lengths the leader scan often stops before its last
        # round, where a stop that ignored the weight bound would keep words
        # heavier than some leaders
        rng = random.Random(10)
        for field, max_n, count in ((F2, 7, 4), (F3, 5, 4), (F5, 3, 4), (F7, 3, 4),
                                    (F2, 9, 12), (F3, 6, 12)):
            for _ in range(count):
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

    def test_group_leaders_can_outweigh_the_group_length(self):
        # the top group's ideals reach the two elements below it, so its
        # words weigh up to 4 on 2 coordinates: the scan's bounds range over
        # the union sizes that occur, not over 0..n
        p = Poset.hierarchical_from_levels([[1, 2], [3, 4]])
        code = Code.from_rows(F3, [[1, 1, 0, 0], [0, 0, 1, 2]])
        plan = build_plan(components_from_matrix(code.gen), p)
        top = plan.groups[-1]
        assert top.support == (3, 4)
        weight = lambda v: brute_weight(unproject_support([3, 4], 4, v), p)
        expected = reference_leaders(top.code, weight)
        assert list(top.table.leaders.items()) == list(expected.items())
        assert max(map(weight, expected.values())) > len(top.support)

    def test_leader_scan_stops_at_the_weight_bound(self, monkeypatch):
        # the hierarchical GF(2) n=16 k=8 code of the decode-stream
        # benchmark: a scan of all 2^16 words makes 65,536 kernel adds for
        # the pairs alone, and no leader there weighs more than the bound
        # reached after a few thousand pairs
        rng = random.Random("posetcode-bench-catalog-1/decode/q2/n16/2")
        p = random_hierarchical_poset(rng, 16)
        code = random_code(rng, F2, 16, 8)
        calls = 0

        def counting_kernel(*shape):
            nonlocal calls
            kernel = RowKernel(*shape)
            add = kernel.add

            def counting_add(a, b):
                nonlocal calls
                calls += 1
                return add(a, b)

            kernel.add = counting_add
            return kernel

        monkeypatch.setattr(decode_module, "row_kernel", counting_kernel)
        ideals = decode_module._coordinate_ideals(p, range(1, 17))
        table = decode_module._build_table(code, ideals, DEFAULT_BUDGET)
        assert len(table.leaders) == 2**8
        assert 0 < calls < 5_000, calls

    def test_syndrome_of_each_leader_is_its_key(self):
        rng = random.Random(13)
        for field, max_n in ((F2, 7), (F3, 5), (F5, 3), (F7, 3)):
            for _ in range(4):
                n = rng.randint(2, max_n)
                code = random_code(rng, field, n, rng.randint(1, n))
                p = random_hierarchical_poset(rng, n)
                tables = [build_table(code, p)]
                tables += [g.table for g in build_plan_for_code(code, p).groups]
                for table in tables:
                    for s, leader in table.leaders.items():
                        assert table.syndrome(leader) == s

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

    def test_project_rejects_words_of_another_field_or_length(self):
        code = Code.from_rows(F2, [[1, 0, 1, 0]])
        with pytest.raises(ValueError, match="vector length 6 does not match code length 4"):
            project(code, Vector(F2, [1] * 6))
        with pytest.raises(ValueError, match="vector length 2 does not match code length 4"):
            project(code, Vector(F2, [1, 1]))
        with pytest.raises(ValueError, match="field mismatch"):
            project(code, Vector(F3, [1, 2, 0, 1]))

    def test_round_trip(self):
        support = [2, 5]
        v = Vector(F2, [1, 1])
        lifted = unproject_support(support, 5, v)
        assert lifted.coords == (0, 1, 0, 0, 1)
        assert project_support(support, lifted) == v

    def test_unproject_rejects_positions_that_do_not_fit_the_word(self):
        v = Vector(F2, [1, 1])
        for support, n, word, message in (
            ([0], 3, Vector(F2, [1]), r"positions \[0\] do not all lie in 1\.\.3"),
            ([5], 3, Vector(F2, [1]), r"positions \[5\] do not all lie in 1\.\.3"),
            ([1, 2, 3], 4, v, "3 positions for a word of length 2"),
            ([1], 3, v, "1 positions for a word of length 2"),
            ([1, 1], 3, Vector(F2, [1, 0]), r"positions \[1, 1\] repeat a position"),
        ):
            with pytest.raises(ValueError, match=message):
                unproject_support(support, n, word)

    def test_project_rejects_positions_outside_the_word_or_repeated(self):
        y = Vector(F2, [0, 0, 1])
        for support, message in (
            ([0], r"positions \[0\] do not all lie in 1\.\.3"),
            ([5], r"positions \[5\] do not all lie in 1\.\.3"),
            ([2, 2], r"positions \[2, 2\] repeat a position"),
        ):
            with pytest.raises(ValueError, match=message):
                project_support(support, y)


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

    def test_groupings_reject_a_poset_of_another_size(self):
        d = components_from_matrix(Matrix(F2, [[1, 1, 0, 1], [0, 0, 1, 0]]))
        for poset in (Poset.chain(3), Poset.chain(6)):
            for grouping in (hierarchical_groups, independent_groups):
                with pytest.raises(ValueError, match="does not match code length 4"):
                    grouping(d, poset)

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

    def test_hierarchical_groups_match_the_closed_quotient(self):
        rng = random.Random(12)
        deep = set()  # fields met with at least three groups
        for field in (F2, F3, F5):
            for t in range(40):
                n = rng.randint(3, 7)
                if t % 2:
                    # one or two components inside each level of a hierarchical order
                    p = random_hierarchical_poset(rng, n)
                    rows = []
                    for level in p.levels():
                        members = sorted(level)
                        cut = rng.randint(1, len(members))
                        for part in (members[:cut], members[cut:]):
                            if part:
                                rows.append([rng.randrange(1, field.p) if i + 1 in part else 0
                                             for i in range(n)])
                    d = components_from_matrix(Matrix(field, rows))
                else:
                    p = random_poset(rng, n)
                    code = random_code(rng, field, n, rng.randint(1, n))
                    d = maximal_p_decomposition(code, p).decomposition
                groups = hierarchical_groups(d, p)
                assert groups == reference_hierarchical_groups(d, p)
                if len(groups) >= 3:
                    deep.add(field.p)
        assert deep == {2, 3, 5}


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
        # the builders reject an order on another ground set
        mismatch = "poset ground set 4 does not match code length 3"
        with pytest.raises(ValueError, match=mismatch):
            build_table(code, Poset.chain(4))
        with pytest.raises(ValueError, match=mismatch):
            build_plan(components_from_matrix(code.gen), Poset.chain(4))

    def test_build_plan_rejects_a_witness_of_another_size_or_field(self):
        code = Code.from_rows(F2, [[1, 1, 0, 0], [0, 0, 1, 1]])
        p = Poset.chain(4)
        d = maximal_p_decomposition(code, p).decomposition
        for witness in (Matrix.identity(F2, 3), Matrix.identity(F2, 5), Matrix.identity(F3, 4)):
            with pytest.raises(ValueError, match=r"witness must be a 4 x 4 matrix over GF\(2\)"):
                build_plan(d, p, witness=witness)
        singular = Matrix(F2, [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        with pytest.raises(ValueError, match="matrix is singular"):
            build_plan(d, p, witness=singular)

    def test_group_tables_decode_through_their_plan(self):
        code = Code.from_rows(F3, [[1, 2, 0, 0], [0, 0, 1, 1]])
        plan = build_plan_for_code(code, Poset.chain(4))
        table = plan.groups[0].table
        with pytest.raises(ValueError, match="a plan's group table decodes through its plan"):
            decode_full(table, Vector(F3, [1] * table.code.n))

    def test_a_table_and_a_plan_each_build_one_accumulator(self, monkeypatch):
        # the leader scans build no accumulator; one stacked map is made
        # per full table and per plan, however many groups it has
        calls = []
        chunk_tables = decode_module._chunk_tables
        monkeypatch.setattr(
            decode_module, "_chunk_tables", lambda *args: calls.append(args) or chunk_tables(*args)
        )
        rng = random.Random(21)
        for field, n in ((F2, 10), (F3, 6)):
            code = random_code(rng, field, n, n // 2)
            p = Poset.chain(n)
            build_table(code, p)
            assert len(calls) == 1
            plan = build_plan_for_code(code, p)
            assert len(plan.groups) == n // 2 and len(calls) == 2
            del calls[:]

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
        for field, max_n in ((F2, 7), (F3, 5), (F5, 3), (F7, 3)):
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

    def test_every_word_decodes_as_the_reference_at_tiny_n(self):
        # all q^n received words, all three decoders, on hierarchical
        # posets: plans with a witness that is not the identity and
        # plans without one, groups whose table is the whole space, and
        # full tables of the whole space (k = n)
        rng = random.Random(14)
        seen = dict.fromkeys(("witness", "no witness", "empty parity", "k = n"), 0)
        for field, n in ((F2, 5), (F3, 4), (F5, 3), (F7, 3)):
            identity = Matrix.identity(field, n)
            for k in [n, *(rng.randint(1, n - 1) for _ in range(5))]:
                code = random_code(rng, field, n, k)
                p = random_hierarchical_poset(rng, n)
                table = build_table(code, p)
                plan = build_plan_for_code(code, p)
                bare = build_plan(maximal_p_decomposition(code, p).decomposition, p)
                seen["witness"] += plan.to_decomposed != identity
                seen["no witness"] += bare.to_decomposed is None
                seen["empty parity"] += sum(not g.table.parity.k for g in bare.groups)
                seen["k = n"] += not table.parity.k
                for y in all_vectors(field, n):
                    assert decode_full(table, y) == reference_decode_full(table, y)
                    for pl in (plan, bare):
                        assert decode_leveled_alg1(pl, y) == reference_decode_alg1(pl, y)
                        assert decode_leveled_alg2(pl, y) == reference_decode_alg2(pl, y)
        assert all(seen.values()), seen

    def test_random_words_decode_as_the_reference_beyond_exhaustive_sizes(self):
        # n from 9 to 12, too many words to try them all: levels of at
        # most three coordinates, one component inside each level, moved
        # off the decomposition by a reducing isometry so the plan
        # carries a witness
        rng = random.Random(18)
        deep = 0  # plans with three or more groups and a witness that moves words
        for field in (F2, F3, F5):
            for _ in range(2):
                n = rng.randint(9, 12)
                elements, levels = rng.sample(range(1, n + 1), n), []
                while elements:
                    levels.append(elements[:rng.choice((2, 3))])
                    del elements[:len(levels[-1])]
                p = Poset.hierarchical_from_levels(levels)
                rows = []
                for level in levels:
                    part = rng.sample(level, rng.randint(1, len(level)))
                    rows.append([rng.randrange(1, field.p) if i + 1 in part else 0
                                 for i in range(n)])
                iso = oracle.random_reducing_isometry(p, field.p, rng)
                plan = build_plan_for_code(Code(iso.apply_to_rows(Matrix(field, rows))), p)
                deep += len(plan.groups) >= 3 and plan.to_decomposed != Matrix.identity(field, n)
                for _ in range(200):
                    y = Vector(field, [rng.randrange(field.p) for _ in range(n)])
                    assert decode_leveled_alg1(plan, y) == reference_decode_alg1(plan, y)
                    assert decode_leveled_alg2(plan, y) == reference_decode_alg2(plan, y)
        assert deep

    def test_every_word_decodes_as_the_reference_across_chunk_boundaries(self):
        # all q^n words, all three decoders, with and without a witness;
        # the syndrome read by the table is the literal H y
        moved = 0  # plans whose witness is not the identity
        for code, p, table, plan, bare in _chunk_boundary_instances():
            moved += plan.to_decomposed != Matrix.identity(code.field, code.n)
            assert bare.to_decomposed is None
            for y in all_vectors(code.field, code.n):
                assert table.syndrome(y) == _reference_syndrome(table.parity, y)
                assert decode_full(table, y) == reference_decode_full(table, y)
                for pl in (plan, bare):
                    assert decode_leveled_alg1(pl, y) == reference_decode_alg1(pl, y)
                    assert decode_leveled_alg2(pl, y) == reference_decode_alg2(pl, y)
        assert moved

    def test_decoded_words_are_reduced_immutable_vectors(self):
        for code, p, table, plan, bare in _chunk_boundary_instances():
            field = code.field
            decoders = (
                functools.partial(decode_full, table),
                functools.partial(decode_leveled_alg1, plan),
                functools.partial(decode_leveled_alg2, plan),
                functools.partial(decode_leveled_alg1, bare),
                functools.partial(decode_leveled_alg2, bare),
            )
            for y in all_vectors(field, code.n):
                for decode in decoders:
                    out = decode(y)
                    assert type(out) is Vector and out.field == field
                    assert type(out.coords) is tuple and len(out.coords) == code.n
                    assert all(type(c) is int and 0 <= c < field.p for c in out.coords)
                    literal = Vector(field, out.coords)
                    assert out == literal and hash(out) == hash(literal)
                    with pytest.raises(AttributeError):
                        out.coords = ()

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
