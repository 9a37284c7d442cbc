import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ReferenceCanonicalizer, reference_canonical_form, reference_coset_reduce
from posetcode import decomp, oracle
from posetcode.field import PrimeField
from posetcode.linear import Code, Matrix, is_generalized_rref, row_reduce_inverse
from posetcode.decomp import (
    Decomposition,
    PDecomposition,
    PointedPartition,
    canonical_form,
    components_from_matrix,
    degree,
    is_p_canonical,
    is_partition_refinement,
    max_degree,
    maximal_p_decomposition,
    profile,
    validate_p_decomposition,
    witness_in_reducing_group,
)
from posetcode.poset import Poset, leq_poset, lower_neighbor, upper_neighbor
from posetcode.randgen import (
    random_code,
    random_hierarchical_poset,
    random_invertible,
    random_poset,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)

# 3x6 binary generator with published canonical forms under two orders
SIX_COL_G = Matrix(F2, [[0, 0, 1, 1, 0, 1], [1, 0, 1, 1, 1, 0], [1, 1, 0, 0, 0, 0]])
ORDER_A = Poset.from_relations(6, [(1, 2), (3, 4)])
ORDER_B = Poset.from_relations(6, [(1, 2), (3, 4), (4, 5)])
CANONICAL_A = ((0, 0, 0, 1, 0, 1), (1, 0, 0, 1, 1, 0), (0, 1, 0, 0, 0, 0))
CANONICAL_B = ((0, 0, 0, 1, 0, 1), (1, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 0))

# 3x5 matrices generating one code in two echelon presentations
FIVE_COL_CLASSICAL = Matrix(F2, [[1, 0, 0, 0, 0], [0, 1, 0, 1, 1], [0, 0, 1, 1, 0]])
FIVE_COL_INVERSE = Matrix(F2, [[0, 1, 1, 0, 1], [0, 0, 1, 1, 0], [1, 0, 0, 0, 0]])


def pp(n, pointer, parts):
    return PointedPartition(n, frozenset(pointer), tuple(frozenset(p) for p in parts))


class TestPointedPartition:
    def test_validation(self):
        pp(4, [1, 3], [[2], [4]])
        with pytest.raises(ValueError):
            pp(4, [1], [[2], [4]])  # 3 missing
        with pytest.raises(ValueError):
            pp(4, [1], [[2, 3], [3, 4]])  # overlap
        with pytest.raises(ValueError):
            pp(4, [1], [[2, 3, 4], []])  # empty part

    def test_refinement_examples(self):
        coarse = pp(4, [], [[1, 2, 3, 4]])
        fine = pp(4, [1, 3], [[2], [4]])
        assert is_partition_refinement(fine, coarse)
        assert is_partition_refinement(coarse, coarse)
        assert not is_partition_refinement(pp(2, [], [[1, 2]]), pp(2, [1], [[2]]))

    def test_whole_part_cannot_vanish_into_pointer(self):
        # moves into the pointer go one element at a time and must leave
        # their source part nonempty, so a part can never be absorbed
        coarse = pp(2, [], [[1], [2]])
        fine = pp(2, [1], [[2]])
        assert not is_partition_refinement(fine, coarse)

    def test_refinement_matches_step_reachability(self):
        n = 4
        partitions = list(_all_pointed_partitions(n))
        reach = {p: {p} for p in partitions}
        for p in partitions:
            for q in _one_step_refinements(p):
                reach[p].add(q)
        # transitive closure over 1-step moves
        changed = True
        while changed:
            changed = False
            for p in partitions:
                new = set()
                for q in reach[p]:
                    new |= reach[q]
                if not new <= reach[p]:
                    reach[p] |= new
                    changed = True
        for coarse in partitions:
            for fine in partitions:
                assert is_partition_refinement(fine, coarse) == (fine in reach[coarse])

    def test_ground_set_mismatch(self):
        with pytest.raises(ValueError):
            is_partition_refinement(pp(2, [], [[1, 2]]), pp(3, [], [[1, 2, 3]]))


def _all_pointed_partitions(n):
    def parts_of(elems):
        elems = list(elems)
        if not elems:
            yield []
            return
        first, rest = elems[0], elems[1:]
        for size in range(len(rest) + 1):
            for others in itertools.combinations(rest, size):
                block = frozenset((first,) + others)
                remaining = [x for x in rest if x not in others]
                for tail in parts_of(remaining):
                    yield [block] + tail

    universe = list(range(1, n + 1))
    for psize in range(n + 1):
        for pointer in itertools.combinations(universe, psize):
            rest = [x for x in universe if x not in pointer]
            for blocks in parts_of(rest):
                yield PointedPartition(n, frozenset(pointer), tuple(sorted(blocks, key=sorted)))


def _one_step_refinements(p: PointedPartition):
    for i, part in enumerate(p.parts):
        others = p.parts[:i] + p.parts[i + 1 :]
        if len(part) >= 2:
            elems = sorted(part)
            for size in range(1, len(elems)):
                for sub in itertools.combinations(elems, size):
                    a, b = frozenset(sub), part - frozenset(sub)
                    yield PointedPartition(
                        p.n, p.pointer, tuple(sorted(others + (a, b), key=sorted))
                    )
            for x in elems:
                yield PointedPartition(
                    p.n,
                    p.pointer | {x},
                    tuple(sorted(others + (part - {x},), key=sorted)),
                )


class TestComponents:
    def test_matches_printed_component_codes(self):
        d = components_from_matrix(FIVE_COL_CLASSICAL)
        sets = {frozenset(v.coords for v in comp.codewords()) for comp in d.components}
        assert sets == {
            frozenset({(0, 0, 0, 0, 0), (0, 1, 0, 1, 1), (0, 0, 1, 1, 0), (0, 1, 1, 0, 1)}),
            frozenset({(0, 0, 0, 0, 0), (1, 0, 0, 0, 0)}),
        }
        assert d.pointer_support == frozenset()

        d2 = components_from_matrix(FIVE_COL_INVERSE)
        sets2 = {frozenset(v.coords for v in comp.codewords()) for comp in d2.components}
        assert sets2 == {
            frozenset({(0, 0, 0, 0, 0), (0, 1, 1, 0, 1), (0, 0, 1, 1, 0), (0, 1, 0, 1, 1)}),
            frozenset({(0, 0, 0, 0, 0), (1, 0, 0, 0, 0)}),
        }

    def test_shared_column_keeps_rows_together(self):
        g = Matrix(F2, [[1, 1, 0], [1, 0, 1]])
        d = components_from_matrix(g)
        assert len(d.components) == 1

    def test_rank_deficiency_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            components_from_matrix(Matrix(F2, [[1, 0], [1, 0]]))

    def test_zero_row_reports_the_rank_of_the_whole_generator(self):
        message = "rank deficiency: generator has rank 1 < 2 rows"
        with pytest.raises(ValueError) as err:
            components_from_matrix(Matrix(F2, [[1, 0], [0, 0]]))
        assert str(err.value) == message

    def test_hand_built_decomposition_must_partition_the_coordinates(self):
        code = Code.from_rows(F2, [[1, 1, 0, 0], [0, 0, 1, 0]])
        first = Code.from_rows(F2, [[1, 1, 0, 0]])
        Decomposition(code, (first, Code.from_rows(F2, [[0, 0, 1, 0]])), frozenset({4}))
        shared = Code.from_rows(F2, [[0, 1, 1, 0]])
        with pytest.raises(ValueError, match="disjoint"):
            Decomposition(code, (first, shared), frozenset({4}))
        with pytest.raises(ValueError, match="disjoint"):
            Decomposition(code, (first,), frozenset({2, 3, 4}))
        with pytest.raises(ValueError, match="partition"):
            Decomposition(code, (first,), frozenset({4}))

    def test_null_columns_become_pointer(self):
        g = Matrix(F2, [[1, 0, 0, 1]])
        d = components_from_matrix(g)
        assert d.pointer_support == frozenset({2, 3})


class TestCanonicalForm:
    def test_first_order_fixture(self):
        gstar, witness = canonical_form(SIX_COL_G, ORDER_A)
        assert gstar.rows == CANONICAL_A
        assert is_p_canonical(gstar, ORDER_A)
        pd = maximal_p_decomposition(Code(SIX_COL_G), ORDER_A)
        assert list(profile(pd.decomposition)) == [(1, 1), (4, 2), (1, 1)]
        assert degree(pd) == 2
        validate_p_decomposition(pd, ORDER_A)

    def test_second_order_fixture(self):
        gstar, witness = canonical_form(SIX_COL_G, ORDER_B)
        assert gstar.rows == CANONICAL_B
        assert is_p_canonical(gstar, ORDER_B)
        pd = maximal_p_decomposition(Code(SIX_COL_G), ORDER_B)
        assert list(profile(pd.decomposition)) == [(1, 1), (2, 1), (2, 1), (1, 1)]
        assert degree(pd) == 3
        validate_p_decomposition(pd, ORDER_B)

    def test_fixture_degrees_are_the_brute_force_maxima(self):
        code = Code(SIX_COL_G)
        assert max_degree(code, ORDER_A) == oracle.brute_max_degree(code, ORDER_A)
        assert max_degree(code, ORDER_B) == oracle.brute_max_degree(code, ORDER_B)

    def test_antichain_reduces_rows_only(self):
        anti = Poset.antichain(6)
        gstar, witness = canonical_form(SIX_COL_G, anti)
        assert gstar == row_reduce_inverse(SIX_COL_G)
        assert witness == Matrix.identity(F2, 6)

    def test_split_requires_non_reducing_move(self):
        # even-weight code: the only improving move makes two columns
        # parallel rather than zeroing anything
        code = Code.from_rows(F2, [[1, 1, 0], [0, 1, 1]])
        p = Poset.from_relations(3, [(2, 3)])
        pd = maximal_p_decomposition(code, p)
        assert degree(pd) == 1 == oracle.brute_max_degree(code, p)
        validate_p_decomposition(pd, p)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            canonical_form(SIX_COL_G, Poset.antichain(5))
        with pytest.raises(ValueError, match="poset ground set 5 does not match matrix width 6"):
            is_p_canonical(SIX_COL_G, Poset.antichain(5))

    def test_rank_deficiency_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            canonical_form(Matrix(F2, [[1, 0], [1, 0]]), Poset.antichain(2))

    def test_fixpoint_predicate_matches_literal_check(self):
        def literal(g, p):
            columns = [list(g.column(j)) for j in range(g.n)]
            return is_generalized_rref(g) and all(
                reference_coset_reduce(
                    g.field, columns[r],
                    [(j, columns[j]) for j in range(g.n) if p.strictly_less(r + 1, j + 1)],
                )[0] == columns[r]
                for r in range(g.n)
            )

        rng = random.Random(41)
        answers = []
        for field in (F2, F3, F5):
            for _ in range(40):
                n = rng.randint(2, 7)
                p = random_poset(rng, n)
                gen = random_code(rng, field, n, rng.randint(1, n)).gen
                for g in (gen, row_reduce_inverse(gen), canonical_form(gen, p)[0]):
                    expected = literal(g, p)
                    assert is_p_canonical(g, p) == expected
                    answers.append(expected)
        assert 0 < sum(answers) < len(answers)
        assert is_p_canonical(Matrix(F3, [], n=4), Poset.chain(4))

    def test_witness_stays_in_reducing_group(self):
        rng = random.Random(21)
        for field in (F2, F3, F5):
            for _ in range(25):
                n = rng.randint(2, 6)
                k = rng.randint(1, n)
                code = random_code(rng, field, n, k)
                p = random_poset(rng, n)
                pd = maximal_p_decomposition(code, p)
                assert witness_in_reducing_group(pd.witness, p)
                validate_p_decomposition(pd, p)
        # 1 < 2 allows e_2 to absorb e_1; the antichain does not
        absorb = Matrix(F2, [[1, 1], [0, 1]])
        assert witness_in_reducing_group(absorb, Poset.chain(2))
        assert not witness_in_reducing_group(absorb, Poset.antichain(2))
        assert not witness_in_reducing_group(Matrix(F2, [[0, 1], [1, 0]]), Poset.chain(2))
        assert not witness_in_reducing_group(Matrix.identity(F2, 3), Poset.chain(2))
        assert not witness_in_reducing_group(Matrix(F2, [[1, 0]]), Poset.chain(2))

    def test_validator_rejects_each_broken_witness(self):
        code = Code.from_rows(F2, [[1, 0]])
        line = components_from_matrix(code.gen)
        identity = Matrix.identity(F2, 2)
        swap = Matrix(F2, [[0, 1], [1, 0]])
        validate_p_decomposition(PDecomposition(code, line, identity), Poset.antichain(2))
        cases = [
            (line, Matrix(F2, [[1, 0]]), Poset.antichain(2), "square"),
            (line, Matrix(F2, [[1, 0], [1, 0]]), Poset.antichain(2), "singular"),
            (line, swap, Poset.chain(2), "preserve weights"),
            # the image (0, 1) keeps its weight but leaves the line
            (line, swap, Poset.antichain(2), "outside the decomposed code"),
            # into, but not onto: the line maps into the whole plane
            (components_from_matrix(identity), identity, Poset.antichain(2),
             "into, but not onto"),
        ]
        for decomposition, witness, poset, message in cases:
            with pytest.raises(ValueError, match=message):
                validate_p_decomposition(PDecomposition(code, decomposition, witness), poset)

    def test_oracle_agreement_small(self):
        rng = random.Random(31)
        for field in (F2, F3):
            for p in oracle.enum_posets(3):
                code = random_code(rng, field, 3, rng.randint(1, 2))
                assert max_degree(code, p) == oracle.brute_max_degree(code, p)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((2, 3, 5)), st.integers(1, 8), st.integers(0, 2**32))
    def test_matches_list_based_reference(self, q, n, seed):
        rng = random.Random(seed)
        field = PrimeField(q)
        k = rng.randint(1, n)
        code = random_code(rng, field, n, k)
        p = random_poset(rng, n)
        gstar, witness = canonical_form(code.gen, p)
        ref_gstar, ref_witness = reference_canonical_form(code.gen, p)
        assert gstar.rows == ref_gstar.rows
        assert witness.rows == ref_witness.rows
        validate_p_decomposition(maximal_p_decomposition(code, p), p)

    def test_pruned_search_matches_reference(self, monkeypatch):
        # The split search skips components whose columns cannot move,
        # settles those that cannot split by a search with the fixed
        # columns first, searches those that can in height order without
        # the states that search exhausted, and drops states with a dead
        # column or with a spanning first side and an empty second one;
        # the reference does none of these.  Count every cut across the
        # sample, so that a sample which never exercises one does not pass
        # unseen.
        fired = {"skipped": 0, "settled": 0, "shared": 0, "pruned": 0, "full": 0}
        split_component, dead_column = decomp._Canonicalizer._split_component, decomp._dead_column
        sides_of = decomp._sides

        def counting_split_component(self, support):
            inside = set(support)
            movable = any(j in inside for r in support for j in self.ups[r])
            heights = self.poset.heights()
            by_height = sorted(support, key=lambda j: (-heights[j], j))
            fixed_first = sorted(by_height, key=lambda r: any(j in inside for j in self.ups[r]))
            result = split_component(self, support)
            fired["skipped"] += not movable
            # height order runs only after the fixed-first search found a
            # split, and then finds one too: None means it found none
            fired["settled"] += movable and result is None
            # a split found in height order after a fixed-first search in
            # another order, which skipped the states that search exhausted
            fired["shared"] += result is not None and fixed_first != by_height
            return result

        def counting_dead_column(*args):
            dead = dead_column(*args)
            fired["pruned"] += dead
            return dead

        def counting_sides(b1, b2, dim):
            sides = sides_of(b1, b2, dim)
            fired["full"] += not sides
            return sides

        monkeypatch.setattr(decomp._Canonicalizer, "_split_component", counting_split_component)
        monkeypatch.setattr(decomp, "_dead_column", counting_dead_column)
        monkeypatch.setattr(decomp, "_sides", counting_sides)

        # q with the largest n at which the unpruned reference stays fast;
        # n is drawn by the seed, uniformly up to that bound
        @settings(max_examples=500, deadline=None)
        @given(
            st.sampled_from(((2, 14), (3, 11), (5, 9), (7, 8))),
            st.sampled_from((0, 0.1, 0.2)),
            st.integers(0, 2**32),
        )
        def check(q_and_bound, density, seed):
            q, bound = q_and_bound
            rng = random.Random(seed)
            n = rng.randint(2, bound)
            p = random_poset(rng, n, density)
            code = random_code(rng, PrimeField(q), n, rng.randint(1, n))
            gstar, witness = canonical_form(code.gen, p)
            ref_gstar, ref_witness = reference_canonical_form(code.gen, p)
            assert gstar.rows == ref_gstar.rows
            assert witness.rows == ref_witness.rows

        check()
        assert all(fired.values()), fired

    def test_spanning_block_of_fixed_columns_cannot_split(self):
        # e1, e2, e3 and e1 + e2 + e3 are one circuit that spans the
        # component; the fifth column lies below the first and can move,
        # but in a split the circuit would sit on one side and span it,
        # leaving the other empty
        g = Matrix(F2, [[1, 0, 0, 1, 0], [0, 1, 0, 1, 1], [0, 0, 1, 1, 0]])
        p = Poset.from_relations(5, [(5, 1)])
        ref = ReferenceCanonicalizer(g, p)
        ref.coset_passes()
        assert ref.find_split() is None  # the unpruned search finds no split

        state = decomp._Canonicalizer(g, p)
        state.coset_passes()
        assert state.ups[4] == [0] and state.cols[4] & state.kernel.coords  # a nonzero mover
        assert state._split_component(list(range(5))) is None
        gstar, witness = canonical_form(g, p)
        assert (gstar, witness) == reference_canonical_form(g, p)
        assert len(components_from_matrix(gstar).components) == 1

    def test_coset_passes_never_lower_the_score_and_settle_for_good(self):
        # canonical_form keeps no snapshot to restore and runs the passes a
        # second time only after a repeat, and the split search keeps no
        # check for zero candidates; all rest on what this checks, on a
        # fresh state and after every applied split
        repeats = 0

        def rank(state, columns):
            return Matrix(state.field, [state.kernel.unpack(state.cols[j]) for j in columns],
                          n=state.k).rank()

        def passes(state):
            nonlocal repeats
            before = state.score()
            settled = state.coset_passes()
            assert state.score() >= before
            # each nonzero column lies outside the span of the columns above it
            for r in range(state.n):
                if any(state.kernel.unpack(state.cols[r])):
                    assert rank(state, state.ups[r] + [r]) == rank(state, state.ups[r]) + 1
            if settled:
                cols = list(state.cols)
                assert state.coset_passes()
                assert state.cols == cols  # coordinates and witness tags alike
            else:
                repeats += 1

        # q with the largest n at which 300 instances stay fast
        for q, bound in ((2, 12), (3, 12), (5, 9), (7, 8)):
            rng = random.Random(q)
            for i in range(300):
                n = rng.randint(1, bound)
                if i % 7 == 6:
                    p = random_hierarchical_poset(rng, n)
                else:
                    p = random_poset(rng, n, rng.choice((0, 0.1, 0.2, 0.3, 0.4, 0.5)))
                code = random_code(rng, PrimeField(q), n, rng.randint(1, n))
                state = decomp._Canonicalizer(code.gen, p)
                passes(state)
                while (split := state.find_split()) is not None:
                    state.apply_split(split)
                    passes(state)
        assert repeats > 0

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((2, 3, 5, 7)), st.data())
    def test_rereduce_matches_reducing_every_column(self, q, data):
        # rereduce sets each pivot column from its tag and reduces only the
        # rest; the right-most-pivot reduced form is unique, so it must be
        # row_reduce_inverse's, and the witness tags must stay as they were
        field = PrimeField(q)
        n = data.draw(st.integers(1, 8))
        k = data.draw(st.integers(1, n))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        g = random_code(rng, field, n, k).gen
        state = decomp._Canonicalizer(g, Poset.antichain(n))
        kernel = state.kernel
        tags = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        state.cols = [kernel.pack(list(g.column(j)) + tags[j]) for j in range(n)]
        state.rereduce()
        reduced = row_reduce_inverse(g)
        assert [kernel.unpack(c) for c in state.cols] == [list(reduced.column(j)) for j in range(n)]
        assert [kernel.unpack(c, k, k + n) for c in state.cols] == tags

    @pytest.mark.parametrize("q, rows, relations, one_pass", [
        # a pass moves column 1 onto e2; the rows stay reduced, so the
        # pass is the last, and a second one would re-read column 1
        (2, [[1, 0, 1], [1, 1, 0]], [(1, 3)], True),
        # a pass moves columns and re-reduction moves them again, so the
        # passes go on; stopping after the first re-reduction changes the
        # canonical form
        (3, [[0, 2, 1, 2], [1, 1, 1, 2]], [(4, 1)], False),
    ])
    def test_coset_passes_stop_once_rereduction_changes_nothing(self, monkeypatch, q, rows,
                                                                relations, one_pass):
        field = PrimeField(q)
        g, p = Matrix(field, rows), Poset.from_relations(len(rows[0]), relations)
        state = decomp._Canonicalizer(g, p)
        coords = state.kernel.coords
        calls = []
        representative = decomp._coset_representative
        monkeypatch.setattr(decomp, "_coset_representative",
                            lambda *args: calls.append(args[2]) or representative(*args))
        # each pass reads every column with a column above it and nonzero coordinates
        readable = [r for r in range(state.n) if state.ups[r] and state.cols[r] & coords]
        settled = state.coset_passes()
        if one_pass:
            assert settled and calls == readable[::-1]
            # a second pass would read a column, and change nothing
            cols = list(state.cols)
            assert any(state.ups[r] and state.cols[r] & coords for r in range(state.n))
            assert state.coset_passes() and state.cols == cols
        else:
            assert len(calls) > len(readable)
        monkeypatch.undo()
        assert canonical_form(g, p) == reference_canonical_form(g, p)

    # sha256 of [rows of the canonical matrix, rows of the witness] as JSON,
    # recorded from the search before it was pruned, and (the two "repeat"
    # instances) from a driver that always ran the coset passes twice
    # before the first split search
    PINNED = {
        # GF(2), n = 24, k = 12, density 0.1: the poset drawn first, then the code
        "gf2-n24-seed0": "fee662daea21d421053c68edf2dcdf9b7e252b3cfff8f5dccf41d3dd928c3d8e",
        "gf2-n24-seed1": "2864795ca8629829f1aed42f812e4db35c158db734c6dba9b568dcc915638cb8",
        "gf2-n24-seed3": "0d0c11f6c000576e4659ce8defb2c25522bf6ba4285d72b0ab231c98ba425bea",
        "gf2-n24-seed5": "47e56ccd335f0036dbb32e166827e442c462513d6ac65b1b1018060bdea61756",
        "gf2-n24-seed6": "53b0e26a6f24d5b721cd73e8b79a8ac0eb53d4715203d89b380f6069c1bb517f",
        "gf2-n24-seed7": "6330aae476571ddc3d9ddde829ad74c1c91fe7259703d93ac84ad9a12d565887",
        # and the n = 24 tail, recorded before the search decided split
        # existence with the fixed columns first (10.8 s there)
        "gf2-n24-seed4": "05ba931464534a695bd07f0a08b302c7e7726031ee5d09ab01091564b4ffc0e8",
        # GF(3), n = 14, k = 7, density 0.1, drawn the same way; recorded
        # before the search read the blocks of the fixed columns
        "gf3-n14-seed0": "7303ac3a3eff7781590465130f5f4fc49805ea9cd7118f2101615215fcb62ed1",
        "gf3-n14-seed1": "03605a04c50e72c4715164c95967fa740da87263952802d95ee9cff8cff65c1d",
        "gf3-n14-seed2": "322bff7fc90487a0fac5979dd602cda899b9521efe8e22b26330b052a8ea14d0",
        "gf3-n14-seed3": "36d93bf7c1eecae01965f90705565884502e150f5b5524269572c5a74b61665f",
        "gf3-n14-seed4": "3e62021a496d39cb925acf070e1eeb3f772559c894b084873228519eba90bfdd",
        "gf3-n14-seed5": "142af814b9b0d34bb8d3b357441f0dd4e23580f5ea6fe4fd10855bc401aa254a",
        "gf3-n14-seed6": "dece2a4f95e8e0e387d0e269b6519859d58d3c681405f6f824bd9cc28dbecfae",
        "gf3-n14-seed7": "6ab3d01ca224ae335125df91415c3d59442682ef26eeb14d6b3e0cf498a82566",
        # GF(3), n = 20, k = 10, density 0.1, recorded as the n = 24 tail
        # was (seeds 1 and 5 took 2.7 and 11.5 s there)
        "gf3-n20-seed0": "2505c5aeebec151aeec13c58c7443c3c1d3264e1b8a891292bde5887fe82a1f6",
        "gf3-n20-seed1": "1160c4e1a7533acef0fe5e5572ee10de3dd5e217b5f3be99bf06800e2e5483a5",
        "gf3-n20-seed2": "855f0a81b2a23c24c34ef5bdec64eed0f7c88545747b4fd5ce1484a372a2477e",
        "gf3-n20-seed3": "1888f1d576996662a8d09911b9e3dbed847b527e8d427e740fb27e4ea50f4445",
        "gf3-n20-seed4": "6002b814253aa466499e47e77c918e0f408a59f659ad665d643e348b5ae7dbe2",
        "gf3-n20-seed5": "6e23afa22d393dc1cf699011993424fc85b9a13c53406f7f9795f9f9d45b5eab",
        "gf3-n20-seed6": "be399b83f55305e6aed8173f95bd96c9d26f69da8a61c7d673580521a8ddb309",
        # and its tail, recorded before the height-order search skipped the
        # states the fixed-first search exhausted (2.8 s there)
        "gf3-n20-seed7": "f06b0a4db55eb86ae12d745dd65eb5882b31a2fc73ca3474eb098c34395e1ffb",
        # GF(7), n = 11, k = 7: the code drawn first; the unpruned search took 77 s
        "gf7-n11": "78584cecacbb61b54cc3f7f327b1511d6553e62f4a21e557066b61d0fa525a12",
        # GF(7), n = 9, density 0.3: 7^4 candidates for one column; the
        # unpruned search took 98 s, and a forward check testing candidate
        # by candidate would take longer still
        "gf7-n9": "94df4be6ea1c3186997946e0126c68ca11365f5dd97eb00191dc9fd099fdb0f6",
        # n = 8, density 0.3: the first coset passes stop on a repeated
        # matrix, and running them once more moves the witness
        "gf2-n8-repeat": "550a6d93b396eeab3707cd10c1f98b7e2147836d44d4faee5916b85a2da5f320",
        "gf3-n8-repeat": "0855d11f2212cc696742374b262309a5acc97d6e341de0c36ac683fb80f97884",
    }

    @staticmethod
    def sparse_instance(name):
        """The code and order of a `gf{q}-n{n}-seed{s}` entry: density 0.1,
        k = n/2, the poset drawn first, then the code."""
        field, n, seed = name.split("-")
        rng = random.Random(int(seed[4:]))
        p = random_poset(rng, int(n[1:]), 0.1)
        return random_code(rng, PrimeField(int(field[2:])), p.n, p.n // 2), p

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_outputs(self, name):
        if name == "gf7-n11":
            rng = random.Random(1565341324)
            code = random_code(rng, PrimeField(7), 11, 7)
            p = random_poset(rng, 11, rng.choice((0.1, 0.3, 0.5)))
        elif name == "gf7-n9":
            rng = random.Random(5815)
            n = rng.randint(3, 9)
            p = random_poset(rng, n, 0.3)
            code = random_code(rng, PrimeField(7), n, rng.randint(1, n))
        elif name.endswith("-repeat"):
            q, seed = (2, 458) if name.startswith("gf2") else (3, 370)
            rng = random.Random(seed)
            p = random_poset(rng, 8, 0.3)
            code = random_code(rng, PrimeField(q), 8, rng.randint(1, 8))
        else:
            code, p = self.sparse_instance(name)
        gstar, witness = canonical_form(code.gen, p)
        digest = hashlib.sha256(json.dumps([gstar.rows, witness.rows]).encode()).hexdigest()
        assert digest == self.PINNED[name]

    @classmethod
    def dead_column_calls(cls, monkeypatch, name):
        """How many times `canonical_form` runs `_dead_column` on the
        sparse instance `name`: a count bounds the work without timing it."""
        calls = 0
        dead_column = decomp._dead_column

        def counting_dead_column(*args):
            nonlocal calls
            calls += 1
            return dead_column(*args)

        monkeypatch.setattr(decomp, "_dead_column", counting_dead_column)
        code, p = cls.sparse_instance(name)
        canonical_form(code.gen, p)
        return calls

    def test_split_search_work_on_the_n24_tail(self, monkeypatch):
        # the one component of this instance that cannot split sent 445,116
        # states through the dead-column check when the search ran in height
        # order alone; searched with the fixed columns first, it takes a few
        # thousand
        calls = self.dead_column_calls(monkeypatch, "gf2-n24-seed4")
        assert 0 < calls < 20_000, calls

    def test_split_search_work_on_the_gf3_n20_tail(self, monkeypatch):
        # a component of this instance splits, and the height-order search
        # reaches its first split late; it sent 153,213 states through the
        # dead-column check when it ignored the states the fixed-first search
        # had exhausted and checked children whose spans had not grown
        calls = self.dead_column_calls(monkeypatch, "gf3-n20-seed7")
        assert 0 < calls < 60_000, calls


class TestProfileAndDegree:
    def test_trivial_full_support_profile(self):
        g = Matrix(F2, [[1, 1, 1]])
        d = components_from_matrix(g)
        assert list(profile(d)) == [(0, 0), (3, 1)]

    def test_fixture_profiles(self):
        d = components_from_matrix(Matrix(F2, CANONICAL_B))
        assert list(profile(d)) == [(1, 1), (2, 1), (2, 1), (1, 1)]
        d2 = components_from_matrix(FIVE_COL_INVERSE)
        assert list(profile(d2)) == [(0, 0), (4, 2), (1, 1)]

    def test_profile_sums(self):
        rng = random.Random(41)
        for field in (F2, F3, F5):
            for _ in range(30):
                n = rng.randint(2, 7)
                k = rng.randint(1, n)
                code = random_code(rng, field, n, k)
                p = random_poset(rng, n)
                entries = list(profile(maximal_p_decomposition(code, p).decomposition))
                assert sum(ni for ni, _ in entries) == n
                assert sum(ki for _, ki in entries[1:]) == k

    def test_degree_of_trivial_decomposition_is_zero(self):
        code = Code.from_rows(F2, [[1, 1, 0, 1]])
        d = components_from_matrix(code.gen)
        pd = maximal_p_decomposition(code, Poset.antichain(4))
        assert degree(pd) == 0
        assert len(d.components) == 1

    def test_two_coordinate_codeword_degrees(self):
        # span{e_i + e_j}: nothing to gain when i and j are incomparable,
        # one aggregation when they are comparable
        code = Code.from_rows(F2, [[1, 0, 1]])
        incomparable = Poset.from_relations(3, [(2, 1), (2, 3)])
        assert max_degree(code, incomparable) == 0
        comparable = Poset.from_relations(3, [(1, 3)])
        assert max_degree(code, comparable) == 1
        assert oracle.brute_max_degree(code, incomparable) == 0
        assert oracle.brute_max_degree(code, comparable) == 1

    def test_profile_uniqueness_small_sweep(self):
        rng = random.Random(51)
        for field in (F2, F3, F5):
            for _ in range(40):
                n = rng.randint(2, 6)
                k = rng.randint(1, n)
                code = random_code(rng, field, n, k)
                p = random_poset(rng, n)
                base = profile(maximal_p_decomposition(code, p).decomposition)
                scrambled = Code(random_invertible(rng, field, k) @ code.gen)
                assert base.matches_up_to_order(
                    profile(maximal_p_decomposition(scrambled, p).decomposition)
                )
                iso = oracle.random_reducing_isometry(p, field.p, rng)
                moved = Code(iso.apply_to_rows(code.gen))
                assert base.matches_up_to_order(
                    profile(maximal_p_decomposition(moved, p).decomposition)
                )

    def test_degree_monotone_in_poset_order(self):
        rng = random.Random(61)
        checked = 0
        while checked < 30:
            n = rng.randint(2, 6)
            k = rng.randint(1, n)
            code = random_code(rng, F2, n, k)
            p = random_poset(rng, n, density=0.2)
            q = _extend_poset(rng, p)
            if q is None:
                continue
            checked += 1
            assert leq_poset(p, q)
            assert max_degree(code, p) <= max_degree(code, q)

    def test_hierarchical_neighbors_bracket_degree(self):
        rng = random.Random(71)
        for _ in range(30):
            n = rng.randint(2, 6)
            k = rng.randint(1, n)
            code = random_code(rng, F2, n, k)
            p = random_poset(rng, n)
            d = max_degree(code, p)
            assert max_degree(code, lower_neighbor(p)) <= d <= max_degree(code, upper_neighbor(p))

    def test_bracket_direction_is_forced_by_monotonicity(self):
        # one-relation order, two-coordinate codeword: the lower neighbor
        # (antichain) gives degree 0, the order itself already gives 1,
        # so brackets the other way around are impossible
        code = Code.from_rows(F2, [[1, 0, 1]])
        p = Poset.from_relations(3, [(1, 3)])
        assert max_degree(code, lower_neighbor(p)) == 0
        assert max_degree(code, p) == 1
        assert max_degree(code, upper_neighbor(p)) == 1

    def test_canonicalization_witness_also_preserves_larger_orders(self):
        # a witness produced under p acts by adding lower coordinates to
        # higher ones, so it is weight-preserving for any order extending p
        rng = random.Random(81)
        checked = 0
        while checked < 15:
            n = rng.randint(2, 5)
            k = rng.randint(1, n)
            code = random_code(rng, F2, n, k)
            p = random_poset(rng, n, density=0.2)
            q = _extend_poset(rng, p)
            if q is None:
                continue
            checked += 1
            pd = maximal_p_decomposition(code, p)
            assert witness_in_reducing_group(pd.witness, q)
            assert oracle.is_isometry(pd.witness, q)


def _extend_poset(rng, p):
    extra = [(a, b) for a in range(1, p.n + 1) for b in range(1, p.n + 1) if a != b]
    rng.shuffle(extra)
    for a, b in extra:
        try:
            q = Poset.from_relations(p.n, list(p.relations()) + [(a, b)])
        except ValueError:
            continue
        if q != p:
            return q
    return None
