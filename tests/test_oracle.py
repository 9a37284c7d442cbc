import itertools
import random

import pytest

from posetcode import oracle
from posetcode.budget import BudgetExceededError
from posetcode.field import PrimeField
from posetcode.linear import Code, Matrix, Vector, apply_map, invert_matrix
from posetcode.poset import Poset
from posetcode.randgen import random_poset

F2 = PrimeField(2)
F3 = PrimeField(3)
STAR = Poset.from_relations(4, [(1, 4), (2, 4), (3, 4)])


class TestReducingIsometries:
    def test_antichain_reducing_part_is_trivial(self):
        members = list(oracle.enum_g_p(Poset.antichain(3), 2))
        assert len(members) == 1
        assert members[0].matrix == Matrix.identity(F2, 3)

    @pytest.mark.parametrize("q", [2, 3])
    def test_count_formula(self, q):
        rng = random.Random(q)
        for _ in range(6):
            n = rng.randint(1, 4)
            p = random_poset(rng, n)
            members = {iso.matrix for iso in oracle.enum_g_p(p, q)}
            strict = len(p.relations())
            assert len(members) == (q - 1) ** n * q**strict

    def test_known_star_member_maps_between_codes(self):
        rows = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
        t = Matrix(F2, rows)
        members = {iso.matrix for iso in oracle.enum_g_p(STAR, 2)}
        assert t in members
        assert oracle.is_isometry(t, STAR)
        code = Code.from_rows(F2, [[1, 0, 0, 1]])
        image = {apply_map(t, v) for v in code.codewords()}
        assert {v.coords for v in image} == {(0, 0, 0, 0), (0, 1, 1, 1)}

    def test_every_member_preserves_weights(self):
        for q, max_n in ((2, 4), (3, 3)):
            rng = random.Random(17)
            for _ in range(4):
                n = rng.randint(1, max_n)
                p = random_poset(rng, n)
                for iso in oracle.enum_g_p(p, q):
                    assert oracle.is_isometry(iso.matrix, p)

    def test_blocked_check_reaches_every_block(self):
        # 3^7 vectors run in three blocks of 3^6, one per leading digit;
        # the shear moves only the vectors whose leading digit is nonzero
        shear = [[1 if i == j else 0 for j in range(7)] for i in range(7)]
        shear[1][0] = 1
        assert not oracle.is_isometry(Matrix(F3, shear), Poset.antichain(7))
        rng = random.Random(31)
        p = random_poset(rng, 7)
        assert oracle.is_isometry(oracle.random_reducing_isometry(p, 3, rng), p)

    def test_apply_map_sums_scaled_columns_over_gf3(self):
        # not symmetric, so a transposed product gives other images
        m = Matrix(F3, [[1, 2, 0], [0, 1, 1], [2, 0, 1]])
        assert m != m.transpose()
        for coords in itertools.product(range(3), repeat=3):
            expected = [
                sum(c * m.rows[i][j] for j, c in enumerate(coords)) % 3 for i in range(3)
            ]
            assert apply_map(m, Vector(F3, coords)).coords == tuple(expected)


class TestAutomorphisms:
    def test_antichain_has_all_permutations(self):
        assert len(list(oracle.enum_aut(Poset.antichain(4)))) == 24

    def test_chain_is_rigid(self):
        assert list(oracle.enum_aut(Poset.chain(4))) == [(1, 2, 3, 4)]

    def test_star_fixes_top(self):
        perms = list(oracle.enum_aut(STAR))
        assert len(perms) == 6
        assert all(perm[3] == 4 for perm in perms)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(oracle.enum_aut(Poset.antichain(9), budget=1000))


class TestFullIsometryGroup:
    def test_order_is_product(self):
        rng = random.Random(23)
        for _ in range(5):
            n = rng.randint(1, 4)
            p = random_poset(rng, n)
            members = {iso.matrix for iso in oracle.enum_gl_p(p, 2)}
            strict = len(p.relations())
            auts = len(list(oracle.enum_aut(p)))
            assert len(members) == (2 - 1) ** n * 2**strict * auts

    def test_group_axioms(self):
        for p in (Poset.chain(3), Poset.from_relations(3, [(1, 3)])):
            members = {iso.matrix for iso in oracle.enum_gl_p(p, 2)}
            assert Matrix.identity(F2, 3) in members
            for a, b in itertools.product(members, repeat=2):
                assert a @ b in members
            for a in members:
                assert invert_matrix(a) in members

    def test_matches_exhaustive_weight_preserver_search(self):
        # independent completeness check: scan every invertible matrix
        p = Poset.from_relations(3, [(1, 3)])
        members = {iso.matrix for iso in oracle.enum_gl_p(p, 2)}
        everything = set()
        for bits in itertools.product(range(2), repeat=9):
            m = Matrix(F2, [bits[0:3], bits[3:6], bits[6:9]])
            if m.rank() == 3 and oracle.is_isometry(m, p):
                everything.add(m)
        assert members == everything

    def test_induced_permutation_is_an_automorphism(self):
        rng = random.Random(29)
        for _ in range(4):
            n = rng.randint(1, 4)
            p = random_poset(rng, n)
            auts = set(oracle.enum_aut(p))
            for iso in oracle.enum_gl_p(p, 2):
                phi = oracle.induced_permutation(iso.matrix, p)
                assert phi == iso.induced_map
                assert phi in auts


class TestBruteDegree:
    def test_incomparable_two_point_codeword(self):
        code = Code.from_rows(F2, [[1, 0, 1]])
        p = Poset.from_relations(3, [(2, 1), (2, 3)])
        assert oracle.brute_max_degree(code, p) == 0

    def test_comparable_two_point_codeword(self):
        code = Code.from_rows(F2, [[1, 0, 1]])
        q = Poset.from_relations(3, [(1, 3)])
        assert oracle.brute_max_degree(code, q) == 1


class TestEnumerations:
    def test_hierarchical_counts_are_ordered_bell_numbers(self):
        assert len(list(oracle.enum_hierarchical(1))) == 1
        assert len(list(oracle.enum_hierarchical(2))) == 3
        assert len(list(oracle.enum_hierarchical(3))) == 13
        assert len(list(oracle.enum_hierarchical(4))) == 75
        assert oracle.ordered_bell(5) == 541

    def test_hierarchical_enumeration_is_duplicate_free(self):
        posets = list(oracle.enum_hierarchical(3))
        assert len(set(posets)) == len(posets)
        assert all(p.is_hierarchical() for p in posets)

    def test_poset_counts(self):
        # labeled partial orders on 1..4 elements
        assert len(list(oracle.enum_posets(1))) == 1
        assert len(list(oracle.enum_posets(2))) == 3
        assert len(list(oracle.enum_posets(3))) == 19
        assert len(list(oracle.enum_posets(4))) == 219

    def test_budgets(self):
        with pytest.raises(BudgetExceededError):
            list(oracle.enum_hierarchical(5, budget=10))
        with pytest.raises(BudgetExceededError):
            list(oracle.enum_posets(4, budget=10))
        chain = Poset.chain(5)
        with pytest.raises(BudgetExceededError):
            list(oracle.enum_g_p(chain, 2, budget=8))


def test_induced_permutation_rejects_multiple_maxima():
    m = Matrix(F2, [[1, 1], [0, 1]])
    anti = Poset.antichain(2)
    with pytest.raises(ValueError, match="maximal"):
        oracle.induced_permutation(m.transpose(), anti)
