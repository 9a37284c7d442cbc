import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_vectors, brute_weight, reference_echelon
from posetcode.budget import BudgetExceededError
from posetcode.decomp import components_from_matrix
from posetcode.field import PrimeField
from posetcode.linear import (
    Code,
    Matrix,
    RowKernel,
    Vector,
    _echelon,
    _residue_matrix,
    classical_rref,
    invert_matrix,
    is_generalized_rref,
    min_distance,
    p_distance,
    p_weight,
    row_kernel,
    row_reduce_inverse,
    support,
)
from posetcode.poset import Poset, leq_poset
from posetcode.randgen import random_code, random_invertible, random_matrix, random_poset

F2 = PrimeField(2)

# 3x5 binary matrix with a known right-most-pivot reduced form
EXAMPLE_G = Matrix(F2, [[1, 0, 1, 1, 0], [1, 1, 0, 1, 1], [0, 1, 0, 1, 1]])
EXAMPLE_G_REDUCED = ((0, 1, 1, 0, 1), (0, 0, 1, 1, 0), (1, 0, 0, 0, 0))
EXAMPLE_G_CLASSICAL = Matrix(F2, [[1, 0, 0, 0, 0], [0, 1, 0, 1, 1], [0, 0, 1, 1, 0]])


def test_support_examples():
    assert support(Vector(F2, [0, 0, 0, 0])) == frozenset()
    assert support(Vector(F2, [1, 0, 0, 1])) == frozenset({1, 4})
    assert support(Vector(F2, [0, 1, 1, 1])) == frozenset({2, 3, 4})
    # residues other than 1 count as nonzero over odd p
    for field, coords, expected in (
        (PrimeField(3), [2, 0, 1, 0, 2], {1, 3, 5}),
        (PrimeField(5), [0, 4, 0, 2, 0], {2, 4}),
        (PrimeField(5), [4, 4, 0, 0, 3], {1, 2, 5}),
    ):
        v = Vector(field, coords)
        assert support(v) == frozenset(expected)
        assert v.support_mask() == sum(1 << (i - 1) for i in expected)
        assert Code.from_rows(field, [coords]).support() == frozenset(expected)
    f5_code = Code.from_rows(PrimeField(5), [[4, 0, 0, 0], [0, 0, 2, 0]])
    assert f5_code.support() == frozenset({1, 3})
    # the pointer is the null columns of the generator
    d = components_from_matrix(Matrix(PrimeField(3), [[2, 0, 0, 1, 0], [0, 2, 0, 0, 2]]))
    assert d.pointer_support == frozenset({3})
    assert [c.support() for c in d.components] == [frozenset({1, 4}), frozenset({2, 5})]


def test_weight_on_antichain_is_hamming_exhaustive():
    p = Poset.antichain(12)
    for coords in itertools.product(range(2), repeat=12):
        v = Vector(F2, coords)
        assert p_weight(v, p) == sum(coords)


def test_weight_on_chain_is_top_of_support():
    chain = Poset.chain(4)
    assert p_weight(Vector(F2, [0, 1, 0, 0]), chain) == 2
    for coords in itertools.product(range(2), repeat=4):
        v = Vector(F2, coords)
        expected = max(support(v), default=0)
        assert p_weight(v, chain) == expected


def test_weight_on_star_poset():
    star = Poset.from_relations(4, [(1, 4), (2, 4), (3, 4)])
    assert p_weight(Vector(F2, [1, 0, 0, 1]), star) == 4
    assert p_weight(Vector(F2, [0, 1, 1, 1]), star) == 4
    for v in all_vectors(F2, 4):
        assert p_weight(v, star) == brute_weight(v, star)


def test_weight_length_mismatch():
    with pytest.raises(ValueError):
        p_weight(Vector(F2, [1, 0]), Poset.antichain(3))
    with pytest.raises(ValueError, match="poset ground set 3 does not match code length 2"):
        min_distance(Code.from_rows(F2, [[1, 0]]), Poset.antichain(3))


def test_distance_examples():
    chain = Poset.chain(3)
    v = Vector(F2, [0, 1, 1])
    assert p_distance(v, v, chain) == 0
    assert p_distance(Vector(F2, [0, 0, 1]), Vector(F2, [0, 1, 0]), chain) == 3
    anti = Poset.antichain(3)
    assert p_distance(Vector(F2, [1, 1, 0]), Vector(F2, [0, 1, 1]), anti) == 2


def test_weight_axioms_exhaustive_small():
    f3 = PrimeField(3)
    rng = random.Random(1)
    for field, n in ((F2, 4), (f3, 3)):
        p = random_poset(rng, n)
        vectors = all_vectors(field, n)
        for v in vectors:
            assert (p_weight(v, p) == 0) == v.is_zero()
            assert p_weight(v, p) == p_weight(-v, p)
        for u, v in itertools.product(vectors, repeat=2):
            assert p_weight(u + v, p) <= p_weight(u, p) + p_weight(v, p)


def test_weight_monotone_in_poset_order():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(2, 7)
        p = random_poset(rng, n, density=0.2)
        extra = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
        rng.shuffle(extra)
        for a, b in extra:
            try:
                q = Poset.from_relations(n, list(p.relations()) + [(a, b)])
                break
            except ValueError:
                continue
        else:
            continue
        assert leq_poset(p, q)
        for _ in range(30):
            v = Vector(F2, [rng.randrange(2) for _ in range(n)])
            assert p_weight(v, p) <= p_weight(v, q)


def test_reduction_matches_known_form_exactly():
    assert row_reduce_inverse(EXAMPLE_G).rows == EXAMPLE_G_REDUCED


def test_reduction_reverses_identity():
    assert row_reduce_inverse(Matrix(F2, [[1, 0], [0, 1]])).rows == ((0, 1), (1, 0))


def test_reduction_idempotent_and_preserves_row_space():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(1, 6)
        k = rng.randint(1, n)
        code = random_code(rng, PrimeField(rng.choice([2, 3])), n, k)
        reduced = row_reduce_inverse(code.gen)
        assert row_reduce_inverse(reduced) == reduced
        new_code = Code(reduced)
        assert all(new_code.contains(v) for v in code.gen.row_vectors())
        assert all(code.contains(v) for v in reduced.row_vectors())


def test_reduction_rejects_rank_deficiency():
    with pytest.raises(ValueError, match="rank"):
        row_reduce_inverse(Matrix(F2, [[1, 1, 0], [1, 1, 0]]))


def _permutation_reduced_oracle(m: Matrix) -> bool:
    """Some row order of m is in right-most-pivot reduced form."""
    for perm in itertools.permutations(range(m.k)):
        rows = [m.rows[i] for i in perm]
        pivots = []
        ok = True
        for row in rows:
            j = next((c for c in range(m.n - 1, -1, -1) if row[c]), None)
            if j is None:
                ok = False
                break
            pivots.append(j)
        if not ok:
            continue
        if any(pivots[i] <= pivots[i + 1] for i in range(len(pivots) - 1)):
            continue
        if all(
            not rows[i][pivots[l]] for l in range(m.k) for i in range(m.k) if i != l
        ):
            return True
    return False


def test_generalized_reduced_form_predicate():
    reduced = Matrix(F2, EXAMPLE_G_REDUCED)
    assert is_generalized_rref(reduced)
    assert _permutation_reduced_oracle(reduced)
    # classical left-pivot form of the same code: column 4 carries two
    # nonzero entries in pivot position, so no row order is in the
    # right-most-pivot reduced form
    assert not _permutation_reduced_oracle(EXAMPLE_G_CLASSICAL)
    assert not is_generalized_rref(EXAMPLE_G_CLASSICAL)
    # a zero row has no pivot
    assert not is_generalized_rref(Matrix(F2, [[1, 0, 1], [0, 0, 0]]))


def test_generalized_reduced_form_matches_oracle_on_randoms():
    rng = random.Random(8)
    for _ in range(40):
        m = random_matrix(rng, F2, rng.randint(1, 3), rng.randint(1, 4))
        if m.rank() != m.k:
            continue
        assert is_generalized_rref(m) == _permutation_reduced_oracle(m)
        reduced = row_reduce_inverse(m)
        assert is_generalized_rref(reduced)


def test_min_distance_examples():
    star = Poset.from_relations(4, [(1, 4), (2, 4), (3, 4)])
    code = Code.from_rows(F2, [[1, 0, 0, 1]])
    assert min_distance(code, star) == 4
    assert min_distance(code, Poset.antichain(4)) == 2
    e1 = Code.from_rows(F2, [[1, 0, 0]])
    chain = Poset.chain(3)
    assert min_distance(e1, chain) == 1
    assert min_distance(Code.from_rows(F2, [[0, 0, 1]]), chain) == 3


def test_min_distance_matches_codeword_scan_over_odd_q():
    # one word per scalar class stands for the class; a walk that missed
    # a class, or weighed a union of supports, gives another minimum
    rng = random.Random(23)
    for q, max_n in ((2, 8), (3, 6), (5, 4)):
        field = PrimeField(q)
        for _ in range(12):
            n = rng.randint(1, max_n)
            code = random_code(rng, field, n, rng.randint(1, n))
            orders = (Poset.chain(n), Poset.antichain(n), random_poset(rng, n))
            for poset in orders:
                expected = min(
                    p_weight(c, poset) for c in code.codewords() if not c.is_zero()
                )
                assert min_distance(code, poset) == expected


def test_min_distance_budget():
    code = random_code(random.Random(0), F2, 8, 6)
    with pytest.raises(BudgetExceededError) as err:
        min_distance(code, Poset.antichain(8), budget=4)
    assert err.value.required == 2**6


def test_code_validation():
    with pytest.raises(ValueError, match="rank"):
        Code.from_rows(F2, [[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        Code(Matrix(F2, [], n=3))


def test_codewords_and_contains():
    code = Code.from_rows(F2, [[1, 1, 0], [0, 1, 1]])
    words = code.codeword_set()
    assert len(words) == 4
    assert Vector(F2, [1, 0, 1]) in words
    assert code.contains(Vector(F2, [1, 0, 1]))
    assert not code.contains(Vector(F2, [1, 0, 0]))
    assert code.support() == frozenset({1, 2, 3})


def test_matrix_product_and_inverse():
    rng = random.Random(11)
    for p in (2, 5):
        field = PrimeField(p)
        for _ in range(10):
            k = rng.randint(1, 4)
            while True:
                m = random_matrix(rng, field, k, k)
                if m.rank() == k:
                    break
            assert m @ invert_matrix(m) == Matrix.identity(field, k)
    with pytest.raises(ValueError, match="singular"):
        invert_matrix(Matrix(F2, [[1, 1], [1, 1]]))


def test_matrix_handles_an_empty_dimension():
    # a side of length 0 still fixes the shape of identities, products and transposes
    assert Matrix.identity(F2, 0) == Matrix(F2, [], n=0)
    wide, tall = Matrix(F2, [], n=3), Matrix(F2, [[], []], n=0)
    assert tall @ wide == Matrix(F2, [[0, 0, 0], [0, 0, 0]])
    assert wide @ Matrix(F2, [[1, 0], [0, 1], [1, 1]]) == Matrix(F2, [], n=2)
    assert Matrix(F2, [[1, 0, 1], [0, 1, 1]]) @ Matrix(F2, [[], [], []], n=0) == tall
    for m in (wide, tall, Matrix(F2, [], n=0)):
        t = m.transpose()
        assert (t.k, t.n) == (m.n, m.k)
        assert t.transpose() == m


def test_contains_rejects_a_word_of_another_field_or_length():
    code = Code.from_rows(F2, [[1, 0, 1]])
    assert code.contains(Vector(F2, [1, 0, 1]))
    # each packs to the int the codeword packs to
    assert not code.contains(Vector(PrimeField(3), [1, 0, 1]))
    assert not code.contains(Vector(F2, [1, 0, 1, 0]))


def test_contains_builds_its_basis_once(monkeypatch):
    import posetcode.linear as linear

    code = Code.from_rows(F2, [[1, 0, 1, 1], [0, 1, 1, 0]])
    assert code.contains(Vector(F2, [1, 1, 0, 1]))
    monkeypatch.setattr(linear, "_triangular", None)  # a rebuild would now raise
    assert code.contains(Vector(F2, [0, 1, 1, 0]))
    assert not code.contains(Vector(F2, [0, 0, 0, 1]))


def test_classical_rref_pivots():
    reduced, pivots = classical_rref(EXAMPLE_G)
    assert pivots == (0, 1, 2)
    assert reduced == EXAMPLE_G_CLASSICAL


@settings(max_examples=60)
@given(st.integers(2, 5).filter(lambda n: n in (2, 3, 5)), st.data())
def test_vector_arithmetic_roundtrip(p, data):
    field = PrimeField(p)
    n = data.draw(st.integers(1, 6))
    u = Vector(field, data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
    v = Vector(field, data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
    assert (u + v) - v == u
    assert u - u == Vector(field, [0] * n)
    c = data.draw(st.integers(0, p - 1))
    assert u.scale(c).coords == tuple(a * c % p for a in u.coords)


# -- packed-row kernel ----------------------------------------------------

KERNEL_PRIMES = (2, 3, 5, 7, 65521)  # 65521: the largest prime PrimeField accepts


def _coords(draw, p: int, m: int) -> list[int]:
    return draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KERNEL_PRIMES), st.data())
def test_kernel_pack_add_and_multiples_match_residues(p, data):
    m = data.draw(st.integers(0, 12))
    tags = data.draw(st.integers(0, 4))
    kernel = RowKernel(p, m, tags)
    a = _coords(data.draw, p, m + tags)
    b = _coords(data.draw, p, m + tags)
    pa, pb = kernel.pack(a), kernel.pack(b)
    assert kernel.unpack(pa, 0, m + tags) == a
    assert kernel.unpack(pa) == a[:m]
    assert kernel.unpack(pa, m, m + tags) == a[m:]
    assert kernel.unpack(kernel.add(pa, pb), 0, m + tags) == [(x + y) % p for x, y in zip(a, b)]
    top = kernel.w - 1
    assert kernel.nonzero(pa) == sum(1 << (i * kernel.w + top) for i in range(m) if a[i])
    multiples = kernel.multiples(pa)
    assert len(multiples) == p
    for c in data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=8)):
        expected = [c * x % p for x in a]
        assert kernel.unpack(multiples[c], 0, m + tags) == expected
        if c:
            assert kernel.unpack(kernel.scale(pa, c), 0, m + tags) == expected
    for i in range(m + tags):
        assert kernel.unpack(kernel.unit(i), 0, m + tags) == [int(t == i) for t in range(m + tags)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KERNEL_PRIMES), st.data())
def test_kernel_echelon_builds_the_classical_rref(p, data):
    field = PrimeField(p)
    m = data.draw(st.integers(1, 8))
    rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=m, max_size=m), max_size=6))
    # low rank on purpose: repeat combinations of earlier rows
    for _ in range(data.draw(st.integers(0, 2))):
        if rows:
            c = data.draw(st.integers(0, p - 1))
            rows.append([(c * x + y) % p for x, y in zip(rows[0], rows[-1])])
    kernel, basis = _echelon(field, rows, m)
    expected = reference_echelon(field, rows)
    assert [kernel.unpack(b) for _, b in basis] == expected
    if rows:
        g = Matrix(field, rows)
        assert [list(r) for r in classical_rref(g)[0].rows] == expected
        assert g.rank() == len(expected)
        assert list(classical_rref(g)[1]) == [shift // kernel.w for shift, _ in basis]
    for row in rows:
        assert kernel.reduce(kernel.pack(row), basis) == 0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.data())
def test_kernel_adjoin_keeps_the_rows_and_reductions_of_echelon(p, data):
    # `_echelon` keeps the rows a triangular basis keeps, and both reduce
    # every row to the same packed int, tag slots included
    field = PrimeField(p)
    m = data.draw(st.integers(1, 7))
    tags = data.draw(st.integers(0, m))
    kernel = RowKernel(p, m, tags)
    rows = [_coords(data.draw, p, m + tags) for _ in range(data.draw(st.integers(0, 5)))]
    # dependent coordinates often: combinations of two drawn rows, fresh tags
    for _ in range(data.draw(st.integers(0, 3)) if rows else 0):
        a, b = (data.draw(st.sampled_from(rows)) for _ in range(2))
        c = data.draw(st.integers(0, p - 1))
        combined = [(c * x + y) % p for x, y in zip(a[:m], b[:m])]
        rows.insert(data.draw(st.integers(0, len(rows))), combined + _coords(data.draw, p, tags))
    triangular = ()
    for i, row in enumerate(rows):
        adjoined = kernel.adjoin(triangular, kernel.pack(row))
        kept = len(_echelon(field, rows[: i + 1], m)[1])
        assert kept == len(triangular) + (adjoined is not None)
        triangular = adjoined or triangular
    echelon = _echelon(field, rows, m)[1]
    for v in rows + [_coords(data.draw, p, m + tags) for _ in range(4)]:
        assert kernel.reduce(kernel.pack(v), triangular) == kernel.reduce(kernel.pack(v), echelon)
    if rows:
        assert Matrix(field, [r[:m] for r in rows]).rank() == len(echelon)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 17))
def test_kernel_residues_read_normalized_rows_as_unpack_does(p):
    # every row while p^m <= 4096; past that, seeded random rows, the
    # zero and all-(p - 1) rows, and kernel sums of neighbouring rows
    rng = random.Random(p)
    for m in range(1, 18):
        kernel = row_kernel(p, m)
        if p**m <= 4096:
            rows = [kernel.pack(c) for c in itertools.product(range(p), repeat=m)]
        else:
            rows = [kernel.pack([rng.randrange(p) for _ in range(m)]) for _ in range(300)]
            rows += [0, kernel.pack([p - 1] * m)]
            rows += [kernel.add(a, b) for a, b in zip(rows, rows[1:])]
        for row in rows:
            read = kernel.residues(row)
            assert type(read) is tuple and read == tuple(kernel.unpack(row))


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_kernel_scale_matches_multiples_for_every_multiplier(p):
    # each multiplier's doubling ladder is built on its first use; the
    # second round reads every ladder back
    rng = random.Random(p)
    kernel = RowKernel(p, 6, 3)
    rows = [kernel.pack([rng.randrange(p) for _ in range(9)]) for _ in range(20)]
    for _ in range(2):
        for row in rows:
            multiples = kernel.multiples(row)
            assert [kernel.scale(row, c) for c in range(1, p)] == multiples[1:]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.data())
def test_residue_matrix_equals_the_public_matrix(p, data):
    field = PrimeField(p)
    k = data.draw(st.integers(0, 4))
    n = data.draw(st.integers(0, 6))
    rows = tuple(tuple(_coords(data.draw, p, n)) for _ in range(k))
    private, public = _residue_matrix(field, rows, n), Matrix(field, rows, n=n)
    assert (private.rows, private.k, private.n, private.field) == (rows, k, n, field)
    assert private == public and hash(private) == hash(public) and repr(private) == repr(public)
    if rows:
        assert _residue_matrix(field, rows) == public


@pytest.mark.parametrize("rows, n, message", [
    (((0, 1), (1,)), None, "matrix rows must all have the same length"),
    (((0, 1), (1, 1)), 3, "declared width 3 does not match rows of length 2"),
    ((), None, "empty matrix needs an explicit column count"),
])
def test_residue_matrix_keeps_the_width_checks(rows, n, message):
    for build in (_residue_matrix, Matrix):
        with pytest.raises(ValueError, match=message):
            build(F2, rows, n)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_tags_carry_the_inverse(p):
    field = PrimeField(p)
    rng = random.Random(p)
    for n in range(1, 6):
        m = random_matrix(rng, field, n, n)
        if m.rank() < n:
            with pytest.raises(ValueError, match="singular"):
                invert_matrix(m)
            continue
        assert m @ invert_matrix(m) == Matrix.identity(field, n)
        anti_identity = [[int(i + j == n - 1) for j in range(n)] for i in range(n)]
        assert row_reduce_inverse(m) == Matrix(field, anti_identity)


@pytest.mark.parametrize("n, k", [(3, 4), (3, 0)])
def test_random_code_rejects_a_dimension_outside_one_to_n(n, k):
    # k > n once resampled forever: no k x n matrix has rank k
    with pytest.raises(ValueError, match="1 <= k <= n"):
        random_code(random.Random(0), F2, n, k)


def test_random_invertible_rejects_an_empty_size():
    with pytest.raises(ValueError, match="k >= 1"):
        random_invertible(random.Random(0), F2, 0)
