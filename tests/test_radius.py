import random

import pytest

from conftest import brute_packing_radius, reference_packing_radius
from posetcode.budget import BudgetExceededError
from posetcode.field import PrimeField
from posetcode.linear import Code, min_distance
from posetcode.poset import Poset, leq_poset, lower_neighbor, upper_neighbor
from posetcode.radius import RadiusBounds, packing_radius_bounds, packing_radius_exact
from posetcode.randgen import random_code, random_hierarchical_poset, random_poset
from posetcode.decomp import maximal_p_decomposition

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_bounds_container_validation():
    RadiusBounds(lower=1, upper=3, exact=2)
    with pytest.raises(ValueError):
        RadiusBounds(lower=3, upper=1)
    with pytest.raises(ValueError):
        RadiusBounds(lower=1, upper=3, exact=4)


def test_exact_examples_against_ball_definition():
    star = Poset.from_relations(4, [(1, 4), (2, 4), (3, 4)])
    code = Code.from_rows(F2, [[1, 0, 0, 1]])
    assert brute_packing_radius(code, star) == 3
    assert packing_radius_exact(code, star) == 3

    rep = Code.from_rows(F2, [[1, 1, 1]])
    anti = Poset.antichain(3)
    assert brute_packing_radius(rep, anti) == 1
    assert packing_radius_exact(rep, anti) == 1

    top = Code.from_rows(F2, [[0, 0, 1]])
    chain = Poset.chain(3)
    assert brute_packing_radius(top, chain) == 2
    assert packing_radius_exact(top, chain) == 2


def test_exact_matches_ball_definition_on_randoms():
    rng = random.Random(5)
    for field, max_n, max_k, trials in ((F2, 5, 3, 15), (F3, 4, 2, 8), (F5, 3, 2, 6)):
        for _ in range(trials):
            n = rng.randint(2, max_n)
            k = rng.randint(1, min(max_k, n))
            code = random_code(rng, field, n, k)
            p = random_poset(rng, n)
            assert packing_radius_exact(code, p) == brute_packing_radius(code, p)


@pytest.mark.parametrize("field, max_n, max_k", [(F2, 12, 6), (F3, 8, 4), (F5, 6, 3)])
def test_exact_matches_whole_support_scan(field, max_n, max_k):
    # large enough for the scan to stop on its lower bound before the
    # last maxima set, on every kind of order and both its neighbors
    rng = random.Random(f"whole-support/{field.p}")
    for trial in range(24):
        n = rng.randint(max_n // 2, max_n)
        k = rng.randint(1, min(max_k, n))
        kind = trial % 4
        if kind == 0:
            order = list(range(1, n + 1))
            rng.shuffle(order)
            p = Poset.chain(n, order=order)
        elif kind == 1:
            p = Poset.antichain(n)
        elif kind == 2:
            p = random_hierarchical_poset(rng, n)
        else:
            p = random_poset(rng, n, density=rng.uniform(0.0, 0.7))
        code = random_code(rng, field, n, k)
        for order in (p, lower_neighbor(p), upper_neighbor(p)):
            assert packing_radius_exact(code, order) == reference_packing_radius(code, order)


@pytest.mark.parametrize("density, radii", [(0.1, (2, 2, 2)), (0.2, (3, 2, 2)), (0.5, (10, 11, 8))])
def test_gf2_n24_k12_within_default_budget(density, radii):
    # Values from the whole-support scan given a budget of 2^24; that
    # scan is charged 4.6-4.9M bipartitions here, over the default 2^20.
    for seed, expected in enumerate(radii):
        rng = random.Random(seed)
        poset = random_poset(rng, 24, density)
        code = random_code(rng, F2, 24, 12)
        assert packing_radius_exact(code, poset) == expected


def test_hamming_closed_form():
    rng = random.Random(15)
    for _ in range(30):
        n = rng.randint(2, 10)
        k = rng.randint(1, min(6, n))
        code = random_code(rng, F2, n, k)
        anti = Poset.antichain(n)
        expected = (min_distance(code, anti) - 1) // 2
        assert packing_radius_exact(code, anti) == expected


def test_chain_closed_form():
    rng = random.Random(25)
    for _ in range(20):
        n = rng.randint(2, 8)
        k = rng.randint(1, min(5, n))
        code = random_code(rng, F2, n, k)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        chain = Poset.chain(n, order=order)
        assert packing_radius_exact(code, chain) == min_distance(code, chain) - 1


def test_radius_monotone_in_poset_order():
    rng = random.Random(35)
    for _ in range(20):
        n = rng.randint(2, 6)
        k = rng.randint(1, min(4, n))
        code = random_code(rng, F2, n, k)
        p = random_poset(rng, n, density=0.2)
        extra = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
        rng.shuffle(extra)
        q = None
        for a, b in extra:
            try:
                q = Poset.from_relations(n, list(p.relations()) + [(a, b)])
                break
            except ValueError:
                continue
        if q is None:
            continue
        assert leq_poset(p, q)
        assert packing_radius_exact(code, p) <= packing_radius_exact(code, q)


def test_components_bound_the_radius():
    rng = random.Random(45)
    for _ in range(15):
        n = rng.randint(2, 6)
        k = rng.randint(1, min(4, n))
        code = random_code(rng, F2, n, k)
        p = random_poset(rng, n)
        pd = maximal_p_decomposition(code, p)
        whole = packing_radius_exact(Code(pd.decomposition.code.gen), p)
        for comp in pd.decomposition.components:
            assert whole <= packing_radius_exact(comp, p)


def test_bounds_bracket_exact():
    rng = random.Random(55)
    for field in (F2, F3):
        for _ in range(15):
            n = rng.randint(2, 7)
            k = rng.randint(1, min(4, n))
            code = random_code(rng, field, n, k)
            p = random_poset(rng, n)
            b = packing_radius_bounds(code, p)
            assert b.lower <= b.exact <= b.upper


def test_bounds_collapse_for_hierarchical_orders():
    rng = random.Random(65)
    for _ in range(15):
        n = rng.randint(2, 6)
        k = rng.randint(1, min(4, n))
        code = random_code(rng, F2, n, k)
        p = random_hierarchical_poset(rng, n)
        b = packing_radius_bounds(code, p)
        assert b.lower == b.exact == b.upper
    anti_bounds = packing_radius_bounds(Code.from_rows(F2, [[1, 1, 1]]), Poset.antichain(3))
    assert anti_bounds.lower == anti_bounds.exact == anti_bounds.upper == 1


def test_budget_exceeded_carries_requirement():
    code = Code.from_rows(F2, [[1] * 12])
    with pytest.raises(BudgetExceededError) as err:
        packing_radius_exact(code, Poset.antichain(12), budget=1000)
    # one maxima set of 12 elements: 2^11 bipartitions with the first fixed
    assert err.value.required == 2**11


def test_budget_charges_minimal_supports_not_ambient_space():
    # 3^14 ambient vectors exceed the default budget.  The charge is the
    # 3^2 codewords plus the 2^6 bipartitions of one 7-element support:
    # that gives 4, and the lower bound of each other support is 4 too.
    code = Code.from_rows(F3, [[1] * 14, [0] * 7 + [1] * 7])
    anti = Poset.antichain(14)
    assert packing_radius_exact(code, anti) == (min_distance(code, anti) - 1) // 2 == 3
    assert packing_radius_exact(code, anti, budget=64) == 3
    with pytest.raises(BudgetExceededError) as err:
        packing_radius_exact(code, anti, budget=63)
    assert err.value.required == 64


def test_ground_set_mismatch():
    with pytest.raises(ValueError):
        packing_radius_exact(Code.from_rows(F2, [[1, 1]]), Poset.antichain(3))
