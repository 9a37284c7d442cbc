import itertools
import random

import pytest

from conftest import brute_heights, brute_ideal
from posetcode import oracle
from posetcode.poset import (
    Poset,
    complete_cuts,
    leq_poset,
    lower_neighbor,
    upper_neighbor,
)
from posetcode.randgen import random_hierarchical_poset, random_poset


def test_closure_infers_transitive_relations():
    p = Poset.from_relations(3, [(1, 2), (2, 3)])
    assert p.leq(1, 3)
    assert p.is_chain()


def test_cycle_rejected_with_cycle_reported():
    with pytest.raises(ValueError, match="cycle"):
        Poset.from_relations(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError, match="cycle"):
        Poset.from_relations(4, [(1, 2), (2, 3), (3, 1)])


def test_two_disjoint_edges():
    p = Poset.from_relations(6, [(1, 2), (3, 4)])
    assert p.relations() == frozenset({(1, 2), (3, 4)})
    assert not p.is_hierarchical()


def test_ground_set_bounds():
    with pytest.raises(ValueError):
        Poset.from_relations(0, [])
    with pytest.raises(ValueError):
        Poset.from_relations(65, [])
    with pytest.raises(ValueError):
        Poset.from_relations(3, [(1, 4)])


def test_ideal_examples():
    assert Poset.antichain(4).ideal([]) == frozenset()
    star = Poset.from_relations(4, [(1, 4), (2, 4), (3, 4)])
    assert star.ideal([1, 4]) == frozenset({1, 2, 3, 4})
    assert Poset.antichain(6).ideal([2, 5]) == frozenset({2, 5})


def test_ideal_matches_brute_closure():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 6)
        p = random_poset(rng, n)
        seed = {a for a in range(1, n + 1) if rng.random() < 0.4}
        assert p.ideal(seed) == frozenset(brute_ideal(p, seed))
        assert p.is_ideal(p.ideal(seed))


def test_maximal_elements_examples():
    chain = Poset.chain(3)
    assert chain.maximal_elements([1, 3]) == frozenset({3})
    anti = Poset.antichain(5)
    assert anti.maximal_elements([2, 4, 5]) == frozenset({2, 4, 5})
    p = Poset.from_relations(3, [(1, 3)])
    assert p.maximal_elements([1, 2, 3]) == frozenset({2, 3})


def test_height_and_levels_examples():
    chain = Poset.chain(4)
    assert chain.heights() == (1, 2, 3, 4)
    assert chain.levels() == tuple(frozenset({i}) for i in range(1, 5))
    assert chain.height_of_poset() == 4

    anti = Poset.antichain(4)
    assert anti.heights() == (1, 1, 1, 1)
    assert anti.levels() == (frozenset({1, 2, 3, 4}),)

    p = Poset.from_relations(3, [(1, 3)])
    assert p.heights() == (1, 1, 2)
    assert p.levels() == (frozenset({1, 2}), frozenset({3}))


def test_heights_match_longest_chain_brute_force():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        p = random_poset(rng, n)
        assert list(p.heights()) == brute_heights(p)


def test_structural_predicates():
    chain = Poset.chain(3)
    assert chain.is_chain() and chain.is_hierarchical() and not chain.is_antichain()
    anti = Poset.antichain(3)
    assert anti.is_antichain() and anti.is_hierarchical() and not anti.is_chain()
    assert Poset.antichain(1).is_chain()
    p = Poset.from_relations(3, [(1, 3)])
    assert not p.is_hierarchical()


def test_poset_order():
    p = Poset.from_relations(3, [(1, 3)])
    assert leq_poset(p, p)
    assert leq_poset(Poset.antichain(3), p)
    chain_132 = Poset.chain(3, order=[1, 3, 2])
    assert leq_poset(p, chain_132)
    assert not leq_poset(chain_132, p)
    with pytest.raises(ValueError):
        leq_poset(p, Poset.antichain(4))


def test_neighbors_of_hierarchical_posets_are_themselves():
    for p in (Poset.chain(4), Poset.antichain(4), Poset.hierarchical_from_levels([[2, 3], [1, 4]])):
        assert upper_neighbor(p) == p
        assert lower_neighbor(p) == p


def test_neighbor_example_single_relation():
    p = Poset.from_relations(3, [(1, 3)])
    up = upper_neighbor(p)
    assert up.relations() == frozenset({(1, 3), (2, 3)})
    assert lower_neighbor(p) == Poset.antichain(3)


def test_neighbors_extremal_for_all_small_posets():
    # The lower neighbor is the maximum hierarchical poset below p; the
    # upper neighbor is minimal among hierarchical posets above p (a
    # minimum need not exist: distinct hierarchical upper bounds can be
    # incomparable).
    for n in (1, 2, 3):
        hier = list(oracle.enum_hierarchical(n))
        for p in oracle.enum_posets(n):
            up, lo = upper_neighbor(p), lower_neighbor(p)
            assert up.is_hierarchical() and lo.is_hierarchical()
            assert leq_poset(p, up) and leq_poset(lo, p)
            for h in hier:
                if leq_poset(p, h):
                    assert not (leq_poset(h, up) and h != up)
                if leq_poset(h, p):
                    assert leq_poset(h, lo)


def test_no_minimum_hierarchical_upper_bound_exists_in_general():
    p = Poset.from_relations(3, [(1, 2)])
    q1 = upper_neighbor(p)
    q2 = Poset.chain(3)
    assert q1.is_hierarchical() and q2.is_hierarchical()
    assert leq_poset(p, q1) and leq_poset(p, q2)
    assert not leq_poset(q1, q2) and not leq_poset(q2, q1)


def test_complete_cuts_nested_and_bounded():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(1, 6)
        p = random_poset(rng, n)
        cuts = complete_cuts(p)
        assert len(cuts) <= n + 1
        assert cuts[0] == frozenset() and cuts[-1] == frozenset(range(1, n + 1))
        for a, b in zip(cuts, cuts[1:]):
            assert a < b
    assert len(complete_cuts(Poset.chain(5))) == 6
    assert len(complete_cuts(Poset.antichain(5))) == 2


def _small_posets(seed: int, count: int):
    """Random posets with n <= 7, every third one hierarchical so that
    nontrivial complete cuts occur."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randint(1, 7)
        yield rng, random_hierarchical_poset(rng, n) if t % 3 == 0 else random_poset(rng, n)


def test_complete_cuts_match_definition_over_all_subsets():
    nontrivial = 0
    for _, p in _small_posets(19, 60):
        ground = range(1, p.n + 1)
        expected = [
            frozenset(a)
            for size in range(p.n + 1)
            for a in itertools.combinations(ground, size)
            if all(p.strictly_less(x, y) for x in a for y in ground if y not in a)
        ]
        assert complete_cuts(p) == expected
        nontrivial += len(expected) > 2
    assert nontrivial >= 10


def test_maximal_elements_match_definition():
    for rng, p in _small_posets(23, 60):
        for _ in range(4):
            subset = {a for a in range(1, p.n + 1) if rng.random() < 0.6}
            expected = {a for a in subset if not any(p.strictly_less(a, b) for b in subset)}
            assert p.maximal_elements(subset) == expected


def test_relations_and_chain_predicate_match_leq():
    chains = 0
    for _, p in _small_posets(29, 60):
        ground = range(1, p.n + 1)
        expected = {(a, b) for a in ground for b in ground if a != b and p.leq(a, b)}
        assert p.relations() == expected
        is_chain = all(p.leq(a, b) or p.leq(b, a) for a in ground for b in ground)
        assert p.is_chain() == is_chain
        chains += is_chain
    assert 0 < chains < 60


def test_rebuilding_from_relations_is_idempotent():
    rng = random.Random(13)
    for _ in range(20):
        p = random_poset(rng, rng.randint(1, 7))
        assert Poset.from_relations(p.n, p.relations()) == p


def test_strict_order_raises_height_and_levels_partition():
    rng = random.Random(17)
    for _ in range(20):
        p = random_poset(rng, rng.randint(1, 7))
        for a, b in p.relations():
            assert p.height(a) < p.height(b)
        seen = set()
        for level in p.levels():
            assert level
            assert not (level & seen)
            seen |= level
            for a, b in itertools.combinations(sorted(level), 2):
                assert not p.leq(a, b) and not p.leq(b, a)
        assert seen == set(range(1, p.n + 1))


def test_element_range_checked():
    p = Poset.antichain(3)
    with pytest.raises(ValueError):
        p.leq(0, 1)
    with pytest.raises(ValueError):
        p.ideal([4])
    with pytest.raises(ValueError):
        p.height(7)
