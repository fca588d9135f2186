import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from rigidmarket import (
    InvalidMatching,
    Matching,
    RationingSystem,
    augment,
    build_graph,
    demand_situation,
    equilibrium_allocation_exists,
    matching_to_allocation,
    max_matching,
    maximum_matching,
)
from rigidmarket.matching import unserved

from strategies import demand_situations


def contested_situation():
    # five buyers over items a=1, c=3, d=4; only three can be served
    return {
        1: frozenset({3, 4}),
        2: frozenset({3}),
        3: frozenset({3}),
        4: frozenset({1}),
        5: frozenset({4}),
    }


def descending(demands):
    """The same demand sets, inserted in descending buyer order."""
    return dict(sorted(demands.items(), reverse=True))


def brute_force_size(demands):
    """Oracle: maximum served demanders over all edge subsets, by recursion."""
    buyers = [i for i, d in demands.items() if 0 not in d]

    def best(k, used):
        if k == len(buyers):
            return 0
        i = buyers[k]
        top = best(k + 1, used)
        for a in demands[i] - {0} - used:
            top = max(top, 1 + best(k + 1, used | {a}))
        return top

    return best(0, frozenset())


def test_build_graph_running_example(market):
    demands = demand_situation(market, (0, 5, 4, 3, 5), RationingSystem.full(5, 5))
    graph = build_graph(demands)
    assert list(graph.items()) == [(1, (3, 4)), (2, (3,)), (3, (3,)), (4, (1,)), (5, (4,))]
    assert list(build_graph(descending(demands)).items()) == list(graph.items())


def test_buyers_content_with_dummy_are_excluded():
    graph = build_graph({1: frozenset({0, 4}), 2: frozenset({4})})
    assert list(graph) == [2]
    assert build_graph({1: frozenset({0})}) == {}


@given(demand_situations(max_buyers=6, max_items=12), st.randoms(use_true_random=False))
@example({1: frozenset({8, 1}), 2: frozenset({3}), 3: frozenset({0, 2})}, random.Random(0))
def test_build_graph_equals_the_plain_sorted_build(demands, rng):
    # one-item, multi-item and dummy rows, inserted in shuffled order; a
    # set such as {8, 1} iterates out of order, so a longer row needs its sort
    order = sorted(demands)
    rng.shuffle(order)
    shuffled = {i: demands[i] for i in order}
    plain = {i: tuple(sorted(demands[i])) for i in sorted(demands) if 0 not in demands[i]}
    assert list(build_graph(shuffled).items()) == list(plain.items())


def test_augment_from_empty_and_fixed_point():
    situation = contested_situation()
    graph = build_graph(situation)
    one = augment(graph, Matching())
    assert len(one) == 1

    best = Matching([(1, 3), (4, 1), (5, 4)])
    assert augment(graph, best) is best  # maximum: unchanged object back


def test_augment_rejects_foreign_edges():
    graph = build_graph(contested_situation())
    with pytest.raises(InvalidMatching):
        augment(graph, Matching([(2, 4)]))
    with pytest.raises(InvalidMatching):
        maximum_matching(graph, Matching([(2, 4)]))
    with pytest.raises(InvalidMatching):
        Matching([(1, 3), (2, 3)])


def test_max_matching_running_example():
    found = max_matching(contested_situation())
    assert len(found) == 3
    # the fixed search order lands on this exact matching
    assert found == Matching([(1, 3), (4, 1), (5, 4)])
    assert max_matching(descending(contested_situation())) == found


def test_max_matching_empty():
    assert len(max_matching({1: frozenset({0})})) == 0


def test_matching_to_allocation(market):
    allocation = matching_to_allocation(Matching([(1, 3), (4, 1), (5, 4)]), 5)
    assert allocation.assignment == (3, 0, 0, 1, 4)
    assert matching_to_allocation(Matching(), 3).assignment == (0, 0, 0)


def test_unserved_is_the_lowest_unmatched_demander():
    demands = {4: frozenset({1, 2}), 3: frozenset({1}), 2: frozenset({1}), 1: frozenset({0, 2})}
    assert unserved(demands, Matching([(4, 2), (3, 1)])) == 2
    assert unserved(demands, Matching([(4, 2), (2, 1)])) == 3
    # buyer 1 is content with the dummy, so it is never the one left unserved
    assert unserved(demands, Matching()) == 2
    assert unserved({1: frozenset({0})}, Matching()) is None
    assert unserved({}, Matching()) is None


def test_equilibrium_allocation_exists():
    assert not equilibrium_allocation_exists(contested_situation())
    assert equilibrium_allocation_exists({1: frozenset({0, 3}), 2: frozenset({3})})
    assert equilibrium_allocation_exists({1: frozenset({0})})


@given(demand_situations())
def test_max_matching_size_matches_brute_force(demands):
    found = max_matching(demands)
    assert len(found) == brute_force_size(demands)
    assert max_matching(descending(demands)).pairs() == found.pairs()


@given(demand_situations())
def test_augment_grows_and_keeps_matched_vertices(demands):
    graph = build_graph(demands)
    current = Matching()
    while True:
        grown = augment(graph, current)
        if grown is current:
            break
        assert len(grown) == len(current) + 1
        assert grown.buyer_to_item.keys() >= current.buyer_to_item.keys()
        assert grown.item_to_buyer.keys() >= current.item_to_buyer.keys()
        current = grown
    # Berge: the fixed point admits no augmenting path, so it is maximum
    assert len(current) == brute_force_size(demands)


@given(demand_situations())
def test_size_invariant_under_relabelling(demands):
    buyers = sorted(demands)
    items = sorted({a for d in demands.values() for a in d if a != 0})
    buyer_map = {i: len(buyers) - k for k, i in enumerate(buyers)}
    item_map = {a: items[len(items) - 1 - k] + 10 for k, a in enumerate(items)}
    relabelled = {
        buyer_map[i]: frozenset(item_map.get(a, 0) for a in d) for i, d in demands.items()
    }
    assert len(max_matching(relabelled)) == len(max_matching(demands))


def augment_fixed_point(graph, start):
    """Oracle: iterate :func:`augment` until it returns its input."""
    current = start
    while True:
        grown = augment(graph, current)
        if grown is current:
            return current
        current = grown


@st.composite
def graphs_with_starts(draw):
    """A demand graph and a valid partial matching of it, possibly empty."""
    graph = build_graph(draw(demand_situations(max_buyers=6, max_items=5)))
    pairs, used = [], set()
    for buyer in draw(st.permutations(list(graph))):
        free = [a for a in graph[buyer] if a not in used]
        if free and draw(st.booleans()):
            item = draw(st.sampled_from(free))
            pairs.append((buyer, item))
            used.add(item)
    return graph, Matching(pairs)


@given(graphs_with_starts())
def test_maximum_matching_is_the_augment_fixed_point(case):
    graph, start = case
    assert maximum_matching(graph, start).pairs() == augment_fixed_point(graph, start).pairs()
    empty = Matching()
    assert maximum_matching(graph).pairs() == augment_fixed_point(graph, empty).pairs()
