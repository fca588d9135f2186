from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidmarket import (
    DummyInSet,
    SeededLottery,
    equilibrium_allocation_exists,
    grow_over_demanded,
    is_not_under_demanded,
    is_over_demanded,
    max_matching,
    minimal_over_demanded_sets,
    mods,
    over_demanded_sets,
    run_mapr,
)

from strategies import demand_situations, economies


def contested_situation():
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


def test_predicates_on_running_demands():
    situation = contested_situation()
    assert is_over_demanded(situation, {3})
    assert is_over_demanded(situation, {3, 4})
    assert not is_over_demanded(situation, set())
    assert not is_over_demanded(situation, {1})
    assert is_not_under_demanded(situation, {1, 3, 4})
    assert is_not_under_demanded(situation, set())
    assert not is_not_under_demanded(situation, {2})


def test_dummy_rejected_in_item_sets():
    situation = contested_situation()
    with pytest.raises(DummyInSet):
        is_over_demanded(situation, {0, 3})
    with pytest.raises(DummyInSet):
        is_not_under_demanded(situation, {0})


def test_growth_on_running_demands():
    situation = contested_situation()
    grown, seed = grow_over_demanded(situation)
    assert grown == frozenset({3, 4})
    assert seed == 2
    assert is_over_demanded(situation, grown)
    reverse = descending(situation)
    assert grow_over_demanded(reverse) == (grown, seed)


def test_growth_single_item_contention():
    situation = {1: frozenset({1}), 2: frozenset({1})}
    grown, seed = grow_over_demanded(situation)
    assert grown == frozenset({1})
    assert seed == 2


def test_minimal_set_on_running_demands():
    situation = contested_situation()
    grown, seed = grow_over_demanded(situation)
    minimal = mods(situation)
    assert grown == frozenset({3, 4})
    assert minimal == frozenset({3})
    assert seed == 2
    reverse = descending(situation)
    assert mods(reverse) == minimal


def test_minimal_set_singleton_contention():
    situation = {1: frozenset({1}), 2: frozenset({1})}
    assert mods(situation) == frozenset({1})


def test_no_over_demanded_set_is_empty():
    situation = {1: frozenset({1}), 2: frozenset({2})}
    assert grow_over_demanded(situation) == (frozenset(), None)
    assert mods(situation) == frozenset()


@given(demand_situations())
def test_existence_equivalence_and_minimality(situation):
    exists = equilibrium_allocation_exists(situation)
    all_sets = over_demanded_sets(situation)
    assert bool(all_sets) == (not exists)
    assert bool(mods(situation)) == (not exists)
    if exists:
        return
    grown, seed = grow_over_demanded(situation)
    assert is_over_demanded(situation, grown)
    minimal = mods(situation)
    assert minimal in minimal_over_demanded_sets(situation)
    # repeated runs land on the same set
    assert mods(situation) == minimal
    # and so does the same family inserted in descending buyer order
    reverse = descending(situation)
    assert grow_over_demanded(reverse) == (grown, seed)
    assert mods(reverse) == minimal


@given(demand_situations())
def test_minimal_set_subsets_are_heavily_demanded(situation):
    if equilibrium_allocation_exists(situation):
        return
    minimal = mods(situation)
    inside = [d for d in situation.values() if d <= minimal]
    for size in range(1, len(minimal) + 1):
        for combo in combinations(sorted(minimal), size):
            touching = sum(1 for d in inside if d & set(combo))
            assert touching > size


@given(demand_situations())
def test_fully_demanded_sets_are_matchable(situation):
    stripped = {i: d - {0} for i, d in situation.items() if d - {0}}
    matched = max_matching(stripped)
    universe = sorted(frozenset().union(*stripped.values()))
    for size in range(1, len(universe) + 1):
        for combo in combinations(universe, size):
            subset = frozenset(combo)
            if all(
                is_not_under_demanded(stripped, sub)
                for k in range(1, size + 1)
                for sub in map(frozenset, combinations(combo, k))
            ):
                assert len(matched) >= size


def plain_filter(demands):
    """The filter with one maximum matching per grown item and no counting shortcut."""
    grown, _ = grow_over_demanded(demands)
    x_min = set()
    rest = set(grown)
    for a in sorted(grown):
        rest.discard(a)
        candidate = x_min | rest
        confined = {i: d for i, d in demands.items() if d <= candidate}
        if len(max_matching(confined)) == len(confined):
            x_min.add(a)
    return frozenset(x_min)


def row_demands(row):
    """The settled demands of a trace row, by unsold buyer."""
    return {i: frozenset(d) for i, d in enumerate(row.demands, start=1) if d is not None}


@given(demand_situations())
def test_mods_is_the_set_the_plain_filter_picks(situation):
    assert mods(situation) == plain_filter(situation)


@settings(max_examples=60)
@given(economies(), st.integers(0, 3))
def test_mods_is_the_plain_filter_on_every_round_of_a_run(economy, seed):
    for row in run_mapr(economy, SeededLottery(seed)).trace.rows:
        demands = row_demands(row)
        assert mods(demands) == plain_filter(demands) == frozenset(row.x_min)
