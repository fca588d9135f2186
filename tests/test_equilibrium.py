import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from rigidmarket import (
    DUMMY,
    Allocation,
    RationingSystem,
    SizeGuard,
    brute_force_equilibrium_allocation,
    check_cwe,
    demand_set,
    demand_situation,
    equilibrium_allocation_exists,
    enumerate_histories,
    indirect_utility,
    TreeSizeExceeded,
    validate_economy,
)

from strategies import demand_situations, economies, markets


def example_tuple(market):
    prices = (0, 5, 4, 4, 7)
    rationing = RationingSystem.full(5, 5).forbid(3, 3).forbid(1, 3)
    allocation = Allocation((0, 3, 2, 1, 4))
    return prices, rationing, allocation


def test_running_example_is_equilibrium(market):
    certificate = check_cwe(market, *example_tuple(market))
    assert certificate.ok
    assert certificate.failures() == ()


def test_unsold_marked_up_item_fails_third_condition(market):
    prices, rationing, _ = example_tuple(market)
    hobbled = Allocation((0, 3, 2, 1, 0))  # buyer 5 no longer takes d
    certificate = check_cwe(market, prices, rationing, hobbled)
    flags = [c.ok for c in certificate.conditions]
    assert flags[2] is False
    assert certificate.conditions[2].witness == (None, 4)
    # buyer 5 also stops getting what she demands
    assert flags[1] is False


def test_costless_rationing_fails_fourth_condition(market):
    prices, rationing, allocation = example_tuple(market)
    rationing = rationing.forbid(1, 2)  # b sits below its cap
    certificate = check_cwe(market, prices, rationing, allocation)
    flags = [c.ok for c in certificate.conditions]
    assert flags[3] is False
    assert certificate.conditions[3].witness == (1, 2)
    assert flags[0] and flags[1] and flags[2]


def test_pointless_rationing_fails_fifth_condition(market):
    prices, rationing, allocation = example_tuple(market)
    # bar buyer 4 from d: at price 7 she would not demand it anyway
    certificate = check_cwe(market, prices, rationing.forbid(4, 4), allocation)
    assert certificate.conditions[4].ok is False
    assert certificate.conditions[4].witness == (4, 4)


def test_inadmissible_prices_fail_first_condition(market):
    prices = (0, 5, 4, 5, 7)  # c above its cap
    _, rationing, allocation = example_tuple(market)
    certificate = check_cwe(market, prices, rationing, allocation)
    assert certificate.conditions[0].ok is False
    assert certificate.conditions[0].witness == (None, 3)


def test_structural_garbage_raises(market):
    prices, rationing, allocation = example_tuple(market)
    with pytest.raises(ValueError):
        check_cwe(market, (0, 5, 4, 4), rationing, allocation)
    with pytest.raises(ValueError):
        check_cwe(market, prices, rationing, Allocation((0, 3, 2, 1)))


@pytest.mark.parametrize("row", [frozenset({0, 1, 7}), frozenset({0, -1})])
def test_permission_row_naming_an_unknown_item_raises(row):
    economy = validate_economy(("o", "a"), [(0, 3)], (0, 1), (0, 2))
    with pytest.raises(ValueError, match="unknown item"):
        check_cwe(economy, (0, 1), RationingSystem((row,)), Allocation((1,)))


def test_brute_force_search_contested():
    situation = {
        1: frozenset({3, 4}),
        2: frozenset({3}),
        3: frozenset({3}),
        4: frozenset({1}),
        5: frozenset({4}),
    }
    assert brute_force_equilibrium_allocation(situation) is None


def test_brute_force_search_finds_assignment(market):
    prices = (0, 5, 4, 4, 7)
    rationing = RationingSystem.full(5, 5).forbid(3, 3).forbid(1, 3)
    situation = demand_situation(market, prices, rationing)
    found = brute_force_equilibrium_allocation(situation)
    assert found is not None
    for i in market.buyers:
        assert found.item_of(i) in situation[i] | {0}
        if 0 not in situation[i]:
            assert found.item_of(i) != 0


def test_brute_force_disjoint_singletons():
    situation = {1: frozenset({2}), 2: frozenset({1})}
    found = brute_force_equilibrium_allocation(situation)
    assert found.assignment == (2, 1)


def test_brute_force_size_guard():
    situation = {i: frozenset(range(1, 9)) for i in range(1, 9)}
    with pytest.raises(SizeGuard):
        brute_force_equilibrium_allocation(situation)


@given(demand_situations())
def test_matching_route_agrees_with_search_route(situation):
    exists = equilibrium_allocation_exists(situation)
    found = brute_force_equilibrium_allocation(situation)
    assert exists == (found is not None)


@settings(max_examples=40)
@given(economies())
def test_every_mechanism_history_is_an_equilibrium(economy):
    try:
        leaves = enumerate_histories(economy, max_leaves=64)
    except TreeSizeExceeded:
        return
    for leaf in leaves:
        certificate = check_cwe(economy, leaf.prices, leaf.rationing, leaf.allocation)
        assert certificate.ok, certificate.failures()


def literal_verdicts(economy, prices, rationing, allocation):
    """The five conditions read as defined: (ok, first witness) for each."""
    assigned = {a for a in allocation.assignment if a != DUMMY}
    zeros = [
        (i, a) for i in economy.buyers for a in economy.items if a not in rationing.allowed[i - 1]
    ]

    def lifted(i, a):
        rows = list(rationing.allowed)
        rows[i - 1] = rows[i - 1] | {a}
        return RationingSystem(tuple(rows))

    def admissible(a):
        if a == DUMMY:
            return prices[a] == 0
        return economy.lower_bounds[a] <= prices[a] <= economy.upper_bounds[a]

    witnesses = (
        [(None, a) for a in economy.items if not admissible(a)],
        [
            (i, allocation.item_of(i))
            for i in economy.buyers
            if allocation.item_of(i) not in demand_set(economy, prices, rationing, i)
        ],
        [
            (None, a)
            for a in economy.real_items
            if a not in assigned and prices[a] != economy.lower_bounds[a]
        ],
        [(i, a) for i, a in zeros if prices[a] != economy.upper_bounds[a] or a not in assigned],
        [(i, a) for i, a in zeros if a not in demand_set(economy, prices, lifted(i, a), i)],
    )
    return tuple((not found, found[0] if found else None) for found in witnesses)


@st.composite
def checker_inputs(draw):
    """A market, some prices moved off their bounds, and an allocation.

    The edge case of conditions 2 and 5 is a barred item netting the
    buyer's best, so some buyers get such a bar, and most buyers hold an
    item netting their best, often a barred one.
    """
    economy, prices, rationing = draw(markets())
    prices = list(prices)
    for a in economy.items:
        if draw(st.integers(0, 3)) == 0:
            prices[a] += draw(st.sampled_from([-2, -1, 1, 2]))
    for i in economy.buyers:
        if draw(st.booleans()):
            a = draw(st.sampled_from(economy.real_items))
            rationing = rationing.forbid(i, a)
            prices[a] = economy.value(i, a) - indirect_utility(economy, prices, rationing, i)
    assignment = []
    for i in economy.buyers:
        best = indirect_utility(economy, prices, rationing, i)
        ties = [a for a in economy.items if economy.value(i, a) - prices[a] == best]
        barred_ties = [a for a in ties if a not in rationing.allowed[i - 1]] or ties
        a = draw(st.sampled_from(draw(st.sampled_from([ties, barred_ties, economy.items]))))
        assignment.append(DUMMY if a in assignment else a)
    return economy, tuple(prices), rationing, Allocation(tuple(assignment))


@given(checker_inputs())
def test_check_cwe_matches_the_definitions(case):
    certificate = check_cwe(*case)
    found = tuple((c.ok, c.witness) for c in certificate.conditions)
    assert found == literal_verdicts(*case)
