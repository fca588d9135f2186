import json

import hypothesis.strategies as st
import pytest
from hypothesis import given

from rigidmarket import (
    DUMMY,
    Allocation,
    EconomyValidationError,
    RationingSystem,
    demand_set,
    demand_situation,
    economy_from_dict,
    indirect_utility,
    is_admissible,
    validate_economy,
)
from rigidmarket.model import settled_demand

from strategies import make_economy, markets


def argmax_scan(economy, prices, rationing, buyer):
    """Independent oracle: exhaustive scan for the best-net-benefit set."""
    nets = {
        a: economy.value(buyer, a) - prices[a]
        for a in economy.items
        if a in rationing.allowed[buyer - 1]
    }
    best = max(nets.values())
    return best, frozenset(a for a, v in nets.items() if v == best)


def test_running_example_is_valid(market):
    assert market.n_buyers == 5
    assert market.item_names == ("o", "a", "b", "c", "d")
    assert market.bound_spread() == 1 + 2 + 3 + 2
    assert is_admissible(market, (0, 5, 4, 4, 7))
    assert not is_admissible(market, (0, 5, 4, 5, 7))
    assert not is_admissible(market, (1, 5, 4, 4, 7))


def test_dummy_valuation_rejected():
    with pytest.raises(EconomyValidationError) as exc:
        validate_economy(("o", "a"), [(1, 3)], (0, 1), (0, 2))
    assert any("NonZeroDummyValuation" in e for e in exc.value.errors)


def test_crossed_bounds_rejected():
    with pytest.raises(EconomyValidationError) as exc:
        validate_economy(("o", "a"), [(0, 3)], (0, 7), (0, 6))
    assert any("BoundsCrossed" in e for e in exc.value.errors)


def test_all_violations_reported_at_once():
    with pytest.raises(EconomyValidationError) as exc:
        validate_economy(("o", "a"), [(2, -3)], (1, 7), (1, 6))
    codes = "\n".join(exc.value.errors)
    for expected in ("NonZeroDummyValuation", "NegativeEntry", "NonZeroDummyBounds", "BoundsCrossed"):
        assert expected in codes


def test_rationing_must_allow_dummy():
    with pytest.raises(ValueError):
        RationingSystem((frozenset({1}),))
    with pytest.raises(ValueError):
        RationingSystem.full(2, 3).forbid(1, DUMMY)


@pytest.mark.parametrize("buyer", [0, -1, 4, 1.0, True])
def test_forbid_rejects_a_buyer_outside_one_to_n(buyer):
    # 0 and -1 once wrapped round to the last buyers and True read as buyer 1
    with pytest.raises(ValueError, match=f"^UnknownBuyer: no buyer {buyer!r} among 1..3$"):
        RationingSystem.full(3, 4).forbid(buyer, 2)


@pytest.mark.parametrize("buyer", [0, 4, True])
def test_buyer_lookups_reject_a_buyer_outside_one_to_n(buyer):
    # buyer 0 once read the last buyer's row, and True read buyer 1's
    economy = make_economy([[5, 1], [2, 6], [4, 4]], [1, 1], [3, 3])
    prices = economy.lower_bounds
    rationing = RationingSystem.full(3, 3)
    lookups = [
        lambda: indirect_utility(economy, prices, rationing, buyer),
        lambda: demand_set(economy, prices, rationing, buyer),
        lambda: economy.value(buyer, 1),
        lambda: Allocation((1, 2, 0)).item_of(buyer),
    ]
    for lookup in lookups:
        with pytest.raises(ValueError, match=f"^UnknownBuyer: no buyer {buyer!r} among 1..3$"):
            lookup()


@pytest.mark.parametrize("item", [-1, 5, 1.0, True])
def test_value_rejects_an_unknown_item(market, item):
    # -1 once read item d's value and 5 raised a bare IndexError
    with pytest.raises(ValueError, match=f"^UnknownItem: no item {item!r} among 0..4$"):
        market.value(1, item)
    assert [market.value(1, a) for a in market.items] == list(market.valuations[0])


def test_indirect_utility_running_example(market):
    prices = (0, 5, 4, 4, 7)
    rationing = RationingSystem.full(5, 5).forbid(3, 3).forbid(1, 3)
    values = [indirect_utility(market, prices, rationing, i) for i in market.buyers]
    assert values == [0, 4, 1, 4, 3]


def test_demand_sets_running_example(market):
    prices = (0, 5, 4, 4, 7)
    rationing = RationingSystem.full(5, 5).forbid(3, 3).forbid(1, 3)
    names = market.item_names
    demands = {
        i: {names[a] for a in demand_set(market, prices, rationing, i)}
        for i in market.buyers
    }
    assert demands == {
        1: {"o", "d"},
        2: {"c"},
        3: {"b"},
        4: {"a"},
        5: {"d"},
    }


def test_tie_demand_at_mid_prices(market):
    # at (0,5,4,3,5) with no rationing, buyer 1 is torn between c and d
    prices = (0, 5, 4, 3, 5)
    rationing = RationingSystem.full(5, 5)
    assert demand_set(market, prices, rationing, 1) == frozenset({3, 4})
    situation = demand_situation(market, prices, rationing)
    assert situation[2] == frozenset({3})
    assert situation[3] == frozenset({3})
    assert situation[4] == frozenset({1})
    assert situation[5] == frozenset({4})


def test_indifferent_buyer_keeps_only_dummy():
    economy = make_economy([[0, 0]], [2, 3], [4, 5])
    rationing = RationingSystem.full(1, 3)
    assert indirect_utility(economy, economy.lower_bounds, rationing, 1) == 0
    assert demand_set(economy, economy.lower_bounds, rationing, 1) == frozenset({DUMMY})
    situation = demand_situation(economy, economy.lower_bounds, rationing)
    assert situation == {1: frozenset({DUMMY})}


@given(markets())
def test_demand_matches_exhaustive_scan(case):
    economy, prices, rationing = case
    for i in economy.buyers:
        best, argmax = argmax_scan(economy, prices, rationing, i)
        assert indirect_utility(economy, prices, rationing, i) == best
        assert demand_set(economy, prices, rationing, i) == argmax


@given(markets())
def test_dummy_demanded_iff_zero_utility(case):
    economy, prices, rationing = case
    for i in economy.buyers:
        in_demand = DUMMY in demand_set(economy, prices, rationing, i)
        assert in_demand == (indirect_utility(economy, prices, rationing, i) == 0)


@given(markets())
def test_forbidding_nondemanded_item_changes_nothing(case):
    economy, prices, rationing = case
    for i in economy.buyers:
        demand = demand_set(economy, prices, rationing, i)
        spare = [
            a
            for a in economy.real_items
            if a not in demand and a in rationing.allowed[i - 1]
        ]
        if spare:
            shrunk = rationing.forbid(i, spare[0])
            assert demand_set(economy, prices, shrunk, i) == demand


@given(markets())
def test_forbidding_all_maximizers_changes_demand(case):
    economy, prices, rationing = case
    for i in economy.buyers:
        demand = demand_set(economy, prices, rationing, i)
        real = demand - {DUMMY}
        if not real:
            continue
        shrunk = rationing.forbid_many(i, real)
        if DUMMY in demand:
            assert demand_set(economy, prices, shrunk, i) != demand
        else:
            assert not (demand_set(economy, prices, shrunk, i) & demand)


@given(markets())
def test_utility_never_rises_with_prices(case):
    economy, prices, rationing = case
    for a in economy.real_items:
        if prices[a] >= economy.upper_bounds[a]:
            continue
        bumped = tuple(p + 1 if b == a else p for b, p in enumerate(prices))
        for i in economy.buyers:
            assert indirect_utility(economy, bumped, rationing, i) <= indirect_utility(
                economy, prices, rationing, i
            )


def test_json_schema_roundtrip(tmp_path, market, data_dir):
    loaded = economy_from_dict(json.loads((data_dir / "example_market.json").read_text()))
    assert loaded == market

    bad = {
        "items": ["a", "o"],
        "buyers": 1,
        "valuations": [[1, 2]],
        "lower_bounds": [0, 0],
        "upper_bounds": [1, 1],
    }
    with pytest.raises(EconomyValidationError):
        economy_from_dict(bad)

    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"items": ["a"], "buyers": 2, "valuations": [[1]]}))
    with pytest.raises(EconomyValidationError):
        economy_from_dict(json.loads(path.read_text()))


def strike_loop(economy, prices, rationing, buyer, sold):
    """Independent oracle: report, forbid the sold items of the report, repeat."""
    while True:
        demand = demand_set(economy, prices, rationing, buyer)
        hit = [a for a in demand if a in sold]
        if not hit:
            return rationing.allowed[buyer - 1], demand
        for a in hit:
            rationing = rationing.forbid(buyer, a)


@given(markets(), st.data())
def test_settled_demand_is_the_end_of_the_strike_loop(case, data):
    economy, prices, rationing = case
    items = sorted(data.draw(st.sets(st.sampled_from(list(economy.real_items)))))
    sold_forms = [
        {a: economy.n_buyers for a in items},  # a Matching's item_to_buyer
        frozenset(items),
        {},
        frozenset(),
    ]
    for i in economy.buyers:
        allowed = rationing.allowed[i - 1]
        for sold in sold_forms:
            want = strike_loop(economy, prices, rationing, i, sold)
            got = settled_demand(economy.valuations[i - 1], prices, allowed, sold)
            assert got == want
            if got[0] == allowed:
                assert got[0] is allowed
