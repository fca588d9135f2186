from fractions import Fraction

import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidmarket import (
    Matching,
    RationingSystem,
    TreeSizeExceeded,
    aggregate_histories,
    economy_from_dict,
    enumerate_histories,
    expected_values,
    indirect_utility,
    initial_state,
    price_increase_step,
    refresh_demands,
    run_mapr,
    ScriptedLottery,
    validate_economy,
)
from rigidmarket.cli import main
from rigidmarket.expectation import record_sale, sold_matching_from_rationing
from rigidmarket.mechanism import apply_sale, gate

from strategies import economies, make_economy, repeated_row_economies


def test_rationing_sale_roundtrip():
    rationing = RationingSystem.full(3, 4)
    assert len(sold_matching_from_rationing(rationing, 4)) == 0
    sold_one = record_sale(rationing, 2, 3)
    assert sold_matching_from_rationing(sold_one, 4) == Matching([(2, 3)])
    sold_two = record_sale(sold_one, 1, 1)
    assert sold_matching_from_rationing(sold_two, 4) == Matching([(2, 3), (1, 1)])
    # barring one of three buyers leaves two allowed: no single holder
    with pytest.raises(ValueError):
        sold_matching_from_rationing(RationingSystem.full(3, 4).forbid(1, 2), 4)


def test_expected_values_running_example(market):
    report = expected_values(market)
    assert report.expected_profit[1] == Fraction(0)
    assert report.expected_profit[3] == Fraction(5, 2)
    assert report.expected_price[1] == Fraction(5)
    assert report.tree_stats.leaves == 2
    assert report.tree_stats.probability_mass == Fraction(1)


def test_equal_rows_can_expect_unequal_profits():
    # buyers 1, 3 and 5 report one row, yet buyer 5 expects less: after
    # buyer 1 wins a, {b} (buyers 2, 4) and {c} (buyers 3, 5) are both
    # over-demanded and the search seeds from unserved buyer 4, so b rises
    # first; after buyer 5 wins a, {c} is held by buyers 1 and 3 and the
    # seed is buyer 3, so c rises first
    same = (4, 1, 7, 6)
    economy = make_economy(
        [same, (4, 5, 7, 5), same, (4, 4, 0, 0), same], [0, 0, 2, 5], [1, 2, 5, 8]
    )
    report = expected_values(economy)
    assert report.expected_profit == {
        1: Fraction(23, 12),
        2: Fraction(31, 18),
        3: Fraction(23, 12),
        4: Fraction(1),
        5: Fraction(11, 6),
    }
    assert report.expected_price == {
        0: Fraction(0), 1: Fraction(1), 2: Fraction(2), 3: Fraction(5), 4: Fraction(46, 9)
    }
    assert (report.tree_stats.nodes, report.tree_stats.leaves) == (36, 14)
    assert aggregate_histories(economy, enumerate_histories(economy)) == (
        report.expected_profit,
        report.expected_price,
    )


def test_no_contention_root_is_terminal():
    economy = make_economy([[9, 1], [1, 9]], [2, 3], [5, 6])
    report = expected_values(economy)
    full = RationingSystem.full(2, 3)
    for i in economy.buyers:
        assert report.expected_profit[i] == indirect_utility(
            economy, economy.lower_bounds, full, i
        )
    for a in economy.items:
        assert report.expected_price[a] == economy.lower_bounds[a]
    assert report.tree_stats.leaves == 1

    leaves = enumerate_histories(economy)
    assert len(leaves) == 1 and leaves[0].probability == Fraction(1)


def test_two_histories_running_example(market):
    leaves = enumerate_histories(market)
    assert [leaf.probability for leaf in leaves] == [Fraction(1, 2), Fraction(1, 2)]
    assert {leaf.allocation.assignment for leaf in leaves} == {
        (0, 3, 2, 1, 4),
        (0, 2, 3, 1, 4),
    }
    # depth first, the entrants of each lottery in ascending order
    assert [leaf.winners for leaf in leaves] == [(2,), (3,)]
    assert all(leaf.prices == (0, 5, 4, 4, 7) for leaf in leaves)


def test_three_way_lottery():
    # one item, hard price: three equally keen buyers draw immediately
    economy = make_economy([[5], [5], [5]], [2], [2])
    leaves = enumerate_histories(economy)
    assert [leaf.probability for leaf in leaves] == [Fraction(1, 3)] * 3
    assert {leaf.winners[0] for leaf in leaves} == {1, 2, 3}
    report = expected_values(economy)
    assert report.expected_profit[1] == Fraction(1)  # (5-2)/3
    assert report.expected_price[1] == Fraction(2)


def test_tree_size_guard(market):
    with pytest.raises(TreeSizeExceeded) as exc:
        expected_values(market, node_limit=3)
    assert exc.value.nodes == 4
    with pytest.raises(TreeSizeExceeded) as exc:
        enumerate_histories(market, max_leaves=1)
    assert exc.value.leaves == 2


def live_round_count(economy):
    """Rounds over every history of the live mechanism, one raise at a time."""
    rounds = 0
    pending = [initial_state(economy)]
    while pending:
        state = refresh_demands(economy, pending.pop())
        rounds += 1
        x_min, item, entrants = gate(economy, state)
        if x_min is None:
            continue
        if item is None:
            pending.append(price_increase_step(economy, state, x_min))
            continue
        for winner in entrants:
            pending.append(apply_sale(state, item, winner))
    return rounds


@settings(max_examples=60)
@given(st.one_of(economies(), repeated_row_economies()))
@example(make_economy([[5] * 3] * 4, [2] * 3, [2] * 3))  # sibling draws meet often
def test_states_of_one_residual_market_play_alike(economy):
    # every state the live mechanism reaches with the same prices, sold
    # items and sold buyers settles to the same demands and gets the same
    # gate decision, whoever holds which item and whatever it struck
    seen = {}
    pending = [initial_state(economy)]
    while pending:
        state = refresh_demands(economy, pending.pop())
        sold = state.sold
        key = (state.prices, frozenset(sold.item_to_buyer), frozenset(sold.buyer_to_item))
        decision = gate(economy, state)
        assert seen.setdefault(key, (state.demands, decision)) == (state.demands, decision)
        x_min, item, entrants = decision
        if x_min is None:
            continue
        if item is None:
            pending.append(price_increase_step(economy, state, x_min))
            continue
        for winner in entrants:
            pending.append(apply_sale(state, item, winner))


def assert_node_count_is_the_round_count(economy):
    nodes = expected_values(economy).tree_stats.nodes
    assert nodes == live_round_count(economy)
    assert expected_values(economy, node_limit=nodes).tree_stats.nodes == nodes
    # the walk stops at the first node past the limit and reports that count
    with pytest.raises(TreeSizeExceeded) as exc:
        expected_values(economy, node_limit=nodes - 1)
    assert exc.value.nodes == nodes


@settings(max_examples=60)
@given(st.one_of(economies(), repeated_row_economies()))
def test_node_count_matches_live_rounds(economy):
    assert_node_count_is_the_round_count(economy)


@pytest.mark.parametrize("room", [10, 200])
def test_node_count_covers_a_long_stable_stretch(room):
    # both buyers keep demanding a through every raise of its cap room,
    # then draw lots for it at the cap: room + 1 rounds and two leaves
    economy = make_economy([[1000], [1000]], [0], [room])
    assert_node_count_is_the_round_count(economy)
    report = expected_values(economy)
    assert report.tree_stats.nodes == room + 1 + 2
    assert aggregate_histories(economy, enumerate_histories(economy)) == (
        report.expected_profit,
        report.expected_price,
    )
    with pytest.raises(TreeSizeExceeded) as exc:
        expected_values(economy, node_limit=1)
    assert exc.value.nodes == 2


@settings(max_examples=60)
@given(st.one_of(economies(), repeated_row_economies()))
def test_recursion_agrees_with_history_aggregation(economy):
    report = expected_values(economy)
    leaves = enumerate_histories(economy)
    profits, prices = aggregate_histories(economy, leaves)
    assert profits == report.expected_profit
    assert prices == report.expected_price
    assert sum(leaf.probability for leaf in leaves) == Fraction(1)
    assert report.tree_stats.leaves == len(leaves)


def test_sibling_draws_reuse_one_residual_market(monkeypatch):
    # buyers 1, 2 and 3 draw for a, then the two left draw for b; the
    # draw for b after 1 wins a ends where the one after 2 wins a does,
    # with a and b sold to buyers 1 and 2: three of the six leaves repeat
    # a residual market, so only seven of the ten rounds are played
    economy = make_economy([[5, 5]] * 3, [2, 2], [2, 2])
    played = []

    def counted(*args):
        played.append(args)
        return refresh_demands(*args)

    monkeypatch.setattr("rigidmarket.expectation.refresh_demands", counted)
    report = expected_values(economy)
    assert report.expected_profit == {1: 2, 2: 2, 3: 2}
    assert report.expected_price == {0: 0, 1: 2, 2: 2}
    assert (report.tree_stats.nodes, report.tree_stats.leaves) == (10, 6)
    assert len(played) == 10 - 3
    assert aggregate_histories(economy, enumerate_histories(economy)) == (
        report.expected_profit,
        report.expected_price,
    )


@pytest.mark.parametrize(
    "buyers, items",
    [
        # round 6 repeats the leaf at round 3 (a and b sold to buyers 1
        # and 2): the pass plays them as one market of two histories
        (3, 2),
        # rounds 13 to 15 repeat rounds 3 to 5 (a and b sold to buyers 1
        # and 2, then a draw for c): limits 13 and 14 are crossed inside
        # markets that stand for several rounds
        (4, 3),
    ],
)
def test_size_guard_counts_the_rounds_a_hit_stands_for(buyers, items):
    economy = make_economy([[5] * items] * buyers, [2] * items, [2] * items)
    nodes = live_round_count(economy)
    assert expected_values(economy, node_limit=nodes).tree_stats.nodes == nodes
    for limit in range(1, nodes):
        with pytest.raises(TreeSizeExceeded) as exc:
            expected_values(economy, node_limit=limit)
        assert exc.value.nodes == limit + 1


@pytest.mark.parametrize(
    "valuations, profits, denominators",
    [
        # buyer 1 winning the three-way draw for a ends at denominator 3;
        # a win by buyer 2 or 3 leads to a two-way draw for b
        (
            [[10, 9], [10, 0], [10, 0], [0, 10]],
            [3, Fraction(5, 3), Fraction(5, 3), Fraction(10, 3)],
            [3, 6, 6, 6, 6],
        ),
        # a win by buyer 1 or 2 leaves two buyers for b, a win by buyer 3
        # three: leaves two draws deep sit at denominators 6 and 9
        (
            [[10, 9], [10, 9], [10, 0], [0, 10]],
            [Fraction(25, 9), Fraction(25, 9), Fraction(5, 3), Fraction(20, 9)],
            [6, 6, 6, 6, 9, 9, 9],
        ),
    ],
)
def test_leaves_at_mixed_denominators(valuations, profits, denominators):
    economy = make_economy(valuations, [5, 5], [5, 5])
    leaves = enumerate_histories(economy)
    assert sorted(leaf.probability.denominator for leaf in leaves) == denominators
    report = expected_values(economy)
    assert report.expected_profit == dict(zip(economy.buyers, profits))
    assert report.expected_price == {0: 0, 1: Fraction(5), 2: Fraction(5)}
    assert report.tree_stats.probability_mass == 1
    assert report.tree_stats.leaves == len(leaves)
    assert aggregate_histories(economy, leaves) == (
        report.expected_profit,
        report.expected_price,
    )


@settings(max_examples=60)
@given(economies())
def test_bounds_and_leaf_identities(economy):
    report = expected_values(economy)
    for i in economy.buyers:
        assert Fraction(0) <= report.expected_profit[i] <= max(economy.valuations[i - 1])
    for a in economy.items:
        assert economy.lower_bounds[a] <= report.expected_price[a] <= economy.upper_bounds[a]
    for leaf in enumerate_histories(economy):
        for i in economy.buyers:
            item = leaf.allocation.item_of(i)
            realized = economy.value(i, item) - leaf.prices[item]
            assert realized == indirect_utility(economy, leaf.prices, leaf.rationing, i)


@settings(max_examples=30)
@given(economies(max_buyers=3, max_real_items=2))
def test_leaves_replay_through_the_mechanism(economy):
    for leaf in enumerate_histories(economy):
        outcome = run_mapr(economy, ScriptedLottery(list(leaf.winners)))
        assert outcome.prices == leaf.prices
        assert outcome.allocation == leaf.allocation
        assert outcome.rationing == leaf.rationing


DEEP_ITEMS = 50


def deep_market_document(m=DEEP_ITEMS):
    """For each of ``m`` items, two buyers value only it, at 10; floor = cap = 5.

    Every item goes by a two-way lottery, one after another, so each
    history is ``m`` lotteries deep.
    """
    return {
        "items": [f"i{k}" for k in range(1, m + 1)],
        "buyers": 2 * m,
        "valuations": [[10 if a == k else 0 for a in range(m)] for k in range(m) for _ in (1, 2)],
        "lower_bounds": [5] * m,
        "upper_bounds": [5] * m,
    }


def stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_deep_market_hits_size_guards_not_recursion_limit(tmp_path, capsys):
    document = deep_market_document()
    economy = validate_economy(
        ("o", *document["items"]),
        [(0, *row) for row in document["valuations"]],
        (0, *document["lower_bounds"]),
        (0, *document["upper_bounds"]),
    )
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(document))
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 40)
    try:
        with pytest.raises(TreeSizeExceeded) as exc:
            expected_values(economy, node_limit=200)
        assert exc.value.nodes == 201
        with pytest.raises(TreeSizeExceeded) as exc:
            enumerate_histories(economy, max_leaves=1)
        assert exc.value.leaves == 2
        code = main(["expect", str(path), "--node-limit", "200"])
    finally:
        sys.setrecursionlimit(old_limit)
    err = capsys.readouterr().err
    assert code == 2
    assert "exceeded 200 nodes" in err
    assert "Traceback" not in err


def test_deep_market_expected_values_are_exact():
    # ten two-way draws in a row: 1,024 leaves, each at denominator 2**10
    economy = economy_from_dict(deep_market_document(10))
    report = expected_values(economy)
    assert report.expected_profit == {i: Fraction(5, 2) for i in economy.buyers}
    assert report.expected_price == {0: 0, **{a: Fraction(5) for a in range(1, 11)}}
    assert report.tree_stats.probability_mass == 1
    assert report.tree_stats.leaves == 1024
    assert report.tree_stats.nodes == live_round_count(economy)
