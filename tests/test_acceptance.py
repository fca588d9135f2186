"""Acceptance suite: one test per criterion, each printing a pass line.

The randomized family (1000 economies, magnitudes <= 8, up to 5 buyers
and 5 items including the dummy) is generated once per module from a
fixed seed and shared by the statistical criteria.  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import pytest

from rigidmarket import (
    ManipulationProblem,
    RationingSystem,
    ScriptedLottery,
    Strategy,
    TreeSizeExceeded,
    aggregate_histories,
    brute_force_equilibrium_allocation,
    check_cwe,
    demand_set,
    demand_situation,
    enumerate_histories,
    expected_profit_under_strategy,
    expected_values,
    grow_over_demanded,
    indirect_utility,
    max_matching,
    minimal_over_demanded_sets,
    mods,
    optimal_strategy_search,
    over_demanded_sets,
    run_mapr,
)

from conftest import five_buyer_market
from strategies import random_admissible_prices, random_economy, random_rationing

SUITE_SEED = 20260811
SUITE_SIZE = 1000
LEAF_CAP = 200


@dataclass
class SuiteInstance:
    economy: object
    leaves: Optional[tuple]
    replays: Optional[list]


@pytest.fixture(scope="module")
def suite():
    rng = random.Random(SUITE_SEED)
    instances = []
    for _ in range(SUITE_SIZE):
        economy = random_economy(rng, max_buyers=5, max_real_items=4, max_value=8)
        try:
            leaves = enumerate_histories(economy, max_leaves=LEAF_CAP)
        except TreeSizeExceeded:
            instances.append(SuiteInstance(economy, None, None))
            continue
        replays = [
            run_mapr(economy, ScriptedLottery(list(leaf.winners))) for leaf in leaves
        ]
        instances.append(SuiteInstance(economy, leaves, replays))
    return instances


def _passed(line):
    print(f"PASS {line}")


def test_criterion_01_value_table_reproduction():
    start = time.perf_counter()
    market = five_buyer_market()
    prices = (0, 5, 4, 4, 7)
    rationing = RationingSystem.full(5, 5).forbid(3, 3).forbid(1, 3)
    utilities = [indirect_utility(market, prices, rationing, i) for i in market.buyers]
    assert utilities == [0, 4, 1, 4, 3]
    names = market.item_names
    demands = [
        sorted(names[a] for a in demand_set(market, prices, rationing, i))
        for i in market.buyers
    ]
    assert demands == [["d", "o"], ["c"], ["b"], ["a"], ["d"]]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(f"criterion 1: indirect utilities and demand sets match ({elapsed:.3f}s)")


def test_criterion_02_matching_and_minimal_set():
    market = five_buyer_market()
    situation = demand_situation(market, (0, 5, 4, 3, 5), RationingSystem.full(5, 5))
    matched = max_matching(situation)
    assert len(matched) == 3
    grown, _ = grow_over_demanded(situation)
    assert grown == frozenset({3, 4})  # items c and d
    assert mods(situation) == frozenset({3})  # item c
    _passed("criterion 2: matching size 3, grown set {c,d}, minimal set {c}")


GOLDEN_SHARED_ROWS = [
    {
        "t": "0",
        "prices": [0, 5, 4, 1, 5],
        "x_min": ["c"],
        "u_sets": [[], [], [], [], []],
        "sold_buyers": [],
        "demands": [["c"], ["c"], ["c"], ["a"], ["d"]],
        "sold_items": [],
        "lottery": None,
    },
    {
        "t": "1",
        "prices": [0, 5, 4, 2, 5],
        "x_min": ["c"],
        "u_sets": [[], [], [], [], []],
        "sold_buyers": [],
        "demands": [["c"], ["c"], ["c"], ["a"], ["d"]],
        "sold_items": [],
        "lottery": None,
    },
    {
        "t": "2",
        "prices": [0, 5, 4, 3, 5],
        "x_min": ["c"],
        "u_sets": [[], [], [], [], []],
        "sold_buyers": [],
        "demands": [["c", "d"], ["c"], ["c"], ["a"], ["d"]],
        "sold_items": [],
        "lottery": None,
    },
]


def _golden_branch(winner):
    third = {
        "t": "3",
        "prices": [0, 5, 4, 4, 5],
        "x_min": ["c"],
        "u_sets": [[], [], [], [], []],
        "sold_buyers": [],
        "demands": [["d"], ["c"], ["c"], ["a"], ["d"]],
        "sold_items": [],
        "lottery": {"item": "c", "entrants": [2, 3], "winner": winner},
    }
    if winner == 2:
        tail = [
            {
                "t": "4.1",
                "prices": [0, 5, 4, 4, 5],
                "x_min": ["d"],
                "u_sets": [[], [], ["c"], [], []],
                "sold_buyers": [2],
                "demands": [["d"], None, ["d"], ["a"], ["d"]],
                "sold_items": ["c"],
                "lottery": None,
            },
            {
                "t": "5.1",
                "prices": [0, 5, 4, 4, 6],
                "x_min": ["d"],
                "u_sets": [["c"], [], ["c"], [], []],
                "sold_buyers": [2],
                "demands": [["d"], None, ["b", "d"], ["a"], ["d"]],
                "sold_items": ["c"],
                "lottery": None,
            },
            {
                "t": "6.1",
                "prices": [0, 5, 4, 4, 7],
                "x_min": [],
                "u_sets": [["c"], [], ["c"], [], []],
                "sold_buyers": [2],
                "demands": [["o", "d"], None, ["b"], ["a"], ["d"]],
                "sold_items": ["c"],
                "lottery": None,
            },
        ]
    else:
        tail = [
            {
                "t": "4.2",
                "prices": [0, 5, 4, 4, 5],
                "x_min": ["d"],
                "u_sets": [[], ["c"], [], [], []],
                "sold_buyers": [3],
                "demands": [["d"], ["a", "b"], None, ["a"], ["d"]],
                "sold_items": ["c"],
                "lottery": None,
            },
            {
                "t": "5.2",
                "prices": [0, 5, 4, 4, 6],
                "x_min": ["d"],
                "u_sets": [["c"], ["c"], [], [], []],
                "sold_buyers": [3],
                "demands": [["d"], ["a", "b"], None, ["a"], ["d"]],
                "sold_items": ["c"],
                "lottery": None,
            },
            {
                "t": "6.2",
                "prices": [0, 5, 4, 4, 7],
                "x_min": [],
                "u_sets": [["c"], ["c"], [], [], []],
                "sold_buyers": [3],
                "demands": [["o", "d"], ["a", "b"], None, ["a"], ["d"]],
                "sold_items": ["c"],
                "lottery": None,
            },
        ]
    return GOLDEN_SHARED_ROWS + [third] + tail


def test_criterion_03_golden_traces():
    start = time.perf_counter()
    market = five_buyer_market()

    outcome = run_mapr(market, ScriptedLottery([2]))
    got = [outcome.trace.row_dict(row) for row in outcome.trace.rows]
    assert got == _golden_branch(2)
    assert outcome.prices == (0, 5, 4, 4, 7)
    assert outcome.allocation.assignment == (0, 3, 2, 1, 4)

    other = run_mapr(market, ScriptedLottery([3]))
    got = [other.trace.row_dict(row) for row in other.trace.rows]
    assert got == _golden_branch(3)
    assert other.prices == (0, 5, 4, 4, 7)
    assert other.allocation.assignment == (0, 2, 3, 1, 4)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(f"criterion 3: both golden traces match field for field ({elapsed:.3f}s)")


def test_criterion_04_expected_values():
    market = five_buyer_market()
    report = expected_values(market)
    assert report.expected_profit[1] == Fraction(0)
    assert report.expected_profit[3] == Fraction(5, 2)
    assert report.expected_price[1] == Fraction(5)
    leaves = enumerate_histories(market)
    assert len(leaves) == 2
    assert all(leaf.probability == Fraction(1, 2) for leaf in leaves)
    _passed("criterion 4: u*[1]=0, u*[3]=5/2, p*[a]=5, two leaves at 1/2 each")


def test_criterion_05_manipulation_value():
    market = five_buyer_market()
    problem = ManipulationProblem(market, 1)
    for claimed in (7, 9):
        strategy = Strategy.from_real_values([4, 3, claimed, 7])
        assert expected_profit_under_strategy(problem, strategy) == Fraction(1, 3)
    _passed("criterion 5: overclaiming the capped item yields exactly 1/3")


def test_criterion_06_every_history_is_an_equilibrium(suite):
    assert len(suite) >= 1000
    economies = 0
    histories = 0
    for instance in suite:
        if instance.leaves is None:
            continue
        economies += 1
        for leaf in instance.leaves:
            certificate = check_cwe(
                instance.economy, leaf.prices, leaf.rationing, leaf.allocation
            )
            assert certificate.ok, (instance.economy, leaf, certificate.failures())
            histories += 1
    _passed(
        f"criterion 6: {histories} histories over {economies} economies all pass"
        " the five equilibrium conditions"
    )


def test_criterion_07_overdemand_oracle_equivalence(suite):
    rng = random.Random(SUITE_SEED + 7)
    situations = 0
    contested = 0
    for instance in suite:
        economy = instance.economy
        full = RationingSystem.full(economy.n_buyers, economy.n_items)
        probes = [
            demand_situation(economy, economy.lower_bounds, full),
            demand_situation(
                economy,
                random_admissible_prices(rng, economy),
                random_rationing(rng, economy),
            ),
        ]
        for situation in probes:
            situations += 1
            exists = brute_force_equilibrium_allocation(situation) is not None
            has_overdemand = bool(over_demanded_sets(situation))
            assert has_overdemand == (not exists)
            found = mods(situation)
            assert bool(found) == has_overdemand
            if not exists:
                contested += 1
                assert found in minimal_over_demanded_sets(situation)
    _passed(
        f"criterion 7: existence oracle and minimal-set membership agree on"
        f" {situations} situations ({contested} contested)"
    )


def test_criterion_08_marked_up_items_always_sellable(suite):
    rounds = 0
    for instance in suite:
        if instance.replays is None:
            continue
        economy = instance.economy
        for outcome in instance.replays:
            for row in outcome.trace.rows:
                sold = set(row.sold_items)
                marked_up = frozenset(
                    a
                    for a in economy.real_items
                    if a not in sold and row.prices[a] > economy.lower_bounds[a]
                )
                restricted = {}
                for i in economy.buyers:
                    if row.demands[i - 1] is None:
                        continue
                    overlap = frozenset(row.demands[i - 1]) & marked_up
                    if overlap:
                        restricted[i] = overlap
                assert len(max_matching(restricted)) == len(marked_up)
                rounds += 1
            assigned = outcome.allocation.assigned_items()
            for a in economy.real_items:
                if outcome.prices[a] > economy.lower_bounds[a]:
                    assert a in assigned
    _passed(f"criterion 8: every marked-up item set is fully matchable ({rounds} rounds)")


def test_criterion_09_expectation_cross_validation(suite):
    checked = 0
    for instance in suite:
        if instance.leaves is None:
            continue
        report = expected_values(instance.economy)
        profits, prices = aggregate_histories(instance.economy, instance.leaves)
        assert profits == report.expected_profit
        assert prices == report.expected_price
        checked += 1
    _passed(f"criterion 9: recursion equals history aggregation on {checked} economies")


def test_criterion_10_two_buyer_truthfulness():
    start = time.perf_counter()
    rng = random.Random(SUITE_SEED + 10)
    checked = 0
    while checked < 200:
        economy = random_economy(rng, max_buyers=2, max_real_items=3, max_value=8)
        if economy.n_buyers != 2:
            continue
        result = optimal_strategy_search(ManipulationProblem(economy, 1))
        assert result.truthful_is_optimal, economy
        assert result.best_profit == result.truthful_profit
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    _passed(f"criterion 10: truthful optimal in {checked} two-buyer markets ({elapsed:.1f}s)")


def test_criterion_11_termination_bounds(suite):
    traces = 0
    for instance in suite:
        if instance.replays is None:
            continue
        economy = instance.economy
        for outcome in instance.replays:
            assert outcome.price_rounds <= economy.bound_spread()
            assert outcome.lottery_rounds <= economy.n_items - 1
            traces += 1
    _passed(f"criterion 11: round bounds hold on {traces} traces")
