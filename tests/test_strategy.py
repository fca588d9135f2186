import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidmarket import (
    ManipulationProblem,
    NotTwoBuyers,
    ScriptedLottery,
    SizeGuard,
    Strategy,
    TreeSizeExceeded,
    default_value_cap,
    enumerate_histories,
    expected_profit_under_strategy,
    expected_values,
    initial_state,
    optimal_strategy_search,
    price_increase_step,
    refresh_demands,
    run_mapr,
    two_buyer_case_analysis,
)
from rigidmarket.mechanism import apply_sale, gate
from rigidmarket.model import settled_demand
from rigidmarket.strategy import (
    _AnswerTrie,
    _clamp_windows,
    _demand_signature,
    _true_profit_of_run,
)

from strategies import economies, make_economy, random_economy, repeated_row_economies


def history_oracle(problem, strategy):
    """Independent route: enumerate the reported run, score with true values."""
    reported = problem.reported_economy(strategy)
    truth = problem.economy.valuations[problem.manipulator - 1]
    total = Fraction(0)
    for leaf in enumerate_histories(reported):
        item = leaf.allocation.item_of(problem.manipulator)
        total += leaf.probability * (truth[item] - leaf.prices[item])
    return total


def test_strategy_validation():
    with pytest.raises(ValueError):
        Strategy((1, 2))
    with pytest.raises(ValueError):
        Strategy((0, -1))
    # reports are integers, as economy values are: no float, no bool
    with pytest.raises(ValueError, match="^NonIntegerEntry"):
        Strategy((0, 4, 3, 5.5, 7))
    with pytest.raises(ValueError, match="^NonIntegerEntry"):
        Strategy((0, True, 3, 9, 7))
    assert Strategy.from_real_values([2, 0]).reported_values == (0, 2, 0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda m: ManipulationProblem(m, 1.0), "^UnknownBuyer: no buyer 1.0 among 1..5$"),
        (lambda m: ManipulationProblem(m, True), "^UnknownBuyer: no buyer True among 1..5$"),
        (lambda m: ManipulationProblem(m, 6), "^UnknownBuyer: no buyer 6 among 1..5$"),
        (lambda m: Strategy.truthful(m, 0), "^UnknownBuyer: no buyer 0 among 1..5$"),
        (lambda m: Strategy.truthful(m, -1), "^UnknownBuyer: no buyer -1 among 1..5$"),
        (lambda m: Strategy.truthful(m, 6), "^UnknownBuyer: no buyer 6 among 1..5$"),
        (lambda m: Strategy.truthful(m, True), "^UnknownBuyer: no buyer True among 1..5$"),
    ],
    ids=[
        "problem_float",
        "problem_bool",
        "problem_unknown",
        "truthful_zero",
        "truthful_negative",
        "truthful_past_last",
        "truthful_bool",
    ],
)
def test_only_existing_buyers_are_accepted(market, make, message):
    # 1.0 and True are "in" range(1, 6), and negative indices read other rows
    with pytest.raises(ValueError, match=message):
        make(market)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda m: Strategy((1, 2)), "^NonZeroDummyValuation: "),
        (lambda m: Strategy(()), "^NonZeroDummyValuation: "),
        (lambda m: Strategy((0, -1)), "^NegativeEntry: "),
        (lambda m: ManipulationProblem(m, 1).reported_economy(Strategy((0, 1))), "^ShapeError: "),
        (lambda m: optimal_strategy_search(ManipulationProblem(m, 1), cap=-1), "^NegativeEntry: "),
    ],
    ids=["dummy_valued", "empty", "negative_value", "wrong_length", "negative_cap"],
)
def test_strategy_api_errors_carry_stable_codes(market, make, message):
    with pytest.raises(ValueError, match=message):
        make(market)


def test_truthful_profit_running_example(market):
    problem = ManipulationProblem(market, 1)
    truthful = Strategy.truthful(market, 1)
    assert expected_profit_under_strategy(problem, truthful) == Fraction(0)


def test_overclaiming_the_capped_item_pays(market):
    problem = ManipulationProblem(market, 1)
    for claimed in (7, 8, 10):
        strategy = Strategy.from_real_values([4, 3, claimed, 7])
        assert expected_profit_under_strategy(problem, strategy) == Fraction(1, 3)


def test_zero_report_earns_nothing(market):
    problem = ManipulationProblem(market, 1)
    zeros = Strategy.from_real_values([0, 0, 0, 0])
    profit = expected_profit_under_strategy(problem, zeros)
    assert profit == history_oracle(problem, zeros)
    assert profit == Fraction(0)


@settings(max_examples=40)
@given(
    st.one_of(
        economies(max_buyers=3, max_real_items=2, max_value=6),
        repeated_row_economies(max_value=6),
    )
)
def test_profit_matches_history_oracle(economy):
    problem = ManipulationProblem(economy, 1)
    rng = random.Random(economy.n_buyers * 7 + economy.n_items)
    for _ in range(3):
        values = [rng.randint(0, 7) for _ in economy.real_items]
        strategy = Strategy.from_real_values(values)
        assert expected_profit_under_strategy(problem, strategy) == history_oracle(
            problem, strategy
        )


@settings(max_examples=40)
@given(economies(max_buyers=3, max_real_items=2, max_value=6))
def test_long_step_evaluator_is_exact(economy):
    # the walker sums integer payoffs per path denominator; the oracle
    # scores each history of the live mechanism with its Fraction chance
    problem = ManipulationProblem(economy, 1)
    truth = economy.valuations[0]
    rng = random.Random(economy.bound_spread() + economy.n_buyers)
    for _ in range(3):
        row = (0, *[rng.randint(0, 7) for _ in economy.real_items])
        reported = economy.with_valuation_row(1, row)
        walked, _ = _true_profit_of_run(reported, truth, 1, 10**6)
        assert walked == history_oracle(problem, Strategy(row))


@settings(max_examples=25)
@given(economies(max_buyers=3, max_real_items=2, max_value=6))
def test_truthful_profit_is_never_negative(economy):
    problem = ManipulationProblem(economy, 1)
    truthful = Strategy.truthful(economy, 1)
    assert expected_profit_under_strategy(problem, truthful) >= 0


def test_search_on_running_example_finds_the_gain(market):
    result = optimal_strategy_search(ManipulationProblem(market, 1), cap=10)
    assert result.best_profit >= Fraction(1, 3)
    assert result.best_profit == Fraction(1, 3)  # search says 1/3 is the optimum
    assert not result.truthful_is_optimal
    assert result.strategies_evaluated == 11**4
    # 5,551 demand signatures, but only 978 distinct answer transcripts
    assert result.distinct_evaluations == 5551
    assert result.full_walks == 978


def box_signature(economy, values):
    """Each value and pairwise difference clamped to just past its price window."""
    lower, upper = economy.lower_bounds, economy.upper_bounds
    items = economy.real_items
    singles = tuple(min(max(values[a - 1], lower[a] - 1), upper[a] + 1) for a in items)
    diffs = tuple(
        min(max(values[a - 1] - values[b - 1], lower[a] - upper[b] - 1), upper[a] - lower[b] + 1)
        for a in items
        for b in items
        if a < b
    )
    return singles, diffs


@settings(max_examples=60)
@given(economies(max_buyers=2, max_real_items=4, max_value=6), st.integers(0, 4))
def test_signature_partitions_the_box_like_the_oracle(economy, cap):
    # one clamp rule over all pairs of the full row, dummy included, splits
    # the box exactly as the oracle's singles plus real pairs do
    windows = _clamp_windows(economy.lower_bounds, economy.upper_bounds)
    by_search, by_oracle = {}, {}
    for values in itertools.product(range(cap + 1), repeat=economy.n_items - 1):
        by_search.setdefault(_demand_signature((0, *values), windows), set()).add(values)
        by_oracle.setdefault(box_signature(economy, values), set()).add(values)
    assert sorted(map(sorted, by_search.values())) == sorted(map(sorted, by_oracle.values()))


def brute_force_search(problem, cap):
    """Every vector of the box scored by the plain walk, with the documented tie rule.

    Returns (best strategy, best profit, truthful profit, distinct signatures).
    """
    economy = problem.economy
    best_profit = best_values = None
    signatures = set()
    for values in itertools.product(range(cap + 1), repeat=economy.n_items - 1):
        signatures.add(box_signature(economy, values))
        profit = expected_profit_under_strategy(problem, Strategy.from_real_values(values))
        if best_profit is None or profit > best_profit:
            best_profit, best_values = profit, values
    truthful = Strategy.truthful(economy, problem.manipulator)
    truthful_profit = expected_profit_under_strategy(problem, truthful)
    if truthful_profit >= best_profit:
        return truthful, truthful_profit, truthful_profit, len(signatures)
    best = Strategy.from_real_values(best_values)
    return best, best_profit, truthful_profit, len(signatures)


def test_search_matches_the_plain_walk_over_the_box():
    rng = random.Random(8)
    misreports = 0
    for _ in range(30):
        economy = random_economy(rng, max_buyers=3, max_real_items=2, max_value=6)
        for buyer in economy.buyers:
            problem = ManipulationProblem(economy, buyer)
            result = optimal_strategy_search(problem)
            best, best_profit, truthful_profit, signatures = brute_force_search(
                problem, result.cap
            )
            assert result.best_strategy == best, economy
            assert result.best_profit == best_profit
            assert result.truthful_profit == truthful_profit
            assert result.distinct_evaluations == signatures
            assert result.full_walks <= result.distinct_evaluations
            misreports += not result.truthful_is_optimal
    assert misreports == 2  # the sample holds profitable misreports too


@settings(max_examples=30)
@given(
    st.one_of(
        economies(max_buyers=3, max_real_items=2, max_value=6),
        repeated_row_economies(max_value=6),
    ),
    st.data(),
)
def test_answer_trie_replays_the_plain_walk(economy, data):
    m = economy.n_items - 1
    rows = data.draw(
        st.lists(st.tuples(*[st.integers(0, 9)] * m), min_size=1, max_size=12)
    )
    truth = economy.valuations[0]
    trie = _AnswerTrie(economy, 1, 10**6)

    def walked(row):
        reported = economy.with_valuation_row(1, (0, *row))
        return _true_profit_of_run(reported, truth, 1, 10**6)[0]

    for row in rows:
        assert trie.profit((0, *row)) == walked(row)
    walks = trie.full_walks
    assert walks <= len(set(rows))
    # every transcript is recorded now: a second pass only replays
    for row in rows:
        assert trie.profit((0, *row)) == walked(row)
    assert trie.full_walks == walks


def reporting_states(economy, manipulator):
    """The live mechanism's opened states where she reports, depth first, until she buys."""
    states = []
    pending = [initial_state(economy)]
    while pending:
        state = pending.pop()
        if manipulator in state.sold.buyer_to_item:
            continue
        if manipulator in state.active:
            states.append(state)
        state = refresh_demands(economy, state)
        x_min, item, entrants = gate(economy, state)
        if x_min is None:
            continue
        if item is None:
            pending.append(price_increase_step(economy, state, x_min))
            continue
        for winner in reversed(entrants):
            pending.append(apply_sale(state, item, winner))
    return states


@settings(max_examples=40)
@given(
    st.one_of(
        economies(max_buyers=3, max_real_items=2, max_value=6),
        repeated_row_economies(max_value=6),
    ),
    st.data(),
)
def test_walk_queries_exactly_the_states_where_she_reports(economy, data):
    # the trie's transcript: one query (prices, sold items) per residual
    # market (prices, sold items, sold buyers) where she is unsold and
    # active, and no other; each answer is her settled demand at every
    # state of the live mechanism in that market, whatever her row there
    row = (0, *data.draw(st.tuples(*[st.integers(0, 9)] * (economy.n_items - 1))))
    reported = economy.with_valuation_row(1, row)
    _, transcript = _true_profit_of_run(reported, economy.valuations[0], 1, 10**6)
    rows = {}  # her permission rows at each residual market, depth first
    for s in reporting_states(reported, 1):
        key = (s.prices, frozenset(s.sold.item_to_buyer), frozenset(s.sold.buyer_to_item))
        rows.setdefault(key, set()).add(s.rationing.allowed[0])
    assert Counter(query for query, _ in transcript) == Counter(key[:2] for key in rows)
    for (prices, sold), answer in transcript:
        for key, allowed_rows in rows.items():
            if key[:2] == (prices, sold):
                for allowed in allowed_rows:
                    assert answer == settled_demand(row, prices, allowed, sold)[1]


def test_search_size_guard_counts_like_the_plain_walk():
    cases = [
        # node counts over the default box run from 2 to 12; the first walk
        # past 11 nodes comes after many that the trie has recorded
        (make_economy([[2, 4], [4, 6], [6, 5]], [2, 0], [5, 1]), 11),
        # the first walk past 7 nodes meets a stretch of stable raises
        (make_economy([[9, 11], [15, 17], [18, 14]], [1, 4], [3, 8]), 7),
    ]
    for economy, limit in cases:
        problem = ManipulationProblem(economy, 1)
        cap = default_value_cap(problem)
        for k, values in enumerate(itertools.product(range(cap + 1), repeat=2)):
            try:
                expected_profit_under_strategy(
                    problem, Strategy.from_real_values(values), node_limit=limit
                )
            except TreeSizeExceeded as exc:
                plain = exc
                break
        assert k > 0 and plain.nodes == limit + 1
        with pytest.raises(TreeSizeExceeded) as searched:
            optimal_strategy_search(problem, node_limit=limit)
        assert searched.value.nodes == limit + 1


def test_search_single_buyer_trivially_truthful():
    economy = make_economy([[6, 2]], [1, 1], [4, 4])
    result = optimal_strategy_search(ManipulationProblem(economy, 1))
    assert result.truthful_is_optimal
    assert result.best_strategy == Strategy.truthful(economy, 1)
    assert result.best_profit == Fraction(5)


def test_search_size_guard(market):
    with pytest.raises(SizeGuard):
        optimal_strategy_search(ManipulationProblem(market, 1), cap=100)


@pytest.mark.parametrize(
    "cap, message",
    [(-1, "non-negative"), (2.0, "^NonIntegerEntry"), (True, "^NonIntegerEntry")],
    ids=["negative", "float", "bool"],
)
def test_search_rejects_a_negative_cap(market, cap, message):
    with pytest.raises(ValueError, match=message):
        optimal_strategy_search(ManipulationProblem(market, 1), cap=cap)


@pytest.mark.parametrize("limit", [True, 1.5], ids=["bool", "float"])
def test_size_limits_must_be_integers(market, limit):
    problem = ManipulationProblem(market, 1)
    truthful = Strategy.truthful(market, 1)
    calls = [
        lambda: expected_values(market, node_limit=limit),
        lambda: expected_profit_under_strategy(problem, truthful, node_limit=limit),
        lambda: optimal_strategy_search(problem, cap=1, node_limit=limit),
        lambda: enumerate_histories(market, max_leaves=limit),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^NonIntegerEntry"):
            call()
    assert len(enumerate_histories(market, max_leaves=None)) == 2


@pytest.mark.parametrize("limit", [0, -3])
def test_non_positive_node_limits_stop_at_the_first_node(market, limit):
    problem = ManipulationProblem(market, 1)
    truthful = Strategy.truthful(market, 1)
    calls = [
        lambda: expected_values(market, node_limit=limit),
        lambda: expected_profit_under_strategy(problem, truthful, node_limit=limit),
        lambda: optimal_strategy_search(problem, cap=1, node_limit=limit),
    ]
    for call in calls:
        with pytest.raises(TreeSizeExceeded) as exc:
            call()
        assert exc.value.nodes == 1


def test_default_cap(market):
    problem = ManipulationProblem(market, 1)
    assert default_value_cap(problem) == 7 + 7


def test_two_buyer_truthfulness_spot_checks():
    rng = random.Random(42)
    for _ in range(25):
        economy = random_economy(rng, max_buyers=2, max_real_items=3)
        while economy.n_buyers != 2:
            economy = random_economy(rng, max_buyers=2, max_real_items=3)
        result = optimal_strategy_search(ManipulationProblem(economy, 1))
        assert result.truthful_is_optimal


def test_case_analysis_uncontested():
    economy = make_economy([[9, 1], [1, 9]], [2, 3], [5, 6])
    verdict = two_buyer_case_analysis(ManipulationProblem(economy, 1))
    assert verdict.case == "uncontested"
    assert verdict.expected_profit == Fraction(7)
    assert verdict.details is None


def test_case_analysis_capped_lottery():
    # both buyers want item a far beyond its cap: coin flip at the cap
    economy = make_economy([[8, 1], [8, 2]], [1, 1], [3, 3])
    verdict = two_buyer_case_analysis(ManipulationProblem(economy, 1))
    assert verdict.case == "capped_lottery"
    assert verdict.details.contest_rounds == verdict.details.cap_room == 2
    # half (8-1-2), half fallback (1-1)
    assert verdict.expected_profit == Fraction(5, 2)


def test_case_analysis_manipulator_switches():
    economy = make_economy([[5, 3], [8, 0]], [1, 1], [8, 8])
    verdict = two_buyer_case_analysis(ManipulationProblem(economy, 1))
    assert verdict.case == "manipulator_switches"
    assert verdict.expected_profit == Fraction(2)


def test_case_analysis_rival_switches():
    economy = make_economy([[8, 0], [5, 3]], [1, 1], [8, 8])
    verdict = two_buyer_case_analysis(ManipulationProblem(economy, 1))
    assert verdict.case == "rival_switches"
    # rival gives up once a reaches 1+2; manipulator then nets 8-1-2
    assert verdict.details.rival_margin == 2
    assert verdict.expected_profit == Fraction(5)


def test_case_analysis_requires_two_buyers(market):
    with pytest.raises(NotTwoBuyers):
        two_buyer_case_analysis(ManipulationProblem(market, 1))


def test_case_analysis_random_contested_instances():
    rng = random.Random(99)
    checked = 0
    while checked < 30:
        economy = random_economy(rng, max_buyers=2, max_real_items=3)
        if economy.n_buyers != 2:
            continue
        verdict = two_buyer_case_analysis(ManipulationProblem(economy, 1))
        # the closed form was already asserted against the tree internally
        assert verdict.expected_profit == expected_values(economy).expected_profit[1]
        checked += 1


@settings(max_examples=20)
@given(economies(max_buyers=3, max_real_items=2, max_value=6))
def test_committed_misreport_runs_like_the_reported_market(economy):
    problem = ManipulationProblem(economy, 1)
    strategy = Strategy.from_real_values([3] * (economy.n_items - 1))
    reported = problem.reported_economy(strategy)
    # identical dynamics: every history of the manipulated run replays as a
    # plain mechanism run of the reported economy; only the scoring differs
    leaves = enumerate_histories(reported)
    for leaf in leaves:
        outcome = run_mapr(reported, ScriptedLottery(list(leaf.winners)))
        assert outcome.allocation == leaf.allocation
        assert outcome.prices == leaf.prices
    as_reported = sum(
        leaf.probability
        * (
            reported.value(1, leaf.allocation.item_of(1))
            - leaf.prices[leaf.allocation.item_of(1)]
        )
        for leaf in leaves
    )
    assert as_reported == expected_values(reported).expected_profit[1]
