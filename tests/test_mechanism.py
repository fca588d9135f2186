import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidmarket import (
    DUMMY,
    InvalidMatching,
    Matching,
    MechanismState,
    NoEntrants,
    RationingSystem,
    RoundLimitExceeded,
    ScriptError,
    ScriptedLottery,
    SeededLottery,
    UpperBoundViolation,
    check_cwe,
    demand_set,
    expected_values,
    initial_state,
    lottery_step,
    price_increase_step,
    refresh_demands,
    rm,
    run_mapr,
    validate_economy,
)
from rigidmarket.mechanism import (
    Trace,
    TraceRow,
    apply_sale,
    complete_run,
    gate,
)
from rigidmarket.matching import (
    build_graph, matching_to_allocation, max_matching, maximum_matching, unserved
)

from conftest import five_buyer_market
from strategies import economies, make_economy, repeated_row_economies


def settled(economy, state):
    return refresh_demands(economy, state)


def unsold_buyers(economy, state):
    sold = state.sold.buyer_to_item
    return tuple(i for i in economy.buyers if i not in sold)


def full_refresh(economy, state):
    """The plain refresh: every unsold buyer reports afresh with ``demand_set``.

    Then, pass by pass, each buyer whose report meets a sold item strikes
    those items with ``forbid_many`` and reports again, until no report
    does.  Shares no code with ``refresh_demands``.
    """
    sold = frozenset(state.sold.item_to_buyer)
    rationing = state.rationing
    reporting = unsold_buyers(economy, state)
    demands = {i: demand_set(economy, state.prices, rationing, i) for i in reporting}
    for _ in range(economy.n_items + 1):
        confronted = [i for i in reporting if demands[i] & sold]
        if not confronted:
            return replace(state, rationing=rationing, demands=demands)
        for i in confronted:
            rationing = rationing.forbid_many(i, demands[i] & sold)
            demands[i] = demand_set(economy, state.prices, rationing, i)
        reporting = confronted
    raise AssertionError("the plain refresh failed to settle")


def test_initial_round_demands(market):
    state = settled(market, initial_state(market))
    assert state.prices == (0, 5, 4, 1, 5)
    assert state.demands == {
        1: frozenset({3}),
        2: frozenset({3}),
        3: frozenset({3}),
        4: frozenset({1}),
        5: frozenset({4}),
    }
    x_min, item, entrants = gate(market, state)
    assert x_min == frozenset({3})
    assert item is None and entrants == ()


def test_price_increase_step(market):
    state = settled(market, initial_state(market))
    bumped = price_increase_step(market, state, frozenset({3}))
    assert bumped.prices == (0, 5, 4, 2, 5)
    assert bumped.sold == state.sold
    # only the buyers demanding the raised item c report again
    assert bumped.active == frozenset({1, 2, 3})

    capped = MechanismState(
        prices=(0, 5, 4, 4, 5),
        sold=Matching(),
        rationing=state.rationing,
        active=state.active,
        demands=state.demands,
    )
    with pytest.raises(UpperBoundViolation):
        price_increase_step(market, capped, frozenset({3}))


def test_lottery_step_entrants_and_determinism(market, monkeypatch):
    state = initial_state(market)
    for _ in range(3):
        state = settled(market, state)
        x_min, _, _ = gate(market, state)
        state = price_increase_step(market, state, x_min)
    state = settled(market, state)
    x_min, item, entrants = gate(market, state)
    assert x_min == frozenset({3})
    assert item == 3 and entrants == (2, 3)

    next_state, event = lottery_step(state, 3, entrants, ScriptedLottery([2]))
    assert event.entrants == (2, 3) and event.winner == 2
    assert next_state.sold.pairs() == ((2, 3),)
    assert next_state.prices == state.prices
    # buyer 3 lost the draw for c and must re-report; nobody else demanded c
    assert next_state.active == frozenset({3})
    # the winner left the market with its report
    assert 2 not in next_state.demands

    # the same seed always picks the same winner
    picks = {lottery_step(state, 3, entrants, SeededLottery(9))[1].winner for _ in range(5)}
    assert len(picks) == 1

    lone = MechanismState(
        prices=state.prices,
        sold=state.sold,
        rationing=state.rationing,
        active=state.active,
        demands={2: frozenset({3})},
    )
    _, event = lottery_step(lone, 3, (2,), SeededLottery(1))
    assert event.winner == 2  # single entrant wins with certainty

    # c is capped; if the over-demanded set were {c}, nobody would draw
    empty = MechanismState(
        prices=state.prices,
        sold=state.sold,
        rationing=state.rationing,
        active=state.active,
        demands={4: frozenset({1}), 5: frozenset({1})},
    )
    monkeypatch.setattr("rigidmarket.mechanism.mods", lambda demands: frozenset({3}))
    with pytest.raises(NoEntrants):
        gate(market, empty)
    # the tree walk reaches the same round once c is sold and every gate
    # still names {c}; it gets the guard from gate too
    with pytest.raises(NoEntrants):
        expected_values(market)


def test_gate_draws_the_lowest_capped_member_among_confined_buyers():
    # three buyers on a and b, both capped: the draw is on a
    tied = make_economy([[9, 9], [9, 9], [9, 9]], [5, 5], [5, 5])
    state = settled(tied, initial_state(tied))
    assert gate(tied, state) == (frozenset({1, 2}), 1, (1, 2, 3))
    # buyer 3 also demands b, outside x_min = {a}, so it does not draw
    straddled = make_economy([[9, 0], [9, 0], [9, 9]], [5, 5], [5, 5])
    state = settled(straddled, initial_state(straddled))
    assert state.demands[3] == frozenset({1, 2})
    assert gate(straddled, state) == (frozenset({1}), 1, (1, 2))


def test_refresh_strikes_sold_items(market):
    # after c is sold to buyer 2, buyer 3 must re-report and land on d
    state = MechanismState(
        prices=(0, 5, 4, 4, 5),
        sold=Matching([(2, 3)]),
        rationing=RationingSystem.full(5, 5),
        active=frozenset({1, 3, 4, 5}),
        demands={},
    )
    state = refresh_demands(market, state)
    assert frozenset(range(5)) - state.rationing.allowed[3 - 1] == frozenset({3})
    assert state.demands[3] == frozenset({4})
    assert state.demands[1] == frozenset({4})


def test_refresh_without_sales_is_stationary(market):
    state = settled(market, initial_state(market))
    again = refresh_demands(market, state)
    assert again.demands == state.demands
    assert again.rationing == state.rationing


def test_refresh_chains_through_two_sold_items():
    economy = make_economy([[9, 8, 1], [9, 0, 0], [0, 8, 0]], [1, 1, 1], [2, 2, 2])
    state = MechanismState(
        prices=(0, 1, 1, 1),
        sold=Matching([(2, 1), (3, 2)]),
        rationing=RationingSystem.full(3, 4),
        active=frozenset({1}),
        demands={},
    )
    state = refresh_demands(economy, state)
    # first report hits sold a, the re-report hits sold b, then c and o tie
    assert frozenset(range(4)) - state.rationing.allowed[1 - 1] == frozenset({1, 2})
    assert state.demands[1] == frozenset({0, 3})


def test_refresh_strikes_only_the_sold_members_of_a_tie():
    economy = make_economy([[5, 5, 1], [9, 0, 0]], [1, 1, 1], [2, 2, 2])
    state = MechanismState(
        prices=(0, 1, 1, 1),
        sold=Matching([(2, 1)]),
        rationing=RationingSystem.full(2, 4),
        active=frozenset({1}),
        demands={},
    )
    state = refresh_demands(economy, state)
    # a and b tie at net 4; only sold a is struck and b stays demanded
    assert frozenset(range(4)) - state.rationing.allowed[1 - 1] == frozenset({1})
    assert state.demands[1] == frozenset({2})


def test_refresh_stops_at_the_dummy_when_every_real_item_is_sold():
    economy = make_economy([[9, 8, 0], [9, 0, 0], [0, 8, 0], [0, 0, 5]], [1, 1, 1], [2, 2, 2])
    rationing = RationingSystem.full(4, 4)
    state = MechanismState(
        prices=(0, 1, 1, 1),
        sold=Matching([(2, 1), (3, 2), (4, 3)]),
        rationing=rationing,
        active=frozenset({1}),
        demands={},
    )
    state = refresh_demands(economy, state)
    # a (net 8) and b (net 7) are struck; the walk ends at o (net 0), so
    # sold c (net -1) lies below it and is never struck
    assert frozenset(range(4)) - state.rationing.allowed[1 - 1] == frozenset({1, 2})
    assert state.demands[1] == frozenset({DUMMY})
    # rows that lose nothing stay the same objects
    for k in (1, 2, 3):
        assert state.rationing.allowed[k] is rationing.allowed[k]


def test_post_sale_report_is_a_fresh_report(market):
    state = initial_state(market)
    for _ in range(4):
        state = settled(market, state)
        x_min, item, entrants = gate(market, state)
        if item is not None:
            break
        state = price_increase_step(market, state, x_min)
    state, _ = lottery_step(state, 3, entrants, ScriptedLottery([2]))
    # buyer 3 lost c: apply_sale makes it the only active buyer and keeps
    # its pre-sale report, which meets the sold item and still equals a
    # fresh report; the refresh settles it past c to d
    assert state.active == frozenset({3})
    assert state.demands[3] == frozenset({3})
    assert demand_set(market, state.prices, state.rationing, 3) == state.demands[3]
    assert settled(market, state).demands[3] == frozenset({4})


@st.composite
def refresh_states(draw):
    """An economy and a state as the step functions leave it, before a refresh.

    Prices, permissions and the sold matching are random.  Inactive
    unsold buyers hold the plain refresh's settled row and report; each
    active buyer keeps its unsettled row and has no report, a fresh one
    (as after a sale, so it may meet a sold item) or the settled one (as
    after a raise).
    """
    economy = draw(economies(max_buyers=5, max_real_items=4))
    prices = tuple(
        draw(st.integers(economy.lower_bounds[a], economy.upper_bounds[a]))
        for a in economy.items
    )
    rationing = RationingSystem.full(economy.n_buyers, economy.n_items)
    for i in economy.buyers:
        for a in economy.real_items:
            if draw(st.integers(0, 3)) == 0:
                rationing = rationing.forbid(i, a)
    buyers = draw(st.permutations(list(economy.buyers)))
    items = draw(st.permutations(list(economy.real_items)))
    n_sold = draw(st.integers(0, min(len(buyers), len(items))))
    sold = Matching(zip(buyers[:n_sold], items[:n_sold]))
    state = MechanismState(prices, sold, rationing, frozenset(), {})
    plain = full_refresh(economy, state)
    unsold = unsold_buyers(economy, state)
    active = frozenset(draw(st.sets(st.sampled_from(unsold)))) if unsold else frozenset()
    rows = list(plain.rationing.allowed)
    demands = {}
    for i in unsold:
        if i not in active:
            demands[i] = plain.demands[i]
            continue
        rows[i - 1] = rationing.allowed[i - 1]
        kind = draw(st.sampled_from(["none", "fresh", "settled"]))
        if kind == "fresh":
            demands[i] = demand_set(economy, prices, rationing, i)
        elif kind == "settled":
            demands[i] = plain.demands[i]
    rationing = RationingSystem(tuple(rows))
    return economy, MechanismState(prices, sold, rationing, active, demands)


@settings(max_examples=200)
@given(refresh_states())
def test_refresh_matches_the_pass_by_pass_refresh(case):
    economy, state = case
    got = refresh_demands(economy, state)
    want = full_refresh(economy, state)
    assert got.demands == want.demands
    assert got.rationing == want.rationing
    for before, after in zip(state.rationing.allowed, got.rationing.allowed):
        if after == before:
            assert after is before


@settings(max_examples=60)
@given(st.one_of(economies(), repeated_row_economies()))
def test_refresh_with_an_answer_map_equals_the_plain_refresh(economy):
    # one table per (prices, sold item set) serves every state of the
    # lottery tree at those prices and sold items, whoever holds which
    # item; each state is also refreshed as a twin whose rows are equal
    # but other objects, so that every twin's answer is read back
    tables = {}
    pending = [initial_state(economy)]
    while pending:
        state = pending.pop()
        want = refresh_demands(economy, state)
        twin = replace(
            state,
            rationing=RationingSystem(tuple(frozenset(list(r)) for r in state.rationing.allowed)),
        )
        table = tables.setdefault((state.prices, frozenset(state.sold.item_to_buyer)), {})
        for start in (state, twin):
            got = refresh_demands(economy, start, table)
            assert got.demands == want.demands
            assert got.rationing == want.rationing
            assert got.prices == want.prices and got.sold == want.sold
            if want.rationing is state.rationing:
                assert got.rationing is start.rationing
            for before, after in zip(start.rationing.allowed, got.rationing.allowed):
                if after == before:
                    assert after is before
        x_min, item, entrants = gate(economy, got)
        if x_min is None:
            continue
        if item is None:
            pending.append(price_increase_step(economy, got, x_min))
            continue
        pending.extend(apply_sale(got, item, winner) for winner in entrants)


@settings(max_examples=60)
@given(st.one_of(economies(), repeated_row_economies()))
def test_settled_rows_are_a_function_of_prices_and_sold_items(economy):
    # after every refresh of the live mechanism, depth first, an unsold
    # buyer's permission row is every item less the sold items that net
    # at least its best unsold net benefit: the row records nothing else
    pending = [initial_state(economy)]
    while pending:
        state = refresh_demands(economy, pending.pop())
        prices, sold = state.prices, frozenset(state.sold.item_to_buyer)
        for i in unsold_buyers(economy, state):
            values = economy.valuations[i - 1]
            best = max(values[a] - prices[a] for a in economy.items if a not in sold)
            struck = {a for a in sold if values[a] - prices[a] >= best}
            assert state.rationing.allowed[i - 1] == frozenset(economy.items) - struck
        x_min, item, entrants = gate(economy, state)
        if x_min is None:
            continue
        if item is None:
            pending.append(price_increase_step(economy, state, x_min))
            continue
        pending.extend(apply_sale(state, item, winner) for winner in entrants)


def test_refresh_builds_one_rationing_and_no_forbid_many(monkeypatch):
    economy = wide_economy(2024, 40, 20, 1)
    state = initial_state(economy)
    policy = SeededLottery(5)
    built = []
    check = RationingSystem.__post_init__

    def counting_check(self):
        built.append(self)
        check(self)

    def no_forbid_many(self, buyer, items):
        raise AssertionError("refresh_demands called forbid_many")

    sales = 0
    for _ in range(economy.bound_spread() + economy.n_items + 1):
        with monkeypatch.context() as patch:
            patch.setattr(RationingSystem, "__post_init__", counting_check)
            patch.setattr(RationingSystem, "forbid_many", no_forbid_many)
            built.clear()
            state = refresh_demands(economy, state)
            assert len(built) <= 1
        x_min, item, entrants = gate(economy, state)
        if x_min is None:
            break
        if item is None:
            state = price_increase_step(economy, state, x_min)
        else:
            state, _ = lottery_step(state, item, entrants, policy)
            sales += 1
    assert sales > 0 and state.rationing.zeros(economy.n_items)


def test_golden_run_reaches_published_outcome(market):
    outcome = run_mapr(market, ScriptedLottery([2]))
    assert outcome.prices == (0, 5, 4, 4, 7)
    assert outcome.allocation.assignment == (0, 3, 2, 1, 4)
    assert [row.label for row in outcome.trace.rows] == ["0", "1", "2", "3", "4.1", "5.1", "6.1"]
    assert outcome.price_rounds == 5 and outcome.lottery_rounds == 1

    other = run_mapr(market, ScriptedLottery([3]))
    assert other.prices == (0, 5, 4, 4, 7)
    assert other.allocation.assignment == (0, 2, 3, 1, 4)
    assert [row.label for row in other.trace.rows] == ["0", "1", "2", "3", "4.2", "5.2", "6.2"]


def test_no_contention_settles_at_opening_prices():
    economy = make_economy([[9, 1], [1, 9]], [2, 3], [5, 6])
    outcome = run_mapr(economy, SeededLottery(0))
    assert outcome.prices == (0, 2, 3)
    assert outcome.allocation.assignment == (1, 2)
    assert outcome.price_rounds == 0 and outcome.lottery_rounds == 0
    assert len(outcome.trace.rows) == 1


def test_script_errors():
    economy = make_economy([[5], [5]], [1], [3])
    with pytest.raises(ScriptError, match="no scripted winner left for draw 1$"):
        run_mapr(economy, ScriptedLottery([]))
    with pytest.raises(ScriptError):
        run_mapr(economy, ScriptedLottery([7]))
    with pytest.raises(ScriptError):
        run_mapr(economy, ScriptedLottery([1, 1]))


def test_round_limit_stops_a_run_one_round_past_it(market):
    rounds = len(run_mapr(market, ScriptedLottery([2])).trace.rows)
    assert rounds == 7
    with pytest.raises(RoundLimitExceeded, match="^run exceeded 6 rounds$") as stopped:
        run_mapr(market, ScriptedLottery([2]), round_limit=rounds - 1)
    assert stopped.value.rounds == rounds
    exact = run_mapr(market, ScriptedLottery([2]), round_limit=rounds)
    assert exact.trace == run_mapr(market, ScriptedLottery([2])).trace
    for limit in (0, -3):
        with pytest.raises(RoundLimitExceeded) as stopped:
            run_mapr(market, round_limit=limit)
        assert stopped.value.rounds == 1
    for limit in (6.0, True, None):
        with pytest.raises(ValueError, match="^NonIntegerEntry: round_limit"):
            run_mapr(market, round_limit=limit)


@settings(max_examples=60)
@given(economies(), st.integers(0, 3))
def test_round_limit_at_the_round_count_passes_and_one_below_stops(economy, seed):
    trace = run_mapr(economy, SeededLottery(seed)).trace
    rounds = len(trace.rows)
    assert run_mapr(economy, SeededLottery(seed), round_limit=rounds).trace == trace
    with pytest.raises(RoundLimitExceeded) as stopped:
        run_mapr(economy, SeededLottery(seed), round_limit=rounds - 1)
    assert stopped.value.rounds == rounds


@pytest.mark.parametrize("winner", [2.0, True, "2"], ids=["float", "bool", "str"])
def test_scripted_winners_must_be_integers(market, winner):
    # a float winner once ran to the end and wrote 2.0 into the trace
    with pytest.raises(ValueError, match="^NonIntegerEntry"):
        run_mapr(market, ScriptedLottery([winner]))


def test_completion_sells_marked_up_items(market):
    # terminal state of the first golden branch, rebuilt by hand
    rationing = RationingSystem.full(5, 5).forbid(1, 3).forbid(3, 3)
    demands = {
        1: frozenset({0, 4}),
        3: frozenset({2}),
        4: frozenset({1}),
        5: frozenset({4}),
    }
    completion = rm(demands, Matching([(2, 3)]), (0, 5, 4, 4, 7), (0, 5, 4, 1, 5))
    assert completion == Matching([(3, 2), (4, 1), (5, 4)])
    # d is priced above its floor, so it may not stay unsold
    assert 4 in completion.item_to_buyer


def test_completion_contract_clauses():
    # nobody demands marked-up b except a buyer also happy with the dummy
    demands = {1: frozenset({0, 2}), 2: frozenset({1})}
    completion = rm(demands, Matching(), (0, 1, 5, 0), (0, 1, 2, 0))
    assert 2 in completion.item_to_buyer
    assert completion == Matching([(1, 2), (2, 1)])

    # vacuous third clause: nothing marked up, plain maximum matching
    completion = rm({1: frozenset({1})}, Matching(), (0, 1, 2, 0), (0, 1, 2, 0))
    assert completion == Matching([(1, 1)])


def test_replay_reproduces_trace_bit_for_bit(market):
    first = run_mapr(market, SeededLottery(5))
    second = run_mapr(market, ScriptedLottery(list(first.winners)))
    assert second.trace == first.trace
    assert second.allocation == first.allocation
    assert second.prices == first.prices


@settings(max_examples=50)
@given(economies())
def test_runs_are_monotone_admissible_and_clean(economy):
    outcome = run_mapr(economy, SeededLottery(3))
    previous = None
    for row in outcome.trace.rows:
        for a in economy.items:
            assert economy.lower_bounds[a] <= row.prices[a] <= economy.upper_bounds[a]
            if previous is not None:
                assert row.prices[a] >= previous[a]
        previous = row.prices
        sold = set(row.sold_items)
        for i in economy.buyers:
            if row.demands[i - 1] is not None:
                assert not sold & set(row.demands[i - 1])
    assert outcome.price_rounds <= economy.bound_spread()
    assert outcome.lottery_rounds <= economy.n_items - 1
    assert check_cwe(economy, outcome.prices, outcome.rationing, outcome.allocation).ok


def terminal_state(economy, policy):
    """The settled state at which a run under ``policy`` stops."""
    state = initial_state(economy)
    for _ in range(economy.bound_spread() + economy.n_items + 1):
        state = refresh_demands(economy, state)
        x_min, item, entrants = gate(economy, state)
        if x_min is None:
            return state
        if item is None:
            state = price_increase_step(economy, state, x_min)
        else:
            state, _ = lottery_step(state, item, entrants, policy)
    raise AssertionError("run exceeded the round bound")


@settings(max_examples=50)
@given(economies())
def test_completion_contracts_on_random_terminals(economy):
    state = terminal_state(economy, SeededLottery(11))
    demands = {i: state.demands[i] for i in unsold_buyers(economy, state)}
    completion = rm(demands, state.sold, state.prices, economy.lower_bounds)
    # disjointness from the sold matching
    assert not completion.buyer_to_item.keys() & state.sold.buyer_to_item.keys()
    assert not completion.item_to_buyer.keys() & state.sold.item_to_buyer.keys()
    # every marked-up unsold item is taken
    for a in economy.real_items:
        if a not in state.sold.item_to_buyer and state.prices[a] > economy.lower_bounds[a]:
            assert a in completion.item_to_buyer
    # the union serves every buyer something she demands
    for i, d in demands.items():
        item = completion.buyer_to_item.get(i, DUMMY)
        if item == DUMMY:
            assert DUMMY in d
        else:
            assert item in d


def pinned_completion(demands, sold, prices, lower_bounds):
    """The completion along the pinned path whatever the pin, an empty one included.

    Pin a taker for each marked-up unsold item, grow the pin to maximum on
    the full demand graph, then add back the pinned edges the growth lost.
    """
    marked_up = frozenset(
        a
        for a in range(1, len(prices))
        if a not in sold.item_to_buyer and prices[a] > lower_bounds[a]
    )
    pinned = max_matching({i: d & marked_up for i, d in demands.items() if d & marked_up})
    graph = build_graph(demands)
    grown = maximum_matching(graph, Matching([(i, a) for i, a in pinned.pairs() if i in graph]))
    extra = [
        (i, a)
        for i, a in pinned.pairs()
        if i not in grown.buyer_to_item and a not in grown.item_to_buyer
    ]
    return Matching(grown.pairs() + tuple(extra))


def assert_completion_is_the_pinned_path(economy, state):
    completion = rm(state.demands, state.sold, state.prices, economy.lower_bounds)
    assert completion == pinned_completion(
        state.demands, state.sold, state.prices, economy.lower_bounds
    )
    union = Matching(state.sold.pairs() + completion.pairs())
    assert complete_run(economy, state) == matching_to_allocation(union, economy.n_buyers)


@settings(max_examples=100)
@given(economies(), st.integers(0, 3))
def test_completion_equals_the_pinned_path_on_random_terminals(economy, seed):
    assert_completion_is_the_pinned_path(economy, terminal_state(economy, SeededLottery(seed)))


# the first golden branch ends with d priced above its floor; in the tie
# market both buyers end indifferent between the item, marked up, and the
# dummy, so only the pin sells it
@pytest.mark.parametrize(
    "economy, winners",
    [(five_buyer_market(), [2]), (make_economy([[5], [5]], [0], [10]), [])],
    ids=["golden_first_branch", "tie_at_value"],
)
def test_completion_equals_the_pinned_path_with_an_item_marked_up(economy, winners):
    state = terminal_state(economy, ScriptedLottery(winners))
    assert any(
        a not in state.sold.item_to_buyer and state.prices[a] > economy.lower_bounds[a]
        for a in economy.real_items
    )
    assert_completion_is_the_pinned_path(economy, state)


@settings(max_examples=50)
@given(economies(max_buyers=5, max_real_items=4), st.integers(0, 2**16))
def test_settled_demands_are_the_unsold_buyers(economy, seed):
    state = initial_state(economy)
    policy = SeededLottery(seed)
    for _ in range(economy.bound_spread() + economy.n_items + 1):
        state = refresh_demands(economy, state)
        assert set(state.demands) == set(unsold_buyers(economy, state))
        x_min, item, entrants = gate(economy, state)
        if x_min is None:
            break
        if item is None:
            state = price_increase_step(economy, state, x_min)
            continue
        state, _ = lottery_step(state, item, entrants, policy)
        # the losers' reports, reused by the next refresh, are fresh reports
        for i in state.active:
            assert state.demands[i] == demand_set(economy, state.prices, state.rationing, i)
    else:
        raise AssertionError("run exceeded the round bound")


def test_json_rows_carry_all_fields(market):
    outcome = run_mapr(market, ScriptedLottery([2]))
    lines = outcome.trace.to_json_lines()
    assert len(lines) == 8
    first = json.loads(lines[0])
    assert set(first) == {
        "t",
        "prices",
        "x_min",
        "u_sets",
        "sold_buyers",
        "demands",
        "sold_items",
        "lottery",
    }
    lottery_row = json.loads(lines[3])
    assert lottery_row["lottery"] == {"item": "c", "entrants": [2, 3], "winner": 2}
    final = json.loads(lines[-1])
    assert final["final"]["allocation"] == ["o", "c", "b", "a", "d"]


# --- the incremental round engine against a full-refresh oracle


def reference_row(economy, state, label, x_min, lottery):
    """A trace row rebuilt from scratch, every cell sorted anew."""
    return TraceRow(
        label=label,
        prices=state.prices,
        x_min=tuple(sorted(x_min)) if x_min else (),
        u_sets=tuple(
            tuple(sorted(frozenset(range(economy.n_items)) - state.rationing.allowed[i - 1]))
            for i in economy.buyers
        ),
        sold_buyers=tuple(sorted(state.sold.buyer_to_item)),
        demands=tuple(
            None
            if i in state.sold.buyer_to_item
            else tuple(sorted(state.demands.get(i, frozenset())))
            for i in economy.buyers
        ),
        sold_items=tuple(sorted(state.sold.item_to_buyer)),
        lottery=lottery,
    )


def assert_matches_full_refresh(economy, seed):
    """Step the engine beside a loop where every unsold buyer reports every round.

    Both loops drive the public step functions, but the reference one
    settles each round with :func:`full_refresh` instead of
    ``refresh_demands``.  Every round must agree, and ``run_mapr`` must
    emit the reference loop's trace.
    """
    ref_policy, inc_policy = SeededLottery(seed), SeededLottery(seed)
    ref = inc = initial_state(economy)
    rows, branch = [], []
    for t in range(economy.bound_spread() + economy.n_items + 1):
        ref = full_refresh(economy, ref)
        inc = refresh_demands(economy, inc)
        x_min, item, entrants = gate(economy, ref)
        assert gate(economy, inc) == (x_min, item, entrants)
        assert inc.demands == ref.demands
        assert inc.rationing == ref.rationing
        assert inc.prices == ref.prices
        assert inc.sold == ref.sold
        label = ".".join([str(t)] + branch)
        if x_min is None:
            rows.append(reference_row(economy, ref, label, (), None))
            break
        if item is None:
            rows.append(reference_row(economy, ref, label, x_min, None))
            ref = price_increase_step(economy, ref, x_min)
            inc = price_increase_step(economy, inc, x_min)
            continue
        next_ref, event = lottery_step(ref, item, entrants, ref_policy)
        inc, inc_event = lottery_step(inc, item, entrants, inc_policy)
        assert inc_event == event
        rows.append(reference_row(economy, ref, label, x_min, event))
        branch.append(str(event.entrants.index(event.winner) + 1))
        ref = next_ref
    else:
        raise AssertionError("reference loop exceeded the round bound")

    allocation = complete_run(economy, ref)
    reference = Trace(
        item_names=economy.item_names,
        n_buyers=economy.n_buyers,
        rows=tuple(rows),
        final_prices=ref.prices,
        final_rationing_zeros=ref.rationing.zeros(economy.n_items),
        final_allocation=allocation.assignment,
    )
    outcome = run_mapr(economy, SeededLottery(seed))
    assert outcome.trace == reference
    assert outcome.trace.to_json_lines() == reference.to_json_lines()


def wide_economy(seed, n, m, room):
    """Values U[0,100], floors U[0,50], caps a floor plus U[0,room]."""
    rng = random.Random(seed)
    rows = [(0, *(rng.randint(0, 100) for _ in range(m))) for _ in range(n)]
    lower = [rng.randint(0, 50) for _ in range(m)]
    upper = [a + rng.randint(0, room) for a in lower]
    names = ("o", *(f"i{k}" for k in range(1, m + 1)))
    return validate_economy(names, rows, (0, *lower), (0, *upper))


def test_each_round_asks_unserved_once(monkeypatch):
    # one call per round, inside mods, plus complete_run's guard
    calls = []

    def counted(*args):
        calls.append(args)
        return unserved(*args)

    monkeypatch.setattr("rigidmarket.overdemand.unserved", counted)
    monkeypatch.setattr("rigidmarket.mechanism.unserved", counted)
    trace = run_mapr(wide_economy(3, 40, 20, 40), SeededLottery(3)).trace
    assert len(calls) == len(trace.rows) + 1


@pytest.mark.parametrize(
    "completion, error, message",
    [
        (Matching([(1, 3)]), InvalidMatching, r"^edge \(1, 3\) repeats a matched vertex$"),
        (Matching([(2, 4)]), InvalidMatching, r"^edge \(2, 4\) repeats a matched vertex$"),
        (Matching(), RuntimeError, "^completion left demander 3 unserved$"),
    ],
    ids=["sold_item", "sold_buyer", "unserved_demander"],
)
def test_complete_run_rejects_a_faulty_completion(market, monkeypatch, completion, error, message):
    # the first golden branch ends with buyer 2 holding item 3 and buyer 3
    # demanding item 2 alone
    state = terminal_state(market, ScriptedLottery([2]))
    assert state.sold == Matching([(2, 3)]) and state.demands[3] == frozenset({2})
    monkeypatch.setattr("rigidmarket.mechanism.rm", lambda *args: completion)
    with pytest.raises(error, match=message):
        complete_run(market, state)


@settings(max_examples=60)
@given(economies(max_buyers=5, max_real_items=4))
def test_incremental_refresh_matches_full_refresh(economy):
    assert_matches_full_refresh(economy, seed=7)


@pytest.mark.parametrize("room", [40, 1])
def test_incremental_refresh_matches_full_refresh_at_40x20(room):
    assert_matches_full_refresh(wide_economy(2024, 40, 20, room), seed=5)


@pytest.mark.parametrize("n, m, room", [(80, 20, 0), (120, 30, 1)])
def test_incremental_refresh_matches_full_refresh_at_ration_shape(n, m, room):
    # mapr_ration's shape: four buyers per item and a cap room of at most
    # one, so 20-30 sales with many strikes
    assert_matches_full_refresh(wide_economy(2024, n, m, room), seed=5)


def test_apply_sale_rejects_a_repeated_vertex():
    economy = make_economy([[5, 4], [4, 5], [3, 3]], [1, 1], [1, 1])
    state = apply_sale(initial_state(economy), 1, 1)
    assert state.sold == Matching([(1, 1)])
    with pytest.raises(InvalidMatching):
        apply_sale(state, 2, 1)  # the winner already holds an item
    with pytest.raises(InvalidMatching):
        apply_sale(state, 1, 2)  # the item is already sold
    assert apply_sale(state, 2, 2).sold == Matching([(1, 1), (2, 2)])


def test_json_lines_escape_item_names():
    names = ("o", 'say "hi"', "back\\slash", "café", "日本")
    # buyers 1 and 2 draw lots for the capped first item; the loser then
    # strikes it, so the U column names it too
    rows = [(0, 10, 0, 0, 0), (0, 10, 3, 0, 0), (0, 0, 5, 5, 5)]
    economy = validate_economy(names, rows, (0, 2, 1, 1, 1), (0, 2, 3, 2, 1))
    trace = run_mapr(economy, SeededLottery(4)).trace
    assert trace.rows[0].lottery is not None
    assert any(any(u) for row in trace.rows for u in row.u_sets)
    lines = trace.to_json_lines()
    assert lines[:-1] == [json.dumps(trace.row_dict(r)) for r in trace.rows]
    assert lines[-1] == json.dumps({"final": trace.final_dict()})
    assert '"say \\"hi\\""' in lines[0] and "caf\\u00e9" in lines[0]

    # a hand-built trace whose cells are unsorted encodes as its row dicts do
    unsorted = replace(trace, rows=tuple(
        replace(
            r,
            x_min=r.x_min[::-1],
            u_sets=tuple(u[::-1] for u in r.u_sets),
            demands=tuple(None if d is None else d[::-1] for d in r.demands),
            sold_items=r.sold_items[::-1],
        )
        for r in trace.rows
    ))
    assert any(len(d) > 1 for r in unsorted.rows for d in r.demands if d is not None)
    assert unsorted.to_json_lines() == lines
    assert lines[:-1] == [json.dumps(unsorted.row_dict(r)) for r in unsorted.rows]


@settings(max_examples=50)
@given(economies())
def test_json_lines_equal_plain_row_dicts(economy):
    trace = run_mapr(economy, SeededLottery(1)).trace
    expected = [json.dumps(trace.row_dict(r)) for r in trace.rows]
    expected.append(json.dumps({"final": trace.final_dict()}))
    assert trace.to_json_lines() == expected
