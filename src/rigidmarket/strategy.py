"""Strategic reporting: can a buyer gain by misstating her values?

A strategy is a complete alternative value function the manipulator
commits to before the run; she reports demands exactly as if it were her
true one, which makes the deception undetectable from her report
sequence.  Her payoff is still scored with her true values: the expected
profit of a strategy is the probability-weighted true net benefit of
what she ends up buying, over all lottery outcomes of the run driven by
the reported values.  It is computed by the same lottery-tree walk as
:func:`~rigidmarket.expectation.expected_values`, with that true net
benefit as the payoff.

With two buyers truthful reporting is optimal, and the closed-form case
analysis in :func:`two_buyer_case_analysis` says exactly what the
truthful expected profit is.  With three or more buyers profitable
misreports exist; :func:`optimal_strategy_search` finds the best
strategy inside a value box, exactly.

The search scores answer transcripts, not rows.  The walk reads the
manipulator's reported row in one place only: her
:func:`~rigidmarket.model.settled_demand` at each residual market where
she reports.  Of its answer, only her demand steers the walk: her
permission row is every item less the sold items at least as good as
her demand, a record that no decision reads.  Everything else the walk
does, the order in which it plays the markets included, reads the other
buyers' rows, the price bounds and the states reached, and the profit is
scored with her true row.  So the walk is a function of her demands: two
rows that give the same demands, query by query, play the same markets
and score the same profit.  A query is what her settlement depends on
besides her row: the prices and the sold item set.  Her answer
transcript is her demand at each query the walk asks.  So the walk runs
on the true economy and asks her (see
:class:`~rigidmarket.expectation._LotteryWalk`); no reported economy is
built.

The rows that give one transcript are the integer solutions of a system
of difference constraints.  Her demand ``D`` at prices ``p`` is the
unsold items of top net benefit, the dummy included: ``x_a - p_a =
x_b - p_b`` for ``a`` and ``b`` in ``D``, and ``x_c - p_c <= x_a - p_a
- 1`` for every other unsold ``c``, as values are integers.  With
``x_0 = 0`` (the dummy) and ``0 <= x_a <= cap``, every constraint
bounds one difference ``x_b - x_a``.  The search keeps them as a closed
bound matrix ``W``, ``W[a][b]`` the bound on ``x_b - x_a``: a system is
feasible iff its constraint graph has no negative cycle, and then its
componentwise least solution is ``x_a = -W[a][0]``, which is also its
lexicographically smallest row (Cormen, Leiserson, Rivest and Stein,
"Introduction to Algorithms", section 24.4, "Difference constraints and
shortest paths").  The search is depth first: at each query the walk
asks, it forks the walk once per demand that keeps the system feasible,
at most ``2 ** (m + 1) - 1`` candidates.  Each completed branch is one
transcript, with its exact profit and least row, and every row of the
box lies in exactly one of them.  The best transcript has the top
profit and, among those, the smallest least row: the smallest vector of
the box with that profit, the row that scoring the box in order would
keep.  The truthful strategy wins a tie.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import NotTwoBuyers, SizeGuard
from .mechanism import _check_limit, rm
from .model import (
    DUMMY, Economy, RationingSystem, _check_buyer, _is_int, demand_set, settled_demand
)
from .expectation import DEFAULT_NODE_LIMIT, _LotteryWalk, expected_values

DEFAULT_ENUMERATION_LIMIT = 1_000_000


@dataclass(frozen=True)
class Strategy:
    """A reported value function: non-negative integers, dummy at zero."""

    reported_values: tuple[int, ...]

    def __post_init__(self):
        for a, v in enumerate(self.reported_values):
            if not _is_int(v):
                raise ValueError(f"NonIntegerEntry: reported value for item {a} is {v!r}")
        if not self.reported_values or self.reported_values[DUMMY] != 0:
            raise ValueError("NonZeroDummyValuation: a strategy must value the dummy item at 0")
        if any(v < 0 for v in self.reported_values):
            raise ValueError("NegativeEntry: reported values must be non-negative")

    @staticmethod
    def from_real_values(values) -> "Strategy":
        return Strategy((0, *values))

    @staticmethod
    def truthful(economy: Economy, buyer: int) -> "Strategy":
        _check_buyer(buyer, economy.n_buyers)
        return Strategy(economy.valuations[buyer - 1])


@dataclass(frozen=True)
class ManipulationProblem:
    economy: Economy
    manipulator: int = 1

    def __post_init__(self):
        _check_buyer(self.manipulator, self.economy.n_buyers)

    def reported_economy(self, strategy: Strategy) -> Economy:
        if len(strategy.reported_values) != self.economy.n_items:
            raise ValueError("ShapeError: strategy length does not match the economy")
        return self.economy.with_valuation_row(self.manipulator, strategy.reported_values)


def default_value_cap(problem: ManipulationProblem) -> int:
    """Search box edge: top price cap plus the manipulator's top value.

    Reported values above every attainable price difference produce the
    same demand behaviour as values at the edge, so the box is where the
    search saturates.
    """
    economy = problem.economy
    return max(economy.upper_bounds) + max(economy.valuations[problem.manipulator - 1])


def _profit_walk(economy: Economy, true_row, manipulator: int, node_limit: int) -> _LotteryWalk:
    """The walk of the manipulator's expected true-value profit.

    Her win credits her true value less the cap at the sale and ends the
    branch, since sold prices never move.  At a settled leaf, where she
    holds nothing, the completion matching decides what she receives.
    The walk stops at each of her queries (see
    :class:`~rigidmarket.expectation._LotteryWalk`).
    """
    def payoff(state):
        completion = rm(state.demands, state.sold, state.prices, economy.lower_bounds)
        item = completion.buyer_to_item.get(manipulator, DUMMY)
        return (true_row[item] - state.prices[item],)

    def credit(item, winner):
        return 0, true_row[item] - economy.upper_bounds[item] if winner == manipulator else 0

    return _LotteryWalk(economy, node_limit, payoff, credit, manipulator)


def _true_profit_of_run(
    economy: Economy, true_row, manipulator: int, node_limit: int
) -> tuple[Fraction, dict]:
    """Expected true-value profit of the manipulator in the reported economy.

    Returns the profit and her transcript: her settled demand at each
    query where the walk stopped, in the order asked.  Each answer
    settles her row of ``economy`` with every item allowed, since any
    permission row that holds every unsold item gives the same demand.
    """
    walk = _profit_walk(economy, true_row, manipulator, node_limit)
    row, items = economy.valuations[manipulator - 1], frozenset(economy.items)
    while (query := walk.play()) is not None:
        walk.said[query] = settled_demand(row, query[0], items, query[1])[1]
    return walk.value()[0], walk.said


def expected_profit_under_strategy(
    problem: ManipulationProblem,
    strategy: Strategy,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> Fraction:
    """Expected true profit when the manipulator commits to ``strategy``."""
    _check_limit("node_limit", node_limit)
    reported = problem.reported_economy(strategy)
    true_row = problem.economy.valuations[problem.manipulator - 1]
    profit, _ = _true_profit_of_run(reported, true_row, problem.manipulator, node_limit)
    return profit


@dataclass(frozen=True)
class SearchResult:
    """The best strategy in the box and what finding it took.

    ``full_walks`` counts her answer transcripts in the box, one per
    completed branch of the search; a truthful row outside the box is
    scored by one more walk, which is not counted.
    ``distinct_evaluations`` is the transcript count too.
    ``strategies_evaluated`` is the size of the box, ``(cap + 1) ** m``:
    every row of it lies in the region of one transcript.
    """

    best_strategy: Strategy
    best_profit: Fraction
    truthful_profit: Fraction
    truthful_is_optimal: bool
    cap: int
    strategies_evaluated: int
    distinct_evaluations: int
    full_walks: int


def _with_demand(bounds, prices, unsold, demand):
    """``bounds`` with the constraints under which she settles on ``demand``, or ``None``.

    ``bounds[i][j]`` bounds ``x_j - x_i`` and is closed: no chain of
    constraints gives a tighter bound.  Her demand at ``prices`` is the
    unsold items of top net benefit ``x_c - prices[c]``.  With ``a`` the
    first item of ``demand``, that is ``x_b - x_a = prices[b] - prices[a]``
    for every item ``b`` of ``demand``, and ``x_c - x_a <= prices[c] -
    prices[a] - 1`` for every other unsold ``c``: edges out of ``a`` and,
    for the equalities, back into it.  A constraint that contradicts
    ``bounds`` on its own is rejected first.  Every new edge touches
    ``a``, so a shortest chain uses them only next to ``a``: the closed
    bounds are ``min(bounds[i][j], into[i] + out[j])``, with ``out[j]``
    the best bound on ``x_j - x_a`` and ``into[i]`` that on ``x_a - x_i``,
    and the system is infeasible exactly when a cycle through ``a`` is
    negative: ``out[b] + prices[a] - prices[b] < 0`` for some ``b`` of
    ``demand`` (``a`` itself included).
    """
    a = demand[0]
    price, out, back = prices[a], list(bounds[a]), []
    for c in unsold:
        w = prices[c] - price - (c not in demand)
        if w + bounds[c][a] < 0:
            return None
        if w < bounds[a][c]:
            for j, bound in enumerate(bounds[c]):
                if w + bound < out[j]:
                    out[j] = w + bound
        if c in demand:
            back.append((c, price - prices[c]))
    if any(out[b] + w < 0 for b, w in back):
        return None
    into = [min(row[b] + w for b, w in back) for row in bounds]
    return tuple(tuple(w if w <= t + o else t + o for w, o in zip(row, out))
                 for row, t in zip(bounds, into))


def _transcripts(economy: Economy, manipulator: int, cap: int, node_limit: int):
    """Each answer transcript of her rows in ``[0, cap]`` per item: (answers, profit, bounds).

    A depth-first search over her queries (see the module docstring).  It
    forks her profit walk at each query where she reports, once per
    demand that keeps the branch's difference system feasible, so each
    completed branch is one transcript: her answers by query, in the
    order asked, her exact expected profit, and the closed bound matrix
    of the rows that give it.  Other buyers' answers depend only on the
    query, so one answer table per query serves every branch.
    """
    items = range(economy.n_items)
    # x_0 = 0 and 0 <= x_a <= cap, closed
    box = tuple(tuple(0 if b in (a, DUMMY) else cap for b in items) for a in items)
    true_row = economy.valuations[manipulator - 1]
    stack = [(_profit_walk(economy, true_row, manipulator, node_limit), box)]
    while stack:
        walk, bounds = stack.pop()
        if (query := walk.play()) is None:
            yield walk.said, walk.value()[0], bounds
            continue
        unsold = [a for a in items if a not in query[1]]  # query: (prices, sold item set)
        branches = [
            (frozenset(demand), tightened)
            for size in range(1, len(unsold) + 1)
            for demand in itertools.combinations(unsold, size)
            if (tightened := _with_demand(bounds, query[0], unsold, demand)) is not None
        ]
        for k, (demand, tightened) in enumerate(branches):
            branch = walk if k == len(branches) - 1 else walk.fork()
            branch.said[query] = demand
            stack.append((branch, tightened))


def optimal_strategy_search(
    problem: ManipulationProblem,
    cap: Optional[int] = None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> SearchResult:
    """Best strategy over all integer value vectors in ``[0, cap]`` per item.

    Scores each of her answer transcripts in the box once
    (:func:`_transcripts`), with the least row of its region.  The best
    profit is the maximum over transcripts.  Ties break toward the
    truthful strategy when it attains the maximum, otherwise toward the
    lexicographically smallest least row: the smallest vector of the box
    with that profit, since each region's least row is its
    lexicographically smallest.  The truthful profit is that of the
    transcript whose region holds the truthful row, or of one plain walk
    when that row lies outside the box.  More than
    ``DEFAULT_ENUMERATION_LIMIT`` transcripts is a :class:`SizeGuard`.  A
    ``cap`` of ``None`` is :func:`default_value_cap`; one that is not an
    integer (a ``bool`` included) or is negative is a ``ValueError``, and
    so is a ``node_limit`` that is not an integer.
    """
    economy = problem.economy
    _check_limit("node_limit", node_limit)
    if cap is None:
        cap = default_value_cap(problem)
    if not _is_int(cap):
        raise ValueError(f"NonIntegerEntry: the value cap must be an integer, got {cap!r}")
    if cap < 0:
        raise ValueError(f"NegativeEntry: the value cap must be non-negative, got {cap}")
    manipulator = problem.manipulator
    true_row = economy.valuations[manipulator - 1]
    best = truthful_profit = None  # best: the least (-profit, least row) of a transcript
    found = _transcripts(economy, manipulator, cap, node_limit)
    for transcripts, (_, profit, bounds) in enumerate(found, 1):
        if transcripts > DEFAULT_ENUMERATION_LIMIT:
            raise SizeGuard(f"{transcripts} answer transcripts exceed the enumeration limit"
                            f" {DEFAULT_ENUMERATION_LIMIT}")
        key = (-profit, tuple(-row[DUMMY] for row in bounds))
        best = key if best is None else min(best, key)
        if all(true_row[b] - true_row[a] <= w
               for a, row in enumerate(bounds) for b, w in enumerate(row)):
            truthful_profit = profit
    if truthful_profit is None:  # the truthful row lies outside the box
        truthful_profit, _ = _true_profit_of_run(economy, true_row, manipulator, node_limit)
    truthful_is_optimal = truthful_profit >= -best[0]
    return SearchResult(
        best_strategy=Strategy(true_row) if truthful_is_optimal else Strategy(best[1]),
        best_profit=max(-best[0], truthful_profit),
        truthful_profit=truthful_profit,
        truthful_is_optimal=truthful_is_optimal,
        cap=cap,
        strategies_evaluated=(cap + 1) ** (economy.n_items - 1),
        distinct_evaluations=transcripts,
        full_walks=transcripts,
    )


@dataclass(frozen=True)
class ContestDetails:
    """The two-buyer standoff on a single item, in lower-bound net terms."""

    item: int
    cap_room: int            # how far the contested price can still rise
    manipulator_margin: int  # manipulator's net lead over her next-best option
    rival_margin: int        # same for the rival
    fallback_item: int       # manipulator's best option besides the contested item
    contest_rounds: int      # rounds both sides keep bidding before something gives


@dataclass(frozen=True)
class TwoBuyerVerdict:
    case: str
    expected_profit: Fraction
    details: Optional[ContestDetails] = None


def two_buyer_case_analysis(problem: ManipulationProblem) -> TwoBuyerVerdict:
    """Classify a two-buyer market and give the truthful expected profit in closed form.

    Either the opening demands already admit an equilibrium allocation
    (the manipulator nets her best lower-bound deal), or both buyers
    open on the same single item and the outcome hinges on who can
    outlast whom: the price climbs until one side's net advantage runs
    out or the cap is hit and a coin flip decides.  The closed form is
    checked against the tree evaluation before returning.
    """
    economy = problem.economy
    if economy.n_buyers != 2:
        raise NotTwoBuyers("case analysis covers exactly two buyers")
    manipulator = problem.manipulator
    rival = 1 if manipulator == 2 else 2

    full = RationingSystem.full(economy.n_buyers, economy.n_items)
    lower = economy.lower_bounds
    d_man = demand_set(economy, lower, full, manipulator)
    d_rival = demand_set(economy, lower, full, rival)
    man_row = economy.valuations[manipulator - 1]

    union = d_man | d_rival
    if union == {DUMMY} or len(union) >= 2:
        delta = Fraction(max(man_row[a] - lower[a] for a in economy.items))
        verdict = TwoBuyerVerdict("uncontested", delta)
    else:
        (item,) = union
        rival_row = economy.valuations[rival - 1]
        cap_room = economy.upper_bounds[item] - lower[item]

        def margin_and_fallback(row):
            others = [a for a in economy.items if a != item]
            best = max(row[a] - lower[a] for a in others)
            fallback = next(a for a in others if row[a] - lower[a] == best)
            return (row[item] - lower[item]) - best, fallback

        man_margin, fallback = margin_and_fallback(man_row)
        rival_margin, _ = margin_and_fallback(rival_row)
        contest_rounds = min(cap_room, man_margin - 1, rival_margin - 1)
        fallback_net = man_row[fallback] - lower[fallback]

        if contest_rounds == cap_room:
            # Price hits the cap with both still bidding: fair coin.
            delta = Fraction(
                (man_row[item] - lower[item] - cap_room) + fallback_net, 2
            )
            case = "capped_lottery"
        elif contest_rounds == man_margin - 1:
            delta = Fraction(fallback_net)
            case = "manipulator_switches"
        else:
            delta = Fraction(man_row[item] - lower[item] - rival_margin)
            case = "rival_switches"
        verdict = TwoBuyerVerdict(
            case,
            delta,
            ContestDetails(
                item, cap_room, man_margin, rival_margin, fallback, contest_rounds
            ),
        )

    tree_value = expected_values(economy).expected_profit[manipulator]
    if tree_value != verdict.expected_profit:
        raise RuntimeError(
            f"case analysis gives {verdict.expected_profit}, tree gives {tree_value}"
        )
    return verdict
