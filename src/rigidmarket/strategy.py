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
strategy inside a value box by exhaustive enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import NotTwoBuyers, SizeGuard
from .mechanism import rm
from .model import DUMMY, Economy, RationingSystem, _is_int, demand_set
from .expectation import DEFAULT_NODE_LIMIT, _walk_lottery_tree, expected_values

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
            raise ValueError("a strategy must value the dummy item at 0")
        if any(v < 0 for v in self.reported_values):
            raise ValueError("reported values must be non-negative")

    @staticmethod
    def from_real_values(values) -> "Strategy":
        return Strategy((0, *values))

    @staticmethod
    def truthful(economy: Economy, buyer: int) -> "Strategy":
        return Strategy(economy.valuations[buyer - 1])


@dataclass(frozen=True)
class ManipulationProblem:
    economy: Economy
    manipulator: int = 1

    def __post_init__(self):
        if self.manipulator not in self.economy.buyers:
            raise ValueError(f"no buyer {self.manipulator} in this economy")

    def reported_economy(self, strategy: Strategy) -> Economy:
        if len(strategy.reported_values) != self.economy.n_items:
            raise ValueError("strategy length does not match the economy")
        return self.economy.with_valuation_row(self.manipulator, strategy.reported_values)


def default_value_cap(problem: ManipulationProblem) -> int:
    """Search box edge: top price cap plus the manipulator's top value.

    Reported values above every attainable price difference produce the
    same demand behaviour as values at the edge, so the box is where the
    search saturates.
    """
    economy = problem.economy
    return max(economy.upper_bounds) + max(economy.valuations[problem.manipulator - 1])


def _true_profit_of_run(
    economy: Economy, true_row, manipulator: int, node_limit: int
) -> Fraction:
    """Expected true-value profit of the manipulator in the reported economy.

    Walks the reported economy's lottery tree.  Once the manipulator
    holds an item her payoff is settled (sold prices never move), so
    those branches stop early; at settled leaves where she holds nothing
    the completion matching decides what she receives.
    """

    def early(state):
        bought = state.sold.buyer_to_item.get(manipulator)
        if bought is not None:
            return (true_row[bought] - state.prices[bought],)
        return None

    def payoff(state):
        completion = rm(state.demands, state.sold, state.prices, economy.lower_bounds)
        item = completion.buyer_to_item.get(manipulator, DUMMY)
        return (true_row[item] - state.prices[item],)

    (profit,), _, _ = _walk_lottery_tree(economy, node_limit, payoff, early)
    return profit


def expected_profit_under_strategy(
    problem: ManipulationProblem,
    strategy: Strategy,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> Fraction:
    """Expected true profit when the manipulator commits to ``strategy``."""
    reported = problem.reported_economy(strategy)
    true_row = problem.economy.valuations[problem.manipulator - 1]
    return _true_profit_of_run(reported, true_row, problem.manipulator, node_limit)


@dataclass(frozen=True)
class SearchResult:
    best_strategy: Strategy
    best_profit: Fraction
    truthful_profit: Fraction
    truthful_is_optimal: bool
    cap: int
    strategies_evaluated: int
    distinct_evaluations: int


def _demand_signature(values, lower, upper):
    """Key under which two reported rows behave identically.

    Demand sets compare net benefits, so only value differences against
    attainable price differences matter; clamping to just past each
    attainable window collapses equivalent rows.
    """
    m1 = len(lower)
    singles = tuple(
        min(max(values[a - 1], lower[a] - 1), upper[a] + 1) for a in range(1, m1)
    )
    diffs = []
    for a in range(1, m1):
        for b in range(a + 1, m1):
            d = values[a - 1] - values[b - 1]
            diffs.append(min(max(d, lower[a] - upper[b] - 1), upper[a] - lower[b] + 1))
    return singles, tuple(diffs)


def optimal_strategy_search(
    problem: ManipulationProblem,
    cap: Optional[int] = None,
    node_limit: int = DEFAULT_NODE_LIMIT,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> SearchResult:
    """Best strategy over all integer value vectors in ``[0, cap]`` per item.

    Every vector in the box is evaluated (rows with provably identical
    demand behaviour share one tree evaluation).  Ties break toward the
    truthful strategy when it attains the maximum, otherwise toward the
    lexicographically smallest vector.  A negative ``cap`` is a
    ``ValueError``.
    """
    economy = problem.economy
    if cap is None:
        cap = default_value_cap(problem)
    if cap < 0:
        raise ValueError(f"the value cap must be non-negative, got {cap}")
    m = economy.n_items - 1
    total = (cap + 1) ** m
    if total > enumeration_limit:
        raise SizeGuard(
            f"{total} strategies exceed the enumeration limit {enumeration_limit}"
        )

    true_row = economy.valuations[problem.manipulator - 1]
    cache: dict = {}

    def profit_of(real_values) -> Fraction:
        sig = _demand_signature(real_values, economy.lower_bounds, economy.upper_bounds)
        hit = cache.get(sig)
        if hit is None:
            reported = economy.with_valuation_row(problem.manipulator, (0, *real_values))
            hit = _true_profit_of_run(reported, true_row, problem.manipulator, node_limit)
            cache[sig] = hit
        return hit

    best_profit = None
    best_values = None
    for combo in itertools.product(range(cap + 1), repeat=m):
        p = profit_of(combo)
        if best_profit is None or p > best_profit:
            best_profit, best_values = p, combo

    truthful = Strategy.truthful(economy, problem.manipulator)
    truthful_profit = profit_of(true_row[1:]) if max(true_row) <= cap else (
        _true_profit_of_run(economy, true_row, problem.manipulator, node_limit)
    )
    if truthful_profit >= best_profit:
        best_profit = truthful_profit
        chosen = truthful
    else:
        chosen = Strategy.from_real_values(best_values)
    return SearchResult(
        best_strategy=chosen,
        best_profit=best_profit,
        truthful_profit=truthful_profit,
        truthful_is_optimal=truthful_profit == best_profit,
        cap=cap,
        strategies_evaluated=total,
        distinct_evaluations=len(cache),
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
