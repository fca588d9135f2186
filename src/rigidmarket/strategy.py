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

The search walks far fewer trees than it scores rows.  The walk of a
reported economy reads the manipulator's reported row in one place
only: her :func:`~rigidmarket.model.settled_demand` call at each
residual market where she reports.  Of its answer, only her demand
steers the walk: her permission row is every item less the sold items
at least as good as her demand, a record that no decision reads.
Everything else the walk does, the order in which it plays the markets
included, reads the other buyers' rows, the price bounds and the states
reached, and the profit is scored with her true row.  So the walk is a
function of her demands: two rows that give the same demands, query by
query, play the same markets and score the same profit.  A query is
what her settlement depends on besides her row: the prices and the sold
item set.  One search keeps a trie of the answer transcripts it has met
(:class:`_AnswerTrie`); a new row replays the trie by calling
``settled_demand`` on the stored queries, with every item allowed, since
any row holding every unsold item gives the same demand, and only a new
answer builds the reported economy and walks its tree.  A walk's own
answers come from its settled states, so it records its transcript
without asking again.
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


def _true_profit_of_run(
    economy: Economy, true_row, manipulator: int, node_limit: int
) -> tuple[Fraction, list]:
    """Expected true-value profit of the manipulator in the reported economy.

    Returns the profit and the walk's transcript of her answers.  The
    walk is :func:`~rigidmarket.expectation._walk_lottery_tree` on the
    reported economy.  Her win credits her true value less the cap at the
    sale and ends the branch, since sold prices never move.  At a settled
    leaf, where she holds nothing, the completion matching decides what
    she receives.  The transcript holds one (query, answer) pair per
    residual market where she reports (she is unsold and active there):
    the prices and sold item set, and her settled demand at them.
    """
    caps = economy.upper_bounds

    def payoff(state):
        completion = rm(state.demands, state.sold, state.prices, economy.lower_bounds)
        item = completion.buyer_to_item.get(manipulator, DUMMY)
        return (true_row[item] - state.prices[item],)

    def credit(item, winner):
        return 0, true_row[item] - caps[item] if winner == manipulator else 0

    (profit,), _, _, transcript = _walk_lottery_tree(
        economy, node_limit, payoff, credit, manipulator
    )
    return profit, transcript


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

    ``distinct_evaluations`` counts the demand signatures of the box;
    ``full_walks`` counts the lottery trees walked, one per new answer
    transcript (plus, at most, one for a truthful row outside the box).
    """

    best_strategy: Strategy
    best_profit: Fraction
    truthful_profit: Fraction
    truthful_is_optimal: bool
    cap: int
    strategies_evaluated: int
    distinct_evaluations: int
    full_walks: int


def _clamp_windows(lower, upper):
    """The windows :func:`_demand_signature` clamps to, for these price bounds.

    One ``(a, b, low, high)`` per pair of items ``a < b``, the dummy
    included: ``low`` and ``high`` lie just past the attainable price
    differences of ``a`` and ``b``.
    """
    m1 = len(lower)
    return tuple(
        (a, b, lower[a] - upper[b] - 1, upper[a] - lower[b] + 1)
        for a in range(m1)
        for b in range(a + 1, m1)
    )


def _demand_signature(row, windows):
    """Key under which two reported rows behave identically.

    Demand sets compare net benefits, so only value differences against
    attainable price differences matter (against the dummy, valued and
    priced at zero, that is the value itself); clamping each difference
    to its window (:func:`_clamp_windows`) collapses equivalent rows.
    """
    diffs = []
    for a, b, low, high in windows:
        d = row[a] - row[b]
        diffs.append(low if d < low else high if d > high else d)
    return tuple(diffs)


class _AnswerTrie:
    """Profits of one manipulator's walks, keyed by her answer transcripts.

    A node is a ``(query, children)`` pair: the query (prices, sold item
    set), as recorded by :func:`_true_profit_of_run`, and a child per
    demand met so far.  A child is the next node of the walks that gave
    that demand or, when the walk ends there, its exact profit.
    :meth:`profit` answers the stored queries with a reported row,
    settling it with every item allowed, and returns the profit at the
    end of its transcript; only when a demand has no child does it walk
    the tree, and that walk's transcript goes into the trie.
    ``full_walks`` counts those walks.
    """

    def __init__(self, economy: Economy, manipulator: int, node_limit: int):
        self.economy = economy
        self.manipulator = manipulator
        self.true_row = economy.valuations[manipulator - 1]
        self.items = frozenset(economy.items)
        self.node_limit = node_limit
        self.root: dict = {}  # the first node, under the key None
        self.full_walks = 0

    def profit(self, row) -> Fraction:
        node = self.root.get(None)
        while type(node) is tuple:
            (prices, sold), children = node
            node = children.get(settled_demand(row, prices, self.items, sold)[1])
        if node is None:
            return self._walk(row)
        return node

    def _walk(self, row) -> Fraction:
        reported = self.economy.with_valuation_row(self.manipulator, row)
        profit, transcript = _true_profit_of_run(
            reported, self.true_row, self.manipulator, self.node_limit
        )
        self.full_walks += 1
        children, key = self.root, None
        for query, answer in transcript:
            node = children.get(key)
            if node is None:
                node = children[key] = (query, {})
            elif type(node) is not tuple:
                raise RuntimeError("a walk's transcript runs past a recorded one")  # unreachable
            children, key = node[1], answer
        if key in children:
            raise RuntimeError("a walk's transcript is already in the trie")  # unreachable
        children[key] = profit
        return profit


def optimal_strategy_search(
    problem: ManipulationProblem,
    cap: Optional[int] = None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> SearchResult:
    """Best strategy over all integer value vectors in ``[0, cap]`` per item.

    Every vector in the box is scored.  Rows with provably identical
    demand behaviour share one demand signature and one evaluation; an
    evaluation replays the search's trie of answer transcripts (see the
    module docstring) and walks the lottery tree only for a transcript
    the trie has not met, since rows with one transcript play one walk
    and score one profit.  Ties break toward the truthful strategy when
    it attains the maximum, otherwise toward the lexicographically
    smallest vector.  A box of more than ``DEFAULT_ENUMERATION_LIMIT``
    vectors is a :class:`SizeGuard`.  A ``cap`` that is not an integer (a
    ``bool`` included) or is negative is a ``ValueError``, and so is a
    ``node_limit`` that is not an integer.
    """
    economy = problem.economy
    _check_limit("node_limit", node_limit)
    if cap is None:
        cap = default_value_cap(problem)
    if not _is_int(cap):
        raise ValueError(f"NonIntegerEntry: the value cap must be an integer, got {cap!r}")
    if cap < 0:
        raise ValueError(f"NegativeEntry: the value cap must be non-negative, got {cap}")
    m = economy.n_items - 1
    total = (cap + 1) ** m
    if total > DEFAULT_ENUMERATION_LIMIT:
        raise SizeGuard(
            f"{total} strategies exceed the enumeration limit {DEFAULT_ENUMERATION_LIMIT}"
        )

    manipulator = problem.manipulator
    windows = _clamp_windows(economy.lower_bounds, economy.upper_bounds)
    trie = _AnswerTrie(economy, manipulator, node_limit)
    seen: set = set()
    best_profit = None
    best_values = None
    for combo in itertools.product(range(cap + 1), repeat=m):
        row = (0, *combo)
        sig = _demand_signature(row, windows)
        if sig in seen:
            continue  # an earlier vector with this signature scored the same profit
        seen.add(sig)
        p = trie.profit(row)
        if best_profit is None or p > best_profit:
            best_profit, best_values = p, combo

    truthful = Strategy.truthful(economy, manipulator)
    # inside the box this replays the transcript of its signature's first row
    truthful_profit = trie.profit(truthful.reported_values)
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
        distinct_evaluations=len(seen),
        full_walks=trie.full_walks,
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
