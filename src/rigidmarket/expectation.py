"""Exact expected profits and prices over the mechanism's lottery tree.

A run of the mechanism is nondeterministic only at lotteries, where each
of the ``k`` eligible buyers wins with chance ``1/k``.  Expected values
are therefore exact rationals; this module computes them two ways:

* :func:`expected_values` plays the mechanism's own states and steps:
  :func:`~rigidmarket.mechanism.refresh_demands` settles a round and
  :func:`~rigidmarket.mechanism.gate` decides it.  The value is the sum
  of each leaf's payoff times its probability; the strategy module's
  profit evaluation is the same walk with another payoff.
* :func:`enumerate_histories` forks the live mechanism state at every
  lottery and collects one terminal tuple per complete history, with its
  probability.  It walks the tree depth first on an explicit stack, the
  entrants of each lottery in ascending order.

Both raise prices one round at a time and keep their open work in a
container rather than on the call stack, so a tree of any depth stays
within Python's recursion limit and only the node and leaf limits bound
it.

:func:`expected_values` plays each residual market once, in one forward
pass.  Strikes only ever remove sold items, so an unsold buyer's
permission row less the sold items is always the set of unsold items,
and its settled row and demand depend only on its values, the prices
and the sold item set.  So does everything the rest of a history does,
once each lottery winner's profit (value less cap) is credited at its
sale: the subtree below a round is fixed by its residual market,
(prices, sold item set, sold buyer set), whoever holds which item.  Each pending market holds
one representative state and the integer probability mass and count of
the histories that reach it.  Every step raises the number of sold
items plus the sum of prices, so the pass plays markets in that order
and meets each one after all the markets that lead to it.  A leaf
scores each unsold buyer from its settled demand: value less price of
any item in it.  The pass keeps one answer table per (prices, sold item
set), and :func:`refresh_demands` settles each buyer once per table,
whichever buyers hold the sold items.

The pass is a small object, :class:`_LotteryWalk`, that can stop and
resume: its state is the pending markets by rank, the column sums, the
node and leaf counts and, for the strategy module, the manipulator's
answers so far.  Given a manipulator, it stops at each market where she
reports at prices and sold items she has no answer for yet, and hands
that query back; the caller answers and resumes it, or forks it first
to follow several answers.  Forks share the states, which are
immutable, and the answer tables.

The two routes differ in how leaves are scored and in whether histories
that meet are merged, so their agreement, which the tests check in
aggregate and leaf count, checks both.  :func:`enumerate_histories`
keeps the plain refresh, which the full-refresh oracle
``assert_matches_full_refresh`` in ``tests/test_mechanism.py`` checks,
where every unsold buyer reports every round.

All arithmetic is exact.  :func:`expected_values` carries probability
mass as integers over one common denominator, sums leaf payoffs and
sale credits weighted by it, and builds one
:class:`fractions.Fraction` per column at the end;
:func:`enumerate_histories` carries each history's probability as a
``Fraction``.
"""

from __future__ import annotations

import copy
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import TreeSizeExceeded
from .matching import Matching
from .mechanism import (
    MechanismState,
    _check_limit,
    apply_sale,
    complete_run,
    gate,
    initial_state,
    price_increase_step,
    refresh_demands,
)
from .model import Allocation, Economy, RationingSystem

DEFAULT_NODE_LIMIT = 1_000_000


def sold_matching_from_rationing(rationing: RationingSystem, n_items: int) -> Matching:
    """Recover the partial sale a rationing system encodes.

    An item barred to anyone must be barred to everyone but a single
    buyer: its holder.  Items allowed to all are unsold.
    """
    n_buyers = len(rationing.allowed)
    pairs = []
    for a in range(1, n_items):
        holders = [i for i in range(1, n_buyers + 1) if a in rationing.allowed[i - 1]]
        if len(holders) == n_buyers:
            continue
        if len(holders) != 1:
            raise ValueError(f"item {a} is barred to some buyers but has no single holder")
        pairs.append((holders[0], a))
    return Matching(pairs)


def record_sale(rationing: RationingSystem, winner: int, item: int) -> RationingSystem:
    """Rationing after a sale: everyone but the winner loses the item."""
    rows = list(rationing.allowed)
    for j in range(len(rows)):
        if j == winner - 1:
            rows[j] = rows[j] | {item}
        else:
            rows[j] = rows[j] - {item}
    return RationingSystem(tuple(rows))


@dataclass(frozen=True)
class TreeStats:
    nodes: int
    leaves: int
    probability_mass: Fraction


@dataclass(frozen=True)
class ExpectationReport:
    expected_profit: dict[int, Fraction]
    expected_price: dict[int, Fraction]
    tree_stats: TreeStats


class _LotteryWalk:
    """The forward pass over the lottery tree, as a walk that can stop and fork.

    A node is one round of one history.  The walk plays each residual
    market, keyed (prices, sold item set, sold buyer set), once, in one
    forward pass (see the module docstring).  A pending market holds a
    representative state, the integer mass of the histories that reach
    it, over ``scale = lcm(1..n) ** min(n, m)`` for n buyers and m real
    items, and their count.  Markets are played by rank, the number of
    sold items plus the sum of prices (counted from the root), and within
    a rank in the order they were reached.  Every edge raises the rank, so
    a market is played after all of its parents, with its whole mass.

    Playing a market adds its count to the nodes.
    :func:`refresh_demands` settles it with the answer table of its
    prices and sold item set, and :func:`gate` decides it.  ``tables``
    holds one table per pair met; without a manipulator it is emptied at
    each new rank, since every market with those prices and sold items
    shares a rank, which keeps a long walk's live set small.  A settled
    market is a leaf: it adds its count to the leaves and its mass times
    ``payoff(state)``, a sequence of integers, of the settled state to
    the sums.
    A raise hands mass and count to its :func:`price_increase_step`
    child.  A lottery of ``k`` entrants hands each winner's
    :func:`apply_sale` child the share ``mass // k``; ``credit(item,
    winner)`` names one column and an amount, and the share times that
    amount is added to that column alone.  The share is exact: a history
    draws at most ``min(n, m)`` lotteries of at most ``n`` entrants, and
    the histories that meet at a market have all drawn one lottery per
    sold item.  A child state is built only when its market is new.
    :meth:`value` is the sums over the common denominator.

    A ``manipulator``'s win ends its branch, as one node and one leaf per
    path, so ``credit`` must pay her profit at the sale.  The walk does
    not settle her: ``said`` maps each query, (prices, sold item set), to
    her demand there, and she reports it with her permission row as it
    stands, which no decision reads.  :meth:`play` plays markets until
    the walk ends and returns ``None``, or until a market where she is
    active meets a query that ``said`` lacks: it puts that market and the
    rest of its rank back into ``pending``, first, and returns the query.
    Put her answer in ``said`` and call :meth:`play` again to resume.
    :meth:`fork` copies the walk at a stop, so each copy can go on with
    another answer: the pending entries, the sums and her answers are
    copied, and the states, which are immutable, and the answer tables,
    whose other buyers' answers hold in every branch, are shared.

    Once the nodes counted pass ``node_limit``, the walk raises
    :class:`TreeSizeExceeded` after the market it is playing, with
    ``node_limit + 1`` nodes (1 for a negative limit): the count at which
    a walk of one node at a time would stop.
    """

    def __init__(self, economy: Economy, node_limit: int, payoff, credit, manipulator=None):
        n = economy.n_buyers
        self.scale = lcm(*range(1, n + 1)) ** min(n, economy.n_items - 1)
        self.economy, self.node_limit, self.payoff, self.credit = economy, node_limit, payoff, credit
        # (prices, sold item set) -> buyer -> settled answer, shared with forks;
        # the search's branches meet the same queries at every rank
        self.manipulator, self.tables = manipulator, {}
        root = initial_state(economy)
        # rank -> {market key: [representative state, mass, path count]}; a
        # step raises the rank by at most m, so at most m ranks are pending
        self.pending = {0: {(root.prices, frozenset(), frozenset()): [root, self.scale, 1]}}
        # column -> weighted sum; every leaf adds all of its columns
        self.total: defaultdict[int, int] = defaultdict(int)
        self.nodes, self.leaves, self.said = 0, 0, {}

    def fork(self) -> "_LotteryWalk":
        child = copy.copy(self)
        child.pending = {r: {k: e.copy() for k, e in ms.items()} for r, ms in self.pending.items()}
        child.total, child.said = self.total.copy(), self.said.copy()
        return child

    def value(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(self.total[k], self.scale) for k in range(len(self.total)))

    def play(self) -> Optional[tuple]:
        economy, manipulator, said, tables = self.economy, self.manipulator, self.said, self.tables
        payoff, credit, pending, total = self.payoff, self.credit, self.pending, self.total
        node_limit, nodes, leaves = self.node_limit, self.nodes, self.leaves

        def reach(rank, key, mass, paths, step, *args):
            """Add mass and paths to the pending market ``key``; ``step(*args)`` opens a new one."""
            markets = pending.setdefault(rank, {})
            entry = markets.get(key)
            if entry is None:
                markets[key] = [step(*args), mass, paths]
            else:
                entry[1] += mass
                entry[2] += paths

        while pending:
            rank = min(pending)
            if manipulator is None:
                tables.clear()
            markets = iter(pending.pop(rank).items())
            for (prices, sold_items, sold_buyers), (state, mass, paths) in markets:
                answers = tables.setdefault((prices, sold_items), {})
                if manipulator in state.active:
                    demand = said.get((prices, sold_items))
                    if demand is None:  # hand the query over, this market first in its rank
                        key = (prices, sold_items, sold_buyers)
                        pending[rank] = {key: [state, mass, paths], **dict(markets)}
                        self.nodes, self.leaves = nodes, leaves
                        return prices, sold_items
                    answers[manipulator] = (state.rationing.allowed[manipulator - 1], demand)
                nodes += paths
                settled = refresh_demands(economy, state, answers)
                x_min, item, entrants = gate(economy, settled)
                if x_min is None:
                    leaves += paths
                    for k, v in enumerate(payoff(settled)):
                        total[k] += mass * v
                elif item is None:
                    raised = list(prices)
                    for a in x_min:
                        raised[a] += 1
                    raised = tuple(raised)
                    reach(rank + len(x_min), (raised, sold_items, sold_buyers), mass, paths,
                          price_increase_step, economy, settled, x_min)
                else:
                    share = mass // len(entrants)
                    sold_items = sold_items | {item}
                    for winner in entrants:
                        column, amount = credit(item, winner)
                        total[column] += share * amount
                        if winner == manipulator:
                            nodes += paths
                            leaves += paths
                        else:
                            reach(rank + 1, (prices, sold_items, sold_buyers | {winner}), share,
                                  paths, apply_sale, settled, item, winner)
                if nodes > node_limit:
                    raise TreeSizeExceeded(
                        f"lottery tree exceeded {node_limit} nodes", nodes=max(node_limit, 0) + 1
                    )
        self.nodes, self.leaves = nodes, leaves
        return None


def expected_values(
    economy: Economy, node_limit: int = DEFAULT_NODE_LIMIT
) -> ExpectationReport:
    """Expected profit per buyer and expected price per item, exactly.

    The lottery tree is capped at ``node_limit`` nodes, one per round of
    some history; :class:`TreeSizeExceeded` carries ``node_limit + 1``
    nodes, or 1 for a negative limit.  A ``node_limit`` that is not
    an integer is a ``ValueError``.

    A lottery winner's profit, value less cap, is credited at its sale.
    At a leaf an unsold buyer's profit is its best net benefit: value less
    price of any one item of its settled demand.
    """
    _check_limit("node_limit", node_limit)
    n = economy.n_buyers
    valuations = economy.valuations
    caps = economy.upper_bounds

    def payoff(state: MechanismState) -> list[int]:
        prices = state.prices
        profits = [0] * n
        for i, demand in state.demands.items():
            a = next(iter(demand))
            profits[i - 1] = valuations[i - 1][a] - prices[a]
        return profits + list(prices) + [1]

    def credit(item: int, winner: int) -> tuple[int, int]:
        return winner - 1, valuations[winner - 1][item] - caps[item]

    walk = _LotteryWalk(economy, node_limit, payoff, credit)
    walk.play()
    value = walk.value()
    mass = value[-1]
    if mass != 1:
        raise RuntimeError("leaf probabilities do not sum to one")  # unreachable
    return ExpectationReport(
        expected_profit={i: value[i - 1] for i in economy.buyers},
        expected_price={a: value[n + a] for a in economy.items},
        tree_stats=TreeStats(walk.nodes, walk.leaves, mass),
    )


@dataclass(frozen=True)
class HistoryLeaf:
    """One complete run: its probability and terminal tuple.

    ``winners`` is the lottery outcome sequence; replaying the mechanism
    with it scripted reproduces this history exactly.
    """

    probability: Fraction
    prices: tuple[int, ...]
    rationing: RationingSystem
    allocation: Allocation
    winners: tuple[int, ...]


def enumerate_histories(
    economy: Economy, max_leaves: Optional[int] = None
) -> tuple[HistoryLeaf, ...]:
    """Every terminal (prices, rationing, allocation) the mechanism can reach.

    Drives the actual mechanism engine, forking the state at each
    lottery; probabilities multiply ``1/k`` along the way and sum to one.
    Leaves come in depth-first order, the entrants of each lottery in
    ascending order.  A ``max_leaves`` that is neither None nor an integer
    is a ``ValueError``.
    """
    if max_leaves is not None:
        _check_limit("max_leaves", max_leaves)
    leaves: list[HistoryLeaf] = []
    stack = [(initial_state(economy), Fraction(1), ())]
    while stack:
        state, probability, winners = stack.pop()
        state = refresh_demands(economy, state)
        x_min, item, entrants = gate(economy, state)
        if x_min is None:
            allocation = complete_run(economy, state)
            leaves.append(
                HistoryLeaf(probability, state.prices, state.rationing, allocation, winners)
            )
            if max_leaves is not None and len(leaves) > max_leaves:
                raise TreeSizeExceeded(
                    f"history enumeration exceeded {max_leaves} leaves", leaves=len(leaves)
                )
        elif item is None:
            stack.append((price_increase_step(economy, state, x_min), probability, winners))
        else:
            share = probability / len(entrants)
            for winner in reversed(entrants):
                child = apply_sale(state, item, winner)
                stack.append((child, share, winners + (winner,)))
    return tuple(leaves)


def aggregate_histories(
    economy: Economy, leaves
) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
    """Probability-weighted profits and prices from an exhaustive leaf list.

    The leaves that share a probability have their integer profits and
    prices summed first, so each column takes one ``Fraction`` product
    per distinct probability.
    """
    n = economy.n_buyers
    groups: dict[Fraction, list[list[int]]] = {}
    for leaf in leaves:
        paid = leaf.prices
        row = [v[a] - paid[a] for v, a in zip(economy.valuations, leaf.allocation.assignment)]
        groups.setdefault(leaf.probability, []).append(row + list(paid))
    sums = [(p, [sum(column) for column in zip(*rows)]) for p, rows in groups.items()]
    totals = [sum((p * s[k] for p, s in sums), Fraction(0)) for k in range(n + economy.n_items)]
    return dict(zip(economy.buyers, totals)), dict(zip(economy.items, totals[n:]))
