"""Exact expected profits and prices over the mechanism's lottery tree.

A run of the mechanism is nondeterministic only at lotteries, where each
of the ``k`` eligible buyers wins with chance ``1/k``.  Expected values
are therefore exact rationals; this module computes them two ways:

* :func:`expected_values` walks the lottery tree on the mechanism's own
  states and steps: :func:`~rigidmarket.mechanism.refresh_demands`
  settles each node and :func:`~rigidmarket.mechanism.gate` decides it.
  The value is the sum of each leaf's payoff times its probability; the
  strategy module's profit evaluation is the same walk with another
  payoff.
* :func:`enumerate_histories` forks the live mechanism state at every
  lottery and collects one terminal tuple per complete history, with its
  probability.

Both walks raise prices one round at a time and keep their open nodes on
an explicit stack, depth first with the entrants in ascending order, so
a tree of any depth stays within Python's recursion limit and only the
node and leaf limits bound it.

:func:`expected_values` walks each residual market once.  Strikes only
ever remove sold items, so an unsold buyer's permission row less the
sold items is always the set of unsold items, and its settled demand
depends only on the prices and the sold item set.  So does everything
the rest of a history does, once each lottery winner's profit (value
less cap) is credited at its sale: the subtree below a round is fixed
by (prices, sold item set, sold buyer set), whoever holds which item.
The walk keeps each subtree's value under that key, with its node and
leaf counts, and reads a repeated residual market back instead of
walking it again.  It also hands :func:`refresh_demands` a per-walk
answer map, so a buyer's settlement at the same prices, sold items and
permission row is computed once.  A leaf scores each unsold buyer from
its settled demand: value less price of any item in it.  The strategy
walks take neither the memo nor the answer map: their ``early`` callback
records the manipulator's queries at every state where she reports, in
walk order, which a memo hit would skip.

The routes differ only in how leaves are scored, so their agreement,
which the tests check in aggregate and leaf count, checks the scoring
and the memo.  :func:`enumerate_histories` keeps the uncached refresh,
which the full-refresh oracle ``assert_matches_full_refresh`` in
``tests/test_mechanism.py`` checks, where every unsold buyer reports
every round.

All arithmetic is exact.  A leaf's probability is ``1/d``, where ``d``
is the product of the entrant counts of the lotteries on its path, so
:func:`expected_values` sums the integer payoffs of the leaves that
share a ``d``, brings the sums to one common denominator and builds one
:class:`fractions.Fraction` per column at the end;
:func:`enumerate_histories` carries each history's probability as a
``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Sequence

from .errors import TreeSizeExceeded
from .matching import Matching
from .mechanism import (
    MechanismState,
    apply_sale,
    complete_run,
    gate,
    initial_state,
    price_increase_step,
    refresh_demands,
)
from .model import Allocation, Economy, RationingSystem, _is_int

DEFAULT_NODE_LIMIT = 1_000_000


def _check_limit(name: str, limit) -> None:
    """A size limit is an integer; a ``bool`` or ``float`` is a ``ValueError``."""
    if not _is_int(limit):
        raise ValueError(f"NonIntegerEntry: {name} must be an integer, got {limit!r}")


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


def _walk_lottery_tree(
    economy: Economy,
    node_limit: int,
    payoff: Callable[[MechanismState], Sequence[int]],
    early: Optional[Callable[[MechanismState], Optional[Sequence[int]]]] = None,
    credit: Optional[Callable[[int, int], Sequence[int]]] = None,
) -> tuple[tuple[Fraction, ...], int, int]:
    """Expected ``payoff`` over the mechanism's lottery tree: (value, nodes, leaves).

    A node is one round: a :class:`MechanismState` popped from a stack.
    ``early(state)``, when given, may fix a node's value before its round
    is played.  Otherwise :func:`refresh_demands` settles the reports,
    :func:`gate` decides the round, and a settled node is a leaf worth
    ``payoff`` of its state.  A raise pushes one
    :func:`price_increase_step` child, so every round is a node, and the
    walk stops at the first node past ``node_limit``.  A lottery node
    pushes one :func:`apply_sale` child per entrant, each reached with
    probability one over the entrant count; ``credit(item, winner)``,
    when given, is added to the node's value at that probability, so a
    payoff may leave out the buyers sold on the way to the leaf.

    A subtree's value is kept relative to its root, as one integer sum
    vector per denominator: its leaves' payoffs and credits, each leaf's
    probability below the root being one over its denominator.  A leaf is
    ``{1: payoff}``.  A raise node has its child's value.  A lottery
    node's value takes each child's sums with the denominators multiplied
    by the entrant count, plus the child's credit under the entrant
    count.  The walk is post-order on the explicit stack: a lottery node
    leaves a close entry under its children and gets its value when that
    entry is popped.  At the end the root's sums are brought to the least
    common denominator and one :class:`Fraction` per column is built, so
    the value is exact.

    Without ``early`` the walk does each piece of work once:

    * it passes a per-walk answer map to :func:`refresh_demands`, so a
      buyer's settlement at the same prices, sold items and permission
      row is computed once; the map gains at most one key per node;
    * it keeps a memo of subtree values, counts included, keyed on the
      node's prices, sold item set and sold buyer set before its refresh.
      Strikes only remove sold items, so every unsold buyer's permission
      row less the sold items is the set of unsold items, and its settled
      demand depends on the prices and the sold items alone.  Every later
      round reads only those demands and prices, so the key fixes the
      subtree.  Who holds which sold item does not enter it, which is
      why the payoff must score only the unsold buyers and the prices and
      leave each sale to ``credit``.  A hit adds the stored node and leaf
      counts; a node limit first crossed inside a hit reports
      ``node_limit + 1`` nodes, as the full walk would.  The memo holds at
      most one entry per node walked.

    With ``early`` (the strategy walks) the walk takes neither: ``early``
    must see every state, in walk order.  :func:`enumerate_histories`
    keeps the uncached refresh, so it and the full-refresh oracle of
    ``tests/test_mechanism.py`` check this walk independently.
    """
    memo = answers = None
    if early is None:
        memo, answers = {}, {}
    nodes = leaves = 0

    def deliver(value, parent, scale, gain, chain):
        """Store ``value`` for the pending keys of ``chain`` and add it to ``parent``."""
        while chain is not None:
            key, nodes_before, leaves_before, chain = chain
            memo[key] = (value, nodes - nodes_before, leaves - leaves_before)
        for denominator, column_sums in value.items():
            denominator *= scale
            previous = parent.get(denominator)
            parent[denominator] = (
                column_sums if previous is None else [p + v for p, v in zip(previous, column_sums)]
            )
        if gain is not None:
            previous = parent.get(scale)
            parent[scale] = gain if previous is None else [p + g for p, g in zip(previous, gain)]

    total: dict[int, Sequence[int]] = {}
    # (state, value, parent, scale, gain, chain): ``state`` is None on a
    # lottery node's close entry, whose ``value`` is then complete.
    # ``chain`` links the memo keys of the nodes awaiting this value.
    stack = [(initial_state(economy), None, total, 1, None, None)]
    while stack:
        state, value, parent, scale, gain, chain = stack.pop()
        if state is None:
            deliver(value, parent, scale, gain, chain)
            continue
        nodes += 1
        if nodes > node_limit:
            raise TreeSizeExceeded(f"lottery tree exceeded {node_limit} nodes", nodes=nodes)
        if memo is not None:
            sold = state.sold
            key = (state.prices, frozenset(sold.item_to_buyer), frozenset(sold.buyer_to_item))
            hit = memo.get(key)
            if hit is not None:
                value, subtree_nodes, subtree_leaves = hit
                nodes += subtree_nodes - 1
                if nodes > node_limit:
                    raise TreeSizeExceeded(
                        f"lottery tree exceeded {node_limit} nodes", nodes=node_limit + 1
                    )
                leaves += subtree_leaves
                deliver(value, parent, scale, gain, chain)
                continue
            chain = (key, nodes - 1, leaves, chain)
        value = None if early is None else early(state)
        if value is None:
            settled = refresh_demands(economy, state, answers)
            x_min, item, entrants = gate(economy, settled)
            if x_min is None:
                value = payoff(settled)
            elif item is None:
                child = price_increase_step(economy, settled, x_min)
                stack.append((child, None, parent, scale, gain, chain))
                continue
            else:
                node_value: dict[int, Sequence[int]] = {}
                stack.append((None, node_value, parent, scale, gain, chain))
                entrant_count = len(entrants)
                for winner in reversed(entrants):
                    child = apply_sale(settled, item, winner)
                    child_gain = None if credit is None else credit(item, winner)
                    stack.append((child, None, node_value, entrant_count, child_gain, None))
                continue
        leaves += 1
        deliver({1: value}, parent, scale, gain, chain)
    common = lcm(*total)
    scaled = [[s * (common // d) for s in column_sums] for d, column_sums in total.items()]
    return tuple(Fraction(sum(column), common) for column in zip(*scaled)), nodes, leaves


def expected_values(
    economy: Economy, node_limit: int = DEFAULT_NODE_LIMIT
) -> ExpectationReport:
    """Expected profit per buyer and expected price per item, exactly.

    The lottery tree is capped at ``node_limit`` nodes, one per round of
    some history; :class:`TreeSizeExceeded` carries the count reached,
    ``node_limit + 1`` for a positive limit.  A ``node_limit`` that is not
    an integer is a ``ValueError``.

    A lottery winner's profit, value less cap, is credited at its sale.
    At a leaf an unsold buyer's profit is its best net benefit: value less
    price of any one item of its settled demand.
    """
    _check_limit("node_limit", node_limit)
    n = economy.n_buyers
    valuations = economy.valuations
    caps = economy.upper_bounds
    width = n + economy.n_items + 1

    def payoff(state: MechanismState) -> list[int]:
        prices = state.prices
        profits = [0] * n
        for i, demand in state.demands.items():
            a = next(iter(demand))
            profits[i - 1] = valuations[i - 1][a] - prices[a]
        return profits + list(prices) + [1]

    def credit(item: int, winner: int) -> list[int]:
        gain = [0] * width
        gain[winner - 1] = valuations[winner - 1][item] - caps[item]
        return gain

    value, nodes, leaves = _walk_lottery_tree(economy, node_limit, payoff, credit=credit)
    mass = value[-1]
    if mass != 1:
        raise RuntimeError("leaf probabilities do not sum to one")  # unreachable
    return ExpectationReport(
        expected_profit={i: value[i - 1] for i in economy.buyers},
        expected_price={a: value[n + a] for a in economy.items},
        tree_stats=TreeStats(nodes, leaves, mass),
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
