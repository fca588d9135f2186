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

The routes differ only in how leaves are scored, so their agreement,
which the tests check in aggregate and leaf count, checks the scoring.
The incremental demand refresh they share is checked by
the full-refresh oracle ``assert_matches_full_refresh`` in
``tests/test_mechanism.py``, where every unsold buyer reports every
round.

All arithmetic is exact.  A leaf's probability is ``1/d``, where ``d``
is the product of the entrant counts of the lotteries on its path, so
:func:`expected_values` sums the integer payoffs of the leaves that
share a ``d`` and builds one :class:`fractions.Fraction` per column and
distinct ``d`` at the end; :func:`enumerate_histories` carries each
history's probability as a ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
from .model import Allocation, Economy, RationingSystem, _is_int, indirect_utility

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
    payoff: Callable[[MechanismState], tuple[int, ...]],
    early: Optional[Callable[[MechanismState], Optional[tuple[int, ...]]]] = None,
) -> tuple[tuple[Fraction, ...], int, int]:
    """Expected ``payoff`` over the mechanism's lottery tree: (value, nodes, leaves).

    A node is one round: a :class:`MechanismState` popped from a stack
    with its path denominator, the product of the entrant counts of the
    lotteries above it, so the node's probability is one over it.
    ``early(state)``, when given, may fix a node's value before its round
    is played.  Otherwise :func:`refresh_demands` settles the reports,
    :func:`gate` decides the round, and a settled node is worth
    ``payoff`` of its state.  A raise pushes one
    :func:`price_increase_step` child with the same denominator, so every
    round is a node, and the walk stops at the first node past
    ``node_limit``.  A lottery node pushes one :func:`apply_sale` child
    per entrant, each with the denominator times the entrant count.  The
    value is the probability-weighted sum of the leaves.  Payoffs are
    integers, so a leaf's payoff is added, as integers, to the sums kept
    for its denominator, and one :class:`Fraction` ``sum / denominator``
    per column and distinct denominator is built at the end: the value is
    exact.  :func:`enumerate_histories` shares the refresh, so the
    full-refresh oracle of ``tests/test_mechanism.py`` is what checks it.
    """
    nodes = leaves = 0
    sums: dict[int, Sequence[int]] = {}
    stack = [(initial_state(economy), 1)]
    while stack:
        state, denominator = stack.pop()
        nodes += 1
        if nodes > node_limit:
            raise TreeSizeExceeded(f"lottery tree exceeded {node_limit} nodes", nodes=nodes)
        value = None if early is None else early(state)
        if value is None:
            settled = refresh_demands(economy, state)
            x_min, item, entrants = gate(economy, settled)
            if x_min is None:
                value = payoff(settled)
            elif item is None:
                stack.append((price_increase_step(economy, settled, x_min), denominator))
                continue
            else:
                child_denominator = denominator * len(entrants)
                for winner in reversed(entrants):
                    stack.append((apply_sale(settled, item, winner), child_denominator))
                continue
        leaves += 1
        previous = sums.get(denominator)
        sums[denominator] = value if previous is None else [p + v for p, v in zip(previous, value)]
    total = None
    for denominator, column_sums in sums.items():
        part = [Fraction(s, denominator) for s in column_sums]
        total = part if total is None else [t + p for t, p in zip(total, part)]
    return tuple(total), nodes, leaves


def expected_values(
    economy: Economy, node_limit: int = DEFAULT_NODE_LIMIT
) -> ExpectationReport:
    """Expected profit per buyer and expected price per item, exactly.

    The lottery tree is capped at ``node_limit`` nodes, one per round of
    some history; :class:`TreeSizeExceeded` carries the count reached,
    ``node_limit + 1`` for a positive limit.  A ``node_limit`` that is not
    an integer is a ``ValueError``.
    """
    _check_limit("node_limit", node_limit)

    def payoff(state: MechanismState) -> tuple[int, ...]:
        profits = tuple(
            indirect_utility(economy, state.prices, state.rationing, i) for i in economy.buyers
        )
        return profits + state.prices + (1,)

    value, nodes, leaves = _walk_lottery_tree(economy, node_limit, payoff)
    n = economy.n_buyers
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
