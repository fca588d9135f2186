"""The ascending allocation mechanism with price rigidities and rationing.

One run proceeds in rounds.  Each round the seller announces current
prices, the still-active buyers report their demand sets, and buyers
whose demand touches an already-sold item strike it from their
permission set and report again until no reported demand touches a sold
item.  The seller then looks for a minimal over-demanded set among the
unsold buyers' demands:

* none - the run terminates; the completion step (:func:`rm`) matches
  the remaining buyers, making sure every unsold item priced above its
  lower bound finds a taker;
* some, with every member priced below its cap - those prices rise by
  one unit;
* some, with a member at its price cap - the eligible buyers draw lots
  for it, the winner takes it at the cap and leaves the market.

Prices only ever rise, items once sold never re-enter demand, and the
terminal (prices, rationing, allocation) tuple is a constrained
Walrasian equilibrium.

Lotteries are the only nondeterminism.  They are injected through small
policy objects so a run can be randomised (seeded), replayed exactly
(scripted winner list), or systematically explored (the expectation
module forks the state at each lottery instead).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Protocol, Sequence

from .errors import NoEntrants, RoundLimitExceeded, ScriptError, UpperBoundViolation
from .matching import Matching, build_graph, max_matching, maximum_matching, unserved
from .model import DUMMY, Allocation, Economy, RationingSystem, _is_int, settled_demand
from .overdemand import mods

DEFAULT_ROUND_LIMIT = 1_000_000


def _check_limit(name: str, limit) -> None:
    """A size limit is an integer; a ``bool`` or ``float`` is a ``ValueError``."""
    if not _is_int(limit):
        raise ValueError(f"NonIntegerEntry: {name} must be an integer, got {limit!r}")


@dataclass(frozen=True)
class LotteryEvent:
    item: int
    entrants: tuple[int, ...]
    winner: int


class LotteryPolicy(Protocol):
    def choose(self, item: int, entrants: Sequence[int]) -> int: ...


class SeededLottery:
    """Uniform fair draw from a seeded Mersenne Twister (`random.Random`).

    The generator is part of the interface: equal seeds give identical
    runs on any platform.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def choose(self, item, entrants):
        return self._rng.choice(list(entrants))


class ScriptedLottery:
    """Plays back a fixed winner list; errors name items by ``item_names`` if given.

    A winner that is not an integer (a ``bool`` included) is a
    ``ValueError`` at once, before it can reach a trace.
    """

    def __init__(self, winners: Sequence[int], item_names: Optional[Sequence[str]] = None):
        self._winners = list(winners)
        for winner in self._winners:
            if not _is_int(winner):
                raise ValueError(f"NonIntegerEntry: scripted winner {winner!r} is not an integer")
        self._next = 0
        self._item_names = item_names

    def choose(self, item, entrants):
        if self._next >= len(self._winners):
            raise ScriptError(f"no scripted winner left for draw {self._next + 1}")
        winner = self._winners[self._next]
        self._next += 1
        if winner not in entrants:
            name = item if self._item_names is None else self._item_names[item]
            raise ScriptError(
                f"scripted winner {winner} is not an entrant of the draw on item {name}"
            )
        return winner

    def finish(self):
        if self._next != len(self._winners):
            raise ScriptError(
                f"{len(self._winners) - self._next} scripted winner(s) were never used"
            )


@dataclass(frozen=True)
class MechanismState:
    """Snapshot between rounds: everything the seller and buyers remember.

    ``demands`` holds the last settled report of each buyer still in the
    market: a lottery winner's report leaves with its buyer, so after a
    refresh its keys are exactly the unsold buyers.  ``active`` is the
    set of buyers who must report this round: the steps that open a round
    leave out every buyer whose recorded demand provably cannot change,
    so that report is carried over as it stands.
    """

    prices: tuple[int, ...]
    sold: Matching
    rationing: RationingSystem
    active: frozenset[int]
    demands: Mapping[int, frozenset[int]]


def initial_state(economy: Economy) -> MechanismState:
    return MechanismState(
        prices=economy.lower_bounds,
        sold=Matching(),
        rationing=RationingSystem.full(economy.n_buyers, economy.n_items),
        active=frozenset(economy.buyers),
        demands={},
    )


def refresh_demands(
    economy: Economy, state: MechanismState, answers: Optional[dict] = None
) -> MechanismState:
    """Collect demand reports and strike sold items until none is demanded.

    Active buyers report at current prices; any of them demanding a sold
    item strikes it and reports again until its demand holds no sold
    item.  Buyers never read each other's rows, so each one settles on
    its own, in one :func:`~rigidmarket.model.settled_demand` call on its
    value row and permission row that gives the end of that loop
    directly.

    Every other unsold buyer keeps its report in ``state.demands``;
    :func:`price_increase_step` and :func:`apply_sale` only leave a buyer
    inactive when that report is still its demand and touches no sold
    item.  Afterwards ``demands`` has one report per unsold buyer.  A
    permission row that loses no item stays the same object, so a round
    in which nobody strikes builds no :class:`RationingSystem`, and any
    other round builds one.

    Strikes only ever remove sold items, so an unsold buyer's permission
    row holds every unsold item, and its settled row and demand depend
    only on its values, the prices and the sold item set.  ``answers``
    maps each buyer to that ``settled_demand`` answer; it must belong to
    the state's prices and sold items, and a buyer found in it is read
    back, not computed.  A caller that meets those prices and sold items
    again may pass the same map; ``None`` stands for a fresh one.
    """
    if answers is None:
        answers = {}
    demands = dict(state.demands)
    prices = state.prices
    rationing = state.rationing
    sold = state.sold.item_to_buyer
    valuations = economy.valuations
    rows = None
    for i in sorted(state.active):
        allowed = rationing.allowed[i - 1]
        answer = answers.get(i)
        if answer is None:
            answer = answers[i] = settled_demand(valuations[i - 1], prices, allowed, sold)
        row, demands[i] = answer
        # a row is a subset of ``allowed``: an equal length means nothing
        # was struck, though a read-back row is another state's object
        if row is not allowed and len(row) != len(allowed):
            if rows is None:
                rows = list(rationing.allowed)
            rows[i - 1] = row
    if rows is not None:
        rationing = RationingSystem(tuple(rows))
    return MechanismState(prices, state.sold, rationing, state.active, demands)


def gate(economy: Economy, state: MechanismState):
    """The seller's decision for a settled round: (x_min, item, entrants).

    ``(None, None, ())`` settles the run: :func:`~rigidmarket.overdemand.mods`
    finds no over-demanded set, so every buyer in ``state.demands`` (the
    unsold ones) that insists on real items can be matched.
    ``(x_min, None, ())`` raises the prices of the minimal over-demanded
    set x_min, no member of which is at its cap.  Otherwise ``item`` is
    the lowest capped member of x_min and ``entrants``, ascending, are the
    buyers who demand it and nothing outside x_min; they draw lots for it.
    A capped item with no entrant raises :class:`NoEntrants`.
    """
    demands = state.demands
    x_min = mods(demands)
    if not x_min:
        return None, None, ()
    caps = economy.upper_bounds
    item = min((a for a in x_min if state.prices[a] == caps[a]), default=None)
    if item is None:
        return x_min, None, ()
    entrants = tuple(sorted(i for i, d in demands.items() if item in d and d <= x_min))
    if not entrants:
        raise NoEntrants(f"no eligible buyers for item {item}")
    return x_min, item, entrants


def price_increase_step(
    economy: Economy, state: MechanismState, x_min: frozenset[int]
) -> MechanismState:
    """Raise every price in x_min by one unit and open the next round.

    A member already at its cap is an :class:`UpperBoundViolation`.
    Only buyers whose recorded demand meets x_min report again.  That is
    exact: an item outside x_min keeps its price, and items in x_min only
    lose net benefit, so a demand set disjoint from x_min keeps the same
    best items.  ``state`` must carry the settled reports of its round.
    The full-refresh oracle of ``tests/test_mechanism.py``
    (``assert_matches_full_refresh``) checks this incremental refresh.
    """
    if not x_min:
        raise ValueError("price increase needs a nonempty item set")
    caps = economy.upper_bounds
    raised = list(state.prices)
    for a in x_min:
        if raised[a] >= caps[a]:
            raise UpperBoundViolation(f"item {a} is already at its upper bound")
        raised[a] += 1
    prices = tuple(raised)
    active = frozenset(i for i, d in state.demands.items() if not x_min.isdisjoint(d))
    return MechanismState(prices, state.sold, state.rationing, active, state.demands)


def apply_sale(state: MechanismState, item: int, winner: int) -> MechanismState:
    """Sell ``item`` to ``winner`` and open the next round.

    The winner leaves the market with its report.  Only the remaining
    buyers whose recorded demand contains the item report again.  That is
    exact: prices do not move at a sale, so every other buyer's demand is
    unchanged and still touches no sold item.  ``state`` must carry the
    settled reports of its round.  A winner who already holds an item,
    or an item already sold, is :class:`~rigidmarket.errors.InvalidMatching`.
    """
    sold = state.sold._with_edge(winner, item)
    demands = {i: d for i, d in state.demands.items() if i != winner}
    active = frozenset(i for i, d in demands.items() if item in d)
    return MechanismState(state.prices, sold, state.rationing, active, demands)


def lottery_step(
    state: MechanismState,
    item: int,
    entrants: tuple[int, ...],
    policy: LotteryPolicy,
) -> tuple[MechanismState, LotteryEvent]:
    """Draw lots for ``item`` among ``entrants``, as :func:`gate` returns them.

    The winner buys at the cap and leaves.  Losers are not rationed
    here: they discover the sale next round and strike the item then,
    exactly as with any other sold item.
    """
    winner = policy.choose(item, entrants)
    event = LotteryEvent(item=item, entrants=entrants, winner=winner)
    return apply_sale(state, item, winner), event


def rm(
    demands: Mapping[int, frozenset[int]],
    sold: Matching,
    prices: Sequence[int],
    lower_bounds: Sequence[int],
) -> Matching:
    """Terminal completion: match remaining buyers, selling every marked-up item.

    ``demands`` covers the buyers that have not bought, as
    ``MechanismState.demands`` does after a refresh; the result is
    disjoint from ``sold``.  When no buyer demands an unsold item priced
    above its lower bound, nothing needs pinning and the result is the
    canonical maximum matching of ``demands``: what the pinned path below
    grows from an empty pin.  Otherwise the marked-up unsold items are
    matched on the demands restricted to them, pinning a taker for each;
    that matching is then re-grown to maximum on the full demand graph of
    the remaining buyers, and any pinned edge whose item would otherwise
    be dropped (its taker only liked it alongside the dummy) is added
    back.  With none to add back, the grown matching is returned as it is.
    """
    n_items = len(prices)
    marked_up = frozenset(
        a for a in range(1, n_items) if a not in sold.item_to_buyer and prices[a] > lower_bounds[a]
    )
    touching = {i: d & marked_up for i, d in demands.items() if d & marked_up}
    if not touching:
        return max_matching(demands)
    pinned = max_matching(touching)

    graph = build_graph(demands)
    seed_pairs = [(i, a) for i, a in pinned.pairs() if i in graph]
    grown = maximum_matching(graph, Matching(seed_pairs))

    extra = [
        (i, a)
        for i, a in pinned.pairs()
        if i not in grown.buyer_to_item and a not in grown.item_to_buyer
    ]
    if not extra:
        return grown
    return Matching(grown.pairs() + tuple(extra))


@dataclass(frozen=True)
class TraceRow:
    """One round as the seller saw it, after demand reports settled."""

    label: str
    prices: tuple[int, ...]
    x_min: tuple[int, ...]
    u_sets: tuple[tuple[int, ...], ...]
    sold_buyers: tuple[int, ...]
    demands: tuple[Optional[tuple[int, ...]], ...]
    sold_items: tuple[int, ...]
    lottery: Optional[LotteryEvent] = None


class _Memo(dict):
    """A dict that builds a missing key's value with ``build`` and keeps it."""

    def __init__(self, build):
        self._build = build

    def __missing__(self, key):
        value = self[key] = self._build(key)
        return value


def _json_list(encoded: Iterable[str]) -> str:
    """A JSON array of already-encoded values, spaced as ``json.dumps`` spaces it."""
    return "[" + ", ".join(encoded) + "]"


@dataclass(frozen=True)
class Trace:
    item_names: tuple[str, ...]
    n_buyers: int
    rows: tuple[TraceRow, ...]
    final_prices: tuple[int, ...]
    final_rationing_zeros: tuple[tuple[int, int], ...]
    final_allocation: tuple[int, ...]

    @property
    def events(self) -> tuple[LotteryEvent, ...]:
        return tuple(row.lottery for row in self.rows if row.lottery is not None)

    def _names(self, items) -> list[str]:
        return [self.item_names[a] for a in sorted(items)]

    def row_dict(self, row: TraceRow) -> dict:
        names = self._names
        lottery = None
        if row.lottery is not None:
            lottery = {
                "item": self.item_names[row.lottery.item],
                "entrants": list(row.lottery.entrants),
                "winner": row.lottery.winner,
            }
        return {
            "t": row.label,
            "prices": list(row.prices),
            "x_min": names(row.x_min),
            "u_sets": [None if c is None else names(c) for c in row.u_sets],
            "sold_buyers": list(row.sold_buyers),
            "demands": [None if c is None else names(c) for c in row.demands],
            "sold_items": names(row.sold_items),
            "lottery": lottery,
        }

    def final_dict(self) -> dict:
        return {
            "prices": list(self.final_prices[1:]),
            "rationing_zeros": [[i, self.item_names[a]] for i, a in self.final_rationing_zeros],
            "allocation": [self.item_names[a] for a in self.final_allocation],
        }

    def to_json_lines(self) -> list[str]:
        """One JSON line per row, then the final record.

        Each row line equals ``json.dumps(self.row_dict(row))``.  Rows
        repeat most of their item sets and whole ``U``/``D`` columns, so
        the line is joined from pre-encoded pieces: each item name is
        encoded once with ``json.dumps``, each distinct cell once, and a
        ``U``/``D`` column only when it differs from the previous row's.
        An integer tuple (prices, sold buyers, entrants) is
        ``str(list(values))``, which for ints is its JSON text; the label,
        which a hand-built trace may set to any string, goes through
        ``json.dumps``.
        """
        quoted = [json.dumps(name) for name in self.item_names]
        text = _Memo(lambda c: "null" if c is None else _json_list([quoted[a] for a in sorted(c)]))
        lines = []
        u_sets = demands = None
        for row in self.rows:
            if row.u_sets != u_sets:
                u_sets, u_text = row.u_sets, _json_list(map(text.__getitem__, row.u_sets))
            if row.demands != demands:
                demands, d_text = row.demands, _json_list(map(text.__getitem__, row.demands))
            lottery = "null"
            if row.lottery is not None:
                lottery = (
                    f'{{"item": {quoted[row.lottery.item]}, '
                    f'"entrants": {str(list(row.lottery.entrants))}, '
                    f'"winner": {row.lottery.winner}}}'
                )
            lines.append(
                f'{{"t": {json.dumps(row.label)}, "prices": {str(list(row.prices))}, '
                f'"x_min": {text[row.x_min]}, "u_sets": {u_text}, '
                f'"sold_buyers": {str(list(row.sold_buyers))}, '
                f'"demands": {d_text}, '
                f'"sold_items": {text[row.sold_items]}, "lottery": {lottery}}}'
            )
        lines.append(json.dumps({"final": self.final_dict()}))
        return lines

    def render_table(self) -> str:
        def fmt(items) -> str:
            names = self._names(items)
            return "{" + ",".join(names) + "}" if names else "-"

        headers = (
            ["t", "p", "X_min"]
            + [f"U_{i}" for i in range(1, self.n_buyers + 1)]
            + ["N'"]
            + [f"D_{i}" for i in range(1, self.n_buyers + 1)]
            + ["X'"]
        )
        table = [headers]
        for row in self.rows:
            cells = [row.label, "(" + ",".join(str(p) for p in row.prices) + ")", fmt(row.x_min)]
            cells += [fmt(u) for u in row.u_sets]
            cells.append("{" + ",".join(str(i) for i in row.sold_buyers) + "}" if row.sold_buyers else "-")
            cells += ["" if d is None else fmt(d) for d in row.demands]
            cells.append(fmt(row.sold_items))
            table.append(cells)
        widths = [max(len(r[k]) for r in table) for k in range(len(headers))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in table]
        for row in self.rows:
            if row.lottery is not None:
                entrants = ",".join(str(i) for i in row.lottery.entrants)
                lines.append(
                    f"lottery at t={row.label}: item {self.item_names[row.lottery.item]}"
                    f" among {{{entrants}}} -> buyer {row.lottery.winner}"
                )
        alloc = ", ".join(
            f"{i}->{self.item_names[a]}" for i, a in enumerate(self.final_allocation, start=1)
        )
        lines.append("final prices: (" + ",".join(str(p) for p in self.final_prices) + ")")
        lines.append("final allocation: " + alloc)
        return "\n".join(lines)


@dataclass(frozen=True)
class MaprOutcome:
    """The terminal tuple and the trace; round counts and winners are read from its rows."""

    prices: tuple[int, ...]
    rationing: RationingSystem
    allocation: Allocation
    trace: Trace

    @property
    def price_rounds(self) -> int:
        return sum(1 for row in self.trace.rows if row.x_min and row.lottery is None)

    @property
    def lottery_rounds(self) -> int:
        return len(self.trace.events)

    @property
    def winners(self) -> tuple[int, ...]:
        """The lottery outcomes; feed to a ScriptedLottery to replay the run."""
        return tuple(e.winner for e in self.trace.events)


class _TraceRows:
    """Trace rows for one run, building each distinct ``U_i``/``D_i`` cell once.

    Rows must come from the successive settled states of one run.
    Between rounds most buyers keep both their permission row and their
    demand report, so each cell is cached against the value of its
    source set.  Whole columns are reused by identity: the ``u_sets``
    column while ``state.rationing`` is the same object as at the last
    row (a round with no strike keeps it), and ``sold_buyers`` and
    ``sold_items`` while ``state.sold`` is the same ``Matching`` (only a
    sale replaces it).  The demand column is kept as a list.  After a
    price raise only the buyers in ``state.active`` reported, so only
    their cells are rewritten.  After a sale (a new ``sold``) the last
    row's draw winner has left with its report, so its cell becomes
    ``None``, and the buyers whose demand held the item are in
    ``state.active``.
    """

    def __init__(self, economy: Economy):
        every_item = frozenset(economy.items)
        self._buyers = economy.buyers
        self._u_cell = _Memo(lambda allowed: tuple(sorted(every_item - allowed)))
        self._d_cell = _Memo(lambda report: None if report is None else tuple(sorted(report)))
        self._rationing = self._sold = self._lottery = None

    def row(self, state: MechanismState, label: str, x_min, lottery) -> TraceRow:
        if state.rationing is not self._rationing:
            self._rationing = state.rationing
            self._u_sets = tuple(map(self._u_cell.__getitem__, state.rationing.allowed))
        d_cell = self._d_cell
        if self._sold is None:
            self._demands = list(map(d_cell.__getitem__, map(state.demands.get, self._buyers)))
        else:
            demands = self._demands
            if state.sold is not self._sold:  # the last row's draw sold an item
                demands[self._lottery.winner - 1] = None
            for i in state.active:
                demands[i - 1] = d_cell[state.demands[i]]
        if state.sold is not self._sold:
            self._sold = state.sold
            self._sold_buyers = tuple(sorted(state.sold.buyer_to_item))
            self._sold_items = tuple(sorted(state.sold.item_to_buyer))
        self._lottery = lottery
        return TraceRow(
            label=label,
            prices=state.prices,
            x_min=tuple(sorted(x_min)),
            u_sets=self._u_sets,
            sold_buyers=self._sold_buyers,
            demands=tuple(self._demands),
            sold_items=self._sold_items,
            lottery=lottery,
        )


def complete_run(economy: Economy, state: MechanismState) -> Allocation:
    """Terminal step: run the completion matching and assemble the allocation.

    ``state`` must be settled, so ``state.demands`` are the unsold buyers.
    The allocation is filled in from the sold and the completion maps,
    every other buyer holding the dummy.  A completion edge on a sold
    buyer or a sold item raises
    :class:`~rigidmarket.errors.InvalidMatching`; since
    ``state.demands`` holds no sold buyer, a demander is served exactly
    when the completion serves her.
    """
    completion = rm(state.demands, state.sold, state.prices, economy.lower_bounds)
    sold = state.sold
    if (completion.buyer_to_item.keys() & sold.buyer_to_item.keys()
            or completion.item_to_buyer.keys() & sold.item_to_buyer.keys()):
        Matching(sold.pairs() + completion.pairs())  # raises, naming the first repeated edge
    stray = unserved(state.demands, completion)
    if stray is not None:
        raise RuntimeError(f"completion left demander {stray} unserved")  # unreachable
    assignment = [DUMMY] * economy.n_buyers
    for matching in (sold, completion):
        for buyer, item in matching.buyer_to_item.items():
            assignment[buyer - 1] = item
    return Allocation(tuple(assignment))


def run_mapr(
    economy: Economy,
    policy: Optional[LotteryPolicy] = None,
    round_limit: int = DEFAULT_ROUND_LIMIT,
) -> MaprOutcome:
    """Run the mechanism to termination and record a full trace.

    ``policy`` resolves lottery draws (default: seed-0 randomness).
    Terminates within ``economy.bound_spread()`` price-increase rounds
    plus one lottery per real item; the result tuple satisfies all five
    equilibrium conditions.

    A run that needs more than ``round_limit`` rounds (trace rows) stops
    with :class:`RoundLimitExceeded` before the first round past the
    limit is played; its ``rounds`` is ``round_limit + 1`` (1 for a
    negative limit).  A ``round_limit`` that is not an integer is a
    ``ValueError``.
    """
    _check_limit("round_limit", round_limit)
    if policy is None:
        policy = SeededLottery(0)
    state = initial_state(economy)
    row = _TraceRows(economy).row
    rows: list[TraceRow] = []
    branch: list[str] = []

    max_rounds = economy.bound_spread() + economy.n_items + 1
    for t in range(max_rounds):
        if t >= round_limit:
            raise RoundLimitExceeded(
                f"run exceeded {round_limit} rounds", rounds=max(round_limit, 0) + 1
            )
        state = refresh_demands(economy, state)
        x_min, item, entrants = gate(economy, state)
        label = ".".join([str(t)] + branch)
        if x_min is None:
            rows.append(row(state, label, (), None))
            break
        if item is None:
            rows.append(row(state, label, x_min, None))
            state = price_increase_step(economy, state, x_min)
            continue
        next_state, event = lottery_step(state, item, entrants, policy)
        rows.append(row(state, label, x_min, event))
        branch.append(str(event.entrants.index(event.winner) + 1))
        state = next_state
    else:
        raise RuntimeError("mechanism exceeded its round bound")  # unreachable

    finish = getattr(policy, "finish", None)
    if finish is not None:
        finish()

    allocation = complete_run(economy, state)
    trace = Trace(
        item_names=economy.item_names,
        n_buyers=economy.n_buyers,
        rows=tuple(rows),
        final_prices=state.prices,
        final_rationing_zeros=state.rationing.zeros(economy.n_items),
        final_allocation=allocation.assignment,
    )
    return MaprOutcome(
        prices=state.prices,
        rationing=state.rationing,
        allocation=allocation,
        trace=trace,
    )
