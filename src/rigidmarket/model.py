"""Core market model: economies, prices, rationing, demands, allocations.

A market sells a finite set of indivisible items to unit-demand buyers.
Item index 0 is always the dummy item ``o``: it can be assigned to any
number of buyers, its price is fixed at 0, and receiving it means
receiving nothing.  Real items occupy indices ``1..m`` in file order.
Every price is a non-negative integer confined to a per-item interval
``[lower, upper]`` (the price rigidities).  Buyers are identified by the
integers ``1..n``.

All types here are immutable values after construction and safe to share
across concurrent tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence

from .errors import EconomyValidationError

DUMMY = 0
DUMMY_NAME = "o"


@dataclass(frozen=True)
class Economy:
    """A market instance: buyers, items, integer values, and price bounds.

    ``item_names[0]`` is the dummy item; ``valuations[i-1][a]`` is buyer
    ``i``'s value for item ``a``.  All money quantities are plain Python
    integers, so sums never overflow.
    """

    item_names: tuple[str, ...]
    valuations: tuple[tuple[int, ...], ...]
    lower_bounds: tuple[int, ...]
    upper_bounds: tuple[int, ...]

    @property
    def n_buyers(self) -> int:
        return len(self.valuations)

    @property
    def n_items(self) -> int:
        """Number of items including the dummy."""
        return len(self.item_names)

    @property
    def buyers(self) -> range:
        return range(1, self.n_buyers + 1)

    @property
    def items(self) -> range:
        return range(self.n_items)

    @property
    def real_items(self) -> range:
        return range(1, self.n_items)

    def value(self, buyer: int, item: int) -> int:
        _check_buyer(buyer, self.n_buyers)
        _check_item(item, self.n_items)
        return self.valuations[buyer - 1][item]

    def item_index(self, name: str) -> int:
        try:
            return self.item_names.index(name)
        except ValueError:
            raise KeyError(f"unknown item {name!r}") from None

    def bound_spread(self) -> int:
        """Total room for price increases, summed over items."""
        return sum(u - l for l, u in zip(self.lower_bounds, self.upper_bounds))

    def with_valuation_row(self, buyer: int, row: Sequence[int]) -> "Economy":
        """A copy of the economy with one buyer's value function replaced."""
        rows = list(self.valuations)
        rows[buyer - 1] = tuple(row)
        return Economy(self.item_names, tuple(rows), self.lower_bounds, self.upper_bounds)


@dataclass(frozen=True)
class RationingSystem:
    """Per-buyer permission sets: ``allowed[i-1]`` is what buyer ``i`` may demand.

    The dummy item is always allowed, so every buyer has at least one
    option at any prices.
    """

    allowed: tuple[frozenset[int], ...]

    def __post_init__(self):
        for row in self.allowed:
            if DUMMY not in row:
                raise ValueError("the dummy item must be allowed to every buyer")

    @staticmethod
    def full(n_buyers: int, n_items: int) -> "RationingSystem":
        row = frozenset(range(n_items))
        return RationingSystem((row,) * n_buyers)

    def forbid(self, buyer: int, item: int) -> "RationingSystem":
        return self.forbid_many(buyer, (item,))

    def forbid_many(self, buyer: int, items: Iterable[int]) -> "RationingSystem":
        _check_buyer(buyer, len(self.allowed))
        items = frozenset(items)
        if DUMMY in items:
            raise ValueError("cannot forbid the dummy item")
        rows = list(self.allowed)
        rows[buyer - 1] = rows[buyer - 1] - items
        return RationingSystem(tuple(rows))

    def zeros(self, n_items: int) -> tuple[tuple[int, int], ...]:
        """All (buyer, item) pairs with permission withdrawn, sorted."""
        out = []
        for i, row in enumerate(self.allowed, start=1):
            out.extend((i, a) for a in range(n_items) if a not in row)
        return tuple(sorted(out))


@dataclass(frozen=True)
class Allocation:
    """An assignment of items to buyers; ``assignment[i-1]`` is buyer i's item.

    Real items go to at most one buyer each; any number of buyers may hold
    the dummy.
    """

    assignment: tuple[int, ...]

    def __post_init__(self):
        seen: set[int] = set()
        for item in self.assignment:
            if item == DUMMY:
                continue
            if item in seen:
                raise ValueError(f"item {item} assigned twice")
            seen.add(item)

    def item_of(self, buyer: int) -> int:
        _check_buyer(buyer, len(self.assignment))
        return self.assignment[buyer - 1]

    def assigned_items(self) -> frozenset[int]:
        return frozenset(a for a in self.assignment if a != DUMMY)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_buyer(buyer, n_buyers: int) -> None:
    """Buyers are the integers ``1..n_buyers``; any other id (a ``bool`` too) is a ``ValueError``."""
    if not (_is_int(buyer) and 1 <= buyer <= n_buyers):
        raise ValueError(f"UnknownBuyer: no buyer {buyer!r} among 1..{n_buyers}")


def _check_item(item, n_items: int) -> None:
    """Items are ``0..n_items - 1``, the dummy included; any other id is a ``ValueError``."""
    if not (_is_int(item) and 0 <= item < n_items):
        raise ValueError(f"UnknownItem: no item {item!r} among 0..{n_items - 1}")


def validate_economy(
    item_names: Sequence[str],
    valuations: Sequence[Sequence[int]],
    lower_bounds: Sequence[int],
    upper_bounds: Sequence[int],
) -> Economy:
    """Build an :class:`Economy`, collecting every invariant violation.

    Inputs are in full form, dummy included at index 0.  Raises
    :class:`EconomyValidationError` listing all problems at once; error
    messages are prefixed with one of the stable codes
    ``NonZeroDummyValuation``, ``NonZeroDummyBounds``, ``BoundsCrossed``,
    ``NegativeEntry``, ``NonIntegerEntry`` (any entry that is not an
    ``int``, or is a ``bool``) or ``ShapeError``.
    """
    errors: list[str] = []
    names = tuple(item_names)
    m1 = len(names)
    if m1 == 0 or names[0] != DUMMY_NAME:
        errors.append(f"ShapeError: item index 0 must be the dummy {DUMMY_NAME!r}")
    if len(set(names)) != m1:
        errors.append("ShapeError: duplicate item names")
    if len(lower_bounds) != m1 or len(upper_bounds) != m1:
        errors.append("ShapeError: price bound vectors must have one entry per item")
        raise EconomyValidationError(errors)

    rows = []
    for i, row in enumerate(valuations, start=1):
        row = tuple(row)
        if len(row) != m1:
            errors.append(f"ShapeError: valuation row of buyer {i} has wrong length")
            raise EconomyValidationError(errors)
        rows.append(row)
        if set(map(type, row)) - {int}:
            errors += [
                f"NonIntegerEntry: valuation of buyer {i} for item {a} is {v!r}"
                for a, v in enumerate(row)
                if not _is_int(v)
            ]
            continue
        if row and row[DUMMY] != 0:
            errors.append(f"NonZeroDummyValuation: buyer {i} values the dummy at {row[DUMMY]}")
        for a, v in enumerate(row):
            if v < 0:
                errors.append(f"NegativeEntry: valuation of buyer {i} for item {a} is {v}")

    lower = tuple(lower_bounds)
    upper = tuple(upper_bounds)
    if m1 and (lower[DUMMY] != 0 or upper[DUMMY] != 0):
        errors.append("NonZeroDummyBounds: the dummy item must have bounds fixed at 0")
    for a in range(m1):
        if not (_is_int(lower[a]) and _is_int(upper[a])):
            errors.append(f"NonIntegerEntry: bounds of item {a} are {lower[a]!r}, {upper[a]!r}")
            continue
        if lower[a] < 0 or upper[a] < 0:
            errors.append(f"NegativeEntry: bounds of item {a} include a negative value")
        if lower[a] > upper[a]:
            errors.append(f"BoundsCrossed: item {a} has lower bound {lower[a]} > upper bound {upper[a]}")

    if errors:
        raise EconomyValidationError(errors)
    return Economy(names, tuple(rows), lower, upper)


def economy_from_dict(data: Mapping) -> Economy:
    """Build an economy from the JSON file schema.

    Expected keys: ``items`` (real item names), ``buyers`` (count),
    ``valuations`` (one row per buyer over real items), ``lower_bounds``
    and ``upper_bounds`` (over real items).  The dummy item is implicit.
    """
    if not isinstance(data, Mapping):
        raise EconomyValidationError(["ShapeError: an economy must be a JSON object"])
    errors = []
    for key in ("items", "buyers", "valuations", "lower_bounds", "upper_bounds"):
        if key not in data:
            errors.append(f"ShapeError: missing field {key!r}")
        elif key != "buyers" and not isinstance(data[key], list):
            errors.append(f"ShapeError: field {key!r} must be a list")
    if errors:
        raise EconomyValidationError(errors)
    items = list(data["items"])
    if not all(isinstance(name, str) for name in items):
        raise EconomyValidationError(["ShapeError: item names must be strings"])
    if DUMMY_NAME in items:
        raise EconomyValidationError(
            [f"ShapeError: item name {DUMMY_NAME!r} is reserved for the implicit dummy"]
        )
    n = data["buyers"]
    valuations = data["valuations"]
    if not _is_int(n) or n < 0:
        raise EconomyValidationError(["ShapeError: 'buyers' must be a non-negative integer"])
    if len(valuations) != n:
        raise EconomyValidationError(
            [f"ShapeError: expected {n} valuation rows, found {len(valuations)}"]
        )
    if not all(isinstance(row, list) for row in valuations):
        raise EconomyValidationError(["ShapeError: every valuation row must be a list"])
    names = (DUMMY_NAME, *items)
    rows = [(0, *row) for row in valuations]
    lower = (0, *data["lower_bounds"])
    upper = (0, *data["upper_bounds"])
    return validate_economy(names, rows, lower, upper)


def is_admissible(economy: Economy, prices: Sequence[int]) -> bool:
    """True when prices sit inside the rigidity intervals, dummy at 0."""
    if len(prices) != economy.n_items:
        return False
    if prices[DUMMY] != 0:
        return False
    return all(
        economy.lower_bounds[a] <= prices[a] <= economy.upper_bounds[a]
        for a in economy.real_items
    )


def indirect_utility(economy, prices, rationing: RationingSystem, buyer: int) -> int:
    """Best net benefit ``value - price`` the buyer can get among allowed items.

    Never negative: the dummy is always allowed and always nets 0.
    """
    _check_buyer(buyer, economy.n_buyers)
    row = economy.valuations[buyer - 1]
    return max(row[a] - prices[a] for a in rationing.allowed[buyer - 1])


def demand_set(economy, prices, rationing: RationingSystem, buyer: int) -> frozenset[int]:
    """Allowed items attaining the buyer's best net benefit at these prices."""
    _check_buyer(buyer, economy.n_buyers)
    row = economy.valuations[buyer - 1]
    allowed = rationing.allowed[buyer - 1]
    best = max(row[a] - prices[a] for a in allowed)
    return frozenset(a for a in allowed if row[a] - prices[a] == best)


def settled_demand(
    values, prices, allowed: frozenset[int], sold: Collection[int]
) -> tuple[frozenset[int], frozenset[int]]:
    """A buyer's permission row and demand once its demand holds no sold item.

    ``values`` is the buyer's value row and ``allowed`` its permission
    row; nothing else of the economy is read.  Reporting with
    :func:`demand_set` and striking the sold items of each report until a
    report holds none ends at the best net benefit over the unsold
    allowed items (the dummy is always allowed and never sold, so there
    is one).  The demand is the unsold items at that best, and the struck
    items are the sold allowed items at least as good.

    One pass over ``allowed`` finds that best and the demand together.
    Only a non-empty ``sold`` can strike, and then the sold items, not
    ``allowed``, are scanned for the struck ones.  When nothing is
    struck, ``allowed`` itself is returned.
    """
    best = None
    demand: list[int] = []
    for a in allowed:
        if a in sold:
            continue
        net = values[a] - prices[a]
        if best is None or net > best:
            best = net
            demand = [a]
        elif net == best:
            demand.append(a)
    if sold:
        struck = [a for a in sold if a in allowed and values[a] - prices[a] >= best]
        if struck:
            allowed = allowed.difference(struck)
    return allowed, frozenset(demand)


def demand_situation(economy, prices, rationing: RationingSystem) -> dict[int, frozenset[int]]:
    """Demand set of every buyer, by buyer id."""
    return {i: demand_set(economy, prices, rationing, i) for i in economy.buyers}
