"""Maximum matchings on buyers' demand mappings, by augmenting paths.

A demand mapping takes each buyer to its demand set.  Its graph,
:func:`build_graph`, maps each buyer insisting on real items (dummy not
in its demand set) to the items it demands.  One call to
:func:`augment` either flips a single shortest augmenting path, growing
the matching by one edge, or returns its input unchanged when the
matching is maximum.  :func:`maximum_matching` returns the same matching
as iterating :func:`augment` to its fixed point, but makes one greedy
pass first and then flips the remaining shortest augmenting paths in
place.

Search order is fixed so that repeated runs produce the same matching:
the breadth-first search starts from unmatched buyers in ascending id
order and scans neighbours in ascending item index order.  The graph is
keyed in ascending buyer order, so the order a demand mapping was built
in does not matter.  Downstream set computations rely on this
determinism: ``mods`` grows its set from the lowest buyer the matching
leaves unmatched.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .errors import InvalidMatching
from .model import DUMMY, Allocation


def build_graph(demands: Mapping[int, frozenset[int]]) -> dict[int, tuple[int, ...]]:
    """Each buyer not content with the dummy -> its demanded items, ascending.

    Keyed in ascending buyer order, whatever the order of ``demands``.
    Most demand sets hold one item, and those become their 1-tuple
    without a sort.
    """
    return {
        i: tuple(d) if len(d) == 1 else tuple(sorted(d))
        for i in sorted(demands)
        if DUMMY not in (d := demands[i])
    }


class Matching:
    """A set of vertex-disjoint buyer-item edges.

    Stored as a pair of index maps so "who holds item a" and "what does
    buyer i hold" are O(1); both are queried heavily by the set-search
    and completion routines.  Treated as an immutable value.
    """

    __slots__ = ("buyer_to_item", "item_to_buyer")

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()):
        b2i: dict[int, int] = {}
        i2b: dict[int, int] = {}
        for buyer, item in pairs:
            if buyer in b2i or item in i2b:
                raise InvalidMatching(f"edge ({buyer}, {item}) repeats a matched vertex")
            b2i[buyer] = item
            i2b[item] = buyer
        self.buyer_to_item = b2i
        self.item_to_buyer = i2b

    @classmethod
    def _from_maps(cls, b2i: dict[int, int], i2b: dict[int, int]) -> "Matching":
        """Wrap two inverse maps that already form a matching, unchecked."""
        matching = cls.__new__(cls)
        matching.buyer_to_item = b2i
        matching.item_to_buyer = i2b
        return matching

    def _with_edge(self, buyer: int, item: int) -> "Matching":
        """This matching plus the edge (buyer, item), checked as ``__init__`` checks it."""
        if buyer in self.buyer_to_item or item in self.item_to_buyer:
            raise InvalidMatching(f"edge ({buyer}, {item}) repeats a matched vertex")
        return Matching._from_maps(
            {**self.buyer_to_item, buyer: item}, {**self.item_to_buyer, item: buyer}
        )

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.buyer_to_item.items()))

    def __len__(self) -> int:
        return len(self.buyer_to_item)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matching) and self.buyer_to_item == other.buyer_to_item

    def __repr__(self) -> str:
        inside = ", ".join(f"{i}-{a}" for i, a in self.pairs())
        return f"Matching({inside})"


def _check_matching(graph: Mapping[int, tuple[int, ...]], matching: Matching) -> None:
    for buyer, item in matching.buyer_to_item.items():
        if buyer not in graph or item not in graph[buyer]:
            raise InvalidMatching(f"edge ({buyer}, {item}) is not in the graph")


def _augment_path(
    graph: Mapping[int, tuple[int, ...]], b2i: dict[int, int], i2b: dict[int, int]
) -> bool:
    """Flip one shortest augmenting path in the maps ``b2i``/``i2b``, in place.

    Runs one multi-source BFS, linear in the number of edges, from the
    unmatched buyers in ``graph`` order.  Returns False, leaving the maps
    untouched, when no augmenting path exists.
    """
    queue = [i for i in graph if i not in b2i]
    reached_from: dict[int, int] = {}  # item -> buyer that discovered it
    # The loop also visits the holders appended during it.  A holder is
    # appended only when its one matched item is first reached, so no
    # buyer is queued twice.
    for buyer in queue:
        for item in graph[buyer]:
            if item in reached_from:
                continue
            reached_from[item] = buyer
            holder = i2b.get(item)
            if holder is not None:
                queue.append(holder)
                continue
            while True:  # a free item: flip the path back to its source
                buyer = reached_from[item]
                previous = b2i.get(buyer)
                b2i[buyer] = item
                i2b[item] = buyer
                if previous is None:
                    return True
                item = previous
    return False


def augment(graph: Mapping[int, tuple[int, ...]], matching: Matching) -> Matching:
    """One augmenting step: flip a single shortest alternating path.

    Returns a matching one edge larger whose matched-vertex set contains
    the input's, or the input object itself when no augmenting path
    exists (the fixed point, i.e. the matching is maximum).
    """
    _check_matching(graph, matching)
    b2i = dict(matching.buyer_to_item)
    i2b = dict(matching.item_to_buyer)
    if not _augment_path(graph, b2i, i2b):
        return matching
    return Matching._from_maps(b2i, i2b)


def maximum_matching(
    graph: Mapping[int, tuple[int, ...]], start: Optional[Matching] = None
) -> Matching:
    """The fixed point of :func:`augment` from ``start`` (default: empty).

    Two facts about :func:`augment`'s search make a greedy pass exact.
    Its BFS queues every unmatched buyer before any holder, so while some
    unmatched buyer has a free item, a step gives the lowest such buyer
    its lowest free item.  And free items never come back, so a buyer
    that finds none free now never finds one later.  Hence one pass over
    ``graph`` in order, giving each unmatched buyer its lowest free
    item, makes exactly those one-edge steps; the longer paths that are
    left are then flipped in place by the same BFS as :func:`augment`.
    """
    if start is None:
        b2i: dict[int, int] = {}
        i2b: dict[int, int] = {}
    else:
        _check_matching(graph, start)
        b2i = dict(start.buyer_to_item)
        i2b = dict(start.item_to_buyer)
    for buyer, items in graph.items():
        if buyer in b2i:
            continue
        for item in items:
            if item not in i2b:
                b2i[buyer] = item
                i2b[item] = buyer
                break
    while _augment_path(graph, b2i, i2b):
        pass
    return Matching._from_maps(b2i, i2b)


def max_matching(demands: Mapping[int, frozenset[int]]) -> Matching:
    """Deterministic maximum matching of the demand mapping's graph."""
    return maximum_matching(build_graph(demands))


def matching_to_allocation(matching: Matching, n_buyers: int) -> Allocation:
    """Matched buyers get their item; everyone else gets the dummy."""
    return Allocation(tuple(matching.buyer_to_item.get(i, DUMMY) for i in range(1, n_buyers + 1)))


def unserved(demands: Mapping[int, frozenset[int]], matching: Matching) -> Optional[int]:
    """The lowest buyer who insists on real items and whom ``matching`` leaves unmatched.

    None when there is no such buyer.  For a maximum matching that means
    every demander can be served at once, and otherwise ``mods`` grows its
    over-demanded set from the buyer returned.
    """
    for i in sorted(demands.keys() - matching.buyer_to_item.keys()):
        if DUMMY not in demands[i]:
            return i
    return None


def equilibrium_allocation_exists(demands: Mapping[int, frozenset[int]]) -> bool:
    """True when every buyer insisting on real items can be served one she demands."""
    return unserved(demands, max_matching(demands)) is None
