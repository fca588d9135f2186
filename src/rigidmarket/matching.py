"""Bipartite demand graphs and augmenting-path maximum matchings.

A demand situation becomes a bipartite graph whose left vertices are the
buyers insisting on real items (dummy not in their demand set) and whose
right vertices are the items they demand.  One call to :func:`augment`
either flips a single shortest augmenting path, growing the matching by
one edge, or returns its input unchanged when the matching is maximum.
:func:`maximum_matching` returns the same matching as iterating
:func:`augment` to its fixed point, but makes one greedy pass first and
then flips the remaining shortest augmenting paths in place.

Search order is fixed so that repeated runs produce the same matching:
the breadth-first search starts from unmatched buyers in ascending id
order and scans neighbours in ascending item index order.  Downstream
set computations rely on this determinism: ``mods`` grows its set from
the lowest buyer the matching leaves unmatched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InvalidMatching
from .model import DUMMY, Allocation, DemandSituation


@dataclass(frozen=True)
class BipartiteGraph:
    left: tuple[int, ...]
    adj: dict[int, tuple[int, ...]]  # buyer -> demanded real items, ascending

    @property
    def right(self) -> frozenset[int]:
        out: set[int] = set()
        for items in self.adj.values():
            out.update(items)
        return frozenset(out)

    @property
    def n_edges(self) -> int:
        return sum(len(items) for items in self.adj.values())


def build_graph(situation: DemandSituation) -> BipartiteGraph:
    """Graph of a demand situation; buyers content with the dummy are omitted."""
    left = situation.demanders()
    adj = {i: tuple(sorted(situation.demands[i])) for i in left}
    return BipartiteGraph(left, adj)


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

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.buyer_to_item.items()))

    def covers_buyer(self, buyer: int) -> bool:
        return buyer in self.buyer_to_item

    def covers_item(self, item: int) -> bool:
        return item in self.item_to_buyer

    def matched_buyers(self) -> frozenset[int]:
        return frozenset(self.buyer_to_item)

    def matched_items(self) -> frozenset[int]:
        return frozenset(self.item_to_buyer)

    def __len__(self) -> int:
        return len(self.buyer_to_item)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matching) and self.buyer_to_item == other.buyer_to_item

    def __hash__(self):
        return hash(frozenset(self.buyer_to_item.items()))

    def __repr__(self) -> str:
        inside = ", ".join(f"{i}-{a}" for i, a in self.pairs())
        return f"Matching({inside})"


def _check_matching(graph: BipartiteGraph, matching: Matching) -> None:
    for buyer, item in matching.buyer_to_item.items():
        if buyer not in graph.adj or item not in graph.adj[buyer]:
            raise InvalidMatching(f"edge ({buyer}, {item}) is not in the graph")


def _augment_path(graph: BipartiteGraph, b2i: dict[int, int], i2b: dict[int, int]) -> bool:
    """Flip one shortest augmenting path in the maps ``b2i``/``i2b``, in place.

    Runs one multi-source BFS, linear in the number of edges, from the
    unmatched buyers in ``graph.left`` order.  Returns False, leaving the
    maps untouched, when no augmenting path exists.
    """
    adj = graph.adj
    queue = [i for i in graph.left if i not in b2i]
    reached_from: dict[int, int] = {}  # item -> buyer that discovered it
    # The loop also visits the holders appended during it.  A holder is
    # appended only when its one matched item is first reached, so no
    # buyer is queued twice.
    for buyer in queue:
        for item in adj[buyer]:
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


def augment(graph: BipartiteGraph, matching: Matching) -> Matching:
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


def maximum_matching(graph: BipartiteGraph, start: Optional[Matching] = None) -> Matching:
    """The fixed point of :func:`augment` from ``start`` (default: empty).

    Two facts about :func:`augment`'s search make a greedy pass exact.
    Its BFS queues every unmatched buyer before any holder, so while some
    unmatched buyer has a free item, a step gives the lowest such buyer
    its lowest free item.  And free items never come back, so a buyer
    that finds none free now never finds one later.  Hence one pass over
    ``graph.left`` in order, giving each unmatched buyer its lowest free
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
    for buyer in graph.left:
        if buyer in b2i:
            continue
        for item in graph.adj[buyer]:
            if item not in i2b:
                b2i[buyer] = item
                i2b[item] = buyer
                break
    while _augment_path(graph, b2i, i2b):
        pass
    return Matching._from_maps(b2i, i2b)


def max_matching(situation: DemandSituation) -> Matching:
    """Deterministic maximum matching of the situation's demand graph."""
    return maximum_matching(build_graph(situation))


def matching_to_allocation(matching: Matching, n_buyers: int) -> Allocation:
    """Matched buyers get their item; everyone else gets the dummy."""
    return Allocation(tuple(matching.buyer_to_item.get(i, DUMMY) for i in range(1, n_buyers + 1)))


def equilibrium_allocation_exists(situation: DemandSituation) -> bool:
    """True when every buyer insisting on real items can be served one she demands."""
    return len(max_matching(situation)) == len(situation.demanders())
