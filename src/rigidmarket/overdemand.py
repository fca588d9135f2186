"""Over-demanded item sets and the minimal over-demanded set search.

A set of real items is over-demanded when strictly more buyers demand
only items inside it than the set has items; such a set exists exactly
when no equilibrium allocation does.  ``mods`` answers that question on
its own: it builds the canonical maximum matching, grows a witness set
from an unserved buyer by alternating between demanded items and their
current holders, then filters it down to a minimal over-demanded set.
It returns the empty set when every demander is served.

The filter asks, for each candidate set, whether the buyers confined to
it (demanding only items inside it) can all be matched inside it.  By
Hall's marriage theorem (Hall 1935) that is a question about counts
over subsets, and two cases need no matching at all: with no confined
buyer every one is served, and with more confined buyers than candidate
items not all of them can be, since each item serves at most one.  Only
the remaining cases build a matching.

Demand sets come as a mapping from buyer to demand set.  Both stages
follow fixed orders (lowest unmatched buyer as seed, items scanned in
ascending index), so the result is a deterministic function of the
demand sets, whatever the mapping's order.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .errors import DummyInSet
from .matching import max_matching, unserved
from .model import DUMMY


def _require_real(items: Iterable[int]) -> frozenset[int]:
    items = frozenset(items)
    if DUMMY in items:
        raise DummyInSet("item set must contain real items only")
    return items


def is_over_demanded(demands: Mapping[int, frozenset[int]], items: Iterable[int]) -> bool:
    """More buyers demand only items of this set than the set has items."""
    items = _require_real(items)
    exclusive = sum(1 for d in demands.values() if d <= items)
    return exclusive > len(items)


def is_not_under_demanded(demands: Mapping[int, frozenset[int]], items: Iterable[int]) -> bool:
    """At least as many buyers touch the set as it has items."""
    items = _require_real(items)
    touching = sum(1 for d in demands.values() if d & items)
    return touching >= len(items)


def grow_over_demanded(
    demands: Mapping[int, frozenset[int]]
) -> tuple[frozenset[int], Optional[int]]:
    """Grow an over-demanded set from the lowest-id unserved buyer.

    Returns the grown set and the seed buyer, unserved by the canonical
    maximum matching of ``demands``, or ``(frozenset(), None)`` when that
    matching serves every demander and so no over-demanded set exists.

    Starting from the seed's demand, repeatedly add the demands of the
    buyers currently holding the newly reached items.  Every reached item
    is held by someone (else the matching would admit an augmenting
    path), so the fixed point has as many holders as items, plus the
    unmatched seed demanding inside it: over-demanded.
    """
    matching = max_matching(demands)
    seed = unserved(demands, matching)
    if seed is None:
        return frozenset(), None

    holder_of = matching.item_to_buyer
    grown: set[int] = set()
    frontier = set(demands[seed])
    while frontier:
        holders = {holder_of[a] for a in frontier if a in holder_of}
        grown |= frontier
        frontier = set()
        for j in holders:
            frontier |= demands[j]
        frontier -= grown
    return frozenset(grown), seed


def mods(demands: Mapping[int, frozenset[int]]) -> frozenset[int]:
    """A minimal over-demanded set of the demand sets, or the empty set if none.

    The answer is empty exactly when an equilibrium allocation exists.
    Filters the grown set one item at a time, in ascending item index:
    an item is kept exactly when dropping it would let all buyers
    confined to the remaining candidate set be matched inside it.

    An empty grown set, a settled round, is returned at once.  Otherwise
    only buyers whose demand lies inside the grown set can be confined
    to a candidate, so they are picked out once.  Hall's theorem settles
    two cases by counting: no confined buyer means the item is kept, and
    more confined buyers than candidate items means it is dropped.  Only
    the other cases ask :func:`max_matching`, so the set is the one the
    plain filter, one matching per item, picks.
    """
    grown, _ = grow_over_demanded(demands)
    if not grown:
        return grown
    inside = {i: d for i, d in demands.items() if d <= grown}
    x_min: set[int] = set()
    rest = set(grown)
    for a in sorted(grown):
        rest.discard(a)
        candidate = x_min | rest
        confined = {i: d for i, d in inside.items() if d <= candidate}
        if len(confined) > len(candidate):
            continue
        if not confined or len(max_matching(confined)) == len(confined):
            x_min.add(a)
    return frozenset(x_min)
