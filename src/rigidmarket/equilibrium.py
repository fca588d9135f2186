"""Constrained Walrasian equilibrium verification and brute-force oracles.

A tuple (prices, rationing, allocation) is a constrained Walrasian
equilibrium when

1. prices are admissible and the rationing system is well formed;
2. every buyer receives something from her constrained demand set;
3. any item left unassigned sits at its lower price bound;
4. any item some buyer is barred from is sold, at its upper bound;
5. a barred buyer would actually demand the item were the bar lifted.

The checker returns per-condition verdicts with a witness for each
failure instead of raising.  The module also hosts small exhaustive
searches used as independent oracles in tests: a consistent-allocation
search and over-demanded subset enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Optional

from .errors import SizeGuard
from .model import DUMMY, Allocation, Economy, RationingSystem, indirect_utility

CONDITION_NAMES = (
    "admissible prices and well-formed rationing",
    "every buyer gets an item she demands",
    "unsold items rest at their lower bound",
    "rationed items are sold at their upper bound",
    "rationing only hides items that would be demanded",
)

# the oracles refuse instances past these sizes: buyer-item cells for
# the allocation search, demanded items for the subset enumeration
ALLOCATION_SEARCH_CELLS = 25
SUBSET_SEARCH_ITEMS = 15


@dataclass(frozen=True)
class ConditionVerdict:
    ok: bool
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class EquilibriumCertificate:
    conditions: tuple[ConditionVerdict, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.conditions)

    def failures(self) -> tuple[tuple[str, tuple], ...]:
        return tuple(
            (CONDITION_NAMES[k], c.witness)
            for k, c in enumerate(self.conditions)
            if not c.ok
        )


def _verdict(witnesses) -> ConditionVerdict:
    """The verdict of one condition from an iterator over its failure witnesses."""
    witness = next(witnesses, None)
    return ConditionVerdict(witness is None, witness)


def check_cwe(
    economy: Economy,
    prices,
    rationing: RationingSystem,
    allocation: Allocation,
) -> EquilibriumCertificate:
    """Evaluate all five equilibrium conditions; failures become verdicts.

    Each buyer's best net benefit over her allowed items is read once.
    She demands her item (condition 2) when it is allowed and nets that
    best.  Lifting a single bar on item ``a`` raises her best to at
    least ``a``'s net benefit, so she would demand ``a`` (condition 5)
    exactly when it nets no less than her current best.

    Structurally malformed inputs (wrong lengths, out-of-range items)
    raise ValueError instead of producing a certificate.
    """
    if len(prices) != economy.n_items:
        raise ValueError("price vector length does not match the economy")
    if len(rationing.allowed) != economy.n_buyers:
        raise ValueError("rationing has the wrong number of buyer rows")
    if not frozenset().union(*rationing.allowed) <= frozenset(economy.items):
        raise ValueError("rationing refers to an unknown item")
    if len(allocation.assignment) != economy.n_buyers:
        raise ValueError("allocation length does not match the economy")
    for a in allocation.assignment:
        if not 0 <= a < economy.n_items:
            raise ValueError(f"allocation refers to unknown item {a}")

    best = {i: indirect_utility(economy, prices, rationing, i) for i in economy.buyers}
    assigned = allocation.assigned_items()
    zeros = rationing.zeros(economy.n_items)
    lower, upper = economy.lower_bounds, economy.upper_bounds
    conditions = (
        # validate_economy fixes the dummy's bounds at 0, so this pins its price at 0
        _verdict((None, a) for a in economy.items if not lower[a] <= prices[a] <= upper[a]),
        _verdict(
            (i, a)
            for i, a in enumerate(allocation.assignment, start=1)
            if a not in rationing.allowed[i - 1] or economy.value(i, a) - prices[a] != best[i]
        ),
        _verdict(
            (None, a) for a in economy.real_items if a not in assigned and prices[a] != lower[a]
        ),
        _verdict((i, a) for i, a in zeros if prices[a] != upper[a] or a not in assigned),
        _verdict((i, a) for i, a in zeros if economy.value(i, a) - prices[a] < best[i]),
    )
    return EquilibriumCertificate(conditions)


def _demanded_items(demands: Mapping[int, frozenset[int]]) -> frozenset[int]:
    return frozenset().union(*demands.values()) - {DUMMY}


def brute_force_equilibrium_allocation(
    demands: Mapping[int, frozenset[int]]
) -> Optional[Allocation]:
    """Exhaustive search for an allocation serving every real-item demander.

    Returns one such allocation (buyers content with the dummy keep the
    dummy) or None.  Guarded: refuses instances with more than
    ``ALLOCATION_SEARCH_CELLS`` buyer-item cells.
    """
    universe = _demanded_items(demands)
    if len(demands) * (len(universe) + 1) > ALLOCATION_SEARCH_CELLS:
        raise SizeGuard("instance too large for exhaustive allocation search")

    demanders = sorted(i for i, d in demands.items() if DUMMY not in d)
    n = max(demands, default=0)

    chosen: dict[int, int] = {}
    used: set[int] = set()

    def assign(k: int) -> bool:
        if k == len(demanders):
            return True
        i = demanders[k]
        for a in sorted(demands[i]):
            if a not in used:
                used.add(a)
                chosen[i] = a
                if assign(k + 1):
                    return True
                used.discard(a)
                del chosen[i]
        return False

    if not assign(0):
        return None
    return Allocation(tuple(chosen.get(i, DUMMY) for i in range(1, n + 1)))


def over_demanded_sets(demands: Mapping[int, frozenset[int]]) -> list[frozenset[int]]:
    """All over-demanded subsets of the demanded items, by direct counting.

    Exponential; intended as a test oracle only.  Any over-demanded set
    restricted to demanded items stays over-demanded, so the enumeration
    over demanded items is exhaustive for existence and minimality.
    More than ``SUBSET_SEARCH_ITEMS`` demanded items is a :class:`SizeGuard`.
    """
    items = sorted(_demanded_items(demands))
    if len(items) > SUBSET_SEARCH_ITEMS:
        raise SizeGuard("too many items for subset enumeration")
    found = []
    for size in range(1, len(items) + 1):
        for combo in combinations(items, size):
            subset = frozenset(combo)
            if sum(1 for d in demands.values() if d <= subset) > size:
                found.append(subset)
    return found


def minimal_over_demanded_sets(demands: Mapping[int, frozenset[int]]) -> list[frozenset[int]]:
    sets = over_demanded_sets(demands)
    return [s for s in sets if not any(t < s for t in sets)]
