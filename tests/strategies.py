"""Shared instance generators: hypothesis strategies and seeded samplers."""

from __future__ import annotations

import hypothesis.strategies as st

from rigidmarket import RationingSystem, validate_economy

ITEM_LETTERS = "abcdefgh"


def make_economy(valuations, lower, upper):
    """Full-form helper: rows/bounds over real items, dummy added here."""
    m = len(lower)
    names = ("o",) + tuple(ITEM_LETTERS[:m])
    rows = [(0, *row) for row in valuations]
    return validate_economy(names, rows, (0, *lower), (0, *upper))


def random_economy(rng, max_buyers=5, max_real_items=4, max_value=8):
    """Seeded sampler used by the acceptance suite; magnitudes stay <= max_value."""
    n = rng.randint(1, max_buyers)
    m = rng.randint(1, max_real_items)
    rows = [[rng.randint(0, max_value) for _ in range(m)] for _ in range(n)]
    lower, upper = [], []
    for _ in range(m):
        a = rng.randint(0, max_value)
        b = rng.randint(0, max_value)
        lower.append(min(a, b))
        upper.append(max(a, b))
    return make_economy(rows, lower, upper)


def random_admissible_prices(rng, economy):
    return tuple(
        rng.randint(economy.lower_bounds[a], economy.upper_bounds[a])
        for a in economy.items
    )


def random_rationing(rng, economy, zero_chance=0.2):
    rationing = RationingSystem.full(economy.n_buyers, economy.n_items)
    for i in economy.buyers:
        for a in economy.real_items:
            if rng.random() < zero_chance:
                rationing = rationing.forbid(i, a)
    return rationing


@st.composite
def economies(draw, max_buyers=4, max_real_items=3, max_value=8):
    n = draw(st.integers(1, max_buyers))
    m = draw(st.integers(1, max_real_items))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, max_value), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    bounds = draw(
        st.lists(
            st.tuples(st.integers(0, max_value), st.integers(0, max_value)),
            min_size=m,
            max_size=m,
        )
    )
    lower = [min(a, b) for a, b in bounds]
    upper = [max(a, b) for a, b in bounds]
    return make_economy(rows, lower, upper)


@st.composite
def markets(draw, **kwargs):
    """(economy, admissible prices, rationing) triples."""
    economy = draw(economies(**kwargs))
    prices = tuple(
        draw(st.integers(economy.lower_bounds[a], economy.upper_bounds[a]))
        for a in economy.items
    )
    rationing = RationingSystem.full(economy.n_buyers, economy.n_items)
    for i in economy.buyers:
        for a in economy.real_items:
            if draw(st.booleans()) and draw(st.booleans()):
                rationing = rationing.forbid(i, a)
    return economy, prices, rationing


@st.composite
def demand_situations(draw, max_buyers=4, max_items=4):
    """Raw demand-set families, not necessarily realised by an economy."""
    n = draw(st.integers(1, max_buyers))
    m = draw(st.integers(1, max_items))
    demands = {}
    for i in range(1, n + 1):
        with_dummy = draw(st.booleans())
        min_real = 0 if with_dummy else 1
        real = draw(st.sets(st.integers(1, m), min_size=min_real, max_size=m))
        demands[i] = frozenset(real | ({0} if with_dummy else set()))
    return demands


@st.composite
def repeated_row_economies(draw, max_real_items=3, max_value=8):
    """Markets whose 2-5 buyers share 1-2 value rows, with cap room 0-1.

    Draws come early and often, and equal rows make sibling lottery
    subtrees meet the same residual market: the markets where the
    expected-value pass merges the most histories.
    """
    m = draw(st.integers(1, max_real_items))
    row = st.lists(st.integers(0, max_value), min_size=m, max_size=m)
    types = draw(st.lists(row, min_size=1, max_size=2))
    rows = draw(st.lists(st.sampled_from(types), min_size=2, max_size=5))
    lower = draw(st.lists(st.integers(0, max_value), min_size=m, max_size=m))
    upper = [p + draw(st.integers(0, 1)) for p in lower]
    return make_economy(rows, lower, upper)
