#!/usr/bin/env python3
"""Fuzz the mechanism: every history of random economies must end in equilibrium.

Samples random economies, walks every lottery path, and checks each
terminal tuple against the five equilibrium conditions.  For each
economy it enumerates, it also checks that ``expected_values`` equals the
probability-weighted sum of the histories and counts as many leaves, and
that each buyer's truthful ``expected_profit_under_strategy`` equals its
profit in that sum.  On every round of one seeded run per economy it
checks that ``mods`` picks the same set as the plain filter (one
maximum matching per grown item, no counting shortcut) and that a
non-empty answer is among ``minimal_over_demanded_sets``; a seeded run
that raises is a mismatch too.  Each seeded run's ``to_json_lines()``
rows are also checked against ``json.dumps(trace.row_dict(row))``, an
encoder independent of the one that joins the lines, and the count of
rows that differ is printed.  On every terminal tuple it also checks
that each buyer without a lottery win holds every item less the sold
items that net at least its best unsold net benefit.  Prints a summary
(and any counterexample immediately).

Usage: python scripts/equilibrium_fuzz.py [--count 500] [--seed 0]
"""

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rigidmarket import (  # noqa: E402
    ManipulationProblem, SeededLottery, Strategy, TreeSizeExceeded, aggregate_histories,
    check_cwe, enumerate_histories, expected_profit_under_strategy, expected_values,
    grow_over_demanded, max_matching, minimal_over_demanded_sets, mods, run_mapr,
)
from random_market import int_at_least, random_economy  # noqa: E402


def plain_filter(demands):
    """The ``mods`` filter with one maximum matching per grown item."""
    grown, _ = grow_over_demanded(demands)
    x_min = set()
    rest = set(grown)
    for a in sorted(grown):
        rest.discard(a)
        candidate = x_min | rest
        confined = {i: d for i, d in demands.items() if d <= candidate}
        if len(max_matching(confined)) == len(confined):
            x_min.add(a)
    return frozenset(x_min)


def mods_mismatches(rows):
    """What went wrong in one seeded run's ``mods`` calls, or None.

    A round is wrong where ``mods`` leaves the plain filter or minimality.
    """
    bad = 0
    for row in rows:
        demands = {i: frozenset(d) for i, d in enumerate(row.demands, 1) if d is not None}
        x_min = mods(demands)
        if x_min != plain_filter(demands) or (
            x_min and x_min not in minimal_over_demanded_sets(demands)
        ):
            bad += 1
    return f"{bad} of {len(rows)} rounds" if bad else None


def json_mismatches(trace):
    """How many of the trace's row lines differ from ``json.dumps`` of their row dicts."""
    lines = trace.to_json_lines()[:-1]
    return sum(line != json.dumps(trace.row_dict(row)) for line, row in zip(lines, trace.rows))


def stray_row(economy, leaf):
    """The first buyer without a lottery win whose row is not its settled row, or None.

    That row is every item less the sold items (the lottery winners'
    items) that net at least the buyer's best unsold net benefit.
    """
    sold = {leaf.allocation.item_of(w) for w in leaf.winners}
    for i in economy.buyers:
        if i in leaf.winners:
            continue
        values = economy.valuations[i - 1]
        best = max(values[a] - leaf.prices[a] for a in economy.items if a not in sold)
        struck = {a for a in sold if values[a] - leaf.prices[a] >= best}
        if leaf.rationing.allowed[i - 1] != frozenset(economy.items) - struck:
            return i
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int_at_least(1), default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-leaves", type=int_at_least(1), default=500)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    histories = 0
    skipped = 0
    compared = 0
    buyers = 0
    rounds = 0
    json_bad = 0
    for k in range(args.count):
        n = rng.randint(1, 5)
        m = rng.randint(1, 4)
        economy = random_economy(rng, n, m)
        try:
            trace = run_mapr(economy, SeededLottery(k)).trace
        except Exception as error:
            bad = f"the run raised {type(error).__name__}: {error}"
        else:
            bad = mods_mismatches(trace.rows)
            rounds += len(trace.rows)
            json_bad += json_mismatches(trace)
        if bad is not None:
            print(f"MODS MISMATCH at instance {k}: {bad} (lottery seed {k})")
            print(f"  valuations: {[list(r[1:]) for r in economy.valuations]}")
            print(f"  bounds: {list(economy.lower_bounds[1:])} .. {list(economy.upper_bounds[1:])}")
            return 1
        try:
            leaves = enumerate_histories(economy, max_leaves=args.max_leaves)
        except TreeSizeExceeded:
            skipped += 1
            continue
        for leaf in leaves:
            certificate = check_cwe(economy, leaf.prices, leaf.rationing, leaf.allocation)
            failures = certificate.failures()
            stray = stray_row(economy, leaf)
            if stray is not None:
                failures += (("unsold rows strike the sold items at their best", (stray,)),)
            if failures:
                print(f"COUNTEREXAMPLE at instance {k}: {failures}")
                print(f"  valuations: {[list(r[1:]) for r in economy.valuations]}")
                print(f"  bounds: {list(economy.lower_bounds[1:])} .. {list(economy.upper_bounds[1:])}")
                print(f"  winners: {leaf.winners}")
                return 1
        histories += len(leaves)
        report = expected_values(economy)
        walked = (report.expected_profit, report.expected_price)
        aggregated = aggregate_histories(economy, leaves)
        mismatch = None
        if walked != aggregated or report.tree_stats.leaves != len(leaves):
            mismatch = "the tree walk and the histories differ"
        for i in economy.buyers:
            problem = ManipulationProblem(economy, i)
            profit = expected_profit_under_strategy(problem, Strategy.truthful(economy, i))
            if profit != aggregated[0][i]:
                mismatch = f"buyer {i}'s truthful strategy profit and the histories differ"
        if mismatch is not None:
            print(f"EXPECTATION MISMATCH at instance {k}: {mismatch}")
            print(f"  valuations: {[list(r[1:]) for r in economy.valuations]}")
            print(f"  bounds: {list(economy.lower_bounds[1:])} .. {list(economy.upper_bounds[1:])}")
            return 1
        compared += 1
        buyers += economy.n_buyers
    print(f"{args.count - skipped} economies, {histories} histories, all equilibria with"
          " settled rows"
          f" ({skipped} skipped as too branchy); expected values agree on {compared} economies,"
          f" truthful strategy profits on {buyers} buyers; mods mismatches: 0 over"
          f" {rounds} rounds of seeded runs; JSON line mismatches: {json_bad} over"
          f" {rounds} rows")
    return 1 if json_bad else 0


if __name__ == "__main__":
    sys.exit(main())
