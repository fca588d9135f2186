#!/usr/bin/env python3
"""Fuzz the mechanism: every history of random economies must end in equilibrium.

Samples random economies, walks every lottery path, and checks each
terminal tuple against the five equilibrium conditions.  For each
economy it enumerates, it also checks that ``expected_values`` equals the
probability-weighted sum of the histories and counts as many leaves, and
that each buyer's truthful ``expected_profit_under_strategy`` equals its
profit in that sum.  Prints a summary (and any counterexample
immediately).

Usage: python scripts/equilibrium_fuzz.py [--count 500] [--seed 0]
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rigidmarket import (  # noqa: E402
    ManipulationProblem, Strategy, TreeSizeExceeded, aggregate_histories, check_cwe,
    enumerate_histories, expected_profit_under_strategy, expected_values,
)
from random_market import int_at_least, random_economy  # noqa: E402


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
    for k in range(args.count):
        n = rng.randint(1, 5)
        m = rng.randint(1, 4)
        economy = random_economy(rng, n, m)
        try:
            leaves = enumerate_histories(economy, max_leaves=args.max_leaves)
        except TreeSizeExceeded:
            skipped += 1
            continue
        for leaf in leaves:
            certificate = check_cwe(economy, leaf.prices, leaf.rationing, leaf.allocation)
            if not certificate.ok:
                print(f"COUNTEREXAMPLE at instance {k}: {certificate.failures()}")
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
    print(f"{args.count - skipped} economies, {histories} histories, all equilibria"
          f" ({skipped} skipped as too branchy); expected values agree on {compared} economies,"
          f" truthful strategy profits on {buyers} buyers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
