#!/usr/bin/env python3
"""Hunt for profitable misreports in markets with three or more buyers.

Two-buyer markets are truthful; beyond that, misreporting can pay.  This
scan samples random small economies, runs the exhaustive strategy search
for buyer 1, and prints every instance where some misreport beats
truthful reporting, with the gain.

Usage: python scripts/manipulation_scan.py [--count 100] [--buyers 3]
       [--items 3] [--seed 1] [--cap CAP]
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rigidmarket import (  # noqa: E402
    ManipulationProblem,
    SizeGuard,
    TreeSizeExceeded,
    optimal_strategy_search,
)
from random_market import int_at_least, random_economy  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int_at_least(1), default=100)
    parser.add_argument("--buyers", type=int_at_least(1), default=3)
    parser.add_argument("--items", type=int_at_least(1), default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cap", type=int_at_least(0), default=None)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    found = 0
    skipped = 0
    for k in range(args.count):
        economy = random_economy(rng, args.buyers, args.items)
        problem = ManipulationProblem(economy, 1)
        try:
            result = optimal_strategy_search(problem, cap=args.cap)
        except (SizeGuard, TreeSizeExceeded):
            skipped += 1
            continue
        if not result.truthful_is_optimal:
            found += 1
            gain = result.best_profit - result.truthful_profit
            print(f"instance {k}: truthful {result.truthful_profit}, "
                  f"best {result.best_profit} (gain {gain})")
            print(f"  valuations: {[list(r[1:]) for r in economy.valuations]}")
            print(f"  bounds: {list(economy.lower_bounds[1:])} .. {list(economy.upper_bounds[1:])}")
            print(f"  best reported values: {list(result.best_strategy.reported_values[1:])}")
    print(f"{found} manipulable instance(s) out of {args.count} ({skipped} skipped)")


if __name__ == "__main__":
    main()
