#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

Runs ``perfbench/run.py`` of each checkout, one process at a time, once
per side per pair, and alternates which side runs first: the parent in
even pairs (0, 2, ...), the change in odd ones.  Each run's last line of
standard output is its JSON result.  Prints every end-to-end metric of
each pair, then each side's median and quartiles per metric and the
number of pairs each side won on ``ops_per_s`` (equal values win for
neither side).  Quartiles are ``statistics.quantiles(values, n=4)``.

Exits 1, after printing the pairs so far, when a run exits non-zero,
prints no JSON result, reports ``"correct": false`` or has failed ops.
Nothing is written into either checkout: the runs use ``--trace 0``,
which writes no file, and no bytecode is cached.

Usage: python scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W
       [--pairs 10] [--seconds 20] [--seed 1]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
CLAIM = "ops_per_s"


class RunFailed(Exception):
    pass


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One benchmark run of ``checkout``; its metric values by name."""
    command = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    where = f"{checkout} ({workload}, seed {seed})"
    if proc.returncode != 0:
        raise RunFailed(f"{where} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        raise RunFailed(f"{where} printed no JSON result") from None
    if result.get("correct") is not True or result.get("failed", 1) != 0:
        raise RunFailed(f"{where} reported correct={result.get('correct')!r}, "
                        f"failed={result.get('failed')!r}")
    return metrics


def summary(runs: list[dict], name: str) -> str:
    values = [r[name] for r in runs]
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return f"{statistics.median(values):.6g} ({q1:.6g}-{q3:.6g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {checkout} has no perfbench/run.py")

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    status = 0
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        try:
            pair = {side: run_once(checkouts[side], args.workload, args.seconds, args.seed)
                    for side in order}
        except RunFailed as exc:
            print(f"pair {k}: {exc}", file=sys.stderr)
            status = 1
            break
        for side in SIDES:
            runs[side].append(pair[side])
        cells = "  ".join(f"{name} {pair['parent'][name]:.6g} -> {pair['change'][name]:.6g}"
                          for name in pair["parent"])
        print(f"pair {k} ({order[0]} first): {cells}", flush=True)

    if runs["parent"]:
        print(f"{args.workload}, seed {args.seed}, {len(runs['parent'])} pairs of "
              f"{args.seconds:g} s; median (quartiles), parent -> change:")
        for name in runs["parent"][0]:
            parent, change = summary(runs["parent"], name), summary(runs["change"], name)
            print(f"  {name:12s} {parent} -> {change}")
        pairs = list(zip(runs["parent"], runs["change"]))
        won = sum(c[CLAIM] > p[CLAIM] for p, c in pairs)
        lost = sum(c[CLAIM] < p[CLAIM] for p, c in pairs)
        print(f"{CLAIM}: change won {won} of {len(pairs)} pairs, parent won {lost}")
    return status


if __name__ == "__main__":
    sys.exit(main())
