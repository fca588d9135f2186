"""The benchmark's workloads: seeded input pools, ops and output checks.

Each workload has a fixed population of economies; economy ``j`` is drawn
from ``random.Random(f"{name}:{j}")`` (plus, for the mechanism, a lottery
seed).  Per-op cost varies several-fold between economies of one shape,
so a plain random sample of ~100 of them per run moves the median and
90th percentile by 10-30 % from seed to seed.  The pool of a run is
therefore a stratified sample: ``strata.json`` lists the population
sorted by the op's cost (the number of traced calls it makes), cut into
equal strata, and ``--seed`` picks one economy from each stratum.  Op
``k`` of a run uses pool entry ``k % strata``; the pool is laid out in
bit-reversed stratum order so that any prefix of it spans the whole cost
range.

The generators live here, not in ``tests/`` or ``scripts/``, so that
editing the test suite cannot change the load.  Every function takes the
imported ``rigidmarket`` package as ``pkg`` and calls the public API
through it, so a traced run sees every call.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable


class VerificationError(Exception):
    """An op returned, but its output is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise VerificationError(message)


def random_economy(pkg, rng: random.Random, n: int, m: int, value_max: int,
                   floor_max: int, room_max: int):
    """n buyers, m items; values U[0, value_max], floors U[0, floor_max],
    caps = floor + U[0, room_max]."""
    names = ["o"] + [f"x{a}" for a in range(1, m + 1)]
    values = [[0] + [rng.randint(0, value_max) for _ in range(m)] for _ in range(n)]
    lower = [0] + [rng.randint(0, floor_max) for _ in range(m)]
    upper = [0] + [p + rng.randint(0, room_max) for p in lower[1:]]
    return pkg.validate_economy(names, values, lower, upper)


def spread_order(count: int) -> list[int]:
    """0..count-1 in bit-reversed order: every prefix is spread over the range."""
    bits = max(count - 1, 1).bit_length()
    return sorted(range(count), key=lambda t: int(f"{t:0{bits}b}"[::-1], 2))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shapes: tuple[tuple[int, int], ...]  # (buyers, items), cycled through the population
    value_max: int
    floor_max: int
    room_max: int
    population: int
    strata: int  # pool size: one economy per cost stratum
    run: Callable[[Any, Any], Any]
    verify: Callable[[Any, Any, Any], None]
    record: Callable[[Any], Any]  # output -> what the reference file holds

    def member(self, pkg, index: int):
        """Population member ``index``: (economy, lottery seed)."""
        rng = random.Random(f"{self.name}:{index}")
        n, m = self.shapes[index % len(self.shapes)]
        economy = random_economy(pkg, rng, n, m, self.value_max, self.floor_max,
                                 self.room_max)
        return economy, rng.getrandbits(32)

    def pick(self, seed: int, by_cost=None) -> list[int]:
        """The population indices of this seed's pool, in pool order.

        ``by_cost`` is the population sorted by op cost (``strata.json``);
        without it the population order stands in, as for tiny self-test
        workloads.
        """
        by_cost = list(range(self.population)) if by_cost is None else by_cost
        if sorted(by_cost) != list(range(self.population)):
            raise ValueError(f"{self.name}: cost order is not a permutation of the population")
        rng = random.Random(f"{self.name}:pick:{seed}")
        size = self.population // self.strata
        picks = [rng.choice(by_cost[t * size:(t + 1) * size]) for t in range(self.strata)]
        return [picks[t] for t in spread_order(self.strata)]

    def make_inputs(self, pkg, seed: int, by_cost=None) -> list:
        return [self.member(pkg, j) for j in self.pick(seed, by_cost)]


# --- the mechanism: one op is what `rigidmarket run --format json` computes

def run_mapr(pkg, item):
    economy, lottery_seed = item
    outcome = pkg.run_mapr(economy, pkg.SeededLottery(lottery_seed))
    return outcome, outcome.trace.to_json_lines()


def verify_mapr(pkg, item, output):
    economy, _ = item
    outcome, _ = output
    cert = pkg.check_cwe(economy, outcome.prices, outcome.rationing, outcome.allocation)
    require(cert.ok, f"final tuple fails {cert.failures()}")


def record_mapr(output):
    _, lines = output
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# --- the lottery tree: one op is what `rigidmarket expect --histories` computes

def run_tree(pkg, item):
    economy, _ = item
    return pkg.expected_values(economy), pkg.enumerate_histories(economy)


def verify_tree(pkg, item, output):
    economy, _ = item
    report, leaves = output
    profits, prices = pkg.aggregate_histories(economy, leaves)
    require(profits == report.expected_profit, "history profits differ from expected_values")
    require(prices == report.expected_price, "history prices differ from expected_values")
    require(sum(leaf.probability for leaf in leaves) == 1, "leaf probabilities do not sum to 1")
    require(report.tree_stats.probability_mass == 1, "tree probability mass is not 1")
    for leaf in leaves:
        cert = pkg.check_cwe(economy, leaf.prices, leaf.rationing, leaf.allocation)
        require(cert.ok, f"leaf {leaf.winners} fails {cert.failures()}")


def record_tree(output):
    report, _ = output
    return {
        "profit": [str(v) for _, v in sorted(report.expected_profit.items())],
        "price": [str(v) for _, v in sorted(report.expected_price.items())],
        "nodes": report.tree_stats.nodes,
        "leaves": report.tree_stats.leaves,
    }


# --- the strategy search: buyer 1's best misreport at the default value cap

def run_strategy(pkg, item):
    economy, _ = item
    problem = pkg.ManipulationProblem(economy, 1)
    return problem, pkg.optimal_strategy_search(problem)


def verify_strategy(pkg, item, output):
    problem, result = output
    require(result.best_profit >= result.truthful_profit, "best profit below truthful profit")
    rescored = pkg.expected_profit_under_strategy(problem, result.best_strategy)
    require(rescored == result.best_profit,
            f"best strategy rescores to {rescored}, search said {result.best_profit}")


def record_strategy(output):
    _, result = output
    return {
        "best": list(result.best_strategy.reported_values),
        "best_profit": str(result.best_profit),
        "truthful_profit": str(result.truthful_profit),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mapr_raise",
            why="run_mapr plus its JSON trace, n=2m, m in 10..20, wide cap room: ~95% of rounds"
                " are price raises over large demand graphs",
            shapes=((20, 10), (30, 15), (40, 20)),
            value_max=100, floor_max=50, room_max=40, population=512, strata=64,
            run=run_mapr, verify=verify_mapr, record=record_mapr,
        ),
        Workload(
            name="mapr_ration",
            why="run_mapr plus its JSON trace, n=4m, m in 20..40, cap room 0..1: every item goes"
                " by lottery, so the sale path (strikes, forbid_many, apply_sale) dominates",
            shapes=((80, 20), (120, 30), (160, 40)),
            value_max=100, floor_max=50, room_max=1, population=512, strata=64,
            run=run_mapr, verify=verify_mapr, record=record_mapr,
        ),
        Workload(
            name="tree_exact",
            why="expected_values then enumerate_histories on 8x5 and 10x6 markets: the exact"
                " Fraction tree walker and many tiny matchings",
            shapes=((8, 5), (10, 6)),
            value_max=20, floor_max=10, room_max=3, population=512, strata=64,
            run=run_tree, verify=verify_tree, record=record_tree,
        ),
        Workload(
            name="strategy_search",
            why="optimal_strategy_search for buyer 1 on 3x3 markets, values <= 8: the strategy"
                " walker, demand-signature cache and long price step",
            shapes=((3, 3),),
            value_max=8, floor_max=4, room_max=4, population=512, strata=64,
            run=run_strategy, verify=verify_strategy, record=record_strategy,
        ),
    )
}
