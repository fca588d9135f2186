"""Command-line front end.

Subcommands: ``run`` (execute the mechanism and print the trace),
``check`` (verify an equilibrium tuple), ``expect`` (exact expected
profits and prices), ``manipulate`` (misreport analysis), ``matching``
(maximum matching of a demand situation).

Exit codes: 0 success, 1 invalid input or a failed equilibrium check,
2 exhausted size guard.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .equilibrium import CONDITION_NAMES, check_cwe
from .errors import EconomyValidationError, SizeGuard, TreeSizeExceeded
from .expectation import DEFAULT_NODE_LIMIT, enumerate_histories, expected_values
from .matching import max_matching
from .mechanism import ScriptedLottery, SeededLottery, run_mapr
from .model import (
    DUMMY,
    Allocation,
    RationingSystem,
    _is_int,
    demand_situation,
    economy_from_dict,
    is_admissible,
)
from .strategy import (
    ManipulationProblem,
    Strategy,
    expected_profit_under_strategy,
    optimal_strategy_search,
)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class CliError(Exception):
    pass


def _parse_int_list(text: str, flag: str) -> list[int]:
    """Comma-separated integers; empty parts are skipped."""
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(int(part))
        except ValueError:
            raise CliError(f"NonIntegerEntry: {flag}: {part!r} is not an integer")
    return values


def _read_json(path):
    """The decoded JSON document at ``path``; any read or decode failure is a CliError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path} is not UTF-8 text: {exc}")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}")


def _load(path):
    try:
        return economy_from_dict(_read_json(path))
    except EconomyValidationError as exc:
        raise CliError("invalid economy:\n  " + "\n  ".join(exc.errors))


def _tuple_error(message: str) -> CliError:
    return CliError("invalid tuple file:\n  " + message)


def _read_tuple(data):
    """The prices, rationing zeros and allocation names of a tuple file, type-checked."""
    if not isinstance(data, dict):
        raise _tuple_error("ShapeError: a tuple must be a JSON object")
    for key in ("prices", "rationing_zeros", "allocation"):
        if key not in data:
            raise _tuple_error(f"ShapeError: missing field {key!r}")
        if not isinstance(data[key], list):
            raise _tuple_error(f"ShapeError: field {key!r} must be a list")
    prices, zeros = data["prices"], data["rationing_zeros"]
    for price in prices:
        if not _is_int(price):
            raise _tuple_error(f"NonIntegerEntry: price {price!r} is not an integer")
    for zero in zeros:
        if not (isinstance(zero, list) and len(zero) == 2):
            raise _tuple_error(f"ShapeError: rationing zero {zero!r} is not a [buyer, item] pair")
        if not _is_int(zero[0]):
            raise _tuple_error(f"NonIntegerEntry: rationing buyer {zero[0]!r} is not an integer")
    return prices, zeros, data["allocation"]


def _full_prices(economy, real_prices):
    if len(real_prices) != economy.n_items - 1:
        raise CliError(
            f"ShapeError: expected {economy.n_items - 1} prices (real items only),"
            f" got {len(real_prices)}"
        )
    return (0, *real_prices)


def _rationing_from_zeros(economy, zeros):
    rationing = RationingSystem.full(economy.n_buyers, economy.n_items)
    for buyer, name in zeros:
        if buyer not in economy.buyers:
            raise CliError(f"UnknownBuyer: rationing refers to unknown buyer {buyer}")
        try:
            item = economy.item_index(name)
        except KeyError:
            raise CliError(f"UnknownItem: rationing refers to unknown item {name!r}")
        if item == DUMMY:
            raise CliError(
                f"DummyForbidden: buyer {buyer} cannot be refused the dummy item {name!r}"
            )
        rationing = rationing.forbid(buyer, item)
    return rationing


def _node_limit(args) -> int:
    if args.node_limit < 1:
        raise CliError(f"LimitBelowOne: --node-limit: {args.node_limit} is below 1")
    return args.node_limit


def _cmd_run(args) -> int:
    economy = _load(args.economy)
    if args.seed is not None and args.scripted_winners is not None:
        raise CliError("--seed and --scripted-winners are mutually exclusive")
    if args.scripted_winners is not None:
        policy = ScriptedLottery(_parse_int_list(args.scripted_winners, "--scripted-winners"))
    else:
        policy = SeededLottery(args.seed if args.seed is not None else 0)
    outcome = run_mapr(economy, policy)
    if args.format == "json":
        for line in outcome.trace.to_json_lines():
            print(line)
    else:
        print(outcome.trace.render_table())
    return 0


def _cmd_check(args) -> int:
    economy = _load(args.economy)
    real_prices, zeros, names = _read_tuple(_read_json(args.tuple))
    try:
        prices = _full_prices(economy, real_prices)
        rationing = _rationing_from_zeros(economy, zeros)
    except CliError as exc:
        raise _tuple_error(str(exc)) from None
    if len(names) != economy.n_buyers:
        raise _tuple_error(
            f"ShapeError: allocation must list one item per buyer ({economy.n_buyers}),"
            f" got {len(names)}"
        )
    try:
        assignment = tuple(economy.item_index(n) for n in names)
    except KeyError as exc:
        raise _tuple_error(f"UnknownItem: allocation refers to {exc.args[0]}")
    try:
        allocation = Allocation(assignment)
    except ValueError:
        twice = next(a for a in assignment if a != DUMMY and assignment.count(a) > 1)
        raise _tuple_error(
            f"ItemAssignedTwice: item {economy.item_names[twice]!r} is assigned twice"
        )

    certificate = check_cwe(economy, prices, rationing, allocation)
    for k, verdict in enumerate(certificate.conditions, start=1):
        status = "ok" if verdict.ok else f"FAIL (witness {verdict.witness})"
        print(f"condition {k}: {CONDITION_NAMES[k - 1]}: {status}")
    if certificate.ok:
        print("all conditions satisfied")
        return 0
    print("not a constrained Walrasian equilibrium")
    return 1


def _cmd_expect(args) -> int:
    economy = _load(args.economy)
    report = expected_values(economy, node_limit=_node_limit(args))
    for i in economy.buyers:
        value = report.expected_profit[i]
        print(f"u*[{i}] = {_frac(value)} ({float(value)})")
    for a in economy.real_items:
        value = report.expected_price[a]
        print(f"p*[{economy.item_names[a]}] = {_frac(value)} ({float(value)})")
    stats = report.tree_stats
    print(f"tree: {stats.nodes} nodes, {stats.leaves} leaves")
    if args.histories:
        for leaf in enumerate_histories(economy):
            alloc = ",".join(economy.item_names[a] for a in leaf.allocation.assignment)
            prices = ",".join(str(p) for p in leaf.prices)
            winners = ",".join(str(w) for w in leaf.winners) or "-"
            print(
                f"history prob={_frac(leaf.probability)} winners=[{winners}]"
                f" prices=({prices}) allocation=({alloc})"
            )
    return 0


def _cmd_manipulate(args) -> int:
    economy = _load(args.economy)
    node_limit = _node_limit(args)
    problem = ManipulationProblem(economy, args.buyer)
    if args.strategy is not None:
        values = _parse_int_list(args.strategy, "--strategy")
        if len(values) != economy.n_items - 1:
            raise CliError(
                f"--strategy needs {economy.n_items - 1} values (real items only)"
            )
        strategy = Strategy.from_real_values(values)
        profit = expected_profit_under_strategy(problem, strategy, node_limit=node_limit)
        print(f"reported values: {values}")
        print(f"expected profit for buyer {args.buyer}: {_frac(profit)} ({float(profit)})")
        return 0
    result = optimal_strategy_search(problem, cap=args.cap, node_limit=node_limit)
    print(f"cap: {result.cap} (searched {result.strategies_evaluated} strategies,"
          f" {result.distinct_evaluations} distinct evaluations)")
    print(f"truthful expected profit: {_frac(result.truthful_profit)}")
    best = list(result.best_strategy.reported_values[1:])
    print(f"best strategy found: {best}")
    print(f"best expected profit: {_frac(result.best_profit)}")
    verdict = "yes" if result.truthful_is_optimal else "no"
    print(f"truthful reporting optimal within the cap: {verdict}")
    return 0


def _cmd_matching(args) -> int:
    economy = _load(args.economy)
    if args.prices is not None:
        prices = _full_prices(economy, _parse_int_list(args.prices, "--prices"))
    else:
        prices = economy.lower_bounds
    if not is_admissible(economy, prices):
        raise CliError("prices are not admissible for this economy")
    zeros = []
    for flag in args.forbid or ():
        try:
            buyer_text, item_name = flag.split(":", 1)
            zeros.append((int(buyer_text), item_name))
        except ValueError:
            raise CliError(f"bad --forbid value {flag!r}; use BUYER:ITEM")
    rationing = _rationing_from_zeros(economy, zeros)
    situation = demand_situation(economy, prices, rationing)
    for i in economy.buyers:
        names = ",".join(economy.item_names[a] for a in sorted(situation.demands[i]))
        print(f"D_{i} = {{{names}}}")
    matching = max_matching(situation)
    pairs = " ".join(f"{i}-{economy.item_names[a]}" for i, a in matching.pairs())
    print(f"maximum matching ({len(matching)} edges): {pairs or '-'}")
    served = len(matching) == len(situation.demanders())
    print(f"equilibrium allocation exists: {'yes' if served else 'no'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidmarket",
        description="Allocation of indivisible items under price rigidities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the mechanism and print its trace")
    p.add_argument("economy")
    p.add_argument("--seed", type=int, default=None, help="lottery PRNG seed (default 0)")
    p.add_argument(
        "--scripted-winners",
        default=None,
        help="comma-separated winner per lottery, e.g. 2 or 2,4",
    )
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("check", help="verify an equilibrium tuple")
    p.add_argument("economy")
    p.add_argument("--tuple", required=True, help="JSON file with prices/rationing_zeros/allocation")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("expect", help="exact expected profits and prices")
    p.add_argument("economy")
    p.add_argument("--histories", action="store_true", help="also list every terminal history")
    p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    p.set_defaults(func=_cmd_expect)

    p = sub.add_parser("manipulate", help="misreport analysis for one buyer")
    p.add_argument("economy")
    p.add_argument("--buyer", type=int, default=1)
    p.add_argument("--cap", type=int, default=None, help="search box edge per item")
    p.add_argument("--strategy", default=None, help="evaluate one reported value vector")
    p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    p.set_defaults(func=_cmd_manipulate)

    p = sub.add_parser("matching", help="maximum matching of a demand situation")
    p.add_argument("economy")
    p.add_argument("--prices", default=None, help="real-item prices (default: lower bounds)")
    p.add_argument(
        "--forbid",
        action="append",
        metavar="BUYER:ITEM",
        help="withdraw one buyer's permission for an item (repeatable)",
    )
    p.set_defaults(func=_cmd_matching)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TreeSizeExceeded, SizeGuard) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (EconomyValidationError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


def entry():  # console script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
