"""Command-line front end.

Subcommands: ``run`` (execute the mechanism and print the trace),
``check`` (verify an equilibrium tuple), ``expect`` (exact expected
profits and prices), ``manipulate`` (misreport analysis), ``matching``
(the buyers' demand sets at given prices and a maximum matching on
them).

Exit codes: 0 success, 1 invalid input (usage errors included) or a
failed equilibrium check, 2 exhausted size guard.  Input errors are
reported with a stable code such as ``ShapeError`` or ``UsageError``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from decimal import Decimal
from fractions import Fraction

from .equilibrium import CONDITION_NAMES, check_cwe
from .errors import EconomyValidationError, ScriptError, SizeGuard, TreeSizeExceeded
from .expectation import DEFAULT_NODE_LIMIT, enumerate_histories, expected_values
from .matching import max_matching, unserved
from .mechanism import DEFAULT_ROUND_LIMIT, ScriptedLottery, SeededLottery, run_mapr
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


def _decimal(x: Fraction) -> str:
    """``x`` as a float; past the float range, as a ``Decimal`` quotient."""
    try:
        return str(float(x))
    except OverflowError:
        return str(Decimal(x.numerator) / x.denominator)


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a coded :class:`CliError`, so it exits 1, not 2."""

    def error(self, message):
        raise CliError(f"UsageError: {message}\n{self.format_usage().rstrip()}")


def _parse_int(text: str, flag: str) -> int:
    """An optional sign, then ASCII digits; ``int`` alone takes ``1_0`` and non-ASCII digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise CliError(f"NonIntegerEntry: {flag}: {text!r} is not an integer")
    try:
        return int(text)
    except ValueError as exc:  # CPython's limit on int-string conversion
        raise CliError(f"IntegerTooLong: {flag}: {exc}")


def _int_flag(flag: str):
    """An argparse ``type`` for an integer flag.

    argparse turns only ``ValueError``, ``TypeError`` and
    ``ArgumentTypeError`` into its own usage error, so the coded
    :class:`CliError` raised here reaches :func:`main` as it is.
    """
    return lambda text: _parse_int(text, flag)


def _parse_int_list(text: str, flag: str) -> list[int]:
    """Comma-separated integers; empty parts are skipped."""
    return [_parse_int(part, flag) for part in map(str.strip, text.split(",")) if part]


def _read_json(path):
    """The decoded JSON document at ``path``; any read or decode failure is a CliError."""
    try:
        with open(path) as fh:
            text = fh.read()
    except FileNotFoundError:
        raise CliError(f"FileNotFound: no such file: {path}")
    except UnicodeDecodeError as exc:
        raise CliError(f"NotUTF8: {path} is not UTF-8 text: {exc}")
    except OSError as exc:
        raise CliError(f"UnreadableFile: cannot read {path}: {exc.strerror or exc}")
    except ValueError as exc:  # a path ``open`` refuses, such as one with a null byte
        raise CliError(f"UnreadableFile: cannot read {path!r}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"MalformedJSON: malformed JSON in {path}: {exc}")
    except RecursionError:
        raise CliError(f"MalformedJSON: malformed JSON in {path}: nested too deeply")
    except ValueError as exc:  # CPython's limit on int-string conversion
        raise CliError(f"IntegerTooLong: {path}: {exc}")


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


def _at_least_one(limit: int, flag: str) -> int:
    if limit < 1:
        raise CliError(f"LimitBelowOne: {flag}: {limit} is below 1")
    return limit


def _node_limit(args) -> int:
    return _at_least_one(args.node_limit, "--node-limit")


def _cmd_run(args) -> int:
    economy = _load(args.economy)
    round_limit = _at_least_one(args.round_limit, "--round-limit")
    if args.seed is not None and args.scripted_winners is not None:
        raise CliError("UsageError: --seed and --scripted-winners are mutually exclusive")
    if args.scripted_winners is not None:
        winners = _parse_int_list(args.scripted_winners, "--scripted-winners")
        for winner in winners:
            if winner not in economy.buyers:
                raise CliError(f"UnknownBuyer: --scripted-winners: no buyer {winner}")
        policy = ScriptedLottery(winners, economy.item_names)
    else:
        policy = SeededLottery(args.seed if args.seed is not None else 0)
    try:
        outcome = run_mapr(economy, policy, round_limit)
    except ScriptError as exc:
        raise CliError(f"ScriptError: --scripted-winners: {exc}") from None
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
        print(f"u*[{i}] = {_frac(value)} ({_decimal(value)})")
    for a in economy.real_items:
        value = report.expected_price[a]
        print(f"p*[{economy.item_names[a]}] = {_frac(value)} ({_decimal(value)})")
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
    if args.buyer not in economy.buyers:
        raise CliError(f"UnknownBuyer: --buyer: no buyer {args.buyer}")
    problem = ManipulationProblem(economy, args.buyer)
    if args.strategy is not None:
        values = _parse_int_list(args.strategy, "--strategy")
        if len(values) != economy.n_items - 1:
            raise CliError(
                f"ShapeError: --strategy needs {economy.n_items - 1} values"
                f" (real items only), got {len(values)}"
            )
        for value in values:
            if value < 0:
                raise CliError(f"NegativeEntry: --strategy: {value} is negative")
        strategy = Strategy.from_real_values(values)
        profit = expected_profit_under_strategy(problem, strategy, node_limit=node_limit)
        print(f"reported values: {values}")
        print(f"expected profit for buyer {args.buyer}: {_frac(profit)} ({_decimal(profit)})")
        return 0
    if args.cap is not None and args.cap < 0:
        raise CliError(f"NegativeEntry: --cap: the value cap must be non-negative, got {args.cap}")
    result = optimal_strategy_search(problem, cap=args.cap, node_limit=node_limit)
    print(f"cap: {result.cap} (searched {result.strategies_evaluated} strategies,"
          f" {result.full_walks} answer transcripts)")
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
        raise CliError("PriceOutOfBounds: --prices: prices are not admissible for this economy")
    zeros = []
    for flag in args.forbid or ():
        buyer_text, colon, item_name = flag.partition(":")
        if not colon:
            raise CliError(f"ShapeError: --forbid: {flag!r} is not BUYER:ITEM")
        zeros.append((_parse_int(buyer_text, "--forbid"), item_name))
    rationing = _rationing_from_zeros(economy, zeros)
    demands = demand_situation(economy, prices, rationing)
    for i in economy.buyers:
        names = ",".join(economy.item_names[a] for a in sorted(demands[i]))
        print(f"D_{i} = {{{names}}}")
    matching = max_matching(demands)
    pairs = " ".join(f"{i}-{economy.item_names[a]}" for i, a in matching.pairs())
    print(f"maximum matching ({len(matching)} edges): {pairs or '-'}")
    served = unserved(demands, matching) is None
    print(f"equilibrium allocation exists: {'yes' if served else 'no'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rigidmarket",
        description="Allocation of indivisible items under price rigidities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the mechanism and print its trace")
    p.add_argument("economy")
    p.add_argument(
        "--seed", type=_int_flag("--seed"), default=None, help="lottery PRNG seed (default 0)"
    )
    p.add_argument(
        "--scripted-winners",
        default=None,
        help="comma-separated winner per lottery, e.g. 2 or 2,4",
    )
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument(
        "--round-limit", type=_int_flag("--round-limit"), default=DEFAULT_ROUND_LIMIT
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("check", help="verify an equilibrium tuple")
    p.add_argument("economy")
    p.add_argument("--tuple", required=True, help="JSON file with prices/rationing_zeros/allocation")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("expect", help="exact expected profits and prices")
    p.add_argument("economy")
    p.add_argument("--histories", action="store_true", help="also list every terminal history")
    p.add_argument("--node-limit", type=_int_flag("--node-limit"), default=DEFAULT_NODE_LIMIT)
    p.set_defaults(func=_cmd_expect)

    p = sub.add_parser("manipulate", help="misreport analysis for one buyer")
    p.add_argument("economy")
    p.add_argument("--buyer", type=_int_flag("--buyer"), default=1)
    p.add_argument(
        "--cap", type=_int_flag("--cap"), default=None, help="search box edge per item"
    )
    p.add_argument("--strategy", default=None, help="evaluate one reported value vector")
    p.add_argument("--node-limit", type=_int_flag("--node-limit"), default=DEFAULT_NODE_LIMIT)
    p.set_defaults(func=_cmd_manipulate)

    p = sub.add_parser("matching", help="demand sets and a maximum matching at given prices")
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
    try:
        args = build_parser().parse_args(argv)
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
