import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from rigidmarket.cli import build_parser, main
from rigidmarket.expectation import DEFAULT_NODE_LIMIT
from rigidmarket.mechanism import DEFAULT_ROUND_LIMIT

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_table(capsys, data_dir):
    code, out, _ = run_cli(
        capsys, "run", str(data_dir / "example_market.json"), "--scripted-winners", "2"
    )
    assert code == 0
    assert "6.1" in out
    assert "final prices: (0,5,4,4,7)" in out
    assert "lottery at t=3: item c among {2,3} -> buyer 2" in out


def test_run_json_reingests_into_check(capsys, tmp_path, data_dir):
    economy_path = str(data_dir / "example_market.json")
    code, out, _ = run_cli(capsys, "run", economy_path, "--format", "json", "--seed", "4")
    assert code == 0
    lines = out.strip().splitlines()
    rows = [json.loads(line) for line in lines]
    assert all("t" in r for r in rows[:-1])
    final = rows[-1]["final"]

    tuple_path = tmp_path / "tuple.json"
    tuple_path.write_text(json.dumps(final))
    code, out, _ = run_cli(capsys, "check", economy_path, "--tuple", str(tuple_path))
    assert code == 0
    assert "all conditions satisfied" in out


def test_check_reports_failure(capsys, tmp_path, data_dir):
    bad = {
        "prices": [5, 4, 4, 7],
        "rationing_zeros": [[1, "c"], [3, "c"]],
        "allocation": ["o", "c", "b", "a", "o"],  # d left unsold above its floor
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run_cli(
        capsys, "check", str(data_dir / "example_market.json"), "--tuple", str(path)
    )
    assert code == 1
    assert "FAIL" in out
    assert "not a constrained Walrasian equilibrium" in out


def test_seed_determinism_and_flag_exclusion(capsys, data_dir):
    path = str(data_dir / "example_market.json")
    _, first, _ = run_cli(capsys, "run", path, "--seed", "7")
    _, second, _ = run_cli(capsys, "run", path, "--seed", "7")
    assert first == second

    code, _, err = run_cli(capsys, "run", path, "--seed", "7", "--scripted-winners", "2")
    assert code == 1
    assert "mutually exclusive" in err


def test_expect_output(capsys, data_dir):
    code, out, _ = run_cli(capsys, "expect", str(data_dir / "example_market.json"))
    assert code == 0
    assert "u*[1] = 0/1" in out
    assert "u*[3] = 5/2" in out
    assert "p*[a] = 5/1" in out


def test_expect_histories_and_node_limit(capsys, data_dir):
    path = str(data_dir / "example_market.json")
    code, out, _ = run_cli(capsys, "expect", path, "--histories")
    assert code == 0
    assert out.count("history prob=1/2") == 2

    code, _, err = run_cli(capsys, "expect", path, "--node-limit", "2")
    assert code == 2
    assert "exceeded" in err


def test_manipulate_single_strategy(capsys, data_dir):
    path = str(data_dir / "example_market.json")
    code, out, _ = run_cli(
        capsys, "manipulate", path, "--buyer", "1", "--strategy", "4,3,9,7"
    )
    assert code == 0
    assert "expected profit for buyer 1: 1/3" in out


def test_manipulate_search(capsys, data_dir):
    code, out, _ = run_cli(
        capsys, "manipulate", str(data_dir / "example_market.json"), "--cap", "5"
    )
    assert code == 0
    assert "truthful expected profit: 0/1" in out
    assert "truthful reporting optimal within the cap: no" in out


MANIPULATE_BUYER_1_CAP_10 = """\
cap: 10 (searched 14641 strategies, 5551 distinct evaluations)
truthful expected profit: 0/1
best strategy found: [0, 0, 5, 0]
best expected profit: 1/3
truthful reporting optimal within the cap: no
"""

MANIPULATE_BUYER_2 = """\
cap: 15 (searched 65536 strategies, 8161 distinct evaluations)
truthful expected profit: 3/1
best strategy found: [7, 6, 8, 3]
best expected profit: 3/1
truthful reporting optimal within the cap: yes
"""


@pytest.mark.parametrize(
    "flags, expected",
    [
        (["--buyer", "1", "--cap", "10"], MANIPULATE_BUYER_1_CAP_10),
        (["--buyer", "2"], MANIPULATE_BUYER_2),
    ],
    ids=["buyer_1_cap_10", "buyer_2"],
)
def test_manipulate_search_output_is_pinned(capsys, data_dir, flags, expected):
    path = str(data_dir / "example_market.json")
    code, out, err = run_cli(capsys, "manipulate", path, *flags)
    assert (code, out, err) == (0, expected, "")


def test_matching_command(capsys, data_dir):
    path = str(data_dir / "example_market.json")
    code, out, _ = run_cli(capsys, "matching", path, "--prices", "5,4,3,5")
    assert code == 0
    assert "D_1 = {c,d}" in out
    assert "maximum matching (3 edges): 1-c 4-a 5-d" in out
    assert "equilibrium allocation exists: no" in out

    code, out, _ = run_cli(
        capsys, "matching", path, "--prices", "5,4,4,7", "--forbid", "1:c", "--forbid", "3:c"
    )
    assert code == 0
    assert "equilibrium allocation exists: yes" in out

    code, _, err = run_cli(capsys, "matching", path, "--prices", "9,9,9,9")
    assert code == 1
    assert "not admissible" in err


def test_invalid_inputs_exit_one(capsys, tmp_path, data_dir):
    missing = str(tmp_path / "nope.json")
    code, _, err = run_cli(capsys, "run", missing)
    assert code == 1 and "no such file" in err

    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json")
    code, _, err = run_cli(capsys, "run", str(mangled))
    assert code == 1 and "malformed JSON" in err

    crossed = tmp_path / "crossed.json"
    crossed.write_text(
        json.dumps(
            {
                "items": ["a"],
                "buyers": 1,
                "valuations": [[3]],
                "lower_bounds": [7],
                "upper_bounds": [6],
            }
        )
    )
    code, _, err = run_cli(capsys, "run", str(crossed))
    assert code == 1 and "BoundsCrossed" in err


ONE_ITEM = {
    "items": ["a"],
    "buyers": 1,
    "valuations": [[3]],
    "lower_bounds": [1],
    "upper_bounds": [2],
}


@pytest.mark.parametrize(
    "document, code",
    [
        ({**ONE_ITEM, "valuations": [["3"]]}, "NonIntegerEntry"),
        ({**ONE_ITEM, "valuations": [None]}, "ShapeError"),
        ({**ONE_ITEM, "valuations": [[2.5]]}, "NonIntegerEntry"),
        ({**ONE_ITEM, "lower_bounds": [1.5]}, "NonIntegerEntry"),
        ({**ONE_ITEM, "buyers": True}, "ShapeError"),
        ({**ONE_ITEM, "upper_bounds": 2}, "ShapeError"),
        ({**ONE_ITEM, "items": [7]}, "ShapeError"),
        (5, "ShapeError"),
    ],
    ids=[
        "string_value",
        "null_row",
        "float_value",
        "float_bound",
        "bool_buyers",
        "scalar_field",
        "numeric_name",
        "not_an_object",
    ],
)
def test_malformed_economy_is_rejected(capsys, tmp_path, document, code):
    path = tmp_path / "economy.json"
    path.write_text(json.dumps(document))
    for command in ("run", "expect"):
        exit_code, _, err = run_cli(capsys, command, str(path))
        assert exit_code == 1
        assert f"invalid economy:\n  {code}: " in err
        assert "Traceback" not in err


TERMINAL_TUPLE = {
    "prices": [5, 4, 4, 7],
    "rationing_zeros": [[1, "c"], [3, "c"]],
    "allocation": ["o", "c", "b", "a", "d"],
}


@pytest.mark.parametrize(
    "document, code",
    [
        (5, "ShapeError"),
        ({**TERMINAL_TUPLE, "prices": 5}, "ShapeError"),
        ({**TERMINAL_TUPLE, "rationing_zeros": 5}, "ShapeError"),
        ({**TERMINAL_TUPLE, "allocation": 5}, "ShapeError"),
        ({**TERMINAL_TUPLE, "rationing_zeros": [[1]]}, "ShapeError"),
        ({**TERMINAL_TUPLE, "prices": [5.5, 4, 4, 7]}, "NonIntegerEntry"),
        ({**TERMINAL_TUPLE, "prices": ["x", 4, 4, 7]}, "NonIntegerEntry"),
        ({**TERMINAL_TUPLE, "prices": [True, 4, 4, 7]}, "NonIntegerEntry"),
        ({**TERMINAL_TUPLE, "rationing_zeros": [["1", "c"]]}, "NonIntegerEntry"),
        ({**TERMINAL_TUPLE, "rationing_zeros": [[9, "c"]]}, "UnknownBuyer"),
        ({**TERMINAL_TUPLE, "rationing_zeros": [[1, "z"]]}, "UnknownItem"),
        ({**TERMINAL_TUPLE, "allocation": ["o", "c", "b", "a", "z"]}, "UnknownItem"),
        ({**TERMINAL_TUPLE, "allocation": ["o", "c", "c", "a", "d"]}, "ItemAssignedTwice"),
        ({**TERMINAL_TUPLE, "prices": [5, 4, 4]}, "ShapeError"),
        ({**TERMINAL_TUPLE, "allocation": ["o", "c"]}, "ShapeError"),
    ],
    ids=[
        "not_an_object",
        "scalar_prices",
        "scalar_zeros",
        "scalar_allocation",
        "short_zero",
        "float_price",
        "string_price",
        "bool_price",
        "string_buyer",
        "unknown_buyer",
        "unknown_rationing_item",
        "unknown_allocation_item",
        "item_assigned_twice",
        "short_prices",
        "short_allocation",
    ],
)
def test_malformed_tuple_is_rejected(capsys, tmp_path, data_dir, document, code):
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(document))
    exit_code, _, err = run_cli(
        capsys, "check", str(data_dir / "example_market.json"), "--tuple", str(path)
    )
    assert exit_code == 1
    assert f"invalid tuple file:\n  {code}: " in err
    assert "Traceback" not in err


def test_dummy_rationing_zero_is_coded(capsys, tmp_path, data_dir):
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps({**TERMINAL_TUPLE, "rationing_zeros": [[1, "o"]]}))
    code, _, err = run_cli(
        capsys, "check", str(data_dir / "example_market.json"), "--tuple", str(path)
    )
    assert code == 1
    assert "DummyForbidden: buyer 1 cannot be refused the dummy item 'o'" in err


def test_unreadable_files_exit_one(capsys, tmp_path, data_dir):
    code, _, err = run_cli(capsys, "run", str(tmp_path))
    assert code == 1 and "UnreadableFile: cannot read" in err

    code, _, err = run_cli(
        capsys, "check", str(data_dir / "example_market.json"), "--tuple", str(tmp_path)
    )
    assert code == 1 and "UnreadableFile: cannot read" in err

    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    code, _, err = run_cli(capsys, "expect", str(binary))
    assert code == 1 and "NotUTF8: " in err and "not UTF-8" in err

    code, _, err = run_cli(capsys, "run", "a\x00b")
    assert code == 1 and err.startswith("UnreadableFile: cannot read") and "null byte" in err

    missing = str(tmp_path / "nope.json")
    code, _, err = run_cli(capsys, "run", missing)
    assert code == 1 and err.startswith(f"FileNotFound: no such file: {missing}")

    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json")
    code, _, err = run_cli(capsys, "expect", str(mangled))
    assert code == 1 and err.startswith("MalformedJSON: malformed JSON in")


@pytest.mark.parametrize("role", ["economy", "tuple"])
def test_deeply_nested_json_is_malformed(capsys, tmp_path, data_dir, role):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    files = {"economy": str(data_dir / "example_market.json"), "tuple": str(deep)}
    files[role] = str(deep)
    code, _, err = run_cli(capsys, "check", files["economy"], "--tuple", files["tuple"])
    assert code == 1
    assert err.startswith(f"MalformedJSON: malformed JSON in {deep}: nested too deeply")
    assert "Traceback" not in err


LONG_INT = "1" + "0" * 5000


@pytest.mark.parametrize(
    "argv, where",
    [
        (["expect", "ECONOMY"], "ECONOMY"),
        (["check", "MARKET", "--tuple", "TUPLE"], "TUPLE"),
        (["manipulate", "MARKET", "--strategy", f"1,2,3,{LONG_INT}"], "--strategy"),
        (["matching", "MARKET", "--prices", f"5,4,4,{LONG_INT}"], "--prices"),
        (["run", "MARKET", "--scripted-winners", LONG_INT], "--scripted-winners"),
        (["run", "MARKET", "--seed", LONG_INT], "--seed"),
    ],
    ids=["economy", "tuple", "strategy", "prices", "scripted_winners", "seed"],
)
def test_overlong_integers_are_coded(capsys, tmp_path, data_dir, argv, where):
    economy = tmp_path / "economy.json"
    economy.write_text(json.dumps(ONE_ITEM).replace("[[3]]", f"[[{LONG_INT}]]"))
    tuple_file = tmp_path / "tuple.json"
    tuple_file.write_text(json.dumps(TERMINAL_TUPLE).replace("[5,", f"[{LONG_INT},"))
    paths = {
        "ECONOMY": str(economy),
        "TUPLE": str(tuple_file),
        "MARKET": str(data_dir / "example_market.json"),
    }
    code, _, err = run_cli(capsys, *(paths.get(arg, arg) for arg in argv))
    assert code == 1
    assert err.startswith(f"IntegerTooLong: {paths.get(where, where)}: Exceeds the limit")
    assert "Traceback" not in err


def test_expected_values_beyond_the_float_range_print_as_decimals(capsys, tmp_path):
    path = tmp_path / "economy.json"
    huge = 10**400
    two_buyers = {**ONE_ITEM, "buyers": 2, "valuations": [[huge], [huge]]}
    path.write_text(json.dumps({**two_buyers, "lower_bounds": [0], "upper_bounds": [0]}))
    half = f"{huge // 2}/1 (5.000000000000000000000000000E+399)"
    code, out, err = run_cli(capsys, "expect", str(path))
    assert code == 0, err
    assert f"u*[1] = {half}\nu*[2] = {half}\np*[a] = 0/1 (0.0)\n" in out
    code, out, err = run_cli(capsys, "manipulate", str(path), "--strategy", "1")
    assert code == 0, err
    assert f"expected profit for buyer 1: {half}\n" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["manipulate", "--strategy", "4,3,x,7"], "NonIntegerEntry: --strategy: 'x' is not"),
        (["matching", "--prices", "5,4.5,3,5"], "NonIntegerEntry: --prices: '4.5' is not"),
        (["run", "--scripted-winners", "two"], "NonIntegerEntry: --scripted-winners: 'two'"),
        (["manipulate", "--cap", "-1"], "NegativeEntry: --cap: the value cap must be non-"),
        (["expect", "--node-limit", "-5"], "LimitBelowOne: --node-limit: -5 is below 1"),
        (["manipulate", "--node-limit", "0"], "LimitBelowOne: --node-limit: 0 is below 1"),
        (["matching", "--forbid", "1:o"], "DummyForbidden: buyer 1 cannot be refused"),
        (["expect", "--node-limit", "abc"], "NonIntegerEntry: --node-limit: 'abc' is not"),
        (["run", "--round-limit", "0"], "LimitBelowOne: --round-limit: 0 is below 1"),
        (["run", "--round-limit", "x"], "NonIntegerEntry: --round-limit: 'x' is not"),
        (["run", "--seed", "x"], "NonIntegerEntry: --seed: 'x' is not an integer"),
        (["manipulate", "--buyer", "x"], "NonIntegerEntry: --buyer: 'x' is not an integer"),
        (["manipulate", "--cap", "x"], "NonIntegerEntry: --cap: 'x' is not an integer"),
        (["run", "--format", "xml"], "UsageError: argument --format: invalid choice"),
        (["run", "--bogus"], "UsageError: unrecognized arguments: --bogus"),
        (["matching", "--prices", "1,1,1,1"], "PriceOutOfBounds: --prices: prices are not"),
        (["matching", "--forbid", "x"], "ShapeError: --forbid: 'x' is not BUYER:ITEM"),
        (["matching", "--forbid", "y:c"], "NonIntegerEntry: --forbid: 'y' is not an integer"),
        (["manipulate", "--buyer", "9"], "UnknownBuyer: --buyer: no buyer 9"),
        (["manipulate", "--strategy", "1,2"], "ShapeError: --strategy needs 4 values"),
        (["manipulate", "--strategy=-1,2,3,4"], "NegativeEntry: --strategy: -1 is negative"),
        (["run", "--seed", "1", "--scripted-winners", "2"], "UsageError: --seed and"),
        (["run", "--scripted-winners", "7"], "UnknownBuyer: --scripted-winners: no buyer 7"),
        (["run", "--scripted-winners", "2,2"], "ScriptError: --scripted-winners: 1 scripted"),
        (["run", "--scripted-winners", "4"], "ScriptError: --scripted-winners: scripted winner 4"),
        (["run", "--scripted-winners", "4"], "not an entrant of the draw on item c\n"),
        (["run", "--seed", "1_0"], "NonIntegerEntry: --seed: '1_0' is not an integer"),
        (["manipulate", "--strategy", "\u0664,3,9,7"], "NonIntegerEntry: --strategy: '\u0664' is"),
    ],
    ids=[
        "strategy",
        "prices",
        "scripted_winners",
        "negative_cap",
        "expect_node_limit",
        "manipulate_node_limit",
        "forbid_dummy",
        "node_limit_not_integer",
        "round_limit_below_one",
        "round_limit_not_integer",
        "seed_not_integer",
        "buyer_not_integer",
        "cap_not_integer",
        "unknown_choice",
        "unknown_flag",
        "inadmissible_prices",
        "forbid_without_colon",
        "forbid_buyer_not_integer",
        "unknown_buyer",
        "short_strategy",
        "negative_strategy",
        "seed_with_scripted_winners",
        "scripted_winner_unknown",
        "scripted_winners_unused",
        "scripted_winner_not_entrant",
        "scripted_winner_item_name",
        "seed_with_digit_separator",
        "strategy_non_ascii_digit",
    ],
)
def test_flag_errors_are_coded(capsys, data_dir, argv, message):
    command, *flags = argv
    code, _, err = run_cli(capsys, command, str(data_dir / "example_market.json"), *flags)
    assert code == 1
    assert message in err
    assert "Traceback" not in err


def test_usage_errors_exit_one_and_help_exits_zero(capsys):
    code, _, err = run_cli(capsys, "run")
    assert code == 1
    assert "UsageError: the following arguments are required: economy" in err
    assert "usage: rigidmarket run" in err
    with pytest.raises(SystemExit) as exited:
        main(["run", "--help"])
    assert exited.value.code == 0


def test_run_stops_past_its_round_limit(capsys, data_dir):
    path = str(data_dir / "example_market.json")
    code, out, err = run_cli(capsys, "run", path, "--seed", "0", "--round-limit", "6")
    assert (code, out) == (2, "")
    assert err == "run exceeded 6 rounds\n"
    code, out, _ = run_cli(capsys, "run", path, "--seed", "0", "--round-limit", "7")
    assert code == 0
    assert out == run_cli(capsys, "run", path, "--seed", "0")[1]
    assert build_parser().parse_args(["run", "x.json"]).round_limit == DEFAULT_ROUND_LIMIT


def test_node_limit_defaults_share_one_constant():
    parser = build_parser()
    for command in ("expect", "manipulate"):
        assert parser.parse_args([command, "x.json"]).node_limit == DEFAULT_NODE_LIMIT


@pytest.mark.parametrize("script", ["equilibrium_fuzz.py", "manipulation_scan.py"])
def test_scripts_run_from_another_directory(tmp_path, script):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--count", "3"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "script, flag",
    [("equilibrium_fuzz.py", "--max-leaves"), ("manipulation_scan.py", "--cap")],
)
def test_scripts_reject_a_negative_flag_as_usage(tmp_path, script, flag):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--count", "3", flag, "-1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 2
    assert f"argument {flag}: -1 is below" in done.stderr
    assert "Traceback" not in done.stderr


def test_code_line_counter_runs_from_another_directory(tmp_path):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "code_lines.py")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    name, code, lines = done.stdout.splitlines()[-1].split()
    assert name == "total" and 0 < int(code) < int(lines)


def run_module(cwd, module, *argv):
    """``python -m module *argv`` in a subprocess, with ``src`` on the path; output as bytes."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "flags, code", [((), 0), (("--node-limit", "0"), 1), (("--node-limit", "3"), 2)]
)
def test_module_entry_exits_with_main_code(tmp_path, data_dir, flags, code):
    economy = str(data_dir / "example_market.json")
    done = run_module(tmp_path, "rigidmarket.cli", "expect", economy, *flags)
    assert done.returncode == code, done.stderr
    assert b"Traceback" not in done.stderr


def test_package_runs_as_a_module(tmp_path, capsys, data_dir):
    economy = str(data_dir / "example_market.json")
    done = run_module(tmp_path, "rigidmarket", "expect", economy)
    code, out, _ = run_cli(capsys, "expect", economy)
    assert done.returncode == code == 0, done.stderr
    assert done.stdout == out.encode()


SMALL_INTS = st.integers(-3, 20)
SHORT_TEXT = st.text("abco", max_size=2)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), SMALL_INTS, st.sampled_from([0.5, 2.0]), SHORT_TEXT),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(SHORT_TEXT, children, max_size=4),
    max_leaves=8,
)


@st.composite
def mutated(draw, document):
    """``document`` replaced by arbitrary JSON, or with one field dropped or replaced,
    or with one innermost entry of a list field replaced."""
    key = draw(st.sampled_from(sorted(document)))
    action = draw(st.sampled_from(["entry", "replace", "drop", "document"]))
    if action == "document":
        return draw(JSON_VALUES)
    if action == "drop":
        del document[key]
    elif action == "replace":
        document[key] = draw(JSON_VALUES)
    else:
        target = document[key]
        while isinstance(target, list) and target:
            index = draw(st.integers(0, len(target) - 1))
            if isinstance(target[index], list) and target[index]:
                target = target[index]
            else:
                target[index] = draw(JSON_VALUES)
                break
    return document


@st.composite
def economy_documents(draw, n, m):
    """A valid economy of n buyers and m items."""
    lower = draw(st.lists(st.integers(0, 10), min_size=m, max_size=m))
    rows = st.lists(st.integers(0, 20), min_size=m, max_size=m)
    return {
        "items": list("abcd"[:m]),
        "buyers": n,
        "valuations": draw(st.lists(rows, min_size=n, max_size=n)),
        "lower_bounds": lower,
        "upper_bounds": [p + draw(st.integers(0, 3)) for p in lower],
    }


@st.composite
def tuple_documents(draw, n, m):
    """A well-formed tuple file for that economy; it need not be an equilibrium."""
    items = "abcd"[:m]
    zero = st.tuples(st.integers(1, n), st.sampled_from(items)).map(list)
    return {
        "prices": draw(st.lists(SMALL_INTS, min_size=m, max_size=m)),
        "rationing_zeros": draw(st.lists(zero, max_size=2)) if n and m else [],
        "allocation": draw(st.lists(st.sampled_from(["o", *items]), min_size=n, max_size=n)),
    }


SUBCOMMANDS = (
    ["run"],
    ["run", "--format", "json"],
    ["run", "--round-limit", "2"],
    ["check", "--tuple"],
    ["expect", "--histories", "--node-limit", "500"],
    ["manipulate", "--cap", "2", "--node-limit", "500"],
    ["matching"],
)


@given(st.data(), st.integers(0, 4), st.integers(0, 4), st.booleans())
def test_every_subcommand_survives_arbitrary_json(data, n, m, break_economy):
    """Arbitrary JSON, or a mutated valid file, as the economy file or the
    tuple file: every subcommand exits 0, 1 or 2 and never prints a traceback."""
    economy = data.draw(economy_documents(n, m))
    tuple_document = data.draw(tuple_documents(n, m))
    if break_economy:
        economy = data.draw(mutated(economy))
    else:
        tuple_document = data.draw(mutated(tuple_document))
    with tempfile.TemporaryDirectory() as directory:
        economy_path = Path(directory) / "economy.json"
        economy_path.write_text(json.dumps(economy))
        tuple_path = Path(directory) / "tuple.json"
        tuple_path.write_text(json.dumps(tuple_document))
        for command, *flags in SUBCOMMANDS:
            argv = [command, str(economy_path), *flags]
            if command == "check":
                argv.append(str(tuple_path))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in out.getvalue() + err.getvalue()
