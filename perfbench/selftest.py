"""Self-tests of the benchmark harness, at tiny sizes.

    python3 perfbench/selftest.py

Kept out of the package's test suite on purpose: they test the harness,
and ``pytest`` only collects ``tests/``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import OP, TARGETS, Tracer, leftover_wrappers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_SHAPES = {
    "mapr_raise": ((4, 2), (6, 3)),
    "mapr_ration": ((8, 2), (12, 3)),
    "tree_exact": ((4, 3),),
    "strategy_search": ((3, 2),),
}


def tiny(name):
    spec = WORKLOADS[name]
    return dataclasses.replace(spec, shapes=TINY_SHAPES[name], value_max=min(spec.value_max, 6),
                               floor_max=min(spec.floor_max, 3), population=4, strata=4)


def tiny_run(name, trace, reference=None):
    return run.run_workload(tiny(name), seed=3, seconds=0.05, trace=trace, reference=reference)


class DeclaredMetrics(unittest.TestCase):
    def test_every_workload_prints_exactly_the_declared_metrics(self):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            for name in WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    result = tiny_run(name, trace).result
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)

    def test_declared_workloads_are_the_harness_workloads(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(WORKLOADS))

    def test_command_line_result_line(self):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "strategy_search",
             "--seed", str(run.REFERENCE_SEED), "--seconds", "0.3", "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=120, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in BENCHMARK["end_to_end"]})
        self.assertTrue(result["correct"])
        self.assertIn('"reference": "checked"', out.stdout)

    def test_without_the_package_exits_nonzero_and_prints_no_result(self):
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "mapr_raise",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


class Verification(unittest.TestCase):
    def test_reference_digests_are_checked(self):
        spec = tiny("mapr_raise")
        pkg = run.import_package()
        digests = [spec.record(spec.run(pkg, item)) for item in spec.make_inputs(pkg, 3)]
        good = tiny_run("mapr_raise", False, reference=digests).result
        self.assertEqual(good["failed"], 0)
        corrupted = [d[:-1] + ("0" if d[-1] != "0" else "1") for d in digests]
        bad = tiny_run("mapr_raise", False, reference=corrupted).result
        self.assertEqual(bad["failed"], bad["attempted"])
        self.assertFalse(bad["correct"])


class Tracing(unittest.TestCase):
    def test_self_times_within_an_op_fit_in_its_wall_time(self):
        for name in WORKLOADS:
            tracer = tiny_run(name, True).tracer
            own = tracer.self_times()
            ops = tracer.op_spans()
            roots = [k for k, p in enumerate(tracer.span_parent) if p < 0] + [len(own)]
            for op in ops:
                end = min(r for r in roots if r > op)
                inner = sum(own[op + 1:end])
                wall = tracer.span_end[op] - tracer.span_start[op]
                self.assertLessEqual(inner, wall + 1e-9)
                self.assertTrue(all(t >= -1e-9 for t in own[op:end]))

    def test_wrappers_cover_every_importer_and_are_gone_afterwards(self):
        pkg = run.import_package()
        original = pkg.matching.max_matching
        tracer = Tracer()
        tracer.install()
        try:
            for module in ("matching", "mechanism", "overdemand", "expectation", "strategy"):
                bound = getattr(sys.modules[f"rigidmarket.{module}"], "max_matching")
                self.assertIsNot(bound, original, module)
                self.assertIs(bound.__wrapped__, original)
            self.assertGreaterEqual(len(leftover_wrappers()), len(TARGETS))
        finally:
            tracer.uninstall()
        self.assertEqual(leftover_wrappers(), [])
        self.assertIs(pkg.mechanism.max_matching, original)

    def test_traced_run_leaves_no_wrappers_and_records_ops(self):
        outcome = tiny_run("tree_exact", True)
        self.assertEqual(leftover_wrappers(), [])
        untraced, traced = outcome.batches
        self.assertEqual(len(outcome.tracer.op_spans()), traced.attempted)
        self.assertEqual(traced.attempted, untraced.attempted)
        self.assertEqual(outcome.tracer.names[0], OP)


if __name__ == "__main__":
    unittest.main()
