"""rigidmarket benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload mapr_raise --seed 0 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the checkout the script sits in; without it the script exits with code 2
and prints no result.

``--trace 0`` prints the end-to-end metrics.  Set-up is done
``SETUP_REPEATS`` times (each a fresh import of the package plus
generating and validating the seeded inputs) and ``setup_s`` is the
median.  Ops then run back to back, in a closed loop with one caller,
until they have taken ``--seconds`` in total and at least ``MIN_OPS`` have
run; each op's output is checked, and garbage collected, outside its
timed interval.  Times are scaled to a reference machine speed measured
by a fixed kernel around each op and set-up (see ``calibration.py``); the
raw values are printed beside them.

``--trace 1`` prints the per-layer metrics instead.  It runs the ops
untraced for half of ``--seconds``, then installs the tracer and runs the
same ops again, so ``bench.trace_overhead_ratio`` compares equal work.
Spans and counters are written to ``.perfbench_out/`` in the checkout.

The last line of standard output is the JSON result.  See README.md in
this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE_FILE = HERE / "reference.json"
STRATA_FILE = HERE / "strata.json"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
from tracer import OP, SETUP, Tracer, leftover_wrappers  # noqa: E402
from workloads import WORKLOADS, Workload, require  # noqa: E402

# Seed 0 is also verified against reference.json.  Seed 1 is held out:
# confirm there a claim that was tuned on other seeds.
REFERENCE_SEED = 0
SETUP_REPEATS = 5
MIN_OPS = 100  # so that at least ten samples lie beyond op_ms_p90
MAX_REPORTED_FAILURES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: (metric name, unit).  Counts and self times are per
# traced op; validate_economy runs in set-up, so its self time is per set-up.
_CALLS = (
    "model.demand_set", "model.forbid_many", "matching.max_matching", "matching.augment",
    "overdemand.mods", "mechanism.refresh_demands", "mechanism.gate",
    "mechanism.price_increase_step", "mechanism.lottery_step", "mechanism.apply_sale",
    "mechanism.rm", "expectation.sold_matching_from_rationing", "expectation.record_sale",
)
_SELF = (
    "model.demand_set", "model.forbid_many", "matching.max_matching", "matching.augment",
    "overdemand.mods", "overdemand.grow_over_demanded", "mechanism.refresh_demands",
    "mechanism.gate", "mechanism.price_increase_step", "mechanism.apply_sale", "mechanism.rm",
    "mechanism.complete_run", "mechanism.run_mapr", "mechanism.to_json_lines",
    "expectation.expected_values", "expectation.enumerate_histories",
    "expectation.sold_matching_from_rationing", "expectation.record_sale",
    "strategy.optimal_strategy_search",
)
PER_LAYER_UNITS = {
    **{f"{n}.calls": "calls/op" for n in _CALLS},
    **{f"{n}.self_s": "s/op" for n in _SELF},
    "model.validate_economy.self_s": "s",
    "matching.augment.paths": "paths/op",
    "matching.augment.useful_ratio": "ratio",
    "matching.augment.edges": "edges/op",
    "overdemand.mods.filter_matchings": "calls/op",
    "overdemand.mods.kept_ratio": "ratio",
    "mechanism.refresh_demands.changed_ratio": "ratio",
    "mechanism.trace_rows": "rows/op",
    "expectation.tree_nodes": "nodes/op",
    "expectation.tree_leaves": "leaves/op",
    "expectation.histories": "leaves/op",
    "strategy.strategies": "strategies/op",
    "strategy.distinct_evaluations": "evals/op",
    "strategy.distinct_ratio": "ratio",
    "strategy.walker_nodes": "nodes/op",
    "bench.trace_overhead_ratio": "ratio",
}


def import_package():
    """A fresh import of ``rigidmarket`` from this checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "rigidmarket" or n.startswith("rigidmarket.")]:
        del sys.modules[name]
    pkg = importlib.import_module("rigidmarket")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"rigidmarket was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def load_cost_order(spec: Workload) -> list[int]:
    """The workload's population sorted by op cost, from ``strata.json``."""
    with open(STRATA_FILE) as fh:
        entry = json.load(fh)[spec.name]
    if (entry["population"], entry["strata"]) != (spec.population, spec.strata):
        raise ValueError(f"{STRATA_FILE.name} does not describe {spec.name}")
    return entry["by_cost"]


def load_reference(spec: Workload, seed: int, by_cost):
    """Recorded outputs for this seed's pool, in pool order; None off the reference seed."""
    if seed != REFERENCE_SEED:
        return None
    with open(REFERENCE_FILE) as fh:
        entry = json.load(fh)[spec.name]
    if entry["indices"] != spec.pick(seed, by_cost):
        raise ValueError(f"{REFERENCE_FILE.name} does not describe the {spec.name} pool")
    return entry["records"]


def machine_record(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
    }


@dataclass
class Batch:
    """What one pass of ops produced."""

    times: list = field(default_factory=list)  # seconds per op, in op order
    kernel: list = field(default_factory=list)  # calibration kernel seconds before each op
    failures: list = field(default_factory=list)  # (op index, message)

    @property
    def attempted(self) -> int:
        return len(self.times)


def check(spec: Workload, pkg, item, k: int, output, reference) -> None:
    spec.verify(pkg, item, output)
    if reference is not None:
        got = spec.record(output)
        want = reference[k % len(reference)]
        require(got == want, f"output differs from the reference: {got!r} != {want!r}")


def run_ops(spec: Workload, pkg, inputs, reference, *, seconds=None, min_ops=MIN_OPS,
            count=None, tracer: Tracer | None = None) -> Batch:
    """Run ops until they have taken ``seconds`` and ``min_ops`` have run, or ``count`` ops."""
    batch = Batch()
    busy = 0.0
    k = 0
    while (k < count) if count is not None else (k < min_ops or busy < seconds):
        item = inputs[k % len(inputs)]
        batch.kernel.append(calibration.time_kernel())
        span = tracer.open(OP) if tracer else None
        t0 = perf_counter()
        try:
            output = spec.run(pkg, item)
            error = None
        except Exception:  # an op that raises counts as failed; the run goes on
            error = traceback.format_exc()
        batch.times.append(perf_counter() - t0)
        busy += batch.times[-1]
        if tracer:
            tracer.close(span)
            tracer.recording = False
        if error is None:
            try:
                check(spec, pkg, item, k, output, reference)
            except Exception as exc:  # any checking error is a failed op
                error = f"{type(exc).__name__}: {exc}"
        if tracer:
            tracer.recording = True
        if error is not None:
            batch.failures.append((k, error))
        # Like a fresh CLI process, the next op starts on a clean heap
        # instead of paying for collecting this op's output.
        output = None
        gc.collect()
        k += 1
    return batch


def end_to_end(setup: float, times, completed: int) -> dict:
    ms = [t * 1e3 for t in times]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else ms[0]
    return {
        "setup_s": setup,
        "ops_per_s": completed / sum(times),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, traced: Batch, untraced: Batch) -> dict:
    calls, self_s, derived = tracer.totals()
    c = tracer.counters
    n = traced.attempted

    def ratio(a, b):
        return a / b if b else 0.0

    out = {f"{name}.calls": calls[name] / n for name in _CALLS}
    out.update({f"{name}.self_s": self_s[name] / n for name in _SELF})
    out.update({
        "model.validate_economy.self_s": self_s["model.validate_economy"],
        "matching.augment.paths": c["augment.paths"] / n,
        "matching.augment.useful_ratio": ratio(c["augment.paths"], calls["matching.augment"]),
        "matching.augment.edges": c["augment.edges"] / n,
        "overdemand.mods.filter_matchings": derived["filter_matchings"] / n,
        "overdemand.mods.kept_ratio": ratio(c["mods.kept"], c["grow.size"]),
        "mechanism.refresh_demands.changed_ratio":
            ratio(c["refresh.changed"], c["refresh.compared"]),
        "mechanism.trace_rows": c["trace_rows"] / n,
        "expectation.tree_nodes": c["tree_nodes"] / n,
        "expectation.tree_leaves": c["tree_leaves"] / n,
        "expectation.histories": c["histories"] / n,
        "strategy.strategies": c["strategies"] / n,
        "strategy.distinct_evaluations": c["distinct_evaluations"] / n,
        "strategy.distinct_ratio": ratio(c["distinct_evaluations"], c["strategies"]),
        "strategy.walker_nodes": derived["walker_nodes"] / n,
        "bench.trace_overhead_ratio": sum(calibration.scaled(traced.times, traced.kernel))
        / sum(calibration.scaled(untraced.times, untraced.kernel)),
    })
    return out


def write_trace(tracer: Tracer, path: Path, header: dict) -> None:
    """Counters and span columns: ``<path>.json`` plus raw ``<path>.spans``.

    The ``.spans`` file holds four native-endian columns, each one entry
    per span in start order: name id (int32), parent index (int32, -1 for
    a root), start and end (float64, seconds of ``time.perf_counter``).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path.with_suffix(".spans"), "wb") as fh:
        for column in (tracer.span_name, tracer.span_parent, tracer.span_start,
                       tracer.span_end):
            column.tofile(fh)
    with open(path.with_suffix(".json"), "w") as fh:
        json.dump({**header, "span_names": tracer.names, "spans": len(tracer.span_name),
                   "counters": dict(tracer.counters)}, fh, indent=1)


@dataclass
class Outcome:
    result: dict  # the JSON line
    batches: list  # Batch objects, untraced first
    tracer: Tracer | None = None
    raw: dict | None = None  # end-to-end values before calibration


def run_workload(spec: Workload, seed: int, seconds: float, trace: bool, by_cost=None,
                 reference=None, trace_path: Path | None = None) -> Outcome:
    setups, kernels = [], [calibration.time_kernel()]
    for _ in range(SETUP_REPEATS):
        gc.collect()  # each set-up starts from a clean heap, as in a fresh process
        t0 = perf_counter()
        pkg = import_package()
        inputs = spec.make_inputs(pkg, seed, by_cost)
        setups.append(perf_counter() - t0)
        kernels.append(calibration.time_kernel())

    raw = tracer = None
    if not trace:
        batch = run_ops(spec, pkg, inputs, reference, seconds=seconds)
        completed = batch.attempted - len(batch.failures)
        setup_scale = calibration.REFERENCE_S / statistics.median(kernels)
        values = end_to_end(statistics.median(setups) * setup_scale,
                            calibration.scaled(batch.times, batch.kernel), completed)
        raw = end_to_end(statistics.median(setups), batch.times, completed)
        units, batches = END_TO_END_UNITS, [batch]
    else:
        untraced = run_ops(spec, pkg, inputs, reference, seconds=seconds / 2, min_ops=1)
        tracer = Tracer()
        tracer.install()
        try:
            span = tracer.open(SETUP)
            spec.make_inputs(pkg, seed, by_cost)
            tracer.close(span)
            traced = run_ops(spec, pkg, inputs, reference, count=untraced.attempted,
                             tracer=tracer)
        finally:
            tracer.uninstall()
        leftover = leftover_wrappers()
        if leftover:
            raise RuntimeError(f"tracer left wrappers bound: {leftover}")
        values, units = per_layer(tracer, traced, untraced), PER_LAYER_UNITS
        batches = [untraced, traced]
        if trace_path is not None:
            write_trace(tracer, trace_path, {"workload": spec.name, "ops": traced.attempted,
                                             "machine": machine_record(seed)})

    attempted = sum(b.attempted for b in batches)
    failed = sum(len(b.failures) for b in batches)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return Outcome(result, batches, tracer, raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]

    try:
        import_package()
    except ImportError as exc:
        print(f"cannot import rigidmarket from {SRC}: {exc}", file=sys.stderr)
        return 2
    by_cost = load_cost_order(spec)
    reference = load_reference(spec, args.seed, by_cost)
    machine = machine_record(args.seed)
    print("machine: " + json.dumps({**machine, "workload": spec.name,
                                    "reference": "checked" if reference else "skipped"}))

    outcome = run_workload(spec, args.seed, args.seconds, bool(args.trace), by_cost, reference,
                           trace_path=OUT / spec.name)
    for batch in outcome.batches:
        for k, message in batch.failures[:MAX_REPORTED_FAILURES]:
            print(f"op {k} failed: {message}", file=sys.stderr)
    result = outcome.result
    samples = outcome.batches[0].attempted
    if outcome.raw is not None:
        kernel_ms = statistics.median(outcome.batches[0].kernel) * 1e3
        print(f"calibration: kernel median {kernel_ms:.3f} ms, reference "
              f"{calibration.REFERENCE_S * 1e3:.3f} ms")
    for name, metric in result["metrics"].items():
        notes = []
        if outcome.raw is not None and name != "peak_rss_mb":
            notes.append(f"raw {outcome.raw[name]:.6g}")
        if name == "op_ms_p50":
            notes.append(f"median of {samples} ops")
        note = f"  ({'; '.join(notes)})" if notes else ""
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"{'failed_ratio':48s} {result['failed']}/{result['attempted']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
