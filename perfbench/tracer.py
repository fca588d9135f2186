"""Spans and counters around the package's public functions, from outside.

The package modules import each other's functions by name, so a function
is reachable through one binding per importing module (``max_matching``
alone is bound in ``matching``, ``mechanism``, ``overdemand``,
``expectation``, ``strategy`` and the package root).  :meth:`Tracer.install`
rebinds every one of those names to a recording wrapper, and
:meth:`Tracer.uninstall` puts the originals back.  No package source is
changed.

A span is (name, start, end, parent).  Spans are appended in start order
to flat arrays and kept in memory until the run ends; a span's self time
is its duration minus the durations of its direct children.  Counters
are updated by per-function hooks that run after the span has closed.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

# (span name, defining module, attribute; "Class.method" for methods)
TARGETS = (
    ("model.demand_set", "model", "demand_set"),
    ("model.forbid_many", "model", "RationingSystem.forbid_many"),
    ("model.validate_economy", "model", "validate_economy"),
    ("matching.max_matching", "matching", "max_matching"),
    ("matching.augment", "matching", "augment"),
    ("overdemand.mods", "overdemand", "mods"),
    ("overdemand.grow_over_demanded", "overdemand", "grow_over_demanded"),
    ("mechanism.refresh_demands", "mechanism", "refresh_demands"),
    ("mechanism.gate", "mechanism", "gate"),
    ("mechanism.price_increase_step", "mechanism", "price_increase_step"),
    ("mechanism.lottery_step", "mechanism", "lottery_step"),
    ("mechanism.apply_sale", "mechanism", "apply_sale"),
    ("mechanism.rm", "mechanism", "rm"),
    ("mechanism.complete_run", "mechanism", "complete_run"),
    ("mechanism.run_mapr", "mechanism", "run_mapr"),
    ("mechanism.to_json_lines", "mechanism", "Trace.to_json_lines"),
    ("expectation.expected_values", "expectation", "expected_values"),
    ("expectation.enumerate_histories", "expectation", "enumerate_histories"),
    ("expectation.sold_matching_from_rationing", "expectation", "sold_matching_from_rationing"),
    ("expectation.record_sale", "expectation", "record_sale"),
    ("strategy.optimal_strategy_search", "strategy", "optimal_strategy_search"),
)
OP = "bench.op"
SETUP = "bench.setup"
PACKAGE = "rigidmarket"


def _count_augment(c, args, result):
    graph, matching = args[0], args[1]
    c["augment.paths"] += result is not matching
    c["augment.edges"] += sum(map(len, graph.adj.values()))


def _count_grow(c, args, result):
    c["grow.size"] += len(result[0])


def _count_mods(c, args, result):
    c["mods.kept"] += len(result)


def _count_refresh(c, args, result):
    before = args[1].demands
    for i in args[1].active:
        if i in before:
            c["refresh.compared"] += 1
            c["refresh.changed"] += result.demands[i] != before[i]


def _count_run_mapr(c, args, result):
    c["trace_rows"] += len(result.trace.rows)


def _count_expected(c, args, result):
    c["tree_nodes"] += result.tree_stats.nodes
    c["tree_leaves"] += result.tree_stats.leaves


def _count_histories(c, args, result):
    c["histories"] += len(result)


def _count_search(c, args, result):
    c["strategies"] += result.strategies_evaluated
    c["distinct_evaluations"] += result.distinct_evaluations


HOOKS = {
    "matching.augment": _count_augment,
    "overdemand.grow_over_demanded": _count_grow,
    "overdemand.mods": _count_mods,
    "mechanism.refresh_demands": _count_refresh,
    "mechanism.run_mapr": _count_run_mapr,
    "expectation.expected_values": _count_expected,
    "expectation.enumerate_histories": _count_histories,
    "strategy.optimal_strategy_search": _count_search,
}


def package_modules():
    return [mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def is_wrapper(obj) -> bool:
    return getattr(obj, "__perfbench_wrapper__", False)


def leftover_wrappers() -> list[str]:
    """Names in the package (module globals and class dicts) still bound to a wrapper."""
    found = []
    for mod in package_modules():
        for attr, value in vars(mod).items():
            if is_wrapper(value):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{attr}.{k}" for k, v in vars(value).items()
                          if is_wrapper(v)]
    return found


class Tracer:
    """Records spans and counters while installed and ``recording`` is true."""

    def __init__(self):
        self.names = [OP, SETUP] + [t[0] for t in TARGETS]
        self.name_ids = {n: k for k, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = Counter()
        self.recording = True
        self._stack = [-1]
        self._saved = []  # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.span_name)
        self.span_name.append(self.name_ids[name])
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        open_, close, hook = self.open, self.close, HOOKS.get(name)
        counters = self.counters

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(counters, args, result)
            return result

        wrapper.__perfbench_wrapper__ = True
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Rebind every package binding of every target to its wrapper."""
        modules = package_modules()
        for name, module, attr in TARGETS:
            home = sys.modules[f"{PACKAGE}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._rebind(cls, meth, self._wrap(name, vars(cls)[meth]))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.span_start, self.span_end)]
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= self.span_end[idx] - self.span_start[idx]
        return own

    def op_spans(self) -> list[int]:
        op = self.name_ids[OP]
        return [k for k, n in enumerate(self.span_name) if n == op]

    def totals(self):
        """Per span name: call count and summed self time; plus the derived counts."""
        own = self.self_times()
        calls, self_s = Counter(), Counter()
        for k, n in enumerate(self.span_name):
            calls[self.names[n]] += 1
            self_s[self.names[n]] += own[k]
        # Derived from the span tree: matchings the mods filter makes, and
        # walker nodes (sale recoveries) under the strategy search.
        mods_id = self.name_ids["overdemand.mods"]
        mm_id = self.name_ids["matching.max_matching"]
        search_id = self.name_ids["strategy.optimal_strategy_search"]
        sold_id = self.name_ids["expectation.sold_matching_from_rationing"]
        under_search = bytearray(len(self.span_name))
        derived = Counter()
        for k, n in enumerate(self.span_name):
            parent = self.span_parent[k]
            under_search[k] = n == search_id or (parent >= 0 and under_search[parent])
            if n == mm_id and parent >= 0 and self.span_name[parent] == mods_id:
                derived["filter_matchings"] += 1
            if n == sold_id and under_search[k]:
                derived["walker_nodes"] += 1
        return calls, self_s, derived
