"""The benchmark tracer's targets still name functions of the package.

``perfbench/tracer.py`` wraps package functions by module and attribute
name; a refactor that drops or moves one would otherwise only show up as
a crash of ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.PACKAGE, tracer.TARGETS


def test_every_traced_name_resolves():
    package, targets = tracer_targets()
    for name, module, attribute in targets:
        owner = importlib.import_module(f"{package}.{module}")
        for part in attribute.split("."):
            assert hasattr(owner, part), f"{name}: {module}.{attribute} is gone"
            owner = getattr(owner, part)
        assert callable(owner), name


def test_max_matching_is_bound_where_the_benchmark_wraps_it():
    matching = importlib.import_module("rigidmarket.matching")
    for module in ("matching", "mechanism", "overdemand"):
        bound = getattr(importlib.import_module(f"rigidmarket.{module}"), "max_matching", None)
        assert bound is matching.max_matching, module
