"""Rebuild the benchmark's data files from the package in ``src/``.

    python3 perfbench/build_data.py

For every population member of a workload this runs one op with the
tracer installed and checks its output.  It writes

* ``strata.json``: per workload, each member's cost (the number of
  traced calls its op made) and the population sorted by that cost,
  from which ``run.py`` cuts the strata;
* ``reference.json``: per workload, the pool of the reference seed and
  the recorded output of each of its ops (a sha-256 of the JSON trace
  lines, exact expected values with tree node and leaf counts, or the
  best strategy with its profits).

Both files describe the package as it was when they were built.  Rebuild
them only when the workloads change, never to make a changed program
pass: the reference is how the benchmark notices a changed output.
Takes about ten minutes for all four workloads on a 2-core Xeon.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import REFERENCE_FILE, REFERENCE_SEED, STRATA_FILE, import_package  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def build(spec):
    pkg = import_package()
    costs, records = [], []
    for j in range(spec.population):
        item = spec.member(pkg, j)
        tracer = Tracer()
        tracer.install()
        try:
            output = spec.run(pkg, item)
        finally:
            tracer.uninstall()
        spec.verify(pkg, item, output)
        costs.append(len(tracer.span_name))
        records.append(spec.record(output))
    by_cost = sorted(range(spec.population), key=lambda j: (costs[j], j))
    indices = spec.pick(REFERENCE_SEED, by_cost)
    strata = {"population": spec.population, "strata": spec.strata, "cost": costs,
              "by_cost": by_cost}
    reference = {"seed": REFERENCE_SEED, "indices": indices,
                 "records": [records[j] for j in indices]}
    return strata, reference


def write(path: Path, data: dict) -> None:
    with open(path, "w") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(data.items())))
        fh.write("\n}\n")


def main() -> int:
    strata, reference = {}, {}
    for name in sorted(WORKLOADS):
        strata[name], reference[name] = build(WORKLOADS[name])
        write(STRATA_FILE, strata)
        write(REFERENCE_FILE, reference)
        cost = strata[name]["cost"]
        print(f"{name}: cost {min(cost)}..{max(cost)} calls per op", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
