"""Machine-speed calibration of the benchmark's timings.

The 2-core Xeon VM this benchmark was written on changes speed by itself:
over 200 s one fixed ``strategy_search`` op took between 0.8 and 1.4 times
its median time, and 20-s stretches of it, the length of one benchmark
run, differed by 15 % (quartile distance over median).  A fixed pure-Python
kernel timed before every op slowed down and sped up with it
(correlation 0.88).  Scaling each op's time by the kernel's reference
time over its local kernel time cut the 20-s spread to 3 %.

So every timed interval is reported twice: raw, and scaled to the speed
at which the kernel takes ``REFERENCE_S``.  The end-to-end metrics use the
scaled times; the raw ones are printed beside them.  The kernel is part
of the benchmark, not of the package, so a change to the package cannot
move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# Median kernel time on the 2-core Intel Xeon VM with CPython 3.11.7 where
# the benchmark was written, so that scaled times read close to raw there.
REFERENCE_S = 0.0061
WINDOW = 2  # kernel times on each side of an op that set its scale

_ROWS = tuple(tuple((7 * i + 13 * a) % 101 for a in range(21)) for i in range(40))


def kernel() -> int:
    """Fixed work shaped like the package's inner loops: frozensets, max over
    generators, dict updates."""
    prices = list(range(21))
    seen: dict = {}
    for r in range(20):
        for row in _ROWS:
            allowed = frozenset(a for a in range(21) if (a + r) % 5)
            best = max(row[a] - prices[a] for a in allowed)
            demand = frozenset(a for a in allowed if row[a] - prices[a] == best)
            seen[demand] = seen.get(demand, 0) + 1
        prices = [p + (a in demand) for a, p in enumerate(prices)]
    return len(seen)


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def scaled(times, kernel_times) -> list[float]:
    """``times[k]`` at reference speed, judged by the median kernel time
    within ``WINDOW`` places of ``k``."""
    return [
        t * REFERENCE_S / statistics.median(kernel_times[max(0, k - WINDOW):k + WINDOW + 1])
        for k, t in enumerate(times)
    ]
