"""The reference task, timed over and over in a process of its own during a run.

Usage: python3 perfbench/reference.py PERIOD_S

Runs the reference task once every PERIOD_S seconds until its stdin is
closed, then prints one JSON list of ``[start, seconds]`` pairs, one per
run of the task.  ``start`` is read from ``time.perf_counter`` (the
monotonic clock), so it lines up with the benchmark's own timeline.

The host this benchmark runs on is shared: it runs the same code faster or
slower, in phases that last from seconds to minutes, and each of its CPUs at
its own speed.  The task's time, taken on the benchmark's CPU during a pass,
tells how fast that CPU ran during that pass.
"""

from __future__ import annotations

import json
import select
import sys
import time

BASE = 3 ** 9000  # 4,295 digits


def reference_task() -> int:
    """A fixed mix of the work treecount does, about 3 ms.

    A pure-Python loop of tuple keys, dict updates and small-integer
    arithmetic, then a big-integer product, quotient and decimal rendering.
    """
    tally: dict = {}
    for i in range(3600):
        key = (i % 61, i % 67)
        tally[key] = tally.get(key, 0) + i * i
    big = BASE * BASE // (BASE - 1)
    return len(tally) + len(str(big))


def main() -> int:
    period = float(sys.argv[1])
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    samples = []
    while True:
        start = time.perf_counter()
        reference_task()
        seconds = time.perf_counter() - start
        samples.append([start, seconds])
        # Sleep out the period; stdin turns readable (EOF) when the run ends.
        if select.select([sys.stdin], [], [], max(0.0, period - seconds))[0]:
            break
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
