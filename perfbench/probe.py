"""Machine-speed probe: CPU time of a fixed pure-Python slice.

Runs at the lowest priority beside a timed phase and times one small slice
of dict and JSON work every ``PERIOD`` seconds, in process CPU time, so
its own waiting for a core does not count; what does count is how fast a
CPU second is just then (shared caches, memory bandwidth, clock speed).
On SIGTERM it prints the median slice in milliseconds and the number of
slices, and exits.

    python3 perfbench/probe.py
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import sys
import time

PERIOD = 0.02


def kernel() -> int:
    table: dict = {}
    for i in range(2000):
        table[i % 97] = table.get(i % 97, 0) + i
    return len(json.dumps(table))


def main() -> int:
    os.nice(19)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    print("ready", flush=True)
    slices = []
    while not stop:
        start = time.process_time()
        kernel()
        slices.append((time.process_time() - start) * 1000.0)
        time.sleep(PERIOD)
    print(json.dumps({"slice_ms": statistics.median(slices) if slices
                      else 0.0, "slices": len(slices)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
