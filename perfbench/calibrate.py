"""Machine-speed probe for the benchmark, run as a helper process.

For each line read on stdin it times its kernel ``REPEATS`` times and
writes the thread CPU seconds on one line.  The kernel does not use
kaprekar4: a dict-and-tuple loop in the interpreter, then a numpy gather of
2^18 random entries from a 64 MB table, whose time is set by memory
latency.  It runs in its own process so that the table does not count in
the peak RSS of the processes the benchmark forks.

    python3 perfbench/calibrate.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

REPEATS = 3


def make_kernel():
    rng = np.random.default_rng(0)
    table = rng.integers(0, 1 << 24, size=1 << 24, dtype=np.int32)
    index = rng.integers(0, 1 << 24, size=1 << 18)

    def kernel() -> float:
        t0 = time.thread_time()
        seen = {}
        for i in range(20_000):
            x, y = (i * 7919) % 641, (i * 104729) % 643
            seen[(x, y) if x >= y else (y, x)] = i
        table[index].sum()
        return time.thread_time() - t0

    return kernel


def main() -> None:
    kernel = make_kernel()
    for _ in sys.stdin:
        print(" ".join(repr(kernel()) for _ in range(REPEATS)), flush=True)


if __name__ == "__main__":
    main()
