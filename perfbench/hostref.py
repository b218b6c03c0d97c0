"""A fixed CPU kernel timed before and after each run.

Its time moves with host contention and not with the program, so a
busy host can be told apart from a slower commit.
"""

import os
import time

import numpy as np

REPEATS = 5


def _kernel() -> float:
    total = 0
    for i in range(200_000):
        total += (i * i) % 7
    values = np.random.default_rng(0).random(400_000)
    values.sort()
    matrix = np.arange(40_000, dtype=np.float64).reshape(200, 200) / 4e4
    product = matrix @ matrix @ matrix
    return total + float(values[0]) + float(product[0, 0])


def host_ref() -> float:
    """Median seconds of the kernel over a few repeats, after one
    warm-up call, on the lowest-numbered CPU this process may use."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        _kernel()
        times = []
        for _ in range(REPEATS):
            started = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - started)
    finally:
        os.sched_setaffinity(0, allowed)
    return sorted(times)[len(times) // 2]
