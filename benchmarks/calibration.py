"""Machine-speed calibration of the benchmark's timings.

On a shared host the speed of one Python thread can drift by 1.7x within
seconds as other tenants come and go (seen on a 2-vCPU Intel Xeon).  Every
timed operation is therefore bracketed by a fixed kernel of the
same kind of work (pure-Python big-integer elimination and dict updates),
and its time is rescaled to the kernel's reference time:

    normalized = measured * REFERENCE_S / mean(kernel before, kernel after)

A change to matchenum moves the measured time and leaves the kernel alone,
so it moves the normalized time by the same share; a slower or faster host
moves both and cancels.  The kernel is the benchmark's own code and runs
with the cyclic garbage collector off, so the size of the program's heap
does not reach it.
"""

from __future__ import annotations

import gc
import random
import resource
import time

# The kernel's typical wall time on an Intel Xeon (2 vCPUs, Python 3.11);
# normalized timings read as seconds on that machine.
REFERENCE_S = 0.075


def _kernel() -> int:
    check = 0
    for seed in range(12):
        rng = random.Random(seed)
        m = [[rng.randint(-3, 3) for _ in range(24)] for _ in range(24)]
        n, prev = len(m), 1
        for k in range(n - 1):
            pivot, row_k = m[k][k] or 1, m[k]
            for i in range(k + 1, n):
                row_i, factor = m[i], m[i][k]
                for j in range(k + 1, n):
                    row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            prev = pivot
        tally: dict[int, int] = {}
        for i in range(20000):
            tally[i & 1023] = tally.get(i & 1023, 0) + i
        check ^= m[n - 1][n - 1] ^ tally[1023]
    return check


def cpu_s() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def measure() -> tuple[float, float]:
    """Wall and CPU seconds of one run of the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0, t0 = cpu_s(), time.perf_counter()
        _kernel()
        return time.perf_counter() - t0, cpu_s() - c0
    finally:
        if enabled:
            gc.enable()


def factor(before: tuple[float, float], after: tuple[float, float]) -> tuple[float, float]:
    """Wall and CPU scale factors for work timed between two kernel runs."""
    return (2 * REFERENCE_S / (before[0] + after[0]),
            2 * REFERENCE_S / (before[1] + after[1]))
