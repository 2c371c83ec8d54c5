"""Host speed, read from a fixed pure-Python kernel.

The benchmark host is a few vCPUs of a shared machine.  Co-tenants on
the same physical cores slow CPU time and wall time alike, by up to
~1.75x, in phases that last from a second to several minutes, so two
runs of identical work minutes apart can differ by more than any
useful regression bound.  The benchmark times this kernel right before
and right after every timed unit and every set-up, and divides their
host time (wall and CPU) by the mean of the two slowdowns against
:data:`REFERENCE_KERNEL_S`.  Host-time metrics then read as on an
undisturbed core of the reference host, while a change to the
program's own cost moves them in full: the kernel is the benchmark's
code, not the program's.

The kernel and the reference must not change once a benchmark result
has been recorded: together they fix the scale of every host-time
metric.
"""

from __future__ import annotations

import heapq
import os
import time

#: Steps of the kernel: a bounded heap and a dict, the interpreter
#: work an event loop does.
KERNEL_STEPS = 40_000
#: The kernel's time on an undisturbed core of the reference host
#: (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4): the fastest of 300
#: runs there took 0.0244 s.
REFERENCE_KERNEL_S = 0.025


def kernel_s() -> float:
    """Wall time of one run of the kernel."""
    heap = []
    counts = {}
    t0 = time.perf_counter()
    for i in range(KERNEL_STEPS):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        counts[i % 512] = counts.get(i % 512, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def slowdown() -> float:
    """How much slower than the reference the host runs right now: the
    mean over the cores this process may use, one kernel run on each
    (worker processes run on all of them, and co-tenants slow each core
    differently)."""
    if not hasattr(os, "sched_setaffinity"):
        return kernel_s() / REFERENCE_KERNEL_S
    cores = os.sched_getaffinity(0)
    times = []
    try:
        for core in sorted(cores):
            os.sched_setaffinity(0, {core})
            times.append(kernel_s())
    finally:
        os.sched_setaffinity(0, cores)
    return sum(times) / len(times) / REFERENCE_KERNEL_S
