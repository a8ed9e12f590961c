"""Host-speed calibration: wall seconds rescaled to a reference host speed.

The reference host is a shared 2-CPU virtual machine whose speed swings by up
to 1.9x, for seconds to minutes at a time. Outside load slows whichever CPU
the benchmark is on, so the time for the same work moves with it. The guest
sees no steal time. A median over repeats cannot remove swings that last as
long as a run.

So the benchmark runs a small fixed kernel right beside each piece of work it
times, and measures the kernel's CPU time. ``wall x REFERENCE_S / kernel``
is the work's time on a host where the kernel takes :data:`REFERENCE_S`.
Those are the "reference seconds" the end-to-end timings report. On the
reference host, the spread across seeds of ``control-plane-jittered``'s
time per simulated hour (quartile distance over median, two sets of five
seeds) was 0.19 in wall seconds and 0.015 in reference seconds. The kernel
runs no program code, so a change to the program still moves the rescaled
time by the same factor as the wall time.
"""

from __future__ import annotations

import heapq
from time import thread_time

#: Kernel CPU seconds on the reference host at its full speed (Python 3.11,
#: 2.1 GHz vCPU: 0.78 ms at best, 0.82 ms at the 5th percentile of 3,000
#: runs).  Any constant works for comparisons between commits; this one
#: keeps reference seconds close to wall seconds on a quiet host.
REFERENCE_S = 0.8e-3


def _kernel(n: int = 1500) -> int:
    """Heap and dictionary traffic, the simulator's own mix of operations."""
    heap: list = []
    counts: dict = {}
    total = 0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        counts[i & 255] = counts.get(i & 255, 0) + 1
        if len(heap) > 32:
            total += heapq.heappop(heap)[0]
    return total + len(counts)


def sample() -> float:
    """CPU seconds of one kernel run (on the CPU this thread is on now)."""
    began = thread_time()
    _kernel()
    return thread_time() - began


def reference_seconds(wall: float, kernel_s: float) -> float:
    """``wall`` measured while the kernel took ``kernel_s``, at reference speed."""
    return wall * REFERENCE_S / kernel_s
