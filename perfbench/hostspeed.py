"""Host-speed reference: scale operation times to a nominal host speed.

The benchmark runs on a few cores of a shared host whose speed changes by
up to 2x, both from one second to the next and over tens of seconds, as
its neighbours load it.  The change shows in CPU time as much as in wall
time (the core itself runs slower), so no statistic over raw operation
times removes it: a run's median rides on the share of the run the host
spent slow.

Every timed operation is therefore paired with two :func:`reference_seconds`
samples, taken right before and right after it in the same process.  The
reference is a fixed loop shaped like the simulator's inner work — heap
pushes and pops, tuple and dict churn — on a small table of its own, with
garbage collection off, so the program's heap does not change its cost.
An operation's *scaled* time is its wall time times ``NOMINAL_S`` over the
mean of its two reference samples (:func:`scale`): the seconds it would
take on a host that runs the reference in ``NOMINAL_S``.  A slower program
still reads slower by the same factor; a slower host reads (nearly) the
same.  Only samples next to the operation track the host: scaling by a
median over the neighbouring operations' samples left about twice the
run-to-run spread.  Set-up time is scaled by the median of a whole run's
samples instead (see :mod:`perfbench.run`).  Raw wall times are kept
beside the scaled ones in every run's record.

This module imports nothing from ``repro``.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter

#: Reference seconds of the nominal host: a typical sample of this loop on
#: a 2-vCPU Intel Xeon virtual machine (samples there range 3-7 ms).
NOMINAL_S = 0.005

_TABLE = [(i, str(i)) for i in range(2048)]


def reference_seconds(steps: int = 3000) -> float:
    """Wall seconds of the fixed reference loop, garbage collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        heap: list = []
        seen: dict = {}
        state = 7
        for i in range(steps):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            entry = _TABLE[state & 2047]
            heapq.heappush(heap, (entry[0], i, entry))
            seen[(i & 1023, entry[0])] = [entry[1], i]
        while heap:
            heapq.heappop(heap)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: list[float], references: list[float]) -> list[float]:
    """Each time in ``seconds`` scaled to the nominal host.

    ``references[i]`` is the mean reference sample around ``seconds[i]``.
    """
    return [value * NOMINAL_S / reference for value, reference in zip(seconds, references)]
