"""The host's current speed, read from a fixed reference kernel.

On a shared host the CPU speed drifts by tens of percent over tens of
seconds, and process CPU time drifts with it, so two runs of the same
code an hour apart can differ by a quarter in wall time. The benchmark
times this kernel, which runs no saleval code, right before and right
after each timed part of an iteration, and rescales the part's time to a
host on which the kernel takes REFERENCE_S seconds. A change to saleval
moves the rescaled time as it moves wall time; a slower host moves the
kernel and the part alike and leaves it.
"""

from __future__ import annotations

import time

# seconds the kernel takes on the 2-core Xeon (2.0 GHz) the benchmark was sized on
REFERENCE_S = 0.0065
_SORTS = 15
_LOOP = 45_000
_data = None


def kernel_seconds() -> float:
    """Wall seconds the reference kernel takes now: the fastest of three runs.

    The kernel mixes small-array numpy calls with an interpreter loop, as
    saleval's trial loops do. Taking the fastest run drops the time to
    warm caches that the work before it evicted. numpy is imported here,
    not at module import, so thread pins set after importing this module
    still hold.
    """
    global _data
    if _data is None:
        import numpy as np

        _data = np.random.default_rng(0).random(4096)
    return min(_kernel(_data) for _ in range(3))


def _kernel(a) -> float:
    t0 = time.perf_counter()
    for _ in range(_SORTS):
        a.argsort()
        a.cumsum()
        float(a @ a)
    acc = 0
    for i in range(_LOOP):
        acc += i * i
    return time.perf_counter() - t0


def at_reference(seconds: float, before: float, after: float) -> float:
    """seconds of a part, rescaled by the kernel readings taken around it."""
    return seconds * 2.0 * REFERENCE_S / (before + after)
