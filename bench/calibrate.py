"""How fast the host runs right now, from a fixed reference computation.

On a shared VM the host's speed can drift by up to 2x over minutes while
the process keeps its CPU (steal time stays near zero), so wall times of the
same code taken minutes apart differ by more than any useful regression
bound.  The benchmark therefore runs `chunk()` before and
after every operation and reports each operation's time at reference speed:

    seconds * REFERENCE_S / (mean of the two chunks around it)

The chunk imitates the instruction mix that dominates the in-process
workloads (attribute access and method calls over a list of small objects,
numpy calls on tiny arrays, float-to-string formatting).  It depends only on
Python and numpy, never on thinmarket, so a change to the program cannot
change it.  Both sides of a comparison run the same chunk on the same host,
so the normalisation cancels; REFERENCE_S only sets the scale.
"""

import time

import numpy as np

# Nominal wall time of one chunk.  On a 2-vCPU Xeon VM (Python 3.11.7,
# numpy 2.4.6) a chunk took 0.037-0.075 s, so reference seconds there are
# within a factor of about 1.5 of wall seconds.
REFERENCE_S = 0.05
_REPEATS = 100


class _Item:
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value

    def get(self) -> float:
        return self.value

    def skip(self) -> bool:
        return False


_ITEMS = [_Item(float(i)) for i in range(2000)]
_SMALL = np.arange(5.0)


def chunk() -> float:
    """Run the reference computation once; return its wall seconds."""
    start = time.perf_counter()
    for _ in range(_REPEATS):
        total = 0.0
        for item in _ITEMS:
            if item.skip():
                continue
            total += item.get()
        for _ in range(50):
            total += float(np.sqrt(_SMALL * _SMALL + 1.0).sum())
        text = ",".join(repr(item.value) for item in _ITEMS[:200])
    elapsed = time.perf_counter() - start
    if total <= 0.0 or not text:  # keeps the work observable
        raise RuntimeError("calibration chunk computed nothing")
    return elapsed


class Clock:
    """Calibration chunks between consecutive timed intervals: each
    interval is scaled by the mean of the chunk before it and the chunk
    after it."""

    def __init__(self):
        self.before = chunk()

    def scale(self) -> float:
        """Run the chunk that closes the interval just timed; return the
        factor that converts its seconds to reference seconds."""
        after = chunk()
        factor = REFERENCE_S / (0.5 * (self.before + after))
        self.before = after
        return factor
