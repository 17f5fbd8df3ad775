"""Wall time calibrated against a fixed reference loop.

The benchmark host is shared: the same pure-Python loop takes 21-36 ms
depending on the minute, and CPU time tracks wall time (contention, not
descheduling).  Raw wall times of two runs a few minutes apart then
differ by up to 1.8x with no change to the program.  So every timed
operation is also converted to *reference seconds*: its wall time
scaled by ``REFERENCE_S`` over the reference loop's current duration,
measured in the same process at most ``RESAMPLE_S`` before.  On an
idle host where the loop takes ``REFERENCE_S`` the two clocks agree.
The loop touches no ``repro`` code, so a faster engine still reads
faster.
"""

from __future__ import annotations

from time import perf_counter

#: Duration of :func:`reference_work` that reference seconds are scaled to.
REFERENCE_S = 0.001
#: Re-measure the loop when its last sample is older than this.
RESAMPLE_S = 0.2
#: Each sample is the fastest of this many runs of the loop.
REPEATS = 3


def reference_work() -> int:
    """Fixed interpreter work: split, parse, hash and count small records."""
    table: dict = {}
    for i in range(600):
        fields = f"{i},{i * 7 % 13},name{i % 17}".split(",")
        key = (int(fields[0]) % 50, fields[2])
        table[key] = table.get(key, 0) + int(fields[1])
    return len(table)


class RefClock:
    """Converts measured wall seconds to reference seconds."""

    def __init__(self):
        self._sampled_at = float("-inf")
        self._scale = 1.0

    def scale(self) -> float:
        """Reference seconds per wall second now (re-sampled when stale)."""
        now = perf_counter()
        if now - self._sampled_at >= RESAMPLE_S:
            best = float("inf")
            for _ in range(REPEATS):
                start = perf_counter()
                reference_work()
                best = min(best, perf_counter() - start)
            self._scale = REFERENCE_S / best
            self._sampled_at = perf_counter()
        return self._scale
