"""Calibration: a fixed reference task that measures how fast the machine
runs at the moment.

The benchmark was tuned on a shared 2-core VM whose speed drifts.  The same
code runs up to 2x faster or slower for stretches of seconds to minutes,
whatever the benchmark does, and a run inside such a stretch reads fast or
slow on every metric.  To take that drift out, the worker runs this
reference task between items, before an item once EVERY_S seconds have
passed since the last sample, and scales each item's wall time by
REFERENCE_S over the median reference time of the samples taken within
WINDOW_S of it.  A calibrated latency is thus the wall time the item would
have taken at the speed where the reference task takes REFERENCE_S.

The task uses no dqra code, so no change to the library can move it.  It
mixes what the library spends its time on: the interpreter (loops, tuples,
dicts) and numpy calls on small boolean matrices.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# the reference task's time on the machine the benchmark was tuned on, in a
# stretch of its usual speed
REFERENCE_S = 0.00225
EVERY_S = 0.05          # sample before an item once this long has passed
WINDOW_S = 0.5          # an item's speed is the median of the samples
NEAREST = 9             # within this long of it, and of at least this many
SETUP_SAMPLES = 25      # reference samples taken right after set-up

_MATS = np.random.default_rng(0).integers(0, 2, size=(64, 6, 6)).astype(bool)


def reference_task() -> int:
    seen: dict[bytes, int] = {}
    acc = 0
    for k in range(64):
        a, b = _MATS[k], _MATS[(7 * k + 3) % 64]
        c = (a[:, :, None] & b[None, :, :]).any(axis=1)
        key = np.packbits(c).tobytes()
        seen[key] = seen.get(key, 0) + 1
        acc += int(c.sum()) + (c <= a).all()
        pairs = sorted((i * 37 % 11, i) for i in range(24))
        acc += sum(i for _, i in pairs if i % 3) + len(seen)
    return acc


def timed_task() -> tuple[float, float]:
    """(midpoint, seconds) of one run of the reference task."""
    t0 = time.perf_counter()
    reference_task()
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


class Speed:
    """Reference samples in time order; turns wall times into calibrated
    ones."""

    def __init__(self, samples: list[tuple[float, float]]):
        self.times = [t for t, _ in samples]
        self.secs = [s for _, s in samples]

    @classmethod
    def around_now(cls) -> "Speed":
        return cls([timed_task() for _ in range(SETUP_SAMPLES)])

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median of the samples taken from WINDOW_S
        before the span [t0, t1] to WINDOW_S after it (at least the NEAREST
        samples to it)."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if hi - lo < NEAREST:
            i = bisect.bisect_left(self.times, (t0 + t1) / 2)
            lo = max(0, min(i - NEAREST // 2, len(self.times) - NEAREST))
            hi = lo + NEAREST
        return REFERENCE_S / statistics.median(self.secs[lo:hi])

    def factor_now(self) -> float:
        return REFERENCE_S / statistics.median(self.secs)

    def summary(self) -> dict:
        q = statistics.quantiles(self.secs, n=4)
        return {"samples": len(self.secs), "median": q[1], "q1": q[0],
                "q3": q[2]}
