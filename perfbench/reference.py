"""Reference-speed time: operation times corrected for the host's speed.

On a shared host the same computation can take 60% longer from one minute
to the next.  A fixed computation, timed every few tenths of a second next
to the operations, tracks that drift: an operation's time is multiplied by
REFERENCE_S over the reference computation's recent median time.  The
result reads as the operation's time on a host where the reference takes
REFERENCE_S.  The reference is a plain integer loop that allocates almost
nothing: one that churns many objects tracks the allocator's state after
the previous operation more than the host's speed.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

REFERENCE_S = 0.0065  # about the reference's time on the baseline machine
PROBE_INTERVAL_S = 0.2
PROBE_WINDOW = 3  # probes whose median gives the current speed


def _reference_work() -> int:
    acc = 0
    for i in range(60_000):
        acc = (acc * 31 + i) & 0xFFFFFFF
    return acc


class SpeedProbe:
    """Times the reference computation at most every PROBE_INTERVAL_S and
    gives the factor that turns a raw time into reference-speed time."""

    def __init__(self):
        self.samples: deque[float] = deque(maxlen=PROBE_WINDOW)
        self.last = float("-inf")
        for _ in range(2):  # the first calls run cold
            _reference_work()

    def factor(self) -> float:
        if time.perf_counter() - self.last >= PROBE_INTERVAL_S:
            runs = []
            for _ in range(3):
                start = time.perf_counter()
                _reference_work()
                runs.append(time.perf_counter() - start)
            self.samples.append(statistics.median(runs))
            self.last = time.perf_counter()
        return REFERENCE_S / statistics.median(self.samples)

    def timed(self, fn, *args):
        """(result, raw seconds, reference-speed seconds) of fn(*args)."""
        before = self.factor()
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start
        return result, raw, raw * (before + self.factor()) / 2
