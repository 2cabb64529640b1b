"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark runs on a shared host whose speed changes by 2-3x within an
hour, and that change moves every wall time alike. The kernel below is a
small slot simulation of the same kind as dronefleet's (random draws,
small numpy arrays, deques of slotted objects, dict lookups), written
here and never changed, so it does not depend on the program under test.
Timed next to each operation, it gives the host's slowness at that
moment: its time over REFERENCE_S. Dividing an operation's wall time by
that slowness gives its time on a host of reference speed.

    python3 bench/calibrate.py   # prints the kernel's time and slowness
"""

from __future__ import annotations

import random
import statistics
import time
from collections import deque

import numpy as np

# Time of one reference_work() call on a 2-core Intel Xeon 2.1 GHz
# Firecracker VM (Python 3.11.7, numpy 2.4.6) in a fast stretch. It only
# sets the scale of the reported figures; it never changes.
REFERENCE_S = 0.070
REPS = 3  # kernel calls per measurement; their median is used


class _Item:
    __slots__ = ("ident", "born", "trip", "x", "y")

    def __init__(self, ident, born, trip, x, y):
        self.ident, self.born, self.trip, self.x, self.y = ident, born, trip, x, y


def reference_work(slots: int = 6000) -> int:
    """Four FIFO queues served by 15 workers each; returns the summed wait."""
    r = random.Random(20210308)
    g = np.random.default_rng(20210308)
    queues = [deque() for _ in range(4)]
    idle = [list(range(15)) for _ in range(4)]
    due: dict[int, list] = {}
    ident = waits = 0
    for t in range(slots):
        for uid, q in due.pop(t, ()):
            idle[q].append(uid)
        for q in range(4):
            if r.random() < 0.35:
                size = r.randint(1, 6)
                pts = g.random((size, 2)) * 4000.0
                trips = np.ceil(np.hypot(pts[:, 0] - 2000.0, pts[:, 1] - 2000.0) / 500.0)
                for k in range(size):
                    queues[q].append(
                        _Item(ident + k, t, int(trips[k]), float(pts[k, 0]), float(pts[k, 1]))
                    )
                ident += size
        for q in range(4):
            queue, free = queues[q], idle[q]
            while queue and free:
                uid = free.pop(0)
                item = queue.popleft()
                waits += t - item.born
                due.setdefault(t + 2 * max(item.trip, 1), []).append((uid, q))
    return waits


def slowness() -> float:
    """The host's current slowness: median kernel time over REFERENCE_S."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / REFERENCE_S


if __name__ == "__main__":
    s = slowness()
    print(f"reference kernel {s * REFERENCE_S:.4f} s, slowness {s:.3f}")
