"""Quality-of-service metrics, folded from a run one block of slots at a time.

A slot counts as a violation when the queue is at or above its bound.
Waits measure queueing delay only: dispatch slot minus arrival slot, and a
package counts in the window it arrived in. Queue statistics pool every
(PDC, slot) sample.

A Tally keeps exact integer sums only: per-PDC slots at or over the bound,
the count, sum and sum of squares of the queue samples and of the waits,
and the fleet summed over slots. Means are those sums divided once, as numpy
gives them while the sums stay below 2**53. Standard deviations are
population ones (ddof 0): the square root of the variance
(n·Σx² − (Σx)²) / n², which Python's integer division rounds exactly once,
so they do not depend on a summation order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class MetricsReport:
    violation: list[float]  # per PDC, fraction of slots with q >= bound
    p_max: float
    q_mean: float
    q_std: float
    w_mean: float
    w_std: float
    n_mean: float  # mean over slots of UAVs assigned to PDCs (port excluded)
    horizon_slots: int

    def to_dict(self) -> dict:
        return asdict(self)


def queue_trace(arrivals: np.ndarray, dispatches: np.ndarray, q_start) -> np.ndarray:
    """Per-slot queue lengths, C-contiguous (D, slots), of queues that held
    q_start before the slots of these (D, slots) counts: what each held plus
    its arrivals minus its dispatches. Built in place, so that no
    trace-sized temporary is made."""
    q = np.empty(arrivals.shape, dtype=np.int64)
    np.subtract(arrivals, dispatches, out=q)
    np.cumsum(q, axis=1, out=q)
    q += np.asarray(q_start, dtype=np.int64)[:, None]
    return q


def slots_over(q: np.ndarray, queue_bounds) -> np.ndarray:
    """Per PDC, how many slots of the (D, slots) queue trace `q` are at or
    above that PDC's bound: the violation rule, which counts q == bound."""
    return (q >= np.asarray(queue_bounds)[:, None]).sum(axis=1)


def _sums(x: np.ndarray) -> tuple[int, int]:
    """Σx and Σx² of the nonnegative int64 samples x, as Python ints. numpy's
    int64 sums are exact while x.size·max(x)² stays below 2**63; past that
    (queues of tens of millions) they are summed as Python ints."""
    if x.size and int(x.max()) ** 2 * x.size >= 2**63:
        values = x.ravel().tolist()
        return sum(values), sum(v * v for v in values)
    return int(x.sum()), int(np.vdot(x, x))


class Tally:
    """The exact sums of a run's slots from warmup_slots on, folded block by
    block. Each center's FIFO queue carries the arrival slots of its packages
    still queued at a block's end, so that a dispatch in a later block pairs
    with its arrival: the k-th dispatch takes the k-th arrival."""

    def __init__(self, queue_bounds, warmup_slots: int = 0):
        if warmup_slots < 0:
            raise ValueError("warmup must not be negative")
        self.queue_bounds = np.asarray(queue_bounds)
        self.warmup_slots = warmup_slots
        d = len(self.queue_bounds)
        self.slots = 0  # slots folded, warmup included
        self.over = np.zeros(d, dtype=np.int64)
        self.q_sum = self.q_squares = 0
        self.fleet_sum = 0
        self.w_count = self.w_sum = self.w_squares = 0
        self.waiting = [np.empty(0, dtype=np.int64) for _ in range(d)]

    def fold(self, arrivals: np.ndarray, dispatches: np.ndarray, n: np.ndarray) -> np.ndarray:
        """Fold the next block: its (D, slots) arrival and dispatch counts and
        the (epochs, D) drones each center held per epoch, the block being
        whole epochs. Returns the block's (D, slots) queue trace."""
        d, slots = arrivals.shape
        if d != len(self.queue_bounds):
            raise ValueError("one queue bound per PDC")
        t0 = self.slots
        q = queue_trace(arrivals, dispatches, [len(w) for w in self.waiting])
        skip = max(self.warmup_slots - t0, 0)  # the block's warmup slots, if any
        kept = q[:, skip:]
        self.over += slots_over(kept, self.queue_bounds)
        total, squares = _sums(kept)
        self.q_sum += total
        self.q_squares += squares
        # each epoch's fleet holds over its slots past the warmup
        epoch_slots = slots // len(n)
        ends = np.arange(1, len(n) + 1) * epoch_slots
        held = np.clip(ends - skip, 0, epoch_slots)
        self.fleet_sum += int(n.sum(axis=1) @ held)

        at = np.arange(t0, t0 + slots)
        for i, (arrived, dispatched) in enumerate(zip(arrivals, dispatches)):
            queued = np.concatenate([self.waiting[i], np.repeat(at, arrived)])
            left = np.repeat(at, dispatched)
            born, self.waiting[i] = queued[: len(left)], queued[len(left) :]
            waits = (left - born)[born >= self.warmup_slots]
            total, squares = _sums(waits)
            self.w_count += waits.size
            self.w_sum += total
            self.w_squares += squares
        self.slots += slots
        return q


def _std(count: int, total: int, squares: int) -> float:
    """Population standard deviation from exact sums: the variance rounded
    once by integer true division, then its square root."""
    return math.sqrt((count * squares - total * total) / (count * count))


def summarize(tally: Tally) -> MetricsReport:
    """Report over the tally's post-warmup window."""
    window = tally.slots - tally.warmup_slots
    if window <= 0:
        raise ValueError("warmup must leave a nonempty window")
    violation = [over / window for over in tally.over.tolist()]
    samples = len(violation) * window
    if tally.w_count:
        w_mean = tally.w_sum / tally.w_count
        w_std = _std(tally.w_count, tally.w_sum, tally.w_squares)
    else:
        w_mean = w_std = math.nan
    return MetricsReport(
        violation=violation,
        p_max=max(violation),
        q_mean=tally.q_sum / samples,
        q_std=_std(samples, tally.q_sum, tally.q_squares),
        w_mean=w_mean,
        w_std=w_std,
        n_mean=tally.fleet_sum / window,
        horizon_slots=window,
    )


CSV_COLUMNS = [
    "algorithm",
    "pattern",
    "p_max",
    "q_mean",
    "w_mean",
    "w_std",
    "q_std",
    "n_mean",
    "horizon_slots",
]


def csv_row(algorithm: str, pattern: str, report: MetricsReport) -> list:
    """One report's CSV_COLUMNS, each float as its repr."""
    fields = {"algorithm": algorithm, "pattern": pattern, **report.to_dict()}
    return [repr(v) if isinstance(v, float) else v for v in map(fields.get, CSV_COLUMNS)]
