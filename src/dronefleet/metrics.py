"""Quality-of-service metrics over simulation traces.

A slot counts as a violation when the queue is at or above its bound.
Waits measure queueing delay only: dispatch slot minus arrival slot.
Standard deviations are population ones (ddof 0), and queue statistics pool
every (PDC, slot) sample.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .runner import RunTraces, queue_trace


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


def slots_over(q: np.ndarray, queue_bounds) -> np.ndarray:
    """Per PDC, how many slots of the (D, slots) queue trace `q` are at or
    above that PDC's bound: the violation rule, which counts q == bound."""
    return (q >= np.asarray(queue_bounds)[:, None]).sum(axis=1)


def fifo_waits(arrivals: np.ndarray, dispatches: np.ndarray, warmup_slots: int = 0) -> np.ndarray:
    """The wait of each package one FIFO queue dispatched, in dispatch order,
    from its per-slot arrival and dispatch counts: the k-th dispatch takes
    the k-th arrival. Packages that arrived before warmup_slots are left out."""
    slots = np.arange(len(arrivals))
    left = np.repeat(slots, dispatches)
    born = np.repeat(slots, arrivals)[: len(left)]
    return (left - born)[born >= warmup_slots]


def summarize(traces: RunTraces, queue_bounds: list[float], warmup_slots: int = 0) -> MetricsReport:
    """Report over the post-warmup window; packages count by arrival slot."""
    arrivals, dispatches = traces.arrivals, traces.dispatches
    d, horizon = arrivals.shape
    if warmup_slots < 0 or warmup_slots >= horizon:
        raise ValueError("warmup must leave a nonempty window")
    if d != len(queue_bounds):
        raise ValueError("one queue bound per PDC")

    # pair the waits first, while little else is held: the largest temporary
    waits = [fifo_waits(a, dsp, warmup_slots) for a, dsp in zip(arrivals, dispatches)]
    waits = np.concatenate(waits, dtype=np.float64)
    w_mean, w_std = (float(waits.mean()), float(waits.std())) if waits.size else (math.nan, math.nan)
    del waits

    q = queue_trace(arrivals, dispatches, [0] * d)[:, warmup_slots:]
    violation = (slots_over(q, queue_bounds) / q.shape[1]).tolist()
    # each epoch's fleet holds over all of its slots
    fleet = np.repeat(traces.n.sum(axis=0), horizon // traces.n.shape[1])[warmup_slots:]

    return MetricsReport(
        violation=violation,
        p_max=max(violation),
        q_mean=float(q.mean()),
        q_std=float(q.std()),
        w_mean=w_mean,
        w_std=w_std,
        n_mean=float(fleet.mean()),
        horizon_slots=q.shape[1],
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
