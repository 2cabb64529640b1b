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

from .runner import RunTraces


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


def violation_probability(queue_trace: np.ndarray, queue_bound: float) -> float:
    trace = np.asarray(queue_trace)
    if trace.size == 0:
        raise ValueError("empty trace")
    return float((trace >= queue_bound).mean())


def summarize(traces: RunTraces, queue_bounds: list[float], warmup_slots: int = 0) -> MetricsReport:
    """Report over the post-warmup window; packages count by arrival slot."""
    if warmup_slots < 0 or warmup_slots >= traces.horizon_slots:
        raise ValueError("warmup must leave a nonempty window")
    q = traces.q[:, warmup_slots:]
    n = traces.n[:, warmup_slots:]
    if q.shape[0] != len(queue_bounds):
        raise ValueError("one queue bound per PDC")

    violation = [violation_probability(q[i], queue_bounds[i]) for i in range(q.shape[0])]
    pairs = [np.asarray(per_pdc, dtype=np.int64).reshape(-1, 2) for per_pdc in traces.waits]
    w_arr = np.concatenate([p[p[:, 0] >= warmup_slots, 1] for p in pairs]).astype(np.float64)
    if w_arr.size:
        w_mean, w_std = float(w_arr.mean()), float(w_arr.std())
    else:
        w_mean = w_std = math.nan

    return MetricsReport(
        violation=violation,
        p_max=max(violation),
        q_mean=float(q.mean()),
        q_std=float(q.std()),
        w_mean=w_mean,
        w_std=w_std,
        n_mean=float(n.sum(axis=0).mean()),
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
    return [
        algorithm,
        pattern,
        repr(report.p_max),
        repr(report.q_mean),
        repr(report.w_mean),
        repr(report.w_std),
        repr(report.q_std),
        repr(report.n_mean),
        report.horizon_slots,
    ]
