import math

import numpy as np
import pytest

from dronefleet.metrics import (
    CSV_COLUMNS,
    MetricsReport,
    csv_row,
    summarize,
    violation_probability,
)
from dronefleet.runner import RunTraces


def make_traces(q, n, waits):
    q = np.asarray(q, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    return RunTraces(q=q, n=n, waits=waits, horizon_slots=q.shape[1])


def test_violation_probability_is_inclusive():
    assert violation_probability(np.array([79, 80, 81]), 80.0) == pytest.approx(2 / 3)
    assert violation_probability(np.array([0, 0]), 1.0) == 0.0
    with pytest.raises(ValueError):
        violation_probability(np.array([]), 1.0)


def test_summary_hand_computed():
    # 2 PDCs, 3 slots; all statistics chosen to be exact by hand
    traces = make_traces(
        q=[[0, 4, 0], [4, 0, 4]],
        n=[[2, 2, 2], [1, 1, 3]],
        waits=[[(0, 0), (1, 2)], [(0, 2), (2, 4)]],
    )
    report = summarize(traces, queue_bounds=[4.0, 4.0], warmup_slots=0)
    assert report.violation == [pytest.approx(1 / 3), pytest.approx(2 / 3)]
    assert report.p_max == pytest.approx(2 / 3)
    assert report.q_mean == 2.0          # 12 packages over 6 samples
    assert report.q_std == 2.0           # every sample sits 2 away from the mean
    assert report.w_mean == 2.0          # waits 0, 2, 2, 4
    assert report.w_std == math.sqrt(2.0)
    assert report.n_mean == pytest.approx(11 / 3)  # totals 3, 3, 5
    assert report.horizon_slots == 3


def test_summary_applies_warmup_to_waits_by_arrival_slot():
    traces = make_traces(
        q=[[10, 0, 0]],
        n=[[5, 5, 5]],
        waits=[[(0, 9), (1, 1), (2, 1)]],
    )
    report = summarize(traces, queue_bounds=[5.0], warmup_slots=1)
    # the slot-0 arrival (and its wait of 9) is excluded
    assert report.w_mean == 1.0
    assert report.violation == [0.0]
    assert report.horizon_slots == 2


def test_summary_with_no_waits_is_nan():
    traces = make_traces(q=[[0, 0]], n=[[1, 1]], waits=[[]])
    report = summarize(traces, queue_bounds=[1.0], warmup_slots=0)
    assert math.isnan(report.w_mean)
    assert math.isnan(report.w_std)


def test_summary_validates_inputs():
    traces = make_traces(q=[[0, 0]], n=[[1, 1]], waits=[[]])
    with pytest.raises(ValueError):
        summarize(traces, queue_bounds=[1.0], warmup_slots=2)
    with pytest.raises(ValueError):
        summarize(traces, queue_bounds=[1.0, 2.0], warmup_slots=0)


def test_csv_row_matches_column_order():
    report = MetricsReport(
        violation=[0.1],
        p_max=0.1,
        q_mean=1.5,
        q_std=0.5,
        w_mean=2.25,
        w_std=0.75,
        n_mean=12.0,
        horizon_slots=100,
    )
    row = csv_row("static", "bernoulli", report)
    assert len(row) == len(CSV_COLUMNS)
    named = dict(zip(CSV_COLUMNS, row))
    assert named["algorithm"] == "static"
    assert named["pattern"] == "bernoulli"
    assert named["p_max"] == repr(0.1)
    assert named["q_mean"] == repr(1.5)
    assert named["horizon_slots"] == 100
    # repr round-trips the float exactly
    assert float(named["w_mean"]) == 2.25
