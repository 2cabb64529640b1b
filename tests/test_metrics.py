import math

import numpy as np
import pytest

from dronefleet.metrics import (
    CSV_COLUMNS,
    MetricsReport,
    csv_row,
    fifo_waits,
    slots_over,
    summarize,
)
from dronefleet.runner import RunTraces


def make_traces(arrivals, dispatches, n):
    return RunTraces(
        arrivals=np.asarray(arrivals, dtype=np.int64).reshape(len(arrivals), -1),
        dispatches=np.asarray(dispatches, dtype=np.int64).reshape(len(dispatches), -1),
        n=np.asarray(n, dtype=np.int64).reshape(len(n), -1),
    )


def test_violation_probability_is_inclusive():
    # q runs 79, 80, 81
    traces = make_traces(arrivals=[[79, 1, 1]], dispatches=[[0, 0, 0]], n=[[1]])
    assert summarize(traces, queue_bounds=[80.0]).violation == [pytest.approx(2 / 3)]
    assert slots_over(np.array([[79, 80, 81]]), [80.0]).tolist() == [2]
    assert slots_over(np.array([[0, 0]]), [1.0]).tolist() == [0]
    assert slots_over(np.array([[3, 4, 5], [3, 4, 5]]), [4.0, 5.0]).tolist() == [2, 1]
    # a run without slots has no violation probability
    with pytest.raises(ValueError):
        summarize(make_traces([[]], [[]], [[]]), queue_bounds=[1.0])


def test_fifo_waits_pair_arrivals_with_dispatches_in_order():
    # three packages land at t=0; two leave at once, the third at t=7
    arrivals = np.array([3, 0, 0, 0, 0, 0, 0, 0, 1])
    dispatches = np.array([2, 0, 0, 0, 0, 0, 0, 1, 0])
    assert fifo_waits(arrivals, dispatches).tolist() == [0, 0, 7]
    # the t=8 package is still queued, so no wait counts from t=1 on
    assert fifo_waits(arrivals, dispatches, warmup_slots=1).tolist() == []


def test_summary_hand_computed():
    # 2 PDCs, 3 one-slot epochs; all statistics chosen to be exact by hand
    traces = make_traces(
        arrivals=[[4, 4, 0], [4, 4, 4]],
        dispatches=[[4, 0, 4], [0, 8, 0]],
        n=[[2, 2, 2], [1, 1, 3]],
    )
    report = summarize(traces, queue_bounds=[4.0, 4.0], warmup_slots=0)
    # q is [[0, 4, 0], [4, 0, 4]]; q == bound counts as a violation
    assert report.violation == [pytest.approx(1 / 3), pytest.approx(2 / 3)]
    assert report.p_max == pytest.approx(2 / 3)
    assert report.q_mean == 2.0          # 12 packages over 6 samples
    assert report.q_std == 2.0           # every sample sits 2 away from the mean
    assert report.w_mean == 0.5          # eight waits of 0 and eight of 1
    assert report.w_std == 0.5
    assert report.n_mean == pytest.approx(11 / 3)  # totals 3, 3, 5
    assert report.horizon_slots == 3


def test_summary_applies_warmup_to_waits_by_arrival_slot():
    # one package lands at t=0 and leaves at t=9; two more land at t=8 and
    # t=9 and leave one slot later each
    arrivals = [[1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0]]
    dispatches = [[0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1]]
    traces = make_traces(arrivals, dispatches, n=[[5]])
    assert summarize(traces, queue_bounds=[5.0]).w_mean == 11 / 3
    report = summarize(traces, queue_bounds=[5.0], warmup_slots=1)
    # the slot-0 arrival (and its wait of 9) is excluded
    assert report.w_mean == 1.0
    assert report.violation == [0.0]
    assert report.horizon_slots == 10


def test_summary_holds_each_epoch_fleet_over_its_slots():
    # two epochs of two slots; the warmup ends inside the first
    traces = make_traces([[0, 0, 0, 0], [0] * 4], [[0, 0, 0, 0], [0] * 4], n=[[1, 3], [0, 1]])
    report = summarize(traces, queue_bounds=[1.0, 1.0], warmup_slots=1)
    assert report.n_mean == 3.0  # totals 1, 4, 4


def test_summary_with_no_waits_is_nan():
    traces = make_traces(arrivals=[[0, 0]], dispatches=[[0, 0]], n=[[1]])
    report = summarize(traces, queue_bounds=[1.0], warmup_slots=0)
    assert math.isnan(report.w_mean)
    assert math.isnan(report.w_std)


def test_summary_validates_inputs():
    traces = make_traces(arrivals=[[0, 0]], dispatches=[[0, 0]], n=[[1]])
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
