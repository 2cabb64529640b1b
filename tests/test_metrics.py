import math
from fractions import Fraction

import numpy as np
import pytest

from dronefleet import metrics
from dronefleet.metrics import (
    CSV_COLUMNS,
    MetricsReport,
    Tally,
    csv_row,
    slots_over,
    summarize,
)

from oracles import whole_array_report


def as_counts(rows):
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), -1)


def fold_whole(arrivals, dispatches, n, queue_bounds, warmup_slots=0) -> Tally:
    """The tally of one block: (D, slots) counts and the (D, epochs) drones
    each center held."""
    tally = Tally(queue_bounds, warmup_slots)
    tally.fold(as_counts(arrivals), as_counts(dispatches), as_counts(n).T)
    return tally


def test_violation_probability_is_inclusive():
    # q runs 79, 80, 81
    tally = fold_whole(arrivals=[[79, 1, 1]], dispatches=[[0, 0, 0]], n=[[1]], queue_bounds=[80.0])
    assert summarize(tally).violation == [pytest.approx(2 / 3)]
    assert slots_over(np.array([[79, 80, 81]]), [80.0]).tolist() == [2]
    assert slots_over(np.array([[0, 0]]), [1.0]).tolist() == [0]
    assert slots_over(np.array([[3, 4, 5], [3, 4, 5]]), [4.0, 5.0]).tolist() == [2, 1]
    # a run without slots has no violation probability
    with pytest.raises(ValueError):
        summarize(Tally(queue_bounds=[1.0]))


def test_fifo_waits_pair_arrivals_with_dispatches_in_order():
    # three packages land at t=0; two leave at once, the third at t=7
    arrivals = [[3, 0, 0, 0, 0, 0, 0, 0, 1]]
    dispatches = [[2, 0, 0, 0, 0, 0, 0, 1, 0]]
    tally = fold_whole(arrivals, dispatches, [[1]], [5.0])
    # the waits are 0, 0 and 7
    assert (tally.w_count, tally.w_sum, tally.w_squares) == (3, 7, 49)
    # the t=8 package is still queued, so no wait counts from t=1 on
    tally = fold_whole(arrivals, dispatches, [[1]], [5.0], warmup_slots=1)
    assert (tally.w_count, tally.w_sum, tally.w_squares) == (0, 0, 0)
    assert [w.tolist() for w in tally.waiting] == [[8]]


def test_summary_hand_computed():
    # 2 PDCs, 3 one-slot epochs; all statistics chosen to be exact by hand
    tally = fold_whole(
        arrivals=[[4, 4, 0], [4, 4, 4]],
        dispatches=[[4, 0, 4], [0, 8, 0]],
        n=[[2, 2, 2], [1, 1, 3]],
        queue_bounds=[4.0, 4.0],
    )
    report = summarize(tally)
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
    assert summarize(fold_whole(arrivals, dispatches, [[5]], [5.0])).w_mean == 11 / 3
    report = summarize(fold_whole(arrivals, dispatches, [[5]], [5.0], warmup_slots=1))
    # the slot-0 arrival (and its wait of 9) is excluded
    assert report.w_mean == 1.0
    assert report.violation == [0.0]
    assert report.horizon_slots == 10


def test_summary_holds_each_epoch_fleet_over_its_slots():
    # two epochs of two slots; the warmup ends inside the first
    zeros = [[0, 0, 0, 0], [0] * 4]
    report = summarize(fold_whole(zeros, zeros, [[1, 3], [0, 1]], [1.0, 1.0], warmup_slots=1))
    assert report.n_mean == 3.0  # totals 1, 4, 4


def test_summary_with_no_waits_is_nan():
    report = summarize(fold_whole(arrivals=[[0, 0]], dispatches=[[0, 0]], n=[[1]], queue_bounds=[1.0]))
    assert math.isnan(report.w_mean)
    assert math.isnan(report.w_std)


def test_summary_validates_inputs():
    with pytest.raises(ValueError):
        summarize(fold_whole([[0, 0]], [[0, 0]], [[1]], queue_bounds=[1.0], warmup_slots=2))
    with pytest.raises(ValueError):
        fold_whole([[0, 0]], [[0, 0]], [[1]], queue_bounds=[1.0, 2.0])
    with pytest.raises(ValueError):
        Tally(queue_bounds=[1.0], warmup_slots=-1)


def exact_std(samples) -> float:
    """The population standard deviation of integer samples: the variance
    as a Fraction, rounded once to a float, then its square root."""
    values = [int(v) for v in np.ravel(samples)]
    count = len(values)
    variance = Fraction(count * sum(v * v for v in values) - sum(values) ** 2, count * count)
    return math.sqrt(float(variance))


def random_counts(rng, d, slots):
    """Arrival and dispatch counts a FIFO center can give: a slot dispatches
    at most what it holds once its trucks have landed, and some stretches of
    slots dispatch nothing."""
    arrivals = rng.integers(0, 6, size=(d, slots)) * (rng.random((d, slots)) < 0.4)
    stalled = rng.random(slots) < 0.2
    dispatches = np.zeros((d, slots), dtype=np.int64)
    queued = np.zeros(d, dtype=np.int64)
    for t in range(slots):
        queued += arrivals[:, t]
        if not stalled[t]:
            dispatches[:, t] = rng.integers(0, queued + 1)
        queued -= dispatches[:, t]
    return arrivals.astype(np.int64), dispatches


def test_fold_in_blocks_matches_a_whole_array_reference():
    rng = np.random.default_rng(2026)
    seen = set()
    for _ in range(300):
        d = int(rng.integers(1, 5))
        epoch_slots = int(rng.integers(1, 8))
        epochs = int(rng.integers(1, 13))
        slots = epochs * epoch_slots
        arrivals, dispatches = random_counts(rng, d, slots)
        n = rng.integers(0, 30, size=(d, epochs))
        bounds = rng.integers(1, 12, size=d).astype(float).tolist()
        warmup = int(rng.integers(0, slots))
        # split the epochs into blocks at random cut points
        cuts = sorted(rng.choice(np.arange(1, epochs), size=rng.integers(0, epochs), replace=False))
        edges = [0, *map(int, cuts), epochs]
        want = whole_array_report(arrivals, dispatches, n, bounds, warmup)
        full_q = np.cumsum(arrivals - dispatches, axis=1)

        tally = Tally(bounds, warmup)
        for first, end in zip(edges[:-1], edges[1:]):
            window = slice(first * epoch_slots, end * epoch_slots)
            q = tally.fold(arrivals[:, window], dispatches[:, window], n[:, first:end].T)
            assert np.array_equal(q, full_q[:, window])
            assert [len(w) for w in tally.waiting] == full_q[:, window.stop - 1].tolist()
            if window.start < warmup < window.stop:
                seen.add("warmup inside a block")
            if not dispatches[:, window].any():
                seen.add("a block with no dispatches")
            if full_q[:, window.stop - 1].any() and dispatches[:, window.stop :].any():
                seen.add("packages queued across a block end")
        if warmup % epoch_slots:
            seen.add("warmup inside an epoch")
        widths = np.diff(edges)
        if len(widths) > 1 and widths[-1] < widths.max():
            seen.add("a last block cut short")

        report = summarize(tally)
        for field in ("violation", "p_max", "q_mean", "n_mean", "horizon_slots"):
            assert getattr(report, field) == want[field], field
        assert report.q_std == exact_std(want["q"])
        assert abs(report.q_std - want["q_std"]) <= 2 * math.ulp(want["q_std"])
        if want["waits"].size:
            assert report.w_mean == want["w_mean"]
            assert report.w_std == exact_std(want["waits"])
            assert abs(report.w_std - want["w_std"]) <= 2 * math.ulp(want["w_std"])
            seen.add("waits")
        else:
            assert math.isnan(report.w_mean) and math.isnan(report.w_std)
    assert seen == {
        "warmup inside a block",
        "warmup inside an epoch",
        "a block with no dispatches",
        "packages queued across a block end",
        "a last block cut short",
        "waits",
    }


def test_sums_stay_exact_past_int64_squares():
    # queues of about 6.4e9 packages: each square is past 2**63, so int64
    # sums of squares would wrap
    big = 3 * 2**31
    q = np.array([[big, big - 1, big + 5], [big + 2, 0, 7]], dtype=np.int64)
    for samples in (q, q[:, 1:]):  # a strided view as well
        values = samples.ravel().tolist()
        assert metrics._sums(samples) == (sum(values), sum(v * v for v in values))
    # within int64, numpy's sums
    small = np.array([3, 0, 4], dtype=np.int64)
    assert metrics._sums(small) == (7, 25)
    assert metrics._sums(small[:0]) == (0, 0)


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
