import csv
import io
import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from dronefleet.arrivals import ArrivalProcess
from dronefleet.cli import _run_report
from dronefleet.configs import load_experiment_config
from dronefleet.controllers import StaticController
from dronefleet.geography import District, Region, SubRegion
from dronefleet.metrics import Tally, queue_trace, summarize
from dronefleet.runner import TRACE_BLOCK_EPOCHS, run_epoch, run_policy
from dronefleet.scheduler import schedule
from dronefleet.simcore import apply_allocation_moves, init_sim, observe, step_slot


def tiny_district():
    region = Region(
        pdc_location=(0.0, 0.0),
        subregions=(SubRegion((-300.0, -300.0), (300.0, 300.0), 1.0),),
    )
    other = Region(
        pdc_location=(1500.0, 0.0),
        subregions=(SubRegion((1200.0, -300.0), (1800.0, 300.0), 1.0),),
    )
    return District(
        regions=(region, other), port_location=(750.0, 0.0), total_uavs=6, speed_kph=18.0
    )


def procs():
    return [
        ArrivalProcess(truck_interval=10, batch_mean=2, batch_half_width=1, p_high=0.5)
        for _ in range(2)
    ]


def read_trace(path):
    """trace.csv as arrays: t, then the (D, slots) q, n, arrivals and
    dispatches columns."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    cells = np.array(rows, dtype=np.int64).T
    d = (len(header) - 1) // 4
    return cells[0], *cells[1:].reshape(4, d, -1)


def moments(waits) -> tuple[int, int, int]:
    """Count, sum and sum of squares of some waits."""
    return len(waits), sum(waits), sum(w * w for w in waits)


def epoch_replay(cfg, horizon, seed):
    """The whole record of a run_policy run: run_epoch over every epoch from
    the same seeds, into (D, slots) arrivals and dispatches and the
    (D, epochs) drones each center held."""
    env_ss, sched_ss = np.random.SeedSequence(seed).spawn(2)
    sched_rng = np.random.default_rng(sched_ss)
    state = init_sim(cfg.district, cfg.make_processes(), cfg.initial_allocation, env_ss)
    ctrl = cfg.build_controller()
    epoch_slots, d = cfg.reward.epoch_slots, cfg.district.num_pdcs
    counts, n = [], []
    for epoch in range(horizon // epoch_slots):
        block = np.empty((epoch_slots, 2, d), dtype=np.int64)
        run_epoch(state, ctrl.decide(epoch, observe(state)), sched_rng, block)
        counts.append(block)
        n.append([held for held, _ in observe(state)])
    counts = np.concatenate(counts)
    return counts[:, 0].T, counts[:, 1].T, np.array(n).T


class RecordingController:
    def __init__(self):
        self.epochs = []

    def decide(self, epoch, observations):
        self.epochs.append((epoch, tuple(observations)))
        return [0] * len(observations)


def test_horizon_rounds_up_to_whole_epochs(tmp_path):
    path = tmp_path / "trace.csv"
    tally = run_policy(
        district=tiny_district(),
        processes=procs(),
        controller=StaticController(),
        initial_allocation=[3, 2],
        epoch_slots=60,
        horizon_slots=61,
        seed=0,
        queue_bounds=[2.0, 2.0],
        trace_path=str(path),
    )
    assert tally.slots == summarize(tally).horizon_slots == 120
    t, _, n, arrivals, dispatches = read_trace(path)
    assert arrivals.shape == dispatches.shape == (2, 120)
    assert np.array_equal(t, np.arange(120))
    # one fleet per epoch, held over its slots
    assert n[:, ::60].shape == (2, 2)
    assert np.array_equal(n, np.repeat(n[:, ::60], 60, axis=1))


def test_controller_consulted_once_per_epoch():
    ctrl = RecordingController()
    run_policy(
        district=tiny_district(),
        processes=procs(),
        controller=ctrl,
        initial_allocation=[3, 2],
        epoch_slots=30,
        horizon_slots=90,
        seed=1,
        queue_bounds=[2.0, 2.0],
    )
    assert [e for e, _ in ctrl.epochs] == [0, 1, 2]
    # first observation reflects the initial allocation with empty queues
    assert ctrl.epochs[0][1] == ((3, 0), (2, 0))


def test_static_run_keeps_allocation_flat(tmp_path):
    path = tmp_path / "trace.csv"
    tally = run_policy(
        district=tiny_district(),
        processes=procs(),
        controller=StaticController(),
        initial_allocation=[3, 2],
        epoch_slots=30,
        horizon_slots=300,
        seed=2,
        queue_bounds=[2.0, 2.0],
        trace_path=str(path),
    )
    n = read_trace(path)[2]
    assert (n[0] == 3).all()
    assert (n[1] == 2).all()
    assert summarize(tally).n_mean == 5.0


def test_seed_reproducibility_and_sensitivity(tmp_path):
    kwargs = dict(
        district=tiny_district(),
        controller=StaticController(),
        initial_allocation=[3, 2],
        epoch_slots=30,
        horizon_slots=600,
        queue_bounds=[2.0, 2.0],
    )
    reports, traces = {}, {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        path = str(tmp_path / f"{name}.csv")
        reports[name] = summarize(run_policy(**kwargs, processes=procs(), seed=seed, trace_path=path))
        _, _, n, arrivals, dispatches = read_trace(path)
        traces[name] = {"n": n, "arrivals": arrivals, "dispatches": dispatches}
    a, b, c = traces["a"], traces["b"], traces["c"]
    assert np.array_equal(a["arrivals"], b["arrivals"])
    assert np.array_equal(a["dispatches"], b["dispatches"])
    assert np.array_equal(a["n"], b["n"])
    assert reports["a"] == reports["b"]
    assert not np.array_equal(a["arrivals"], c["arrivals"])


def test_trace_csv_layout(tmp_path):
    path = tmp_path / "trace.csv"
    traces = run_policy(
        district=tiny_district(),
        processes=procs(),
        controller=StaticController(),
        initial_allocation=[3, 2],
        epoch_slots=30,
        horizon_slots=60,
        seed=3,
        queue_bounds=[2.0, 2.0],
        trace_path=str(path),
    )
    _, _, _, arrivals, dispatches = read_trace(path)
    q = queue_trace(arrivals, dispatches, [0, 0])
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "q_1", "q_2", "n_1", "n_2", "arrivals_1", "arrivals_2", "dispatches_1", "dispatches_2"]
    assert len(rows) == 61
    for slot, row in enumerate(rows[1:]):
        assert int(row[0]) == slot
        assert int(row[1]) == q[0, slot]
        assert int(row[3]) == 3  # the static split's first center


def test_trace_csv_bytes_are_what_csv_writer_writes(tmp_path):
    # the threshold controller moves drones between epochs, so n changes
    cfg = replace(load_experiment_config("mmb"), controller="threshold")
    d = cfg.district.num_pdcs
    path = tmp_path / "trace.csv"
    tally = run_policy(
        cfg.district,
        cfg.make_processes(),
        cfg.build_controller(),
        cfg.initial_allocation,
        cfg.reward.epoch_slots,
        600,
        seed=3,
        queue_bounds=cfg.queue_bounds,
        trace_path=str(path),
    )
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    rows = [[int(cell) for cell in row] for row in rows]
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(header)
    writer.writerows(rows)
    assert path.read_bytes() == want.getvalue().encode()

    cells = np.array(rows).T
    assert np.array_equal(cells[0], np.arange(600))
    q, n, arrived, dispatched = cells[1:].reshape(4, d, 600)
    want_arrivals, want_dispatches, want_n = epoch_replay(cfg, 600, seed=3)
    assert np.array_equal(arrived, want_arrivals)
    assert np.array_equal(dispatched, want_dispatches)
    assert np.array_equal(n, np.repeat(want_n, cfg.reward.epoch_slots, axis=1))
    assert (n != n[:, :1]).any()
    assert np.array_equal(q, np.cumsum(arrived - dispatched, axis=1))
    # every dispatch paired with its arrival: the queued rest is the last q
    assert tally.w_count == dispatched.sum()
    assert [len(w) for w in tally.waiting] == q[:, -1].tolist()


def test_rejects_bad_horizon():
    with pytest.raises(ValueError):
        run_policy(
            district=tiny_district(),
            processes=procs(),
            controller=StaticController(),
            initial_allocation=[3, 2],
            epoch_slots=0,
            horizon_slots=10,
            seed=0,
            queue_bounds=[2.0, 2.0],
        )


def test_run_policy_waits_match_a_per_package_replay(tmp_path):
    # 15-slot epochs, so that the 600 slots are one whole block of
    # TRACE_BLOCK_EPOCHS epochs and a cut-short one
    kwargs = dict(
        district=tiny_district(),
        controller=StaticController(),
        initial_allocation=[1, 1],
        epoch_slots=15,
        horizon_slots=600,
        seed=9,
        queue_bounds=[2.0, 2.0],
    )
    assert 600 // 15 > TRACE_BLOCK_EPOCHS
    path = tmp_path / "trace.csv"
    run_policy(**kwargs, processes=procs(), trace_path=str(path))
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    _, _, n, arrivals, dispatches = read_trace(path)
    wants = []
    for pdc in (1, 2):
        waiting, want = deque(), []
        for row in rows:
            t = int(row["t"])
            waiting.extend([t] * int(row[f"arrivals_{pdc}"]))
            for _ in range(int(row[f"dispatches_{pdc}"])):
                born = waiting.popleft()
                want.append([born, t - born])
        assert any(w > 0 for _, w in want)
        wants.append(want)
    # each warmup keeps the waits of the packages that arrived after it:
    # per center, folding its own counts, and pooled, in the run's tally
    for warmup in (0, 1, 250, 599):
        for pdc, want in enumerate(wants):
            kept = [w for born, w in want if born >= warmup]
            tally = Tally([2.0], warmup)
            tally.fold(arrivals[pdc : pdc + 1], dispatches[pdc : pdc + 1], n[pdc : pdc + 1, ::15].T)
            assert (tally.w_count, tally.w_sum, tally.w_squares) == moments(kept)
        pooled = [w for want in wants for born, w in want if born >= warmup]
        tally = run_policy(**kwargs, processes=procs(), warmup_slots=warmup)
        assert (tally.w_count, tally.w_sum, tally.w_squares) == moments(pooled)


def test_run_epoch_counts_and_static_moves():
    district = tiny_district()
    state = init_sim(district, procs(), [3, 2], np.random.SeedSequence(4))
    counts = np.empty((30, 2, 2), dtype=np.int64)
    run_epoch(state, [0, 0], np.random.default_rng(0), counts)
    arrived, dispatched = counts[:, 0].T, counts[:, 1].T
    q = queue_trace(arrived, dispatched, [0, 0])
    assert q.shape == arrived.shape == dispatched.shape == (2, 30)
    assert state.t == 30
    # queue balance within the epoch
    assert np.array_equal(q, np.cumsum(arrived - dispatched, axis=1))
    assert np.bincount(state.home).tolist() == [1, 3, 2]


def test_run_epoch_matches_a_slot_by_slot_twin():
    # a busy Markov-modulated PDC and a Bernoulli one, served by few drones,
    # so that the later epochs start with packages queued
    def busy_procs():
        return [
            ArrivalProcess(
                truck_interval=10,
                batch_mean=6,
                batch_half_width=2,
                p_high=0.9,
                p_low=0.3,
                rule="markov",
                p_high_to_low=0.05,
                p_low_to_high=0.05,
            ),
            ArrivalProcess(truck_interval=10, batch_mean=8, batch_half_width=2, p_high=0.8),
        ]

    district = tiny_district()
    state = init_sim(district, busy_procs(), [1, 1], np.random.SeedSequence(11))
    twin = init_sim(district, busy_procs(), [1, 1], np.random.SeedSequence(11))
    for epoch, requests in enumerate([[0, 0], [1, -1], [-1, 1], [0, 0]]):
        q_start = [len(queue) for queue in state.queues]
        counts = np.empty((30, 2, 2), dtype=np.int64)
        run_epoch(state, requests, np.random.default_rng(epoch), counts)
        arrived, dispatched = counts[:, 0].T, counts[:, 1].T
        q = queue_trace(arrived, dispatched, q_start)
        moves = schedule(twin, requests, np.random.default_rng(epoch))
        apply_allocation_moves(twin, moves)
        if epoch:
            assert any(twin.queues)  # the epoch starts from queued packages
        rows = []
        for _ in range(30):
            a, dsp = step_slot(twin)
            rows.append((a, dsp, [len(queue) for queue in twin.queues]))
        want_a, want_d, want_q = (np.array(col).T for col in zip(*rows))
        assert np.array_equal(arrived, want_a)
        assert np.array_equal(dispatched, want_d)
        assert np.array_equal(q, want_q)
        assert q.dtype == arrived.dtype == dispatched.dtype == np.int64
    assert state.t == twin.t == 120


@pytest.mark.parametrize("controller", ["static", "threshold", "ql"])
@pytest.mark.parametrize("fleet", [40, 60, 70])
def test_fleet_size_holds_through_every_epoch(controller, fleet):
    cfg = load_experiment_config(
        "mmb", controller=controller, total_uavs=fleet, initial_allocation="static"
    )
    ctrl = cfg.build_controller()
    state = init_sim(
        cfg.district, cfg.make_processes(), cfg.initial_allocation, np.random.SeedSequence(5)
    )
    rng = np.random.default_rng(6)
    d = cfg.district.num_pdcs
    assert len(state.home) == fleet
    for epoch in range(20):
        counts = np.empty((cfg.reward.epoch_slots, 2, d), dtype=np.int64)
        run_epoch(state, ctrl.decide(epoch, observe(state)), rng, counts)
        assert len(state.home) == fleet
        assert sum(n for n, _ in observe(state)) + state.home.count(0) == fleet


@pytest.mark.parametrize("controller", ["threshold", "ql"])
def test_run_policy_matches_a_slot_by_slot_twin(controller, tmp_path):
    # run_policy counts each epoch in one kernel call and folds each block
    # of epochs into its tally; the twin steps one slot at a time and
    # replays the FIFO queues package by package. 70 epochs are two whole
    # blocks and a cut-short one
    cfg = replace(load_experiment_config("mmb"), controller=controller)
    epoch_slots, d = cfg.reward.epoch_slots, cfg.district.num_pdcs
    horizon, warmup = 70 * epoch_slots, 100
    assert 2 * TRACE_BLOCK_EPOCHS < 70 < 3 * TRACE_BLOCK_EPOCHS
    path = tmp_path / "trace.csv"
    tally = run_policy(
        cfg.district,
        cfg.make_processes(),
        cfg.build_controller(),
        cfg.initial_allocation,
        epoch_slots,
        horizon,
        seed=3,
        queue_bounds=cfg.queue_bounds,
        warmup_slots=warmup,
        trace_path=str(path),
    )
    env_ss, sched_ss = np.random.SeedSequence(3).spawn(2)
    sched_rng = np.random.default_rng(sched_ss)
    state = init_sim(cfg.district, cfg.make_processes(), cfg.initial_allocation, env_ss)
    ctrl = cfg.build_controller()
    arrivals, dispatches, q, n = [], [], [], []
    waiting = [deque() for _ in range(d)]
    waits = [[] for _ in range(d)]
    for epoch in range(horizon // epoch_slots):
        requests = ctrl.decide(epoch, observe(state))
        apply_allocation_moves(state, schedule(state, requests, sched_rng))
        for _ in range(epoch_slots):
            t = state.t
            arrived, dispatched = step_slot(state)
            arrivals.append(arrived)
            dispatches.append(dispatched)
            for i in range(d):
                waiting[i].extend([t] * arrived[i])
                for _ in range(dispatched[i]):
                    born = waiting[i].popleft()
                    waits[i].append([born, t - born])
            q.append([len(queue) for queue in state.queues])
            n.append([count for count, _ in observe(state)])
    _, traced_q, traced_n, traced_arrivals, traced_dispatches = read_trace(path)
    assert np.array_equal(traced_arrivals, np.array(arrivals).T)
    assert np.array_equal(traced_dispatches, np.array(dispatches).T)
    assert np.array_equal(traced_n, np.array(n).T)
    built = queue_trace(traced_arrivals, traced_dispatches, [0] * d)
    assert np.array_equal(built, np.array(q).T) and built.flags.c_contiguous
    assert np.array_equal(traced_q, built)
    # per center, its counts folded block by block pair as the twin's queue did
    for i in range(d):
        per_center = Tally(cfg.queue_bounds[i : i + 1])
        for first in range(0, horizon, TRACE_BLOCK_EPOCHS * epoch_slots):
            block = slice(first, first + TRACE_BLOCK_EPOCHS * epoch_slots)
            per_center.fold(
                traced_arrivals[i : i + 1, block],
                traced_dispatches[i : i + 1, block],
                traced_n[i : i + 1, block][:, ::epoch_slots].T,
            )
        got = (per_center.w_count, per_center.w_sum, per_center.w_squares)
        assert got == moments([w for _, w in waits[i]])
        assert per_center.waiting[0].tolist() == list(waiting[i])
    # the queues still hold packages at a block's end
    block_ends = np.array(q)[TRACE_BLOCK_EPOCHS * epoch_slots - 1 :: TRACE_BLOCK_EPOCHS * epoch_slots]
    assert block_ends.any()
    assert len(set(map(tuple, n))) > 1 and max(map(len, waits)) > 100

    # summarize reports what the twin saw
    report = summarize(tally)
    q_after = np.array(q)[warmup:]
    kept = [w for per_pdc in waits for born, w in per_pdc if born >= warmup]
    assert (tally.w_count, tally.w_sum, tally.w_squares) == moments(kept)
    kept = np.array(kept, dtype=float)
    over = (q_after >= np.array(cfg.queue_bounds)).mean(axis=0)
    assert report.violation == over.tolist()
    assert report.q_mean == pytest.approx(q_after.mean(), rel=1e-12)
    assert report.q_std == pytest.approx(q_after.std(), rel=1e-12)
    assert report.w_mean == pytest.approx(kept.mean(), rel=1e-12)
    assert report.w_std == pytest.approx(kept.std(), rel=1e-12)
    assert report.n_mean == pytest.approx(np.array(n)[warmup:].sum(axis=1).mean(), rel=1e-12)
    assert report.horizon_slots == horizon - warmup


def test_cell_memory_does_not_grow_with_horizon():
    # what a cell holds per slot lives for one block: a tenfold horizon
    # raises the peak of traced allocations by less than 1 MB
    cfg = replace(load_experiment_config("bernoulli"), controller="threshold")
    _run_report(replace(cfg, horizon_slots=2000), None)  # what a first run sets up once
    peaks = []
    for horizon in (20_000, 200_000):
        cell = replace(cfg, horizon_slots=horizon)
        tracemalloc.start()
        try:
            report = _run_report(cell, None)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.horizon_slots >= horizon - cfg.warmup_slots
    assert peaks[1] - peaks[0] < 2**20, peaks
