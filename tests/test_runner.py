import csv
import io
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from dronefleet.arrivals import ArrivalProcess
from dronefleet.configs import load_experiment_config
from dronefleet.controllers import StaticController
from dronefleet.geography import District, Region, SubRegion
from dronefleet.metrics import fifo_waits, summarize
from dronefleet.runner import queue_trace, run_epoch, run_policy, write_trace
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


class RecordingController:
    def __init__(self):
        self.epochs = []

    def decide(self, epoch, observations):
        self.epochs.append((epoch, tuple(observations)))
        return [0] * len(observations)


def test_horizon_rounds_up_to_whole_epochs():
    traces = run_policy(
        district=tiny_district(),
        processes=procs(),
        controller=StaticController(),
        initial_allocation=[3, 2],
        epoch_slots=60,
        horizon_slots=61,
        seed=0,
    )
    assert traces.arrivals.shape == traces.dispatches.shape == (2, 120)
    assert traces.n.shape == (2, 2)


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
    )
    assert [e for e, _ in ctrl.epochs] == [0, 1, 2]
    # first observation reflects the initial allocation with empty queues
    assert ctrl.epochs[0][1] == ((3, 0), (2, 0))


def test_static_run_keeps_allocation_flat():
    traces = run_policy(
        district=tiny_district(),
        processes=procs(),
        controller=StaticController(),
        initial_allocation=[3, 2],
        epoch_slots=30,
        horizon_slots=300,
        seed=2,
    )
    assert (traces.n[0] == 3).all()
    assert (traces.n[1] == 2).all()


def test_seed_reproducibility_and_sensitivity():
    kwargs = dict(
        district=tiny_district(),
        processes=None,
        controller=StaticController(),
        initial_allocation=[3, 2],
        epoch_slots=30,
        horizon_slots=600,
    )
    a = run_policy(**{**kwargs, "processes": procs()}, seed=7)
    b = run_policy(**{**kwargs, "processes": procs()}, seed=7)
    c = run_policy(**{**kwargs, "processes": procs()}, seed=8)
    assert np.array_equal(a.arrivals, b.arrivals)
    assert np.array_equal(a.dispatches, b.dispatches)
    assert np.array_equal(a.n, b.n)
    assert summarize(a, [2.0, 2.0]) == summarize(b, [2.0, 2.0])
    assert not np.array_equal(a.arrivals, c.arrivals)


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
    )
    write_trace(str(path), traces)
    q = queue_trace(traces.arrivals, traces.dispatches, [0, 0])
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "q_1", "q_2", "n_1", "n_2", "arrivals_1", "arrivals_2", "dispatches_1", "dispatches_2"]
    assert len(rows) == 61
    for slot, row in enumerate(rows[1:]):
        assert int(row[0]) == slot
        assert int(row[1]) == q[0, slot]
        assert int(row[3]) == traces.n[0, slot // 30]


def test_trace_csv_bytes_are_what_csv_writer_writes(tmp_path):
    # the threshold controller moves drones between epochs, so n changes
    cfg = replace(load_experiment_config("mmb"), controller="threshold")
    d = cfg.district.num_pdcs
    path = tmp_path / "trace.csv"
    traces = run_policy(
        cfg.district,
        cfg.make_processes(),
        cfg.build_controller(),
        cfg.initial_allocation,
        cfg.reward.epoch_slots,
        600,
        seed=3,
    )
    write_trace(str(path), traces)
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
    assert np.array_equal(arrived, traces.arrivals)
    assert np.array_equal(dispatched, traces.dispatches)
    assert np.array_equal(n, np.repeat(traces.n, cfg.reward.epoch_slots, axis=1))
    assert (n != n[:, :1]).any()
    assert np.array_equal(q, np.cumsum(arrived - dispatched, axis=1))
    waits = [fifo_waits(a, dsp) for a, dsp in zip(traces.arrivals, traces.dispatches)]
    assert [len(w) for w in waits] == dispatched.sum(axis=1).tolist()


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
        )


def test_run_policy_waits_match_a_per_package_replay(tmp_path):
    path = tmp_path / "trace.csv"
    traces = run_policy(
        district=tiny_district(),
        processes=procs(),
        controller=StaticController(),
        initial_allocation=[1, 1],
        epoch_slots=30,
        horizon_slots=600,
        seed=9,
    )
    write_trace(str(path), traces)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    for pdc in (1, 2):
        waiting, want = deque(), []
        for row in rows:
            t = int(row["t"])
            waiting.extend([t] * int(row[f"arrivals_{pdc}"]))
            for _ in range(int(row[f"dispatches_{pdc}"])):
                born = waiting.popleft()
                want.append([born, t - born])
        assert any(w > 0 for _, w in want)
        arrivals, dispatches = traces.arrivals[pdc - 1], traces.dispatches[pdc - 1]
        # each warmup keeps the waits of the packages that arrived after it
        for warmup in (0, 1, 250, 599):
            kept = [w for born, w in want if born >= warmup]
            assert fifo_waits(arrivals, dispatches, warmup).tolist() == kept


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
def test_run_policy_matches_a_slot_by_slot_twin(controller):
    # run_policy counts each epoch in one kernel call and summarize derives
    # the rest; the twin steps one slot at a time and replays the FIFO
    # queues package by package
    cfg = replace(load_experiment_config("mmb"), controller=controller)
    epoch_slots, d = cfg.reward.epoch_slots, cfg.district.num_pdcs
    traces = run_policy(
        cfg.district,
        cfg.make_processes(),
        cfg.build_controller(),
        cfg.initial_allocation,
        epoch_slots,
        1800,
        seed=3,
    )
    env_ss, sched_ss = np.random.SeedSequence(3).spawn(2)
    sched_rng = np.random.default_rng(sched_ss)
    state = init_sim(cfg.district, cfg.make_processes(), cfg.initial_allocation, env_ss)
    ctrl = cfg.build_controller()
    arrivals, dispatches, q, n = [], [], [], []
    waiting = [deque() for _ in range(d)]
    waits = [[] for _ in range(d)]
    for epoch in range(1800 // epoch_slots):
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
    assert np.array_equal(traces.arrivals, np.array(arrivals).T)
    assert np.array_equal(traces.dispatches, np.array(dispatches).T)
    assert np.array_equal(np.repeat(traces.n, epoch_slots, axis=1), np.array(n).T)
    built = queue_trace(traces.arrivals, traces.dispatches, [0] * d)
    assert np.array_equal(built, np.array(q).T) and built.flags.c_contiguous
    pairs = zip(traces.arrivals, traces.dispatches)
    assert [fifo_waits(a, dsp).tolist() for a, dsp in pairs] == [[w for _, w in x] for x in waits]
    assert len(set(map(tuple, n))) > 1 and max(map(len, waits)) > 100

    # summarize reports what the twin saw
    warmup = 100
    report = summarize(traces, cfg.queue_bounds, warmup)
    q_after = np.array(q)[warmup:]
    kept = np.array([w for per_pdc in waits for born, w in per_pdc if born >= warmup], dtype=float)
    over = (q_after >= np.array(cfg.queue_bounds)).mean(axis=0)
    assert report.violation == over.tolist()
    assert report.q_mean == pytest.approx(q_after.mean(), rel=1e-12)
    assert report.q_std == pytest.approx(q_after.std(), rel=1e-12)
    assert report.w_mean == pytest.approx(kept.mean(), rel=1e-12)
    assert report.w_std == pytest.approx(kept.std(), rel=1e-12)
    assert report.n_mean == pytest.approx(np.array(n)[warmup:].sum(axis=1).mean(), rel=1e-12)
    assert report.horizon_slots == 1800 - warmup
