"""Drive a controller against the simulator and collect per-slot traces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controllers import Controller
from .geography import District
from .scheduler import schedule
from .simcore import SimState, apply_allocation_moves, init_sim, observe, step_slot


@dataclass
class RunTraces:
    q: np.ndarray  # queue length, shape (D, horizon)
    n: np.ndarray  # allocated UAVs, shape (D, horizon)
    waits: list  # per PDC: (arrival_slot, wait) per dispatched package, in dispatch order
    horizon_slots: int


def run_epoch(
    state: SimState, requests: list[int], rng: np.random.Generator, epoch_slots: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schedule and apply the fleet moves for `requests`, then step one epoch.

    Returns the epoch's per-slot queue lengths, arrival counts and dispatch
    counts, each of shape (D, epoch_slots).
    """
    apply_allocation_moves(state, schedule(state, requests, rng))
    q_start = np.array([len(queue) for queue in state.queues], dtype=np.int64)
    # each slot's arrival then dispatch counts, in one flat list
    flat: list[int] = []
    for _ in range(epoch_slots):
        arrived, dispatched = step_slot(state)
        flat += arrived
        flat += dispatched
    steps = np.array(flat, dtype=np.int64).reshape(epoch_slots, 2, len(q_start))
    arrivals, dispatches = steps.transpose(1, 2, 0)  # each (D, epoch_slots)
    # queue balance: the queue is what it held plus arrivals minus dispatches
    q = q_start[:, None] + np.cumsum(arrivals - dispatches, axis=1)
    return q, arrivals, dispatches


def fifo_waits(arrivals: np.ndarray, dispatches: np.ndarray) -> np.ndarray:
    """(arrival_slot, wait) rows, in dispatch order, for one FIFO queue's
    per-slot arrival and dispatch counts."""
    slots = np.arange(len(arrivals))
    born = np.repeat(slots, arrivals)
    left = np.repeat(slots, dispatches)
    born = born[: len(left)]
    return np.column_stack((born, left - born))


def run_policy(
    district: District,
    processes: list,
    controller: Controller,
    initial_allocation: list[int],
    epoch_slots: int,
    horizon_slots: int,
    seed: int | np.random.SeedSequence,
    trace_path: str | None = None,
) -> RunTraces:
    """Run one fixed-policy episode of at least horizon_slots.

    The controller is consulted every epoch_slots slots; the horizon is
    rounded up to whole epochs.
    """
    if epoch_slots < 1 or horizon_slots < 1:
        raise ValueError("epoch and horizon must be positive")
    master = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    env_ss, sched_ss = master.spawn(2)
    sched_rng = np.random.default_rng(sched_ss)
    state = init_sim(district, processes, initial_allocation, env_ss)

    d = district.num_pdcs
    epochs = -(-horizon_slots // epoch_slots)
    horizon = epochs * epoch_slots
    q_trace = np.zeros((d, horizon), dtype=np.int64)
    n_trace = np.zeros((d, horizon), dtype=np.int64)
    arrival_trace = np.zeros((d, horizon), dtype=np.int64)
    dispatch_trace = np.zeros((d, horizon), dtype=np.int64)

    fh = None
    if trace_path is not None:
        fh = open(trace_path, "w", newline="")
        header = ["t"]
        for name in ("q", "n", "arrivals", "dispatches"):
            header += [f"{name}_{pdc}" for pdc in range(1, d + 1)]
        # the bytes csv.writer gives for these names and for plain ints; the
        # rows are formatted an epoch at a time, since the whole trace at once
        # would hold every cell as a Python int
        fh.write(",".join(header) + "\r\n")
        counts = ",".join(["%d"] * d)
        row_head, row_tail = f"%d,{counts},", f",{counts},{counts}\r\n"

    try:
        for epoch in range(epochs):
            obs = [observe(state, pdc) for pdc in range(1, d + 1)]
            deltas = controller.decide(epoch, obs)
            q, arrived, dispatched = run_epoch(state, deltas, sched_rng, epoch_slots)
            # home counts change only between epochs
            n = state.home_counts[1:, None]
            window = slice(epoch * epoch_slots, (epoch + 1) * epoch_slots)
            q_trace[:, window] = q
            n_trace[:, window] = n
            arrival_trace[:, window] = arrived
            dispatch_trace[:, window] = dispatched
            if fh is not None:
                # n holds over the epoch, so it goes into the rows' format
                rows = (row_head + ",".join(map(str, n[:, 0].tolist())) + row_tail) * epoch_slots
                slots = np.arange(window.start, window.stop)[None, :]
                block = np.concatenate((slots, q, arrived, dispatched))
                fh.write(rows % tuple(block.T.ravel().tolist()))
    finally:
        if fh is not None:
            fh.close()

    waits = [fifo_waits(arrival_trace[i], dispatch_trace[i]) for i in range(d)]
    return RunTraces(q=q_trace, n=n_trace, waits=waits, horizon_slots=horizon)
