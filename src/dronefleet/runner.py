"""Drive a controller against the simulator and collect per-slot traces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simcore
from .controllers import Controller
from .geography import District
from .scheduler import schedule
from .simcore import SimState, apply_allocation_moves, init_sim, observe


@dataclass
class RunTraces:
    q: np.ndarray  # queue length, shape (D, horizon)
    n: np.ndarray  # allocated UAVs, shape (D, horizon)
    waits: list  # per PDC: (arrival_slot, wait) per dispatched package, in dispatch order
    horizon_slots: int


def run_epoch(
    state: SimState, requests: list[int], rng: np.random.Generator, counts: np.ndarray
) -> None:
    """Schedule and apply the fleet moves for `requests`, then step one epoch
    of len(counts) slots in one kernel call. Each slot's arrival and dispatch
    counts go into `counts`, an int64 array of shape (epoch_slots, 2, D)."""
    apply_allocation_moves(state, schedule(state, requests, rng))
    arrived, dispatched = simcore.step_slot(state, len(counts))
    counts[:, 0].flat = arrived
    counts[:, 1].flat = dispatched


def queue_trace(arrivals: np.ndarray, dispatches: np.ndarray, q_start) -> np.ndarray:
    """Per-slot queue lengths, C-contiguous (D, slots), of queues that held
    q_start before the slots of these (D, slots) counts: what each held plus
    its arrivals minus its dispatches. Built in place, so that no
    whole-trace temporary is made."""
    q = np.empty(arrivals.shape, dtype=np.int64)
    np.subtract(arrivals, dispatches, out=q)
    np.cumsum(q, axis=1, out=q)
    q += np.asarray(q_start, dtype=np.int64)[:, None]
    return q


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
    counts = np.empty((horizon, 2, d), dtype=np.int64)
    n_epochs = np.empty((epochs, d), dtype=np.int64)
    fh = open(trace_path, "w", newline="") if trace_path is not None else None
    try:
        for epoch in range(epochs):
            deltas = controller.decide(epoch, observe(state))
            window = slice(epoch * epoch_slots, (epoch + 1) * epoch_slots)
            run_epoch(state, deltas, sched_rng, counts[window])
            # home counts change only between epochs
            n_epochs[epoch] = state.home_counts[1:]

        # (D, horizon) views of the counts; the waits come first, while the
        # least else is held, since pairing them up takes the most memory
        arrivals, dispatches = counts[:, 0].T, counts[:, 1].T
        waits = [fifo_waits(arrivals[i], dispatches[i]) for i in range(d)]
        # q and n are C-contiguous, as summarize's sums expect
        q = queue_trace(arrivals, dispatches, [0] * d)
        if fh is not None:
            _write_trace(fh, q, n_epochs, arrivals, dispatches, epoch_slots)
    finally:
        if fh is not None:
            fh.close()

    n = np.repeat(n_epochs.T, epoch_slots, axis=1)
    return RunTraces(q=q, n=n, waits=waits, horizon_slots=horizon)


# epochs of trace.csv rows formatted at a time; the whole trace at once would
# hold every cell as a Python int
TRACE_BLOCK_EPOCHS = 32


def _write_trace(fh, q, n_epochs, arrivals, dispatches, epoch_slots: int) -> None:
    """Write trace.csv: a header, then t, q_*, n_*, arrivals_* and
    dispatches_* per slot, in the bytes csv.writer gives for these names and
    for plain ints."""
    d = len(q)
    header = ["t"]
    for name in ("q", "n", "arrivals", "dispatches"):
        header += [f"{name}_{pdc}" for pdc in range(1, d + 1)]
    fh.write(",".join(header) + "\r\n")
    cells = ",".join(["%d"] * d)
    row_head, row_tail = f"%d,{cells},", f",{cells},{cells}\r\n"
    for first in range(0, len(n_epochs), TRACE_BLOCK_EPOCHS):
        block = n_epochs[first : first + TRACE_BLOCK_EPOCHS].tolist()
        # n holds over an epoch, so it goes into the epoch's rows' format
        rows = "".join((row_head + ",".join(map(str, n)) + row_tail) * epoch_slots for n in block)
        window = slice(first * epoch_slots, (first + len(block)) * epoch_slots)
        slots = np.arange(window.start, window.stop)[None, :]
        columns = np.concatenate((slots, q[:, window], arrivals[:, window], dispatches[:, window]))
        fh.write(rows % tuple(columns.T.ravel().tolist()))
