"""Drive a controller against the simulator and record what the run counted."""

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
    arrivals: np.ndarray  # packages arrived per PDC and slot, shape (D, slots)
    dispatches: np.ndarray  # packages dispatched per PDC and slot, shape (D, slots)
    n: np.ndarray  # UAVs each PDC held per decision epoch, shape (D, epochs)


def run_epoch(
    state: SimState, requests: list[int], rng: np.random.Generator, counts: np.ndarray
) -> None:
    """Schedule and apply the fleet moves for `requests`, then step one epoch
    of len(counts) slots in one kernel call. Each slot's arrival and dispatch
    counts go into `counts`, an int64 array of shape (epoch_slots, 2, D)."""
    apply_allocation_moves(state, schedule(state, requests, rng))
    arrived, dispatched = simcore.step_slot(state, len(counts))
    # through an int64 array: half the time of a list into the strided view
    counts[:, 0] = np.array(arrived, dtype=np.int64).reshape(len(counts), -1)
    counts[:, 1] = np.array(dispatched, dtype=np.int64).reshape(len(counts), -1)


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


def run_policy(
    district: District,
    processes: list,
    controller: Controller,
    initial_allocation: list[int],
    epoch_slots: int,
    horizon_slots: int,
    seed: int | np.random.SeedSequence,
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
    observations = observe(state)
    for epoch in range(epochs):
        deltas = controller.decide(epoch, observations)
        window = slice(epoch * epoch_slots, (epoch + 1) * epoch_slots)
        run_epoch(state, deltas, sched_rng, counts[window])
        observations = observe(state)
        # homes change only between epochs
        n_epochs[epoch] = [n for n, _ in observations]
    return RunTraces(arrivals=counts[:, 0].T, dispatches=counts[:, 1].T, n=n_epochs.T)


# epochs of trace.csv rows formatted at a time; the whole trace at once would
# hold every cell as a Python int
TRACE_BLOCK_EPOCHS = 32


def write_trace(path: str, traces: RunTraces) -> None:
    """Write trace.csv: a header, then t, q_*, n_*, arrivals_* and
    dispatches_* per slot, in the bytes csv.writer gives for these names and
    for plain ints."""
    arrivals, dispatches = traces.arrivals, traces.dispatches
    d = len(arrivals)
    q = queue_trace(arrivals, dispatches, [0] * d)
    n_epochs = traces.n.T
    epoch_slots = arrivals.shape[1] // len(n_epochs)
    header = ["t"]
    for name in ("q", "n", "arrivals", "dispatches"):
        header += [f"{name}_{pdc}" for pdc in range(1, d + 1)]
    cells = ",".join(["%d"] * d)
    row = f"%d,{cells},{{}},{cells},{cells}\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for first in range(0, len(n_epochs), TRACE_BLOCK_EPOCHS):
            block = n_epochs[first : first + TRACE_BLOCK_EPOCHS].tolist()
            # n holds over an epoch, so it goes into the epoch's rows' format
            rows = "".join(row.format(",".join(map(str, n))) * epoch_slots for n in block)
            window = slice(first * epoch_slots, (first + len(block)) * epoch_slots)
            slots = np.arange(window.start, window.stop)[None, :]
            columns = np.concatenate([slots] + [x[:, window] for x in (q, arrivals, dispatches)])
            fh.write(rows % tuple(columns.T.ravel().tolist()))
