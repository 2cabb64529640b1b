"""Drive a controller against the simulator and tally what the run counted."""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from . import simcore
from .controllers import Controller
from .geography import District
from .metrics import Tally
from .scheduler import schedule
from .simcore import SimState, apply_allocation_moves, init_sim, observe


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


# epochs counted, folded and written to trace.csv at a time: what a run holds
# per slot lives no longer than its block
TRACE_BLOCK_EPOCHS = 32


def run_policy(
    district: District,
    processes: list,
    controller: Controller,
    initial_allocation: list[int],
    epoch_slots: int,
    horizon_slots: int,
    seed: int | np.random.SeedSequence,
    queue_bounds: list[float],
    warmup_slots: int = 0,
    trace_path: str | None = None,
) -> Tally:
    """Run one fixed-policy episode of at least horizon_slots and return its
    tally of the slots from warmup_slots on.

    The controller is consulted every epoch_slots slots; the horizon is
    rounded up to whole epochs. Epochs run TRACE_BLOCK_EPOCHS at a time into
    one reused count buffer; each block is folded into the tally and, given
    trace_path, written there as its trace.csv rows.
    """
    if epoch_slots < 1 or horizon_slots < 1:
        raise ValueError("epoch and horizon must be positive")
    master = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    env_ss, sched_ss = master.spawn(2)
    sched_rng = np.random.default_rng(sched_ss)
    state = init_sim(district, processes, initial_allocation, env_ss)
    tally = Tally(queue_bounds, warmup_slots)

    d = district.num_pdcs
    epochs = -(-horizon_slots // epoch_slots)
    counts = np.empty((TRACE_BLOCK_EPOCHS * epoch_slots, 2, d), dtype=np.int64)
    n = np.empty((TRACE_BLOCK_EPOCHS, d), dtype=np.int64)
    observations = observe(state)
    with open(trace_path, "w", newline="") if trace_path else nullcontext() as trace:
        if trace:
            header = ["t"]
            for name in ("q", "n", "arrivals", "dispatches"):
                header += [f"{name}_{pdc}" for pdc in range(1, d + 1)]
            trace.write(",".join(header) + "\r\n")
        for first in range(0, epochs, TRACE_BLOCK_EPOCHS):
            block = min(TRACE_BLOCK_EPOCHS, epochs - first)
            for i in range(block):
                deltas = controller.decide(first + i, observations)
                window = slice(i * epoch_slots, (i + 1) * epoch_slots)
                run_epoch(state, deltas, sched_rng, counts[window])
                observations = observe(state)
                # homes change only between epochs
                n[i] = [held for held, _ in observations]
            arrivals, dispatches = counts[: block * epoch_slots].transpose(1, 2, 0)
            q = tally.fold(arrivals, dispatches, n[:block])
            if trace:
                _write_rows(trace, first * epoch_slots, q, n[:block], arrivals, dispatches)
    return tally


def _write_rows(trace, t0: int, q, n, arrivals, dispatches) -> None:
    """Write the trace.csv rows of a block of whole epochs from slot t0 on:
    t, q_*, n_*, arrivals_* and dispatches_* per slot, in the bytes
    csv.writer gives for plain ints."""
    d, slots = q.shape
    cells = ",".join(["%d"] * d)
    row = f"%d,{cells},{{}},{cells},{cells}\r\n"
    epoch_slots = slots // len(n)
    # n holds over an epoch, so it goes into the epoch's rows' format
    rows = "".join(row.format(",".join(map(str, held))) * epoch_slots for held in n.tolist())
    at = np.arange(t0, t0 + slots)[None, :]
    columns = np.concatenate([at, q, arrivals, dispatches])
    trace.write(rows % tuple(columns.T.ravel().tolist()))
