"""Drive a controller against the simulator and tally what the run counted.

A scenario (configs.ExperimentConfig, or any object with its fields) gives a
run its district, make_processes(), initial_allocation, reward.epoch_slots,
horizon_slots, queue_bounds and warmup_slots. Evaluation (run_policy) and
training (training.train) both step its epochs through run_epochs.
"""

from __future__ import annotations

from contextlib import nullcontext
from itertools import count

import numpy as np

from . import simcore
from .controllers import Controller
from .metrics import Tally
from .scheduler import schedule
from .simcore import apply_allocation_moves, init_sim, observe


def run_epochs(scenario, env_ss: np.random.SeedSequence, rng: np.random.Generator, counts):
    """Step the scenario's epochs, one per request list sent in.

    Yields the (allocated drones, queued packages) observations per PDC of a
    fresh state seeded from env_ss. Each `send(requests)` then schedules and
    applies the fleet moves with `rng` and steps the n-th epoch in one
    kernel call, its per-slot arrival and dispatch counts going into
    counts[n % len(counts)], an int64 (epoch_slots, 2, D) window; it yields
    the observations after the epoch."""
    state = init_sim(
        scenario.district, scenario.make_processes(), scenario.initial_allocation, env_ss
    )
    requests = yield observe(state)
    for epoch in count():
        window = counts[epoch % len(counts)]
        apply_allocation_moves(state, schedule(state, requests, rng))
        arrived, dispatched = simcore.step_slot(state, len(window))
        # through an int64 array: half the time of a list into the strided view
        window[:, 0] = np.array(arrived, dtype=np.int64).reshape(len(window), -1)
        window[:, 1] = np.array(dispatched, dtype=np.int64).reshape(len(window), -1)
        requests = yield observe(state)


# epochs counted, folded and written to trace.csv at a time: what a run holds
# per slot lives no longer than its block
TRACE_BLOCK_EPOCHS = 32


def run_policy(
    scenario,
    controller: Controller,
    seed: int,
    trace_path: str | None = None,
) -> Tally:
    """Run one fixed-policy episode of at least the scenario's horizon_slots
    and return its tally of the slots from warmup_slots on.

    The controller is consulted every epoch; the horizon is rounded up to
    whole epochs. Epochs run TRACE_BLOCK_EPOCHS at a time into one reused
    count buffer; each block is folded into the tally and, given trace_path,
    written there as its trace.csv rows.
    """
    epoch_slots, d = scenario.reward.epoch_slots, scenario.district.num_pdcs
    if epoch_slots < 1 or scenario.horizon_slots < 1:
        raise ValueError("epoch and horizon must be positive")
    env_ss, sched_ss = np.random.SeedSequence(seed).spawn(2)
    counts = np.empty((TRACE_BLOCK_EPOCHS, epoch_slots, 2, d), dtype=np.int64)
    run = run_epochs(scenario, env_ss, np.random.default_rng(sched_ss), counts)
    tally = Tally(scenario.queue_bounds, scenario.warmup_slots)

    epochs = -(-scenario.horizon_slots // epoch_slots)
    n = np.empty((TRACE_BLOCK_EPOCHS, d), dtype=np.int64)
    observations = next(run)
    with open(trace_path, "w", newline="") if trace_path else nullcontext() as trace:
        if trace:
            header = ["t"]
            for name in ("q", "n", "arrivals", "dispatches"):
                header += [f"{name}_{pdc}" for pdc in range(1, d + 1)]
            trace.write(",".join(header) + "\r\n")
        for first in range(0, epochs, TRACE_BLOCK_EPOCHS):
            block = min(TRACE_BLOCK_EPOCHS, epochs - first)
            for i in range(block):
                observations = run.send(controller.decide(first + i, observations))
                # homes change only between epochs
                n[i] = [held for held, _ in observations]
            arrivals, dispatches = counts[:block].reshape(-1, 2, d).transpose(1, 2, 0)
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
