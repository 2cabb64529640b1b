"""Slot-based simulation of the district: queues, drone missions, dispatch.

One slot is one minute. Each step handles, in this order:
  1. drones whose free slot is due turn idle,
  2. truck arrivals and destination sampling, then the phase step of each
     Markov-modulated arrival process,
  3. FCFS dispatch of idle drones against the local queue,
  4. the clock.
A mission is fixed at dispatch: the package lands at `drop`, the return leg
ends at `back`, a one-slot battery swap follows and the drone is idle again
at `free`. Its phase is read off the clock: delivering while t <= drop,
returning while drop < t <= back, and locked (relocating or swapping) after
that until `free`. Fleet moves decided by a controller are applied between
slots via apply_allocation_moves and only rewrite `back` and `free`. A drone
always belongs to exactly one home (0 is the port, 1..D the PDCs), so
sum(n_d) == total fleet size at every slot.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .arrivals import ArrivalProcess
from .geography import District, Point, distance, sample_destinations, travel_time_slots

IDLE_FREE = -1  # `free` of a drone that is idle


@dataclass
class SimState:
    district: District
    processes: list[ArrivalProcess]
    # per drone, indexed by id: home, dispatch slot, drop slot, end of the
    # return leg, free slot (IDLE_FREE while idle) and package destination
    home: list[int]
    start: list[int]
    drop: list[int]
    back: list[int]
    free: list[int]
    dest: list[Point | None]
    queues: list[deque]  # per PDC: (trip_slots, destination) per package
    idle: list[list[int]]  # sorted drone ids per home, index 0 is the port
    home_counts: np.ndarray
    arrival_rngs: list[np.random.Generator]
    dest_rngs: list[np.random.Generator]
    t: int = 0
    due: dict[int, list[int]] = field(default_factory=dict)  # free slot -> drone ids
    # per PDC, looked up once rather than every slot: (process, its truck
    # interval, arrival and destination generators, region, queue)
    lanes: list[tuple] = field(init=False, repr=False, compare=False)
    # per PDC, the (queue, idle list) pair that dispatch pairs up
    pools: list[tuple] = field(init=False, repr=False, compare=False)
    # trucks can come only on multiples of this slot count
    truck_gcd: int = field(init=False, repr=False, compare=False)
    # (process, arrival generator) of each PDC whose rate has a phase chain
    # to step every slot; the other rules draw nothing off their opportunities
    phased: list[tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        intervals = [proc.truck_interval for proc in self.processes]
        self.lanes = list(
            zip(
                self.processes,
                intervals,
                self.arrival_rngs,
                self.dest_rngs,
                self.district.regions,
                self.queues,
            )
        )
        self.pools = list(zip(self.queues, self.idle[1:]))
        self.truck_gcd = math.gcd(*intervals)
        self.phased = [
            (proc, rng)
            for proc, rng in zip(self.processes, self.arrival_rngs)
            if proc.rule == "markov"
        ]


def init_sim(
    district: District,
    processes: list[ArrivalProcess],
    initial_allocation: list[int],
    seed_seq: np.random.SeedSequence,
) -> SimState:
    """Fresh state at t=0 with the given per-PDC allocation, remainder at port."""
    d = district.num_pdcs
    if len(processes) != d or len(initial_allocation) != d:
        raise ValueError("one arrival process and one allocation entry per PDC")
    if any(a < 0 for a in initial_allocation):
        raise ValueError("allocations must be nonnegative")
    if sum(initial_allocation) > district.total_uavs:
        raise ValueError("initial allocation exceeds fleet size")

    homes = []
    for pdc, count in enumerate(initial_allocation, start=1):
        homes.extend([pdc] * count)
    homes.extend([0] * (district.total_uavs - len(homes)))
    n = len(homes)

    idle: list[list[int]] = [[] for _ in range(d + 1)]
    for uid, home in enumerate(homes):
        idle[home].append(uid)
    counts = np.bincount(np.asarray(homes, dtype=np.int64), minlength=d + 1)

    children = seed_seq.spawn(2 * d)
    return SimState(
        district=district,
        processes=processes,
        home=homes,
        start=[-1] * n,
        drop=[-1] * n,
        back=[-1] * n,
        free=[IDLE_FREE] * n,
        dest=[None] * n,
        queues=[deque() for _ in range(d)],
        idle=idle,
        home_counts=counts,
        arrival_rngs=[np.random.default_rng(children[2 * i]) for i in range(d)],
        dest_rngs=[np.random.default_rng(children[2 * i + 1]) for i in range(d)],
    )


def observe(state: SimState, pdc: int) -> tuple[int, int]:
    """(allocated drones, queued packages) for PDC index 1..D."""
    return int(state.home_counts[pdc]), len(state.queues[pdc - 1])


def _book(state: SimState, uid: int, free: int) -> None:
    state.free[uid] = free
    state.due.setdefault(free, []).append(uid)


def step_slot(state: SimState) -> tuple[list[int], list[int]]:
    """Advance one slot; returns per-PDC (arrival counts, dispatch counts)."""
    t = state.t
    free, due = state.free, state.due

    # a moved drone leaves its old entry behind; only the live one counts
    ending = due.pop(t, None)
    if ending:
        home, idle = state.home, state.idle
        for uid in ending:
            if free[uid] == t:
                free[uid] = IDLE_FREE
                insort(idle[home[uid]], uid)

    arrived = [0] * len(state.lanes)
    # no truck, and no draw, off the opportunity slots
    if t % state.truck_gcd == 0:
        for i, (proc, interval, arng, drng, region, queue) in enumerate(state.lanes):
            if t % interval == 0:
                size = proc.draw_batch(t, arng)
                if size:
                    arrived[i] = size
                    dests = sample_destinations(region, drng, size)
                    ox, oy = region.pdc_location
                    xs, ys = dests.T
                    trips = np.ceil(np.hypot(xs - ox, ys - oy) / state.district.meters_per_slot)
                    points = zip(xs.tolist(), ys.tolist())
                    queue.extend(zip(trips.astype(np.int64).tolist(), points))
    # each process draws from its own generator, so stepping the chains after
    # every center's arrivals is the same as stepping each after its own
    for proc, arng in state.phased:
        proc.advance_slot(t, arng)

    dispatched = [0] * len(state.pools)
    start, drop, back, dest = state.start, state.drop, state.back, state.dest
    for i, (queue, idle) in enumerate(state.pools):
        if not (queue and idle):
            continue
        k = min(len(queue), len(idle))
        # FCFS: the lowest idle ids take the oldest packages
        uids = idle[:k]
        del idle[:k]
        for uid in uids:
            trip, dest[uid] = queue.popleft()
            start[uid] = t
            # a delivery occupies at least one slot
            drop[uid] = out = t + (trip if trip > 1 else 1)
            back[uid] = home_at = out + trip
            free[uid] = ready = home_at + 1
            if ready in due:
                due[ready].append(uid)
            else:
                due[ready] = [uid]
        dispatched[i] = k

    state.t = t + 1
    return arrived, dispatched


def apply_allocation_moves(state: SimState, moves: list[tuple[int, int]]) -> None:
    """Reassign drones to new homes (0 sends one back to the port).

    Idle drones relocate at once and need no swap. Returning drones are
    diverted from their old home to the new one and swap on arrival.
    Delivering drones finish their drop first, then fly from the drop point
    to the new home and swap. Ownership transfers at once either way, so n_d
    reflects inbound drones.
    """
    t = state.t
    district = state.district
    speed = district.speed_kph
    for uid, target in moves:
        if not 0 <= uid < len(state.home):
            raise ValueError(f"unknown UAV id {uid}")
        if not 0 <= target <= district.num_pdcs:
            raise ValueError(f"unknown home index {target}")
        old_home = state.home[uid]
        if state.free[uid] == IDLE_FREE:
            state.idle[old_home].remove(uid)
            leg = distance(district.location_of(old_home), district.location_of(target))
            _book(state, uid, t + travel_time_slots(leg, speed))
        elif t <= state.drop[uid]:
            drop = state.back[uid] = state.drop[uid]
            leg = distance(state.dest[uid], district.location_of(target))
            _book(state, uid, drop + travel_time_slots(leg, speed) + 1)
        elif t <= state.back[uid]:
            state.back[uid] = state.drop[uid]
            leg = distance(district.location_of(old_home), district.location_of(target))
            _book(state, uid, t + travel_time_slots(leg, speed) + 1)
        else:
            raise ValueError(f"UAV {uid} is not movable while relocating or swapping")
        state.home[uid] = target
        state.home_counts[old_home] -= 1
        state.home_counts[target] += 1
