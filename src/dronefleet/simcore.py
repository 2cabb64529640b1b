"""Slot-based simulation of the district: queues, drone missions, dispatch.

One slot is one minute. Each step handles, in this order:
  1. drones whose free slot is due turn idle,
  2. truck arrivals join the local queue,
  3. FCFS dispatch of idle drones against the local queue,
  4. the clock.
Arrivals do not depend on the fleet, so each center's trucks, batch sizes,
destinations and trip lengths are drawn a block of slots ahead, in the order
a slot-by-slot draw takes them from each center's generators: at each
opportunity the truck and its batch, then the phase chain's steps up to the
next opportunity; destinations come from their own generator.
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
    # arrivals are drawn for the slots before `drawn`; the length of the last
    # block drawn
    drawn: int = 0
    block: int = 0
    # slot -> batches drawn for it: (PDC index, trips, xs, ys) per batch
    landing: dict[int, list] = field(default_factory=dict)


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


def observe(state: SimState) -> list[tuple[int, int]]:
    """(allocated drones, queued packages) per PDC, in PDC order."""
    return list(zip(state.home_counts[1:].tolist(), map(len, state.queues)))


def _book(state: SimState, uid: int, free: int) -> None:
    state.free[uid] = free
    state.due.setdefault(free, []).append(uid)


# Look-ahead bound, in slots: the first block covers what the first step
# asks for and each later one doubles, up to this many slots.
MAX_BLOCK = 960


def _draw_ahead(state: SimState, until: int) -> None:
    """Draw every PDC's arrivals for the slots before `until` into
    state.landing: trucks and batch sizes with the phase chain's steps, then
    one destination draw for the block's batches."""
    mps = state.district.meters_per_slot
    landing, drawn = state.landing, state.drawn
    lanes = zip(state.processes, state.arrival_rngs, state.dest_rngs, state.district.regions)
    for i, (proc, arng, drng, region) in enumerate(lanes):
        interval = proc.truck_interval
        t = drawn + -drawn % interval  # the first opportunity not drawn yet
        slots, sizes = [], []
        while t < until:
            size = proc.draw_batch(t, arng)
            proc.advance_slot(t, arng, interval)  # up to the next opportunity
            if size:
                slots.append(t)
                sizes.append(size)
            t += interval
        if not sizes:
            continue
        dests = sample_destinations(region, drng, sum(sizes), sizes)
        ox, oy = region.pdc_location
        xs, ys = dests.T
        trips = np.ceil(np.hypot(xs - ox, ys - oy) / mps).astype(np.int64).tolist()
        xs, ys = xs.tolist(), ys.tolist()
        end = 0
        for slot, size in zip(slots, sizes):
            begin, end = end, end + size
            landing.setdefault(slot, []).append((i, trips[begin:end], xs[begin:end], ys[begin:end]))
    state.drawn = until


def step_slot(state: SimState, slots: int = 1) -> tuple[list[int], list[int]]:
    """Advance `slots` slots; returns flat slot-major arrival and dispatch
    counts, D per slot (per-PDC lists for one slot)."""
    if slots < 1:
        raise ValueError("step at least one slot")
    t0 = state.t
    stop = t0 + slots
    if stop > state.drawn:
        state.block = min(max(stop - state.drawn, 2 * state.block), MAX_BLOCK)
        _draw_ahead(state, max(stop, state.drawn + state.block))

    free, due, home, idle_lists = state.free, state.due, state.home, state.idle
    start, drop, back, dest = state.start, state.drop, state.back, state.dest
    landing, queues = state.landing, state.queues
    pools = list(zip(queues, idle_lists[1:]))
    d = len(pools)
    arrived = [0] * (slots * d)
    dispatched = [0] * (slots * d)
    row = 0
    for t in range(t0, stop):
        # a moved drone leaves its old entry behind; only the live one counts
        ending = due.pop(t, None)
        if ending:
            for uid in ending:
                if free[uid] == t:
                    free[uid] = IDLE_FREE
                    insort(idle_lists[home[uid]], uid)

        # the packages are built as they land
        batches = landing.pop(t, None)
        if batches:
            for i, trips, xs, ys in batches:
                arrived[row + i] = len(trips)
                queues[i].extend(zip(trips, zip(xs, ys)))

        i = row
        for queue, idle in pools:
            if queue and idle:
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
            i += 1
        row += d

    state.t = stop
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
