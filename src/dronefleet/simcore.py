"""Slot-based simulation of the district: queues, drone missions, dispatch.

One slot is one minute. Each slot handles, in this order:
  1. drones whose free slot is due turn idle,
  2. truck arrivals join the local queue,
  3. FCFS dispatch: the lowest idle ids take the oldest packages,
  4. the clock.
Arrivals do not depend on the fleet, so each center's trucks, batch sizes,
destinations and trip lengths are drawn a block of slots ahead, in the order
a slot-by-slot draw takes them from each center's generators: at each
opportunity the truck and its batch, then the phase chain's steps up to the
next opportunity; destinations come from their own generator.
A mission is fixed at dispatch: the package lands at `drop`, the return leg
ends at `back`, a one-slot battery swap follows and the drone takes packages
again from slot `free` on. A drone's home (0 is the port, 1..D the PDCs) and
its mission slots are its whole state. Between calls its phase is read off
the clock t, the next slot to run: delivering while t <= drop, returning
while drop < t <= back, locked (relocating or swapping) after that while
t <= free, and idle once the clock has passed `free`; a fresh drone has
free = -1. Fleet moves are applied between calls: apply_allocation_moves flies
each drone's relocation_leg and rewrites only `home`, `back` and `free`.

Within one step_slot call no drone changes home, so each center is a FIFO
queue with its own servers, and the call runs center by center, package by
package. Each drone is one int key, free slot << bits | id, in a heap of its
home's drones: the heap's head is the earliest free drone, lowest id first.
A package is queued as its occupancy, the slots its mission holds a drone,
shifted the same way, so a dispatch adds it to the head's key. The call
costs O(fleet) on top of its packages: it keys every drone and writes back
each one's state, however few slots it steps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heapreplace

import numpy as np

from .arrivals import ArrivalProcess
from .geography import District, Point, distance, sample_destinations, travel_time_slots


@dataclass
class SimState:
    district: District
    processes: list[ArrivalProcess]
    # per drone, indexed by id: home, dispatch slot, drop slot, end of the
    # return leg, free slot (idle once t > free) and package destination
    home: list[int]
    start: list[int]
    drop: list[int]
    back: list[int]
    free: list[int]
    dest: list[Point | None]
    queues: list[deque]  # per PDC: the occupancy key of each landed package
    arrival_rngs: list[np.random.Generator]
    dest_rngs: list[np.random.Generator]
    # per PDC: (slot, occupancy keys) of each batch drawn ahead, in slot
    # order, and the destination x and y of each package from the queue's
    # head on
    landing: list[deque]
    xs: list[list[float]]
    ys: list[list[float]]
    t: int = 0
    # arrivals are drawn for the slots before `drawn`; the length of the last
    # block drawn
    drawn: int = 0
    block: int = 0


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
    children = seed_seq.spawn(2 * d)
    return SimState(
        district=district,
        processes=processes,
        home=homes,
        start=[-1] * n,
        drop=[-1] * n,
        back=[-1] * n,
        free=[-1] * n,
        dest=[None] * n,
        queues=[deque() for _ in range(d)],
        arrival_rngs=[np.random.default_rng(children[2 * i]) for i in range(d)],
        dest_rngs=[np.random.default_rng(children[2 * i + 1]) for i in range(d)],
        landing=[deque() for _ in range(d)],
        xs=[[] for _ in range(d)],
        ys=[[] for _ in range(d)],
    )


def observe(state: SimState) -> list[tuple[int, int]]:
    """(allocated drones, queued packages) per PDC, in PDC order."""
    return [(state.home.count(pdc), len(q)) for pdc, q in enumerate(state.queues, start=1)]


def by_phase(state: SimState) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Idle, returning and delivering drone ids per home (index 0 is the
    port), in id order, at the state's clock."""
    t, home = state.t, state.home
    idle, returning, delivering = ([[] for _ in range(len(state.queues) + 1)] for _ in range(3))
    for uid, h, drop, back, free in zip(range(len(home)), home, state.drop, state.back, state.free):
        if free < t:
            idle[h].append(uid)
        elif t <= drop:
            delivering[h].append(uid)
        elif t <= back:
            returning[h].append(uid)
    return idle, returning, delivering


# Look-ahead bound, in slots: the first block covers what the first step
# asks for and each later one doubles, up to this many slots.
MAX_BLOCK = 960


def _draw_ahead(state: SimState, until: int, bits: int) -> None:
    """Draw every PDC's arrivals for the slots before `until` into
    state.landing, state.xs and state.ys: trucks and batch sizes with the
    phase chain's steps, then one destination draw for the block's batches.
    A package is drawn as its occupancy key, shifted left by `bits`."""
    mps = state.district.meters_per_slot
    drawn = state.drawn
    lanes = zip(state.processes, state.arrival_rngs, state.dest_rngs, state.district.regions)
    stores = zip(state.landing, state.xs, state.ys)
    for (proc, arng, drng, region), (landing, dest_xs, dest_ys) in zip(lanes, stores):
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
        trips = np.ceil(np.hypot(xs - ox, ys - oy) / mps).astype(np.int64)
        # a mission holds its drone max(trip, 1) slots out (a delivery takes
        # at least one), trip slots back and one slot of battery swap
        keys = ((np.maximum(trips, 1) + trips + 1) << bits).tolist()
        dest_xs += xs.tolist()
        dest_ys += ys.tolist()
        end = 0
        for slot, size in zip(slots, sizes):
            begin, end = end, end + size
            landing.append((slot, keys[begin:end]))
    state.drawn = until


def step_slot(state: SimState, slots: int = 1) -> tuple[list[int], list[int]]:
    """Advance `slots` slots; returns flat slot-major arrival and dispatch
    counts, D per slot (per-PDC lists for one slot)."""
    if slots < 1:
        raise ValueError("step at least one slot")
    t0 = state.t
    stop = t0 + slots
    home, free = state.home, state.free
    bits = max(1, (len(home) - 1).bit_length())
    if stop > state.drawn:
        state.block = min(max(stop - state.drawn, 2 * state.block), MAX_BLOCK)
        _draw_ahead(state, max(stop, state.drawn + state.block), bits)

    mask = (1 << bits) - 1
    d = len(state.queues)
    # idle drones, and drones freeing at t0, are keyed at t0
    heaps: list[list[int]] = [[] for _ in range(d + 1)]
    for uid, h, f in zip(range(len(home)), home, free):
        heaps[h].append((f if f > t0 else t0) << bits | uid)

    start, drop, back, dest = state.start, state.drop, state.back, state.dest
    arrived = [0] * (slots * d)
    dispatched = [0] * (slots * d)
    centers = zip(heaps[1:], state.queues, state.landing, state.xs, state.ys)
    for i, (heap, queue, landing, xs, ys) in enumerate(centers):
        batches = []
        while landing and landing[0][0] < stop:
            batches.append(landing.popleft())
        if not (queue or batches):
            continue
        batches.append((stop, ()))  # the call's end: only dispatches before it
        heapify(heap)
        sent = []  # the key of the drone that took each package, in order
        popleft, log = queue.popleft, sent.append
        row = i - t0 * d  # slot * d + row indexes this center's counts
        for slot, keys in batches:
            now = slot << bits
            if heap:
                while queue and (key := heap[0]) < now:
                    heapreplace(heap, key + popleft())
                    log(key)
            if keys:
                arrived[slot * d + row] = len(keys)
                if heap and heap[0] < now:
                    # drones idle since before the truck: at its slot the
                    # lowest id goes first, not the one idle longest
                    heap[:] = [now | key & mask if key < now else key for key in heap]
                    heapify(heap)
                queue.extend(keys)

        for key in sent:
            dispatched[(key >> bits) * d + row] += 1
        # each dispatched drone's last mission: its key in the heap is that
        # mission's free slot, back is one swap slot before it, and the
        # occupancy free - start is 2 trip + 1 (2 for a zero trip)
        last = {key & mask: j for j, key in enumerate(sent)}
        for key in heap:
            j = last.get(key & mask)
            if j is not None:
                uid = key & mask
                start[uid] = s = sent[j] >> bits
                free[uid] = f = key >> bits
                back[uid] = f - 1
                drop[uid] = f - 1 - ((f - s - 1) >> 1)
                dest[uid] = xs[j], ys[j]
        del xs[: len(sent)], ys[: len(sent)]

    state.t = stop
    return arrived, dispatched


def relocation_leg(state: SimState, uid: int) -> tuple[Point, int, int]:
    """(origin, start slot, swap slots) of the relocation flight of a drone
    moved now: an idle one flies from its home at once, with no swap; a
    returning one is diverted from its home and swaps on arrival; a
    delivering one drops its package first, then flies from there and swaps.
    """
    t = state.t
    if state.free[uid] < t:
        return state.district.location_of(state.home[uid]), t, 0
    if t <= state.drop[uid]:
        return state.dest[uid], state.drop[uid], 1
    if t <= state.back[uid]:
        return state.district.location_of(state.home[uid]), t, 1
    raise ValueError(f"UAV {uid} is not movable while relocating or swapping")


def apply_allocation_moves(state: SimState, moves: list[tuple[int, int]]) -> None:
    """Reassign drones to new homes (0 sends one back to the port), each
    flying its relocation_leg. A drone that swaps on arrival gives up the
    rest of its return leg. Ownership transfers at once, so n_d reflects
    inbound drones.
    """
    district = state.district
    for uid, target in moves:
        if not 0 <= uid < len(state.home):
            raise ValueError(f"unknown UAV id {uid}")
        if not 0 <= target <= district.num_pdcs:
            raise ValueError(f"unknown home index {target}")
        origin, start, swap = relocation_leg(state, uid)
        leg = distance(origin, district.location_of(target))
        state.free[uid] = start + travel_time_slots(leg, district.speed_kph) + swap
        if swap:
            state.back[uid] = state.drop[uid]
        state.home[uid] = target
