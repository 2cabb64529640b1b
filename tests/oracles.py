"""Independent reference implementations used to cross-check the package.

Everything here is written long-hand from the documented rules, on purpose:
plain loops over the raw per-drone lists, no shared helpers with the
production code beyond the data types themselves.
"""

import math
from collections import deque

import numpy as np

from dronefleet.arrivals import ArrivalProcess
from dronefleet.geography import sample_destinations
from dronefleet.network import forward
from dronefleet.rlagent import COUNT_BITS, QUEUE_BITS, STATE_SIZE
from dronefleet.simcore import SimState


def idle(home, free=-1):
    """Idle since slot `free`: -1 for a drone that has not moved yet, or the
    slot a mission or a relocation ended, before the state's clock."""
    return {"home": home, "free": free}


def delivering(home, dest, drop, start):
    return {"home": home, "dest": dest, "drop": drop, "start": start, "back": drop, "free": drop + 1}


def returning(home, drop, back):
    return {"home": home, "drop": drop, "back": back, "free": back + 1}


def locked(home, free, t):
    """Relocating or swapping at slot t: the mission legs are over."""
    return {"home": home, "drop": t - 1, "back": t - 1, "free": free}


def phase(state, uid):
    """Phase of one drone read off its raw lists at the state's clock."""
    if state.free[uid] < state.t:
        return "idle"
    if state.t <= state.drop[uid]:
        return "delivering"
    if state.t <= state.back[uid]:
        return "returning"
    return "locked"


def build_state(district, drones, t=0):
    """Assemble a consistent SimState around hand-made drones, one dict per
    id in order (see idle, delivering, returning and locked)."""
    d = district.num_pdcs
    procs = [
        ArrivalProcess(truck_interval=30, batch_mean=1, batch_half_width=0, p_high=0.0)
        for _ in range(d)
    ]
    return SimState(
        district=district,
        processes=procs,
        home=[drone["home"] for drone in drones],
        start=[drone.get("start", -1) for drone in drones],
        drop=[drone.get("drop", -1) for drone in drones],
        back=[drone.get("back", -1) for drone in drones],
        free=[drone.get("free", -1) for drone in drones],
        dest=[drone.get("dest") for drone in drones],
        queues=[deque() for _ in range(d)],
        arrival_rngs=[np.random.default_rng(i) for i in range(d)],
        dest_rngs=[np.random.default_rng(100 + i) for i in range(d)],
        landing=[deque() for _ in range(d)],
        xs=[[] for _ in range(d)],
        ys=[[] for _ in range(d)],
        t=t,
        drawn=t,
    )


class SlotRule:
    """The simulator's slot rule, stepped one slot at a time over the
    per-drone lists of a SimState made by init_sim.

    Each slot: every drone whose free slot is due turns idle; each center's
    truck, if one comes, lands its batch at the back of the center's queue;
    then at each center the lowest idle ids take the oldest packages, one
    each. Between calls a drone is idle once the clock has passed its free
    slot. Arrivals are drawn slot by slot from the state's own generators,
    one destination draw per batch. Only the per-drone lists and the clock
    of the state are used; the idle lists and the queues live here.
    """

    def __init__(self, state):
        self.state = state
        self.queues = [deque() for _ in state.processes]  # (trip, destination)

    def step(self, slots):
        """Flat slot-major arrival and dispatch counts, as step_slot gives."""
        s = self.state
        district = s.district
        lanes = list(zip(s.processes, s.arrival_rngs, s.dest_rngs, district.regions))
        arrived, dispatched = [], []
        idle = [[] for _ in range(district.num_pdcs + 1)]  # sorted ids per home
        for uid in range(len(s.home)):
            if s.free[uid] < s.t:
                idle[s.home[uid]].append(uid)
        for t in range(s.t, s.t + slots):
            for uid in range(len(s.home)):
                if s.free[uid] == t:
                    idle[s.home[uid]] = sorted(idle[s.home[uid]] + [uid])

            for (proc, arng, drng, region), queue in zip(lanes, self.queues):
                size = proc.draw_batch(t, arng)
                proc.advance_slot(t, arng)
                if size:
                    points = sample_destinations(region, drng, size)
                    ox, oy = region.pdc_location
                    trips = np.ceil(
                        np.hypot(points[:, 0] - ox, points[:, 1] - oy) / district.meters_per_slot
                    )
                    for trip, (x, y) in zip(trips.tolist(), points.tolist()):
                        queue.append((int(trip), (x, y)))
                arrived.append(size)

            for pdc, queue in enumerate(self.queues, start=1):
                sent = 0
                while queue and idle[pdc]:
                    uid = idle[pdc].pop(0)
                    trip, dest = queue.popleft()
                    s.start[uid] = t
                    s.drop[uid] = t + max(trip, 1)  # a delivery takes at least one slot
                    s.back[uid] = s.drop[uid] + trip
                    s.free[uid] = s.back[uid] + 1  # one slot of battery swap
                    s.dest[uid] = dest
                    sent += 1
                dispatched.append(sent)
        s.t += slots
        return arrived, dispatched


def markov_arrivals(proc, rng, slots):
    """Per-slot batch sizes and phases of a Markov-modulated process, drawn
    long-hand with one scalar rng.random() per phase step.

    Each slot: on an opportunity, the truck coin and its batch size; then the
    phase step (every slot, or only on opportunities when per_slot_phase is
    false). The phase listed for a slot is the one after its step.
    """
    smallest = proc.batch_mean - proc.batch_half_width
    largest = proc.batch_mean + proc.batch_half_width
    high = True
    batches, phases = [], []
    for t in range(slots):
        size = 0
        if t % proc.truck_interval == 0:
            if rng.random() < (proc.p_high if high else proc.p_low):
                size = int(rng.integers(smallest, largest, endpoint=True))
        if proc.per_slot_phase or t % proc.truck_interval == 0:
            u = rng.random()
            high = u >= proc.p_high_to_low if high else u < proc.p_low_to_high
        batches.append(size)
        phases.append(high)
    return batches, phases


def replay_schedule(state, requests, rng):
    """Step-by-step replay of the swap routine.

    Donor collection: every PDC asked to shed gives up idle UAVs first
    (lowest id), then returning ones (most recent delivery first), then
    delivering ones (earliest mission start first); when overall demand is
    positive the port contributes up to that many idle UAVs. Assignment:
    needy PDCs drawn uniformly at random one at a time, each taking its
    nearest donors by remaining flight plus pickup distance (ties on id);
    leftovers park at the port.
    """
    district = state.district
    d = district.num_pdcs
    t = state.t
    mps = district.meters_per_slot

    donors = []  # (uav_id, pickup_xy, extra_flight_m)
    fleet = range(len(state.home))
    for pdc in range(1, d + 1):
        owe = -requests[pdc - 1]
        if owe <= 0:
            continue
        loc = district.location_of(pdc)
        mine = [u for u in fleet if state.home[u] == pdc]
        idle_ids = sorted(u for u in mine if phase(state, u) == "idle")
        for uid in idle_ids[:owe]:
            donors.append((uid, loc, 0.0))
        owe -= min(owe, len(idle_ids))
        if owe > 0:
            rets = [u for u in mine if phase(state, u) == "returning"]
            rets.sort(key=lambda u: (-state.drop[u], u))
            for u in rets[:owe]:
                donors.append((u, loc, 0.0))
            owe -= min(owe, len(rets))
        if owe > 0:
            dels = [u for u in mine if phase(state, u) == "delivering"]
            dels.sort(key=lambda u: (state.start[u], u))
            for u in dels[:owe]:
                left = max(0, state.drop[u] - t) * mps
                donors.append((u, state.dest[u], left))

    demand = sum(requests)
    if demand > 0:
        port_ids = sorted(u for u in fleet if state.home[u] == 0 and phase(state, u) == "idle")
        for uid in port_ids[:demand]:
            donors.append((uid, district.port_location, 0.0))

    moves = []
    pool = list(donors)
    needy = [p for p in range(1, d + 1) if requests[p - 1] > 0]
    while needy and pool:
        pick = int(rng.integers(len(needy)))
        pdc = needy[pick]
        del needy[pick]
        loc = district.location_of(pdc)
        scored = sorted(
            pool,
            key=lambda e: (e[2] + math.hypot(e[1][0] - loc[0], e[1][1] - loc[1]), e[0]),
        )
        for entry in scored[: min(requests[pdc - 1], len(pool))]:
            moves.append((entry[0], pdc))
            pool.remove(entry)
    for entry in pool:
        moves.append((entry[0], 0))
    return moves


def random_fleet_instance(district, rng, max_uavs=14):
    """Random mixed-phase fleet plus signed requests, for equivalence runs."""
    d = district.num_pdcs
    n = int(rng.integers(4, max_uavs + 1))
    t = int(rng.integers(0, 200))
    drones = []
    for _ in range(n):
        home = int(rng.integers(0, d + 1))
        kind = rng.random()
        if home == 0 or kind < 0.4:
            # half the idle PDC drones have flown or relocated before t
            flown = home != 0 and kind < 0.2 and t > 0
            drones.append(idle(home, int(rng.integers(0, t)) if flown else -1))
        elif kind < 0.6:
            drones.append(
                returning(home, drop=int(rng.integers(-1, t)), back=t + int(rng.integers(0, 20)))
            )
        elif kind < 0.85:
            region = district.regions[int(rng.integers(0, d))]
            sub = region.subregions[0]
            dest = (
                float(rng.uniform(sub.min_corner[0], sub.max_corner[0])),
                float(rng.uniform(sub.min_corner[1], sub.max_corner[1])),
            )
            drones.append(
                delivering(
                    home,
                    dest,
                    drop=t + int(rng.integers(0, 20)),
                    start=int(rng.integers(0, t + 1)),
                )
            )
        elif kind < 0.95:
            drones.append(locked(home, free=t, t=t))  # swapping
        else:
            drones.append(locked(home, free=t + int(rng.integers(1, 10)), t=t))  # relocating
    requests = [int(rng.integers(-3, 4)) for _ in range(d)]
    return build_state(district, drones, t=t), requests


def decode_state(encoded):
    """Inverse of rlagent.encode_state; returns (n, q)."""
    vec = np.asarray(encoded)
    if vec.shape != (STATE_SIZE,):
        raise ValueError("bad encoded state shape")
    q = sum(1 << i for i in range(QUEUE_BITS) if vec[i] > 0.5)
    n = sum(1 << i for i in range(COUNT_BITS) if vec[QUEUE_BITS + i] > 0.5)
    return n, q


def ddqn_target(reward, next_encoded, done, online, target, gamma):
    """Double-DQN target of one transition: the online net picks the next
    action, the target net prices it. Terminal transitions take the bare
    reward."""
    if done:
        return float(reward)
    best = int(np.argmax(forward(online, next_encoded)))
    return float(reward + gamma * forward(target, next_encoded)[best])


def whole_array_report(arrivals, dispatches, n, queue_bounds, warmup_slots):
    """The report fields of a run from its whole (D, slots) arrival and
    dispatch counts and (D, epochs) fleets, computed by numpy over whole
    arrays: the queue trace as one running sum, every FIFO wait at once
    (the k-th dispatch of a center takes its k-th arrival), and np.mean and
    np.std over the post-warmup samples."""
    arrivals, dispatches = np.asarray(arrivals), np.asarray(dispatches)
    d, horizon = arrivals.shape
    q = np.cumsum(arrivals - dispatches, axis=1)[:, warmup_slots:]
    waits = []
    for arrived, dispatched in zip(arrivals, dispatches):
        slots = np.arange(horizon)
        left = np.repeat(slots, dispatched)
        born = np.repeat(slots, arrived)[: len(left)]
        waits.append((left - born)[born >= warmup_slots])
    waits = np.concatenate(waits).astype(np.float64)
    violation = ((q >= np.asarray(queue_bounds)[:, None]).sum(axis=1) / q.shape[1]).tolist()
    fleet = np.repeat(np.asarray(n).sum(axis=0), horizon // np.shape(n)[1])[warmup_slots:]
    return {
        "violation": violation,
        "p_max": max(violation),
        "q_mean": float(q.mean()),
        "q_std": float(q.std()),
        "w_mean": float(waits.mean()) if waits.size else math.nan,
        "w_std": float(waits.std()) if waits.size else math.nan,
        "n_mean": float(fleet.mean()),
        "horizon_slots": q.shape[1],
        "q": q,
        "waits": waits,
    }
