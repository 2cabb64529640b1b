"""Central swap scheduler turning per-PDC count requests into UAV moves.

Requests are signed deltas: a PDC asking for a < 0 gives up UAVs, a > 0
wants more. Donors are collected from the deficit PDCs (idle first, then
returning, then delivering) plus, when the district as a whole is short,
idle UAVs from the port. Each drone's phase comes from simcore.by_phase,
read off its mission slots: idle once the clock has passed its free slot.
Needy PDCs are then served one at a time in random order, each taking its
nearest donors. Whatever is left over is parked at the port; unmet demand is
dropped until a later decision epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geography import Point, distance
from .simcore import SimState, by_phase

IDLE = "idle"
RETURNING = "returning"
DELIVERING = "delivering"


@dataclass(frozen=True)
class DonorEntry:
    uav_id: int
    pickup: Point
    category: str
    # distance still to fly before the pickup point (delivering donors
    # finish their drop first)
    approach_m: float = 0.0


def form_donor_set(state: SimState, requests: list[int]) -> list[DonorEntry]:
    """Collect donors from every deficit PDC, then the port if still short.

    Deficit PDCs give up idle UAVs first (lowest id), then returning ones
    (most recent delivery first), then delivering ones (earliest mission
    start first). A PDC holding fewer movable UAVs than it owes simply
    donates everything it has.
    """
    d = state.district.num_pdcs
    if len(requests) != d:
        raise ValueError("one request per PDC")
    if not any(requests):
        return []  # no PDC sheds drones and the district is not short
    total = sum(requests)
    district = state.district
    idle, returning, delivering = by_phase(state)
    t = state.t
    mps = district.meters_per_slot
    donors: list[DonorEntry] = []
    for pdc in range(1, d + 1):
        need = -requests[pdc - 1]
        if need <= 0:
            continue
        here = district.location_of(pdc)
        for uid in idle[pdc][:need]:
            donors.append(DonorEntry(uav_id=uid, pickup=here, category=IDLE))
        need -= min(need, len(idle[pdc]))
        if need > 0:
            pool = sorted(returning[pdc], key=lambda u: (-state.drop[u], u))
            for uid in pool[:need]:
                donors.append(DonorEntry(uav_id=uid, pickup=here, category=RETURNING))
            need -= min(need, len(pool))
        if need > 0:
            pool = sorted(delivering[pdc], key=lambda u: (state.start[u], u))
            for uid in pool[:need]:
                donors.append(
                    DonorEntry(
                        uav_id=uid,
                        pickup=state.dest[uid],
                        category=DELIVERING,
                        approach_m=max(0, state.drop[uid] - t) * mps,
                    )
                )

    if total > 0:
        port = district.port_location
        for uid in idle[0][:total]:
            donors.append(DonorEntry(uav_id=uid, pickup=port, category=IDLE))
    return donors


def assign_donors(
    state: SimState,
    donors: list[DonorEntry],
    requests: list[int],
    rng: np.random.Generator,
) -> list[tuple[int, int]]:
    """Match donors to needy PDCs, nearest first; leftovers go to the port.

    Needy PDCs are picked uniformly at random one by one (a single
    rng.integers call each), so no PDC is systematically served first.
    """
    district = state.district
    needy = [pdc for pdc in range(1, district.num_pdcs + 1) if requests[pdc - 1] > 0]
    pool = list(donors)
    moves: list[tuple[int, int]] = []
    while needy and pool:
        pdc = needy.pop(int(rng.integers(len(needy))))
        here = district.location_of(pdc)
        ranked = sorted(pool, key=lambda e: (e.approach_m + distance(e.pickup, here), e.uav_id))
        granted = ranked[: requests[pdc - 1]]
        moves.extend((entry.uav_id, pdc) for entry in granted)
        # the rest keep their donor-set order, which the port leftovers follow
        taken = {entry.uav_id for entry in granted}
        pool = [entry for entry in pool if entry.uav_id not in taken]
    for entry in pool:
        moves.append((entry.uav_id, 0))
    return moves


def schedule(
    state: SimState, requests: list[int], rng: np.random.Generator
) -> list[tuple[int, int]]:
    """Full decision epoch: form the donor set, then assign it."""
    donors = form_donor_set(state, requests)
    return assign_donors(state, donors, requests, rng)
