"""Central swap scheduler turning per-PDC count requests into UAV moves.

Requests are signed deltas: a PDC asking for a < 0 gives up UAVs, a > 0
wants more. Donors, as drone ids, are collected from the deficit PDCs (idle
first, then returning, then delivering) plus, when the district as a whole
is short, idle UAVs from the port. Each drone's phase comes from
simcore.by_phase, read off its mission slots: idle once the clock has passed
its free slot. Needy PDCs are then served one at a time in random order,
each taking its nearest donors: the flight a donor still has ahead of its
simcore.relocation_leg, plus that leg. Whatever is left over is parked at
the port; unmet demand is dropped until a later decision epoch.
"""

from __future__ import annotations

import numpy as np

from .geography import distance
from .simcore import SimState, by_phase, relocation_leg


def form_donor_set(state: SimState, requests: list[int]) -> list[int]:
    """Collect donor ids from every deficit PDC, then the port if still short.

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
    idle, returning, delivering = by_phase(state)
    donors: list[int] = []
    for pdc in range(1, d + 1):
        need = -requests[pdc - 1]
        if need <= 0:
            continue
        donors += idle[pdc][:need]
        need -= min(need, len(idle[pdc]))
        if need > 0:
            pool = sorted(returning[pdc], key=lambda u: (-state.drop[u], u))
            donors += pool[:need]
            need -= min(need, len(pool))
        if need > 0:
            donors += sorted(delivering[pdc], key=lambda u: (state.start[u], u))[:need]
    if total > 0:
        donors += idle[0][:total]
    return donors


def assign_donors(
    state: SimState,
    donors: list[int],
    requests: list[int],
    rng: np.random.Generator,
) -> list[tuple[int, int]]:
    """Match donors to needy PDCs, nearest first; leftovers go to the port.

    A donor's cost to a PDC is the flight it has ahead before its
    relocation leg starts plus that leg, ties on id. Needy PDCs are picked
    uniformly at random one by one (a single rng.integers call each), so no
    PDC is systematically served first.
    """
    district = state.district
    needy = [pdc for pdc in range(1, district.num_pdcs + 1) if requests[pdc - 1] > 0]
    t, mps = state.t, district.meters_per_slot
    legs = {}  # per donor: the meters it flies before its leg, the leg's origin
    for uid in donors:
        origin, start, _ = relocation_leg(state, uid)
        legs[uid] = (start - t) * mps, origin
    pool = list(donors)
    moves: list[tuple[int, int]] = []
    while needy and pool:
        pdc = needy.pop(int(rng.integers(len(needy))))
        here = district.location_of(pdc)
        ranked = sorted(pool, key=lambda u: (legs[u][0] + distance(legs[u][1], here), u))
        granted = ranked[: requests[pdc - 1]]
        moves.extend((uid, pdc) for uid in granted)
        # the rest keep their donor-set order, which the port leftovers follow
        taken = set(granted)
        pool = [uid for uid in pool if uid not in taken]
    for uid in pool:
        moves.append((uid, 0))
    return moves


def schedule(
    state: SimState, requests: list[int], rng: np.random.Generator
) -> list[tuple[int, int]]:
    """Full decision epoch: form the donor set, then assign it."""
    donors = form_donor_set(state, requests)
    return assign_donors(state, donors, requests, rng)
