import numpy as np
import pytest

from dronefleet.geography import District, Region, SubRegion, builtin_district, distance
from dronefleet.scheduler import assign_donors, form_donor_set, schedule
from dronefleet.simcore import apply_allocation_moves, observe, relocation_leg

from oracles import (
    build_state,
    delivering,
    idle,
    locked,
    random_fleet_instance,
    replay_schedule,
    returning,
)


def line_district(total_uavs=8):
    """PDCs at x=0, 3000, 9000 on one axis, port at x=6000; 300 m per slot."""
    def region(x):
        return Region(
            pdc_location=(x, 0.0),
            subregions=(SubRegion((x - 100.0, -100.0), (x + 100.0, 100.0), 1.0),),
        )

    return District(
        regions=(region(0.0), region(3000.0), region(9000.0)),
        port_location=(6000.0, 0.0),
        total_uavs=total_uavs,
        speed_kph=18.0,
    )


def test_request_length_validated():
    state = build_state(line_district(), [idle(1)])
    with pytest.raises(ValueError):
        form_donor_set(state, [0, 0])


def test_donor_category_order_within_a_pdc():
    district = line_district()
    uavs = [
        delivering(1, dest=(50.0, 0.0), drop=12, start=4),
        returning(1, drop=9, back=11),
        idle(1),
        returning(1, drop=3, back=12),
        delivering(1, dest=(60.0, 0.0), drop=15, start=2),
    ]
    state = build_state(district, uavs, t=10)
    donors = form_donor_set(state, [-4, 0, 0])
    # idle first, then returning by most recent delivery, then delivering
    # by earliest mission start
    assert donors == [2, 1, 3, 4]
    origin, start, _ = relocation_leg(state, donors[3])
    assert origin == (60.0, 0.0)
    assert (start - state.t) * district.meters_per_slot == (15 - 10) * 300.0


def test_overdrawn_pdc_donates_all_it_has():
    state = build_state(line_district(), [idle(1), idle(1)])
    donors = form_donor_set(state, [-5, 0, 0])
    assert donors == [0, 1]


def test_port_joins_only_under_net_demand():
    uavs = [idle(0), idle(0), idle(0), idle(1)]
    state = build_state(line_district(), uavs)
    # net demand zero: a pure reshuffle leaves the port out of it
    donors = form_donor_set(state, [-1, 1, 0])
    assert donors == [3]
    # net demand 2: the port contributes exactly 2 of its 3
    donors = form_donor_set(state, [-1, 3, 0])
    assert donors == [3, 0, 1]


def test_shed_with_no_takers_parks_at_port():
    state = build_state(line_district(), [idle(1), idle(1)])
    moves = schedule(state, [-2, 0, 0], np.random.default_rng(0))
    assert moves == [(0, 0), (1, 0)]


def test_unmet_demand_is_dropped():
    state = build_state(line_district(), [locked(1, free=1, t=0)])
    moves = schedule(state, [0, 2, 0], np.random.default_rng(0))
    assert moves == []


def test_nearest_donor_wins():
    # PDC2 at x=3000 takes the PDC1 donor (3000 m) over the PDC3 one (6000 m)
    uavs = [idle(3), idle(1)]
    state = build_state(line_district(), uavs)
    moves = schedule(state, [-1, 1, -1], np.random.default_rng(0))
    assert moves == [(1, 2), (0, 0)]


def test_remaining_flight_counts_against_delivering_donors():
    # both donors would land at PDC2; the delivering one still has 3000 m
    # to fly first, so the idle donor at the same distance wins
    uavs = [delivering(1, dest=(3000.0, 0.0), drop=10, start=0), idle(3)]
    state = build_state(line_district(), uavs, t=0)
    moves = schedule(state, [-1, 1, -1], np.random.default_rng(0))
    # donor 0 pickup is the destination itself (distance 0) but carries
    # 10 slots * 300 m of unfinished flight; donor 1 is 6000 m away
    assert moves[0] == (0, 2)
    assert (1, 0) in moves


def test_delivering_donor_costs_its_flight_ahead_plus_its_leg():
    # the idle donor at PDC1 is 3000 m from PDC2; the delivering one costs
    # (drop - t) * 300 m plus 1200 m from its drop point: at drop 16 that
    # ties at 3000 m and the lower id wins, at drop 17 it is 300 m more
    for drop, winner in ((16, 0), (17, 1)):
        uavs = [delivering(3, dest=(4200.0, 0.0), drop=drop, start=0), idle(1)]
        state = build_state(line_district(), uavs, t=10)
        here = state.district.location_of(2)
        origin, start, _ = relocation_leg(state, 0)
        cost = (drop - state.t) * state.district.meters_per_slot + distance(state.dest[0], here)
        assert (start - state.t) * 300.0 + distance(origin, here) == cost
        assert cost == (drop - 10) * 300.0 + 1200.0
        moves = assign_donors(state, [0, 1], [0, 1, 0], np.random.default_rng(0))
        assert moves == [(winner, 2), (1 - winner, 0)]


def test_equal_cost_breaks_ties_by_id():
    uavs = [idle(0), idle(0), idle(0)]
    state = build_state(line_district(), uavs)
    moves = schedule(state, [0, 2, 0], np.random.default_rng(3))
    # demand 2 pulls exactly two port donors, lowest ids, and spares the third
    assert moves == [(0, 2), (1, 2)]


def test_needy_order_comes_from_the_rng():
    # two needy PDCs, one donor: whoever is drawn first takes it
    uavs = [idle(0), idle(0)]
    state = build_state(line_district(), uavs)
    outcomes = set()
    for seed in range(8):
        moves = schedule(state, [1, 1, 0], np.random.default_rng(seed))
        outcomes.add(tuple(sorted(moves)))
    assert len(outcomes) > 1  # both orders occur across seeds


def test_matches_replay_oracle_on_random_instances():
    district = builtin_district()
    rng = np.random.default_rng(2024)
    for case in range(300):
        state, requests = random_fleet_instance(district, rng)
        seed = int(rng.integers(1 << 30))
        got = schedule(state, requests, np.random.default_rng(seed))
        want = replay_schedule(state, requests, np.random.default_rng(seed))
        assert got == want, f"case {case}: {got} != {want}"


def test_schedule_output_is_applicable():
    # every emitted move must be legal against the live state
    district = builtin_district()
    rng = np.random.default_rng(77)
    for _ in range(100):
        state, requests = random_fleet_instance(district, rng)
        before = len(state.home)
        moves = schedule(state, requests, np.random.default_rng(int(rng.integers(1 << 30))))
        apply_allocation_moves(state, moves)
        assert sum(n for n, _ in observe(state)) + state.home.count(0) == before
