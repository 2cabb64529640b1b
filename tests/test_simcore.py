import numpy as np
import pytest

from dronefleet.arrivals import ArrivalProcess
from dronefleet.configs import load_experiment_config
from dronefleet.geography import District, Region, SubRegion
from dronefleet.scheduler import form_donor_set, schedule
from dronefleet.simcore import (
    apply_allocation_moves,
    by_phase,
    init_sim,
    observe,
    relocation_leg,
    step_slot,
)

from oracles import SlotRule, build_state, delivering, idle, locked, phase, returning


def point_region(pdc_xy, dest_xy):
    """Region whose only destination is a single fixed point."""
    return Region(
        pdc_location=pdc_xy,
        subregions=(SubRegion(dest_xy, dest_xy, 1.0),),
    )


def make_district(regions, total_uavs, port=(0.0, -300.0), speed=18.0):
    return District(
        regions=tuple(regions),
        port_location=port,
        total_uavs=total_uavs,
        speed_kph=speed,
    )


def one_shot_process(p=1.0, batch_mean=1):
    # a single opportunity at t=0 inside any short test window
    return ArrivalProcess(truck_interval=10_000, batch_mean=batch_mean, batch_half_width=0, p_high=p)


def quiet_process():
    return ArrivalProcess(truck_interval=30, batch_mean=1, batch_half_width=0, p_high=0.0)


def test_init_validation():
    district = make_district([point_region((0.0, 0.0), (900.0, 0.0))], total_uavs=3)
    ss = np.random.SeedSequence(0)
    with pytest.raises(ValueError):
        init_sim(district, [], [1], ss)
    with pytest.raises(ValueError):
        init_sim(district, [quiet_process()], [-1], ss)
    with pytest.raises(ValueError):
        init_sim(district, [quiet_process()], [4], ss)


def test_initial_layout_and_observe():
    district = make_district(
        [point_region((0.0, 0.0), (900.0, 0.0)), point_region((600.0, 0.0), (600.0, 300.0))],
        total_uavs=5,
    )
    state = init_sim(district, [quiet_process(), quiet_process()], [2, 1], np.random.SeedSequence(1))
    # ids are dealt in blocks: PDC1 gets 0..1, PDC2 gets 2, the port the rest
    assert by_phase(state) == ([[3, 4], [0, 1], [2]], [[]] * 3, [[]] * 3)
    assert state.home == [1, 1, 2, 0, 0]
    assert observe(state) == [(2, 0), (1, 0)]


def test_delivery_lifecycle_timing():
    # 900 m each way at 300 m per slot: 3 slots out, 3 back, 1 swap
    district = make_district([point_region((0.0, 0.0), (900.0, 0.0))], total_uavs=1)
    state = init_sim(district, [one_shot_process()], [1], np.random.SeedSequence(2))

    step_slot(state)  # t=0: arrival and dispatch
    assert (state.start[0], state.drop[0], state.back[0], state.free[0]) == (0, 3, 6, 7)
    assert state.dest[0] == (900.0, 0.0)
    assert by_phase(state)[0] == [[], []]  # busy until its free slot
    assert observe(state) == [(1, 0)]

    phases = []
    for _ in range(7):  # t=1..7
        phases.append(phase(state, 0))
        step_slot(state)
    assert phases == ["delivering"] * 3 + ["returning"] * 3 + ["locked"]
    assert state.free[0] == 7 < state.t  # idle once the clock passed it
    assert by_phase(state)[0][1] == [0]


def test_delivery_takes_at_least_one_slot():
    # destination on top of the PDC still consumes a slot out, zero back
    district = make_district([point_region((0.0, 0.0), (0.0, 0.0))], total_uavs=1)
    state = init_sim(district, [one_shot_process()], [1], np.random.SeedSequence(3))
    step_slot(state)  # t=0 dispatch
    assert (state.drop[0], state.back[0], state.free[0]) == (1, 1, 2)
    assert phase(state, 0) == "delivering"
    step_slot(state)  # t=1: delivered, the zero-length return ends in-slot
    assert phase(state, 0) == "locked"  # swapping
    step_slot(state)  # t=2
    assert phase(state, 0) == "idle"


def test_fcfs_dispatch_lowest_id_first():
    district = make_district([point_region((0.0, 0.0), (900.0, 0.0))], total_uavs=2)
    state = init_sim(
        district, [one_shot_process(batch_mean=3)], [2], np.random.SeedSequence(4)
    )
    arrived, dispatched = step_slot(state)
    assert arrived == [3]
    assert dispatched == [2]
    assert state.start[:2] == [0, 0]
    assert len(state.queues[0]) == 1

    # the third package leaves as soon as the swap finishes at t=7,
    # within the same slot the drone turns idle
    for _ in range(6):
        step_slot(state)
    assert phase(state, 0) == "locked"
    _, dispatched = step_slot(state)  # t=7
    assert dispatched == [1]
    assert state.start == [7, 0]  # lowest id first
    assert not state.queues[0]


def test_idle_move_relocates_without_swap():
    district = make_district(
        [point_region((0.0, 0.0), (900.0, 0.0)), point_region((600.0, 0.0), (600.0, 300.0))],
        total_uavs=2,
    )
    state = init_sim(district, [quiet_process(), quiet_process()], [2, 0], np.random.SeedSequence(5))
    apply_allocation_moves(state, [(0, 2)])
    assert phase(state, 0) == "locked"  # relocating
    assert state.home == [2, 1]  # ownership moves immediately
    assert by_phase(state)[0] == [[], [1], []]
    assert state.free[0] == 2  # 600 m at 300 m per slot
    step_slot(state)  # t=0
    step_slot(state)  # t=1
    assert phase(state, 0) == "locked"
    step_slot(state)  # t=2: arrival resolves, no swap for an idle move
    assert phase(state, 0) == "idle"
    assert by_phase(state)[0][2] == [0]


def test_idle_move_to_port():
    district = make_district([point_region((0.0, 0.0), (900.0, 0.0))], total_uavs=1)
    state = init_sim(district, [quiet_process()], [1], np.random.SeedSequence(6))
    apply_allocation_moves(state, [(0, 0)])
    assert state.home == [0]
    step_slot(state)  # t=0: still in flight, 300 m leg lands at t=1
    step_slot(state)  # t=1: arrival resolves
    assert phase(state, 0) == "idle"
    assert by_phase(state)[0][0] == [0]


def test_returning_move_is_diverted_with_swap():
    district = make_district(
        [point_region((0.0, 0.0), (900.0, 0.0)), point_region((1500.0, 0.0), (1500.0, 300.0))],
        total_uavs=2,
    )
    state = init_sim(
        district, [one_shot_process(), quiet_process()], [1, 1], np.random.SeedSequence(7)
    )
    for _ in range(4):  # t=0..3, delivery done at t=3
        step_slot(state)
    assert phase(state, 0) == "returning"

    apply_allocation_moves(state, [(0, 2)])
    assert phase(state, 0) == "locked"  # relocating
    assert state.back[0] == state.drop[0] == 3
    assert state.free[0] == 4 + 5 + 1  # PDC1 to PDC2 is 1500 m, then a swap
    assert state.home == [2, 2]
    for _ in range(6):  # t=4..9
        step_slot(state)
    assert phase(state, 0) == "locked"  # swapping
    step_slot(state)  # t=10
    assert phase(state, 0) == "idle"
    assert by_phase(state)[0][2] == [0, 1]


def test_delivering_move_retargets_after_drop():
    district = make_district(
        [
            point_region((0.0, 0.0), (900.0, 0.0)),
            point_region((1500.0, 0.0), (1500.0, 300.0)),
            point_region((0.0, 1500.0), (300.0, 1500.0)),
        ],
        total_uavs=3,
    )
    procs = [one_shot_process(), quiet_process(), quiet_process()]
    state = init_sim(district, procs, [1, 1, 1], np.random.SeedSequence(8))
    step_slot(state)  # dispatch at t=0, drop at t=3
    apply_allocation_moves(state, [(0, 3)])
    # a second move before the drop replaces the first one's leg
    apply_allocation_moves(state, [(0, 2)])
    assert phase(state, 0) == "delivering"  # finishes the drop first
    assert state.home == [2, 2, 3]
    assert state.back[0] == state.drop[0] == 3
    assert state.free[0] == 3 + 2 + 1  # 600 m from the drop point to PDC2, then a swap

    for _ in range(3):  # t=1..3, drop lands at t=3
        step_slot(state)
    assert phase(state, 0) == "locked"  # relocating
    for _ in range(2):  # t=4,5
        step_slot(state)
    assert phase(state, 0) == "locked"  # swapping
    step_slot(state)  # t=6
    assert phase(state, 0) == "idle"
    assert state.home[0] == 2
    assert by_phase(state)[0][2] == [0, 1]


def test_unmovable_states_rejected():
    district = make_district(
        [point_region((0.0, 0.0), (900.0, 0.0)), point_region((600.0, 0.0), (600.0, 300.0))],
        total_uavs=2,
    )
    state = init_sim(district, [quiet_process(), quiet_process()], [2, 0], np.random.SeedSequence(9))
    apply_allocation_moves(state, [(0, 2)])
    with pytest.raises(ValueError):
        apply_allocation_moves(state, [(0, 1)])  # mid-relocation
    with pytest.raises(ValueError):
        apply_allocation_moves(state, [(5, 1)])  # unknown id
    with pytest.raises(ValueError):
        apply_allocation_moves(state, [(1, 3)])  # unknown home


def test_swapping_drone_rejected():
    district = make_district([point_region((0.0, 0.0), (900.0, 0.0))], total_uavs=1)
    state = init_sim(district, [one_shot_process()], [1], np.random.SeedSequence(12))
    for _ in range(7):  # t=0..6: dispatched, delivered, back at t=6
        step_slot(state)
    assert state.free[0] == state.t == 7
    with pytest.raises(ValueError):
        apply_allocation_moves(state, [(0, 0)])


def test_idle_is_read_off_the_clock():
    # at t=4, three drones of PDC1: one back from a 300 m delivery and free
    # since slot 3, one swapping until slot 4, one relocating until slot 6
    district = make_district(
        [point_region((0.0, 0.0), (900.0, 0.0)), point_region((600.0, 0.0), (600.0, 300.0))],
        total_uavs=3,
    )
    t = 4
    drones = [
        {"home": 1, "start": 0, "drop": 1, "back": 2, "free": t - 1, "dest": (300.0, 0.0)},
        locked(1, free=t, t=t),
        locked(1, free=t + 2, t=t),
    ]
    state = build_state(district, drones, t=t)
    assert [phase(state, uid) for uid in range(3)] == ["idle", "locked", "locked"]
    assert form_donor_set(state, [-3, 3]) == [0]
    assert relocation_leg(state, 0) == ((0.0, 0.0), t, 0)
    apply_allocation_moves(state, [(0, 2)])
    assert state.home[0] == 2
    assert state.free[0] == t + 2  # 600 m at 300 m per slot, no swap
    for uid in (1, 2):
        with pytest.raises(ValueError):
            apply_allocation_moves(state, [(uid, 2)])


def test_relocation_leg_per_phase():
    # at t=5, PDC1 at the origin and PDC2 at x=1500, 300 m per slot
    district = make_district(
        [point_region((0.0, 0.0), (900.0, 0.0)), point_region((1500.0, 0.0), (1500.0, 300.0))],
        total_uavs=5,
    )
    t = 5
    drones = [
        idle(1, free=3),
        idle(0),
        returning(1, drop=4, back=7),
        delivering(1, dest=(600.0, 0.0), drop=6, start=3),
        locked(1, free=t + 1, t=t),
    ]
    state = build_state(district, drones, t=t)
    assert relocation_leg(state, 0) == ((0.0, 0.0), t, 0)  # from home, now
    assert relocation_leg(state, 1) == ((0.0, -300.0), t, 0)  # from the port
    assert relocation_leg(state, 2) == ((0.0, 0.0), t, 1)  # diverted, then a swap
    assert relocation_leg(state, 3) == ((600.0, 0.0), 6, 1)  # from the drop, at it
    with pytest.raises(ValueError):
        relocation_leg(state, 4)

    # each move flies its leg: free = start + travel slots + swap, and a
    # drone that swaps gives up the rest of its return leg (back = drop)
    apply_allocation_moves(state, [(uid, 2) for uid in range(4)])
    assert state.free == [t + 5, t + 6, t + 5 + 1, 6 + 3 + 1, t + 1]
    assert state.back == [-1, -1, 4, 6, t - 1]
    assert state.home == [2, 2, 2, 2, 1]


def test_fleet_conservation_under_random_moves():
    district = make_district(
        [
            point_region((0.0, 0.0), (900.0, 0.0)),
            point_region((1500.0, 0.0), (1500.0, 300.0)),
            point_region((0.0, 1500.0), (300.0, 1500.0)),
        ],
        total_uavs=9,
    )
    procs = [
        ArrivalProcess(truck_interval=5, batch_mean=2, batch_half_width=1, p_high=0.6)
        for _ in range(3)
    ]
    state = init_sim(district, procs, [3, 3, 2], np.random.SeedSequence(10))
    rng = np.random.default_rng(11)
    movable = ("idle", "returning", "delivering")
    fleet = range(9)
    for _ in range(400):
        step_slot(state)
        if rng.random() < 0.2:
            candidates = [uid for uid in fleet if phase(state, uid) in movable]
            if candidates:
                uid = int(rng.choice(candidates))
                apply_allocation_moves(state, [(uid, int(rng.integers(0, 4)))])
        assert sum(n for n, _ in observe(state)) + state.home.count(0) == 9
        # each drone is idle or on a mission whose slots are in order (back
        # == drop after a diversion) and started before the clock
        for uid in fleet:
            assert state.start[uid] < state.t
            if phase(state, uid) != "idle":
                assert state.start[uid] <= state.drop[uid] <= state.back[uid] < state.free[uid]
        want = [[[] for _ in range(4)] for _ in range(3)]
        for uid in fleet:
            if phase(state, uid) in movable:
                want[movable.index(phase(state, uid))][state.home[uid]].append(uid)
        assert list(by_phase(state)) == want
        # nothing is due before the clock: a drone freed before it has taken
        # a package if its PDC had one waiting
        for pdc, queue in enumerate(state.queues, start=1):
            assert not (queue and want[0][pdc])


def test_multi_slot_step_matches_single_slot_steps():
    # Markov-modulated centers and moves between the calls; the spans cross
    # the look-ahead's block ends, so blocks of both states end apart. A
    # truck interval of 7 divides neither the epoch nor any block
    cfg = load_experiment_config("mmb")
    for interval in (30, 7):
        packages = _multi_slot_twins(cfg, interval)
        assert packages > 0, interval


def _multi_slot_twins(cfg, interval):
    """Step two equal states through the same moves, one of them a slot per
    call; returns the packages dispatched."""

    def fresh():
        processes = [ArrivalProcess(**{**a, "truck_interval": interval}) for a in cfg.arrival_args]
        return init_sim(cfg.district, processes, [4, 4, 4, 4], np.random.SeedSequence(8))

    state, twin = fresh(), fresh()
    rng = np.random.default_rng(0)
    packages = 0
    for k in (1, 60, 7, 500, 1, 1300, 60, 2):
        requests = rng.integers(-3, 4, size=4).tolist()
        moves = schedule(state, requests, np.random.default_rng(k))
        assert schedule(twin, requests, np.random.default_rng(k)) == moves
        apply_allocation_moves(state, moves)
        apply_allocation_moves(twin, moves)
        arrived, dispatched = step_slot(state, k)
        want_arrived, want_dispatched = [], []
        for _ in range(k):
            a, dsp = step_slot(twin)
            want_arrived += a
            want_dispatched += dsp
        assert arrived == want_arrived and dispatched == want_dispatched
        assert state.t == twin.t
        for name in ("home", "start", "drop", "back", "free", "dest"):
            assert getattr(state, name) == getattr(twin, name), name
        assert [list(q) for q in state.queues] == [list(q) for q in twin.queues]
        assert observe(state) == observe(twin)
        packages += sum(dispatched)
    return packages


@pytest.mark.parametrize(
    "pattern, interval, allocation, needy",
    [
        # Markov-modulated centers, trucks every 7 slots
        ("mmb", 7, [4, 4, 4, 4], [1, 2, 3, 4]),
        # a light load on a large fleet: drones sit idle before trucks land
        ("bernoulli", 30, [12, 12, 12, 12], [1, 2, 3, 4]),
        # PDC 1 holds no drone and is never sent one, so its queue only grows
        ("tvb", 30, [0, 6, 6, 6], [2, 3, 4]),
    ],
)
def test_step_slot_matches_the_slot_rule(pattern, interval, allocation, needy):
    cfg = load_experiment_config(pattern)

    def fresh():
        processes = [ArrivalProcess(**{**a, "truck_interval": interval}) for a in cfg.arrival_args]
        return init_sim(cfg.district, processes, allocation, np.random.SeedSequence(21))

    state, rule = fresh(), SlotRule(fresh())
    ref = rule.state
    rng = np.random.default_rng(22)
    parked = 0
    for k in (1, 60, 7, 500, 1, 1300, 60, 2, *rng.integers(1, 90, size=30).tolist()):
        # signed requests: the needy ask for drones, the rest shed them, and
        # donors nobody takes park at the port
        requests = [int(rng.integers(-3, 4)) if pdc in needy else -3 for pdc in range(1, 5)]
        moves = schedule(state, requests, np.random.default_rng(k))
        assert schedule(ref, requests, np.random.default_rng(k)) == moves
        parked += sum(target == 0 for _, target in moves)
        apply_allocation_moves(state, moves)
        apply_allocation_moves(ref, moves)
        assert step_slot(state, k) == rule.step(k)
        assert state.t == ref.t
        for name in ("home", "start", "drop", "back", "free", "dest"):
            assert getattr(state, name) == getattr(ref, name), name
        assert [len(q) for q in state.queues] == [len(q) for q in rule.queues]
        assert [n for n, _ in observe(state)] == [n for n, _ in observe(ref)]
    assert parked > 0
    for pdc, (n, q) in enumerate(observe(state), start=1):
        if pdc not in needy:
            assert n == 0 and q > 0
