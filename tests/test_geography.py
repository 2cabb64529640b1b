import json
import math

import numpy as np
import pytest

from dronefleet.configs import ConfigError, read_json
from dronefleet.geography import (
    District,
    Region,
    SubRegion,
    builtin_district,
    distance,
    district_from_dict,
    sample_destinations,
    travel_time_slots,
)


def square_region(cx, cy, side, weight):
    half = side / 2.0
    return Region(
        pdc_location=(cx, cy),
        subregions=(SubRegion((cx - half, cy - half), (cx + half, cy + half), weight),),
    )


def test_distance_is_euclidean():
    assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert distance((1.0, 1.0), (1.0, 1.0)) == 0.0


def test_travel_time_rounds_up_to_whole_slots():
    # 18 km/h is 300 m per slot
    assert travel_time_slots(0.0, 18.0) == 0
    assert travel_time_slots(1.0, 18.0) == 1
    assert travel_time_slots(300.0, 18.0) == 1
    assert travel_time_slots(300.1, 18.0) == 2
    assert travel_time_slots(1500.0, 18.0) == 5


def test_travel_time_rejects_bad_input():
    with pytest.raises(ValueError):
        travel_time_slots(-1.0, 18.0)
    with pytest.raises(ValueError):
        travel_time_slots(10.0, 0.0)


def test_sampled_destinations_stay_inside_their_rectangles():
    region = Region(
        pdc_location=(0.0, 0.0),
        subregions=(
            SubRegion((0.0, 0.0), (10.0, 10.0), 1.0),
            SubRegion((100.0, 100.0), (110.0, 110.0), 3.0),
        ),
    )
    rng = np.random.default_rng(0)
    pts = sample_destinations(region, rng, 2000)
    assert pts.shape == (2000, 2)
    in_first = (pts[:, 0] <= 10.0) & (pts[:, 1] <= 10.0)
    in_second = (pts[:, 0] >= 100.0) & (pts[:, 1] >= 100.0)
    assert bool((in_first | in_second).all())
    # weight 3 vs 1 puts ~75% of points in the second rectangle
    frac = in_second.mean()
    assert 0.70 < frac < 0.80


def test_single_sample_matches_batch_of_one():
    # one point drawn long-hand: a sub-region by weight, then uniform inside it
    region = square_region(50.0, 50.0, 20.0, 2.0)
    rng = np.random.default_rng(42)
    rng.random()  # the draw that picks the only sub-region
    sub = region.subregions[0]
    a = tuple(float(c) for c in rng.uniform(sub.min_corner, sub.max_corner))
    b = sample_destinations(region, np.random.default_rng(42), 1)[0]
    assert a == (float(b[0]), float(b[1]))


def test_batches_match_a_long_hand_draw_per_point():
    # per point: a sub-region by weight from its own uniform, then
    # Generator.uniform inside it; the batch draws the sub-region uniforms
    # first, then the coordinates in point order
    three = Region(
        pdc_location=(0.0, 0.0),
        subregions=(
            SubRegion((-500.0, 0.0), (0.0, 250.0), 1.5),
            SubRegion((0.0, -300.0), (800.0, 0.0), 0.5),
            SubRegion((40.0, 40.0), (41.0, 90.0), 2.0),
        ),
    )
    for region in (*builtin_district().regions, three):
        weights = [s.weight for s in region.subregions]
        cum = np.cumsum(weights)
        for seed, count in [(1, 1), (2, 7), (3, 90), (4, 113)]:
            want_rng = np.random.default_rng(seed)
            picks = [
                min(int(np.searchsorted(cum, u * sum(weights), side="right")), len(cum) - 1)
                for u in want_rng.random(count)
            ]
            want = [
                want_rng.uniform(region.subregions[k].min_corner, region.subregions[k].max_corner)
                for k in picks
            ]
            got = sample_destinations(region, np.random.default_rng(seed), count)
            assert got.tolist() == np.array(want).tolist()


def test_block_draw_matches_one_call_per_batch():
    # the simulator draws a block of batches at once, sometimes a run of
    # batches split across two blocks
    sizes = [3, 0, 41, 7, 90, 1, 12]
    for region in builtin_district().regions:
        rng = np.random.default_rng(5)
        want = np.concatenate([sample_destinations(region, rng, size) for size in sizes])
        whole = sample_destinations(region, np.random.default_rng(5), sum(sizes), sizes)
        rng = np.random.default_rng(5)
        split = np.concatenate(
            [
                sample_destinations(region, rng, sum(sizes[:3]), sizes[:3]),
                sample_destinations(region, rng, sum(sizes[3:]), sizes[3:]),
            ]
        )
        assert whole.tobytes() == want.tobytes()
        assert split.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        sample_destinations(region, rng, 5, [2, 2])


def test_zero_weight_region_rejected():
    region = Region(
        pdc_location=(0.0, 0.0),
        subregions=(SubRegion((0.0, 0.0), (1.0, 1.0), 0.0),),
    )
    with pytest.raises(ValueError):
        sample_destinations(region, np.random.default_rng(0), 1)


def test_infinite_corner_rejected():
    region = Region(
        pdc_location=(0.0, 0.0),
        subregions=(SubRegion((0.0, 0.0), (math.inf, 1.0), 1.0),),
    )
    with pytest.raises(ValueError):
        sample_destinations(region, np.random.default_rng(0), 1)


def test_district_accessors():
    district = District(
        regions=(square_region(0.0, 0.0, 10.0, 1.0), square_region(100.0, 0.0, 10.0, 2.0)),
        port_location=(50.0, 50.0),
        total_uavs=8,
        speed_kph=18.0,
    )
    assert district.num_pdcs == 2
    assert district.location_of(0) == (50.0, 50.0)
    assert district.location_of(1) == (0.0, 0.0)
    assert district.location_of(2) == (100.0, 0.0)
    assert district.meters_per_slot == 300.0
    assert district.regions[1].weight == 2.0


def test_district_from_dict_roundtrip(tmp_path):
    doc = {
        "port": [5.0, 5.0],
        "total_uavs": 4,
        "speed_kph": 30.0,
        "regions": [
            {
                "pdc": [0.0, 0.0],
                "subregions": [{"min": [0.0, 0.0], "max": [2.0, 2.0], "weight": 1.5}],
            }
        ],
    }
    district = district_from_dict(doc)
    assert district.num_pdcs == 1
    assert district.regions[0].subregions[0].max_corner == (2.0, 2.0)

    path = tmp_path / "district.json"
    path.write_text(json.dumps(doc))
    assert district_from_dict(read_json(str(path), ConfigError, "district file")) == district


def test_district_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        district_from_dict({"port": [0, 0]})
    with pytest.raises(ValueError):
        district_from_dict(
            {"port": [0, 0], "total_uavs": 1, "speed_kph": 10, "regions": [{"pdc": [0, 0], "subregions": []}]}
        )


def test_builtin_district_shape():
    district = builtin_district()
    assert district.num_pdcs == 4
    assert district.total_uavs == 60
    assert [r.weight for r in district.regions] == [55, 50, 75, 90]
    for region in district.regions:
        for sub in region.subregions:
            assert sub.min_corner[0] < sub.max_corner[0]
            assert sub.min_corner[1] < sub.max_corner[1]


def test_builtin_travel_times_fit_an_epoch():
    # every round trip must fit well inside a 60 slot decision epoch
    district = builtin_district()
    for region in district.regions:
        worst = max(
            distance(region.pdc_location, corner)
            for sub in region.subregions
            for corner in (
                sub.min_corner,
                sub.max_corner,
                (sub.min_corner[0], sub.max_corner[1]),
                (sub.max_corner[0], sub.min_corner[1]),
            )
        )
        round_trip = 2 * travel_time_slots(worst, district.speed_kph)
        assert round_trip <= 30
