import numpy as np
import pytest

from dronefleet.configs import load_experiment_config
from dronefleet.controllers import (
    QlController,
    StaticController,
    ThresholdController,
    largest_remainder,
    ql_allocation,
    threshold_decide,
)


def brute_force_apportion(weights, total):
    """Reference: floors plus one seat at a time to the largest remainder."""
    wsum = float(sum(weights))
    shares = [total * w / wsum for w in weights]
    out = [int(np.floor(s)) for s in shares]
    remainders = [(s - b, -i) for i, (s, b) in enumerate(zip(shares, out))]
    while sum(out) < total:
        i = -max(remainders, key=lambda r: r)[1]
        out[i] += 1
        remainders[i] = (-1.0, -i)
    return out


def test_largest_remainder_hand_value():
    assert largest_remainder([55, 50, 75, 90], 60) == [12, 11, 17, 20]


def test_largest_remainder_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(300):
        k = int(rng.integers(1, 7))
        weights = [float(rng.integers(0, 100)) for _ in range(k)]
        if sum(weights) == 0:
            weights[0] = 1.0
        total = int(rng.integers(0, 80))
        got = largest_remainder(weights, total)
        assert got == brute_force_apportion(weights, total)
        assert sum(got) == total
        assert all(g >= 0 for g in got)


def test_largest_remainder_scale_invariance_and_ties():
    assert largest_remainder([1, 1, 1], 10) == largest_remainder([7, 7, 7], 10)
    # the odd seat goes to the lowest index on a perfect tie
    assert largest_remainder([1, 1], 3) == [2, 1]


def test_largest_remainder_validation():
    with pytest.raises(ValueError):
        largest_remainder([1, -1], 5)
    with pytest.raises(ValueError):
        largest_remainder([], 5)
    with pytest.raises(ValueError):
        largest_remainder([0, 0], 5)
    with pytest.raises(ValueError):
        largest_remainder([1, 2], -1)


def test_static_allocation_is_largest_remainder():
    # the static split, which every controller starts from
    cfg = load_experiment_config("bernoulli")
    weights = [region.weight for region in cfg.district.regions]
    assert cfg.initial_allocation == largest_remainder(weights, 60)
    assert largest_remainder([55, 50, 75, 90], 60) == [12, 11, 17, 20]


def test_threshold_bands():
    # bound 100: shed strictly below 50, reinforce at or above 150
    assert threshold_decide(49, 100.0, 5) == -5
    assert threshold_decide(50, 100.0, 5) == 0
    assert threshold_decide(149, 100.0, 5) == 0
    assert threshold_decide(150, 100.0, 5) == 5
    assert threshold_decide(0, 100.0, 5) == -5


def test_threshold_controller_maps_observations():
    ctrl = ThresholdController([100.0, 100.0, 100.0], delta=5)
    assert ctrl.decide(0, [(10, 0), (10, 70), (10, 200)]) == [-5, 0, 5]


def test_static_controller_never_moves():
    ctrl = StaticController()
    assert ctrl.decide(0, [(12, 0), (11, 999)]) == [0, 0]


def test_ql_allocation_proportional_and_empty():
    assert ql_allocation([0, 0, 0], 9) == [3, 3, 3]
    assert ql_allocation([10, 0, 0], 6) == [6, 0, 0]
    assert sum(ql_allocation([3, 9, 1], 10)) == 10
    with pytest.raises(ValueError):
        ql_allocation([-1, 2], 5)


def test_ql_controller_update_cadence():
    ctrl = QlController(total_uavs=10, update_multiple=5)
    obs = [(5, 8), (5, 2)]
    assert ctrl.decide(0, obs) == [3, -3]  # targets [8, 2]
    for epoch in (1, 2, 3, 4):
        assert ctrl.decide(epoch, obs) == [0, 0]
    assert ctrl.decide(5, obs) == [3, -3]
    with pytest.raises(ValueError):
        QlController(total_uavs=10, update_multiple=0)
