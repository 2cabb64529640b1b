import numpy as np

from dronefleet.configs import config_from_dict
from dronefleet.training import TrainConfig, epsilon_at, train


def desk_doc():
    return {
        "district": "builtin",
        "arrival": {"type": "bernoulli", "p": 0.25, "batch_means": [55, 50, 75, 90]},
        "controller": "rl",
        "queue_bounds": [110.0, 110.0, 150.0, 200.0],
        "seeds": [1],
    }


def tiny_cfg(**overrides):
    base = dict(
        episodes=3,
        max_steps_per_episode=4,
        min_buffer=6,
        batch_size=4,
        target_update_episodes=2,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_epsilon_cutoff_takes_the_planned_steps_first():
    # 0.7 * (3 * 10) is 21.0, while (0.7 * 3) * 10 falls one bit short
    cfg = TrainConfig(episodes=3, max_steps_per_episode=10, eps_decay_fraction=0.7)
    assert epsilon_at(20, cfg) == 0.5 + (0.05 - 0.5) * (20 / 21.0) == 0.07142857142857145
    assert epsilon_at(21, cfg) == 0.05


def test_train_shapes_and_curve():
    scenario = config_from_dict(desk_doc())
    result = train(scenario, tiny_cfg(), seed=0)
    assert len(result.nets) == 4
    for net in result.nets:
        # one plain per-PDC net each, sliced from the stack the trainer keeps
        assert net.layer_sizes == [25, 32, 32, 3]
        assert [w.ndim for w in net.weights] == [2, 2, 2]
        assert [b.ndim for b in net.biases] == [1, 1, 1]
    assert len(result.curve) == 3
    assert result.train_steps == 12
    for row in result.curve:
        assert set(row) == {"episode", "steps", "avg_reward", "violation_window", "epsilon"}
        assert 0.0 <= row["violation_window"] <= 1.0
        assert 0.05 <= row["epsilon"] <= 0.5
    # epsilon follows the planned linear decay
    assert result.curve[0]["epsilon"] > result.curve[-1]["epsilon"]


def test_train_is_deterministic_per_seed():
    scenario = config_from_dict(desk_doc())
    a = train(scenario, tiny_cfg(), seed=7)
    b = train(scenario, tiny_cfg(), seed=7)
    c = train(scenario, tiny_cfg(), seed=8)
    for na, nb in zip(a.nets, b.nets):
        for wa, wb in zip(na.weights, nb.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(na.biases, nb.biases):
            assert np.array_equal(ba, bb)
    assert a.curve == b.curve
    assert a.curve != c.curve


def test_learning_changes_the_networks():
    scenario = config_from_dict(desk_doc())
    no_learn = train(scenario, tiny_cfg(min_buffer=10_000), seed=0)
    learn = train(scenario, tiny_cfg(), seed=0)
    # with the buffer floor unreachable, weights stay at initialization;
    # identical seeds then isolate the effect of the update path
    changed = any(
        not np.array_equal(wa, wb)
        for na, nb in zip(no_learn.nets, learn.nets)
        for wa, wb in zip(na.weights, nb.weights)
    )
    assert changed


def test_saturation_truncates_episode():
    doc = desk_doc()
    doc["queue_bounds"] = [1.0, 1.0, 1.0, 1.0]
    scenario = config_from_dict(doc)
    cfg = tiny_cfg(episodes=1, max_steps_per_episode=50, saturation_cutoff=30)
    result = train(scenario, cfg, seed=0)
    # queues blow past 30 well before 50 epochs
    assert result.curve[0]["steps"] < 50
