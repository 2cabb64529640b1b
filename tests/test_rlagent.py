import json
import logging

import numpy as np
import pytest

from dronefleet import rlagent
from dronefleet.configs import read_json
from dronefleet.network import QNetwork, forward, init_network, stack_networks
from dronefleet.rlagent import (
    COUNT_BITS,
    NUM_ACTIONS,
    QUEUE_BITS,
    CheckpointError,
    GreedyPolicyController,
    ReplayBuffer,
    RewardParams,
    action_delta,
    checkpoint_from_dict,
    compute_reward,
    ddqn_targets_batch,
    encode_state,
    save_checkpoint,
    select_action,
)
from dronefleet.training import TrainConfig, epsilon_at

from oracles import ddqn_target, decode_state


def const_net(q_values, inputs=QUEUE_BITS + COUNT_BITS):
    """Zero-weight network whose output equals the given biases everywhere."""
    return QNetwork(
        weights=[np.zeros((inputs, len(q_values)))],
        biases=[np.array(q_values, dtype=np.float64)],
    )


def test_encode_layout_lsb_first():
    enc = encode_state(n=3, q=5)
    assert enc.shape == (25,)
    # q=5 is 101: bits 0 and 2 set, least significant first
    assert list(enc[:QUEUE_BITS]) == [1, 0, 1] + [0] * 12
    # n=3 is 11
    assert list(enc[QUEUE_BITS:]) == [1, 1] + [0] * 8
    assert decode_state(enc) == (3, 5)


def test_encode_decode_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(0, 1 << COUNT_BITS))
        q = int(rng.integers(0, 1 << QUEUE_BITS))
        assert decode_state(encode_state(n, q)) == (n, q)


def test_encode_clamps_and_warns(caplog, monkeypatch):
    # nothing warned yet in this process, whatever ran before
    monkeypatch.setattr(rlagent, "_warned", set())
    with caplog.at_level(logging.WARNING):
        enc = encode_state(n=(1 << COUNT_BITS) + 7, q=(1 << QUEUE_BITS) + 1)
        again = encode_state(n=[1 << COUNT_BITS, 1], q=[(1 << QUEUE_BITS) + 9, 0])
    assert decode_state(enc) == ((1 << COUNT_BITS) - 1, (1 << QUEUE_BITS) - 1)
    assert decode_state(again[0]) == decode_state(enc)
    # one record per kind, the queue's and the count's, not one per call
    queue, count = (r.getMessage() for r in caplog.records)
    assert queue.startswith("queue length") and count.startswith("UAV count")


def test_encode_rejects_negative():
    with pytest.raises(ValueError):
        encode_state(n=-1, q=0)
    with pytest.raises(ValueError):
        encode_state(n=0, q=-1)


def test_encode_per_agent_arrays_match_scalars():
    rng = np.random.default_rng(14)
    n = rng.integers(0, 1 << COUNT_BITS, size=(3, 4))
    q = rng.integers(0, 1 << QUEUE_BITS, size=(3, 4))
    enc = encode_state(n, q)
    assert enc.shape == (3, 4, 25) and enc.dtype == np.float64
    for i in range(3):
        for j in range(4):
            assert enc[i, j].tobytes() == encode_state(int(n[i, j]), int(q[i, j])).tobytes()
    with pytest.raises(ValueError):
        encode_state(np.array([1, -1]), np.array([0, 0]))


def test_decode_rejects_bad_shape():
    with pytest.raises(ValueError):
        decode_state(np.zeros(24))


def test_action_delta_mapping():
    assert [action_delta(a, 5) for a in range(3)] == [-5, 0, 5]


def test_reward_params_alphas():
    params = RewardParams(lam=4.0, violation_budget=0.1, epoch_slots=60)
    assert params.alpha_over == pytest.approx(-3.6)
    assert params.alpha_under == pytest.approx(0.4)


def test_reward_hand_values():
    params = RewardParams(lam=4.0, violation_budget=0.1, epoch_slots=60)
    calm = np.zeros(60)
    assert compute_reward(calm, 80.0, 10, params) == pytest.approx(14.0)
    stormy = np.full(60, 100)
    assert compute_reward(stormy, 80.0, 20, params) == pytest.approx(-236.0)


def test_reward_counts_strictly_above_the_bound():
    params = RewardParams(lam=4.0, violation_budget=0.1, epoch_slots=4)
    trace = np.array([79, 80, 81, 82])
    # only 81 and 82 are over: 2*(-3.6) + 2*0.4 - 1
    assert compute_reward(trace, 80.0, 1, params) == pytest.approx(-7.4)


def test_reward_per_agent_arrays_match_scalars():
    params = RewardParams(lam=4.0, violation_budget=0.1, epoch_slots=60)
    rng = np.random.default_rng(15)
    traces = rng.integers(0, 250, size=(4, 60))
    bounds = np.array([110.0, 110.0, 150.0, 200.0])
    held = rng.integers(0, 40, size=4)
    got = compute_reward(traces, bounds, held, params)
    assert got.shape == (4,)
    for i in range(4):
        want = compute_reward(traces[i], bounds[i], int(held[i]), params)
        assert got[i].tobytes() == np.float64(want).tobytes()


def test_reward_lagrangian_identity():
    # mean reward == -(lam*T*(over_slots/(K*T) - budget) + mean n)
    rng = np.random.default_rng(42)
    for _ in range(20):
        T = int(rng.integers(10, 90))
        K = int(rng.integers(3, 25))
        lam = float(rng.uniform(0.5, 8.0))
        budget = float(rng.uniform(0.01, 0.3))
        bound = float(rng.integers(20, 120))
        params = RewardParams(lam=lam, violation_budget=budget, epoch_slots=T)
        traces = rng.integers(0, 2 * int(bound), size=(K, T))
        ns = rng.integers(0, 40, size=K)
        rewards = [compute_reward(traces[k], bound, int(ns[k]), params) for k in range(K)]
        over = int((traces > bound).sum())
        lhs = sum(rewards) / K
        rhs = -(lam * T * (over / (K * T) - budget) + ns.mean())
        assert abs(lhs - rhs) < 1e-9


def test_epsilon_schedule_shape():
    sched = TrainConfig(episodes=1, max_steps_per_episode=1000)
    assert epsilon_at(0, sched) == 0.5
    assert epsilon_at(400, sched) == pytest.approx(0.275)  # halfway into the decay
    assert epsilon_at(800, sched) == pytest.approx(0.05)
    assert epsilon_at(999, sched) == pytest.approx(0.05)
    assert epsilon_at(10_000, sched) == pytest.approx(0.05)


def test_select_action_greedy_and_uniform():
    net = stack_networks([const_net([1.0, 3.0, 2.0])])
    rng = np.random.default_rng(0)
    s = encode_state(5, 5)[None]
    assert select_action(net, s, 0.0, [rng]).tolist() == [1]
    # full exploration covers all actions
    seen = {int(select_action(net, s, 1.0, [rng])[0]) for _ in range(100)}
    assert seen == {0, 1, 2}
    # greedy ties break to the lowest action index
    flat = stack_networks([const_net([2.0, 2.0, 2.0])])
    assert select_action(flat, encode_state(1, 1)[None], 0.0, [rng]).tolist() == [0]


def test_select_action_matches_each_agent_alone():
    # each agent draws its coin (and its action when it explores) from its
    # own generator; greedy agents take the argmax of their own network
    rng = np.random.default_rng(11)
    nets = [init_network([25, 8, 3], rng) for _ in range(4)]
    stacked = stack_networks(nets)
    for eps in (0.0, 0.5, 1.0):
        rngs = [np.random.default_rng(100 + i) for i in range(4)]
        refs = [np.random.default_rng(100 + i) for i in range(4)]
        for _ in range(30):
            enc = encode_state(rng.integers(0, 60, size=4), rng.integers(0, 300, size=4))
            got = select_action(stacked, enc, eps, rngs)
            want = [
                int(ref.integers(NUM_ACTIONS))
                if ref.random() < eps
                else int(np.argmax(forward(net, enc[i][None])[0]))
                for i, (net, ref) in enumerate(zip(nets, refs))
            ]
            assert got.tolist() == want


def test_ddqn_target_hand_example():
    online = const_net([0.1, 0.5, 0.2])
    target = const_net([1.0, 2.0, 3.0])
    s2 = encode_state(5, 5)
    assert ddqn_target(1.0, s2, False, online, target, 0.99) == pytest.approx(2.98)
    assert ddqn_target(1.0, s2, True, online, target, 0.99) == 1.0


def test_ddqn_batch_matches_scalar():
    rng = np.random.default_rng(3)
    online = init_network([25, 8, 3], rng)
    target = init_network([25, 8, 3], rng)
    states = np.stack([encode_state(int(rng.integers(30)), int(rng.integers(200))) for _ in range(6)])
    rewards = rng.normal(size=6)
    dones = np.array([False, True, False, False, True, False])
    got = ddqn_targets_batch(rewards, states, dones, online, target, 0.99)
    want = [
        ddqn_target(float(rewards[i]), states[i], bool(dones[i]), online, target, 0.99)
        for i in range(6)
    ]
    assert np.allclose(got, want, atol=1e-12)


def test_ddqn_batch_stacked_matches_each_agent_alone():
    rng = np.random.default_rng(12)
    online = [init_network([25, 8, 3], rng) for _ in range(4)]
    target = [init_network([25, 8, 3], rng) for _ in range(4)]
    states = encode_state(rng.integers(0, 60, size=(4, 9)), rng.integers(0, 300, size=(4, 9)))
    rewards = rng.normal(size=(4, 9))
    dones = rng.random((4, 9)) < 0.3
    got = ddqn_targets_batch(
        rewards, states, dones, stack_networks(online), stack_networks(target), 0.99
    )
    assert got.shape == (4, 9)
    for i in range(4):
        alone = ddqn_targets_batch(rewards[i], states[i], dones[i], online[i], target[i], 0.99)
        assert got[i].tobytes() == alone.tobytes()


def push_one(buf, state, action, reward, next_state, done):
    """A single agent's transition, as a one-agent row."""
    buf.push(state[None], [action], [reward], next_state[None], done)


def test_replay_buffer_ring_overwrite():
    buf = ReplayBuffer(capacity=3)
    s = encode_state(1, 1)
    for k in range(5):
        push_one(buf, s, k % 3, float(k), s, False)
    assert len(buf) == 3
    rewards = set(buf.sample(3, [np.random.default_rng(0)])[2][0].tolist())
    assert rewards == {2.0, 3.0, 4.0}  # 0 and 1 were overwritten first
    with pytest.raises(ValueError):
        ReplayBuffer(0)


def test_replay_sample_without_replacement():
    buf = ReplayBuffer(capacity=10)
    s = encode_state(0, 0)
    for k in range(8):
        push_one(buf, s, 0, float(k), s, bool(k % 2))
    rng = np.random.default_rng(0)
    states, actions, rewards, next_states, dones = buf.sample(8, [rng])
    assert sorted(rewards[0].tolist()) == [float(k) for k in range(8)]
    assert states.shape == (1, 8, 25)
    assert states.dtype == np.float64 and next_states.dtype == np.float64
    assert dones.dtype == bool
    with pytest.raises(ValueError):
        buf.sample(9, [rng])
    with pytest.raises(ValueError):
        buf.sample(1, [rng, rng])  # one generator per agent


def test_replay_buffer_keeps_rows_across_growth_and_wrap():
    # the ring fills its 100 rows, then wraps
    buf = ReplayBuffer(capacity=100)
    for k in range(150):
        push_one(buf, encode_state(k % 7, k), k % 3, float(k), encode_state(0, k), k % 2 == 0)
    assert len(buf) == 100
    states, actions, rewards, next_states, dones = buf.sample(100, [np.random.default_rng(1)])
    assert sorted(rewards[0].tolist()) == [float(k) for k in range(50, 150)]
    for s, a, r, s2, done in zip(states[0], actions[0], rewards[0], next_states[0], dones[0]):
        k = int(r)
        assert decode_state(s) == (k % 7, k)
        assert decode_state(s2) == (0, k)
        assert (int(a), bool(done)) == (k % 3, k % 2 == 0)


def test_stacked_replay_matches_single_agent_buffers():
    # one row of D agents per push, sampled with one generator per agent,
    # returns exactly what D one-agent buffers return, through growth and wrap
    d = 4
    rng = np.random.default_rng(13)
    stacked = ReplayBuffer(capacity=90)
    singles = [ReplayBuffer(capacity=90) for _ in range(d)]
    for k in range(140):
        enc = encode_state(rng.integers(0, 60, size=d), rng.integers(0, 300, size=d))
        nxt = encode_state(rng.integers(0, 60, size=d), rng.integers(0, 300, size=d))
        acts = rng.integers(0, NUM_ACTIONS, size=d)
        rews = rng.normal(size=d)
        done = bool(rng.random() < 0.2)
        stacked.push(enc, acts, rews, nxt, done)
        for i, buf in enumerate(singles):
            push_one(buf, enc[i], acts[i], rews[i], nxt[i], done)
        if k >= 25 and k % 10 == 0:
            got = stacked.sample(25, [np.random.default_rng(k * d + i) for i in range(d)])
            for i, buf in enumerate(singles):
                want = buf.sample(25, [np.random.default_rng(k * d + i)])
                for field_got, field_want in zip(got, want):
                    assert field_got[i].tobytes() == field_want[0].tobytes()


def read_checkpoint(path):
    """A checkpoint file read as the CLI reads it."""
    return checkpoint_from_dict(read_json(path, CheckpointError, "checkpoint"))


def test_checkpoint_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(9)
    net = init_network([25, 16, 3], rng)
    path = str(tmp_path / "agent.json")
    save_checkpoint(path, net, train_steps=1234, config_echo={"seed": 7})
    loaded, steps, config = read_checkpoint(path)
    assert steps == 1234
    assert config == {"seed": 7}
    assert loaded.layer_sizes == net.layer_sizes
    for a, b in zip(loaded.weights, net.weights):
        assert np.array_equal(a, b)  # bit-for-bit through JSON
    for a, b in zip(loaded.biases, net.biases):
        assert np.array_equal(a, b)


def test_checkpoint_errors(tmp_path):
    with pytest.raises(CheckpointError):
        read_checkpoint(str(tmp_path / "missing.json"))

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CheckpointError):
        read_checkpoint(str(bad))

    rng = np.random.default_rng(10)
    net = init_network([25, 8, 3], rng)
    path = tmp_path / "agent.json"
    save_checkpoint(str(path), net, 1, {})
    doc = json.loads(path.read_text())
    doc["layer_sizes"] = [25, 9, 3]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError):
        read_checkpoint(str(path))

    del doc["weights"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError):
        read_checkpoint(str(path))


def test_greedy_policy_controller():
    shed = const_net([5.0, 1.0, 1.0])
    hold = const_net([0.0, 5.0, 1.0])
    grab = const_net([0.0, 1.0, 5.0])
    ctrl = GreedyPolicyController([shed, hold, grab], delta=5)
    assert ctrl.decide(0, [(10, 3), (10, 3), (10, 3)]) == [-5, 0, 5]


def test_greedy_policy_controller_matches_each_net_alone():
    # one stacked forward pass for every PDC picks what each net's own
    # argmax picks; a net whose Q-values all tie picks the lowest action
    rng = np.random.default_rng(21)
    nets = [init_network([25, 8, 3], rng) for _ in range(4)]
    for net in nets:
        net.biases = [rng.normal(size=b.shape) for b in net.biases]
    nets[3].weights[-1][:] = 0.0
    nets[3].biases[-1][:] = 1.5
    ctrl = GreedyPolicyController(nets, delta=5)
    for _ in range(40):
        obs = list(zip(rng.integers(0, 60, 4).tolist(), rng.integers(0, 300, 4).tolist()))
        want = [
            action_delta(int(np.argmax(forward(net, encode_state(n, q)[None])[0])), 5)
            for net, (n, q) in zip(nets, obs)
        ]
        assert ctrl.decide(0, obs) == want
        assert want[3] == -5
