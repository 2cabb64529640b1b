"""Episodic trainer: one agent per PDC, a shared simulator, a shared clock.

Every decision epoch each agent observes its own (n_d, q_d), all actions go
through the central scheduler together, the simulator advances one epoch,
and each agent stores its transition and takes one minibatch step. Episodes
end at a step cap (truncation, bootstrapping continues) or when any queue
saturates (terminal).

The D agents share one shape, so they are trained as one stacked network
(see network.py) with one Adam state and one replay buffer: each decision
step is one forward pass, one backprop, one Adam update and one replay write
for all of them. Each agent keeps its own random streams.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

from .metrics import queue_trace, slots_over
from .network import (
    adam_step,
    batch_gradient,
    copy_network,
    init_adam,
    init_network,
    stack_networks,
    unstack_network,
)
from .rlagent import (
    NUM_ACTIONS,
    STATE_SIZE,
    ReplayBuffer,
    RewardParams,
    action_delta,
    compute_reward,
    ddqn_targets_batch,
    encode_state,
    select_action,
)
from .runner import run_epoch
from .simcore import init_sim, observe

logger = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    episodes: int
    max_steps_per_episode: int = 1000
    gamma: float = 0.99
    batch_size: int = 25
    buffer_capacity: int = 1_000_000
    min_buffer: int = 1000
    target_update_episodes: int = 5
    learning_rate: float = 0.001
    eps_start: float = 0.5
    eps_end: float = 0.05
    eps_decay_fraction: float = 0.8
    saturation_cutoff: int = 2000
    hidden_sizes: tuple = (32, 32)


@dataclass
class TrainResult:
    nets: list
    curve: list  # one dict per episode
    train_steps: int


def epsilon_at(step: int, cfg: TrainConfig) -> float:
    """Linear decay over the first eps_decay_fraction of the planned steps,
    then flat."""
    cutoff = cfg.eps_decay_fraction * (cfg.episodes * cfg.max_steps_per_episode)
    if cutoff <= 0 or step >= cutoff:
        return cfg.eps_end
    return cfg.eps_start + (cfg.eps_end - cfg.eps_start) * (step / cutoff)


def train(scenario, cfg: TrainConfig, seed: int) -> TrainResult:
    """Train one agent per PDC; returns the online nets and learning curve.

    `scenario` supplies the district, fresh arrival processes, reward
    parameters, queue bounds, action delta and initial allocation (see
    configs.ExperimentConfig).
    """
    district = scenario.district
    d = district.num_pdcs
    reward_params: RewardParams = scenario.reward
    epoch_slots = reward_params.epoch_slots
    bounds = np.asarray(scenario.queue_bounds)

    master = np.random.SeedSequence(seed)
    layer_sizes = [STATE_SIZE, *cfg.hidden_sizes, NUM_ACTIONS]
    nets, action_rngs, replay_rngs = [], [], []
    for agent_ss in master.spawn(d):
        init_ss, action_ss, replay_ss = agent_ss.spawn(3)
        nets.append(init_network(layer_sizes, np.random.default_rng(init_ss)))
        action_rngs.append(np.random.default_rng(action_ss))
        replay_rngs.append(np.random.default_rng(replay_ss))
    net = stack_networks(nets)
    target = copy_network(net)
    adam = init_adam(net, lr=cfg.learning_rate)
    buffer = ReplayBuffer(cfg.buffer_capacity)
    sched_rng = np.random.default_rng(master.spawn(1)[0])
    counts = np.empty((epoch_slots, 2, d), dtype=np.int64)  # one epoch's, reused

    learn_after = max(cfg.min_buffer, cfg.batch_size)
    window = deque(maxlen=10)  # (over_slots, total_slots) per recent episode
    curve = []
    global_step = 0

    for episode in range(cfg.episodes):
        state = init_sim(
            district,
            scenario.make_processes(),
            scenario.initial_allocation,
            master.spawn(1)[0],
        )
        reward_total = 0.0
        over_ge = 0
        steps = 0
        n, q = zip(*observe(state))
        encoded = encode_state(n, q)

        for _ in range(cfg.max_steps_per_episode):
            eps = epsilon_at(global_step, cfg)
            actions = select_action(net, encoded, eps, action_rngs)
            deltas = [action_delta(a, scenario.delta) for a in actions.tolist()]
            run_epoch(state, deltas, sched_rng, counts)
            # the queues start the epoch where the last observation saw them
            q_window = queue_trace(counts[:, 0].T, counts[:, 1].T, q)

            saturated = bool((q_window > cfg.saturation_cutoff).any())
            n, q = zip(*observe(state))
            next_encoded = encode_state(n, q)
            rewards = compute_reward(q_window, bounds, n, reward_params)
            for r in rewards.tolist():  # agent by agent, as a running float sum
                reward_total += r
            buffer.push(encoded, actions, rewards, next_encoded, saturated)
            over_ge += int(slots_over(q_window, bounds).sum())

            if len(buffer) >= learn_after:
                states, acts, rews, next_states, dones = buffer.sample(cfg.batch_size, replay_rngs)
                targets = ddqn_targets_batch(rews, next_states, dones, net, target, cfg.gamma)
                grads_w, grads_b = batch_gradient(net, states, acts, targets)
                adam_step(adam, net, grads_w, grads_b)

            encoded = next_encoded
            global_step += 1
            steps += 1
            if saturated:
                break

        window.append((over_ge, steps * epoch_slots * d))
        over, total = map(sum, zip(*window))
        curve.append(
            {
                "episode": episode,
                "steps": steps,
                "avg_reward": reward_total / (steps * d),
                "violation_window": over / total,
                "epsilon": eps,
            }
        )
        if (episode + 1) % cfg.target_update_episodes == 0:
            target = copy_network(net)
        logger.info(
            "episode %d: steps=%d avg_reward=%.2f violation=%.3f eps=%.3f",
            episode,
            steps,
            curve[-1]["avg_reward"],
            curve[-1]["violation_window"],
            eps,
        )

    return TrainResult(nets=unstack_network(net), curve=curve, train_steps=global_step)
