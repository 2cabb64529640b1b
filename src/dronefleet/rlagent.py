"""Learning-side pieces: state encoding, replay, targets, reward, checkpoints.

Each PDC runs its own agent over the observation (n_d, q_d), encoded as raw
binary: 15 low-order bits of the queue length followed by 10 low-order bits
of the UAV count, least significant bit first. Actions index the count
deltas {-delta, 0, +delta}. The training-side helpers take all D agents at
once: per-agent arrays in, one stacked network (see network.py), one replay
row per decision step.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .network import QNetwork, forward, stack_networks

logger = logging.getLogger(__name__)

QUEUE_BITS = 15
COUNT_BITS = 10
STATE_SIZE = QUEUE_BITS + COUNT_BITS
NUM_ACTIONS = 3


class CheckpointError(Exception):
    """Raised when a checkpoint file is missing or malformed."""


def action_delta(action: int, delta: int) -> int:
    return (action - 1) * delta


# kinds of observation already logged as clamped; a run that outgrows the
# bit budget does so at every step, so each kind is logged once per process
_warned: set[str] = set()


def _warn_once(kind: str, value, bits: int) -> None:
    if kind not in _warned:
        _warned.add(kind)
        logger.warning("%s %d exceeds %d bits, clamping (logged once)", kind, value, bits)


def encode_state(n, q) -> np.ndarray:
    """25 binary inputs per observation; values beyond the bit budget are
    clamped, with one warning per kind and process. `n` and `q` are one
    agent's counts or equal-shape arrays of them (one per agent); the bits
    form a new last axis."""
    n = np.asarray(n, dtype=np.int64)
    q = np.asarray(q, dtype=np.int64)
    if (q < 0).any() or (n < 0).any():
        raise ValueError("negative observation")
    if (q >= 1 << QUEUE_BITS).any():
        _warn_once("queue length", q.max(), QUEUE_BITS)
        q = np.minimum(q, (1 << QUEUE_BITS) - 1)
    if (n >= 1 << COUNT_BITS).any():
        _warn_once("UAV count", n.max(), COUNT_BITS)
        n = np.minimum(n, (1 << COUNT_BITS) - 1)
    bits = np.concatenate(
        ((q[..., None] >> np.arange(QUEUE_BITS)) & 1, (n[..., None] >> np.arange(COUNT_BITS)) & 1),
        axis=-1,
    )
    return bits.astype(np.float64)


@dataclass(frozen=True)
class RewardParams:
    lam: float
    violation_budget: float
    epoch_slots: int

    @property
    def alpha_over(self) -> float:
        return self.violation_budget * self.lam - self.lam

    @property
    def alpha_under(self) -> float:
        return self.violation_budget * self.lam


def compute_reward(queue_trace, queue_bound, n_allocated, params: RewardParams):
    """Per-epoch reward: alpha_over per slot strictly above the bound,
    alpha_under per slot at or below it, minus the UAVs held. The strict
    q > bound is the reward's own rule (acceptance criterion 1); the
    violation metric, metrics.slots_over, counts q == bound (criterion 8).

    `queue_trace` is (..., T) slots; `queue_bound` and `n_allocated` are
    scalars for one agent or arrays over the leading axes (one per agent).
    """
    trace = np.asarray(queue_trace)
    over = (trace > np.asarray(queue_bound)[..., None]).sum(axis=-1)
    under = trace.shape[-1] - over
    held = np.asarray(n_allocated, dtype=np.float64)
    return over * params.alpha_over + under * params.alpha_under - held


def greedy_actions(net: QNetwork, encoded: np.ndarray) -> np.ndarray:
    """Each agent's greedy action, from one forward pass of `net`, which
    stacks one network per agent, over the (D, STATE_SIZE) `encoded`; ties
    break toward the lowest action index."""
    return np.argmax(forward(net, encoded[:, None, :])[:, 0], axis=-1)


def select_action(net: QNetwork, encoded: np.ndarray, eps: float, rngs: list) -> np.ndarray:
    """Epsilon-greedy action per agent.

    `net` stacks one network per agent, `encoded` is (D, STATE_SIZE) and
    `rngs` holds one generator per agent. Agent by agent, in order, each
    generator draws the exploration coin and, when it explores, the action.
    If any agent is greedy, the greedy agents then take their greedy_actions.
    """
    actions = np.zeros(len(rngs), dtype=np.intp)
    greedy = np.zeros(len(rngs), dtype=bool)
    for i, rng in enumerate(rngs):
        if rng.random() < eps:
            actions[i] = rng.integers(NUM_ACTIONS)
        else:
            greedy[i] = True
    if greedy.any():
        actions[greedy] = greedy_actions(net, encoded)[greedy]
    return actions


def ddqn_targets_batch(
    rewards: np.ndarray,
    next_encoded: np.ndarray,
    dones: np.ndarray,
    online: QNetwork,
    target: QNetwork,
    gamma: float,
) -> np.ndarray:
    """Double-DQN targets: the online net picks each next action, the target
    net prices it. Terminal transitions take the bare reward.

    `next_encoded` is (..., B, STATE_SIZE) and `rewards` and `dones` are
    (..., B); a stacked pair of networks takes (D, B, ...) arrays."""
    best = np.argmax(forward(online, next_encoded), axis=-1)[..., None]
    q_next = np.take_along_axis(forward(target, next_encoded), best, -1)[..., 0]
    return rewards + gamma * q_next * (~dones)


class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform minibatch sampling.

    Each row holds one decision step of all D agents: their encoded states
    and next states (D, STATE_SIZE), actions and rewards (D,), and one done
    flag. Rows are stored column-wise, one array per field, so a push is one
    row write per field and a minibatch one fancy index per field. The
    encodings are 0/1 bits and are kept as uint8. The arrays double as they
    fill, up to `capacity` rows.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._size = 0
        self._write = 0
        self._columns: tuple[np.ndarray, ...] = ()

    def __len__(self) -> int:
        return self._size

    def _reserve(self, state: np.ndarray, action: np.ndarray) -> None:
        rows = min(self.capacity, max(64, 2 * self._size))
        fresh = (
            np.zeros((rows, *np.shape(state)), dtype=np.uint8),
            np.zeros((rows, *np.shape(action)), dtype=np.intp),
            np.zeros((rows, *np.shape(action))),
            np.zeros((rows, *np.shape(state)), dtype=np.uint8),
            np.zeros(rows, dtype=bool),
        )
        for new, old in zip(fresh, self._columns):
            new[: self._size] = old[: self._size]
        self._columns = fresh

    def push(self, state, action, reward, next_state, done) -> None:
        if not self._columns or self._write == len(self._columns[0]) < self.capacity:
            self._reserve(state, action)
        for column, value in zip(self._columns, (state, action, reward, next_state, done)):
            column[self._write] = value
        self._size = max(self._size, self._write + 1)
        self._write = (self._write + 1) % self.capacity

    def sample(self, batch_size: int, rngs: list):
        """One minibatch per agent, each drawn uniformly without replacement
        by that agent's own generator in `rngs`; returns (states, actions,
        rewards, next_states, dones), each with leading axes (D, batch_size).
        """
        if batch_size > self._size:
            raise ValueError("not enough transitions to sample")
        if len(rngs) != self._columns[1].shape[1]:
            raise ValueError("need one generator per agent")
        idx = np.stack([rng.choice(self._size, size=batch_size, replace=False) for rng in rngs])
        agents = np.arange(len(rngs))[:, None]
        states, actions, rewards, next_states, dones = self._columns
        return (
            states[idx, agents].astype(np.float64),
            actions[idx, agents],
            rewards[idx, agents],
            next_states[idx, agents].astype(np.float64),
            dones[idx],
        )


def save_checkpoint(path: str, net: QNetwork, train_steps: int, config_echo: dict) -> None:
    doc = {
        "layer_sizes": net.layer_sizes,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "train_steps": int(train_steps),
        "config": config_echo,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))  # json.dump would stream through the pure-Python encoder


def checkpoint_from_dict(doc) -> tuple[QNetwork, int, dict]:
    """The network, step count and config echo of a save_checkpoint document."""
    try:
        sizes = list(doc["layer_sizes"])
        weights = [np.array(w, dtype=np.float64) for w in doc["weights"]]
        biases = [np.array(b, dtype=np.float64) for b in doc["biases"]]
        steps = int(doc["train_steps"])
        config = doc.get("config", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    expected = list(zip(sizes[:-1], sizes[1:]))
    if [w.shape for w in weights] != expected or [b.shape for b in biases] != [
        (s,) for s in sizes[1:]
    ]:
        raise CheckpointError("checkpoint layer shapes do not match layer_sizes")
    if not all(np.isfinite(a).all() for a in weights + biases):
        raise CheckpointError("checkpoint weights or biases are not all finite")
    if sizes[:1] != [STATE_SIZE] or sizes[-1:] != [NUM_ACTIONS]:
        raise CheckpointError(
            f"checkpoint layer sizes {sizes} do not map {STATE_SIZE} state inputs "
            f"to {NUM_ACTIONS} actions"
        )
    return QNetwork(weights=weights, biases=biases), steps, config


class GreedyPolicyController:
    """Frozen learned policy: per PDC, argmax of its Q-network, every PDC in
    one stacked forward pass per decision."""

    def __init__(self, nets: list[QNetwork], delta: int):
        self.net = stack_networks(nets)
        self.delta = delta

    def decide(self, epoch: int, observations) -> list[int]:
        actions = greedy_actions(self.net, encode_state(*zip(*observations)))
        return [action_delta(a, self.delta) for a in actions.tolist()]
