"""Learning-side pieces: state encoding, replay, targets, reward, checkpoints.

Each PDC runs its own agent over the observation (n_d, q_d), encoded as raw
binary: 15 low-order bits of the queue length followed by 10 low-order bits
of the UAV count, least significant bit first. Actions index the count
deltas {-delta, 0, +delta}.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .network import QNetwork, forward

logger = logging.getLogger(__name__)

QUEUE_BITS = 15
COUNT_BITS = 10
STATE_SIZE = QUEUE_BITS + COUNT_BITS
NUM_ACTIONS = 3


class CheckpointError(Exception):
    """Raised when a checkpoint file is missing or malformed."""


def action_delta(action: int, delta: int) -> int:
    return (action - 1) * delta


def encode_state(n: int, q: int) -> np.ndarray:
    """25 binary inputs; values beyond the bit budget are clamped."""
    if q >= 1 << QUEUE_BITS:
        logger.warning("queue length %d exceeds %d bits, clamping", q, QUEUE_BITS)
        q = (1 << QUEUE_BITS) - 1
    if n >= 1 << COUNT_BITS:
        logger.warning("UAV count %d exceeds %d bits, clamping", n, COUNT_BITS)
        n = (1 << COUNT_BITS) - 1
    if q < 0 or n < 0:
        raise ValueError("negative observation")
    bits = [(q >> i) & 1 for i in range(QUEUE_BITS)]
    bits += [(n >> i) & 1 for i in range(COUNT_BITS)]
    return np.array(bits, dtype=np.float64)


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


def compute_reward(
    queue_trace: np.ndarray, queue_bound: float, n_allocated: int, params: RewardParams
) -> float:
    """Per-epoch reward: alpha_over per slot strictly above the bound,
    alpha_under per slot at or below it, minus the UAVs held."""
    trace = np.asarray(queue_trace)
    over = int((trace > queue_bound).sum())
    under = trace.size - over
    return over * params.alpha_over + under * params.alpha_under - float(n_allocated)


@dataclass(frozen=True)
class EpsilonSchedule:
    total_steps: int
    start: float = 0.5
    end: float = 0.05
    decay_fraction: float = 0.8


def epsilon_at(step: int, sched: EpsilonSchedule) -> float:
    """Linear decay over the first decay_fraction of planned steps, then flat."""
    cutoff = sched.decay_fraction * sched.total_steps
    if cutoff <= 0 or step >= cutoff:
        return sched.end
    return sched.start + (sched.end - sched.start) * (step / cutoff)


def select_action(net: QNetwork, encoded: np.ndarray, eps: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy; greedy ties break toward the lowest action index."""
    if rng.random() < eps:
        return int(rng.integers(NUM_ACTIONS))
    return int(np.argmax(forward(net, encoded)))


def ddqn_targets_batch(
    rewards: np.ndarray,
    next_encoded: np.ndarray,
    dones: np.ndarray,
    online: QNetwork,
    target: QNetwork,
    gamma: float,
) -> np.ndarray:
    """Double-DQN targets: the online net picks each next action, the target
    net prices it. Terminal transitions take the bare reward."""
    best = np.argmax(forward(online, next_encoded), axis=1)
    q_next = forward(target, next_encoded)[np.arange(len(best)), best]
    return rewards + gamma * q_next * (~dones)


class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform minibatch sampling.

    Transitions are stored column-wise, one array per field, so a minibatch
    is one fancy index per field. The arrays double as they fill, up to
    `capacity` rows.
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

    def _reserve(self, state: np.ndarray) -> None:
        rows = min(self.capacity, max(64, 2 * self._size))
        width = np.shape(state)
        fresh = (
            np.zeros((rows, *width)),
            np.zeros(rows, dtype=np.intp),
            np.zeros(rows),
            np.zeros((rows, *width)),
            np.zeros(rows, dtype=bool),
        )
        for new, old in zip(fresh, self._columns):
            new[: self._size] = old[: self._size]
        self._columns = fresh

    def push(self, state, action, reward, next_state, done) -> None:
        if not self._columns or self._write == len(self._columns[0]) < self.capacity:
            self._reserve(state)
        for column, value in zip(self._columns, (state, action, reward, next_state, done)):
            column[self._write] = value
        self._size = max(self._size, self._write + 1)
        self._write = (self._write + 1) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator):
        """Uniform without replacement within the minibatch; returns
        (states, actions, rewards, next_states, dones)."""
        if batch_size > self._size:
            raise ValueError("not enough transitions to sample")
        idx = rng.choice(self._size, size=batch_size, replace=False)
        return tuple(column[idx] for column in self._columns)


def save_checkpoint(path: str, net: QNetwork, train_steps: int, config_echo: dict) -> None:
    doc = {
        "layer_sizes": net.layer_sizes,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "train_steps": int(train_steps),
        "config": config_echo,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_checkpoint(path: str) -> tuple[QNetwork, int, dict]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
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
    if sizes[:1] != [STATE_SIZE] or sizes[-1:] != [NUM_ACTIONS]:
        raise CheckpointError(
            f"checkpoint layer sizes {sizes} do not map {STATE_SIZE} state inputs "
            f"to {NUM_ACTIONS} actions"
        )
    return QNetwork(weights=weights, biases=biases), steps, config


class GreedyPolicyController:
    """Frozen learned policy: per PDC, argmax of its Q-network."""

    def __init__(self, nets: list[QNetwork], delta: int):
        self.nets = nets
        self.delta = delta

    def decide(self, epoch: int, observations) -> list[int]:
        out = []
        for net, (n, q) in zip(self.nets, observations):
            action = int(np.argmax(forward(net, encode_state(n, q))))
            out.append(action_delta(action, self.delta))
        return out
