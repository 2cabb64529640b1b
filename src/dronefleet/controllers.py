"""Baseline fleet controllers.

All controllers speak the same language as the learned policy: once per
decision epoch they emit a signed UAV-count delta per PDC, which the central
scheduler then turns into concrete moves. Static never moves anything after
the initial split, threshold nudges counts against queue bands, and the
queue-length controller re-apportions the whole fleet every few epochs.
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence


class Controller(Protocol):
    def decide(self, epoch: int, observations: Sequence[tuple[int, int]]) -> list[int]:
        """Per-PDC requested count deltas for this epoch."""
        ...


def largest_remainder(weights: Sequence[float], total: int) -> list[int]:
    """Apportion `total` integer seats proportionally to nonnegative weights.

    Floor shares are handed out first; leftovers go to the largest
    fractional remainders (ties to the lowest index). Scale-invariant in the
    weights.
    """
    if total < 0:
        raise ValueError("total must be nonnegative")
    if not weights or any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative and nonempty")
    wsum = float(sum(weights))
    if wsum == 0:
        raise ValueError("weights sum to zero")
    shares = [total * w / wsum for w in weights]
    base = [math.floor(s) for s in shares]
    leftover = total - sum(base)
    order = sorted(range(len(weights)), key=lambda i: (base[i] - shares[i], i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def threshold_decide(queue_len: int, queue_bound: float, delta: int) -> int:
    """Shed below half the bound, reinforce at one-and-a-half times it."""
    if queue_len < 0.5 * queue_bound:
        return -delta
    if queue_len >= 1.5 * queue_bound:
        return delta
    return 0


def ql_allocation(queue_lens: Sequence[int], total: int) -> list[int]:
    """Apportion the fleet proportionally to current queue lengths.

    With every queue empty there is nothing to be proportional to, so the
    fleet is split equally.
    """
    if any(q < 0 for q in queue_lens):
        raise ValueError("queue lengths must be nonnegative")
    if sum(queue_lens) == 0:
        return largest_remainder([1.0] * len(queue_lens), total)
    return largest_remainder(queue_lens, total)


class StaticController:
    def decide(self, epoch: int, observations: Sequence[tuple[int, int]]) -> list[int]:
        return [0] * len(observations)


class ThresholdController:
    def __init__(self, queue_bounds: Sequence[float], delta: int):
        self.queue_bounds = list(queue_bounds)
        self.delta = delta

    def decide(self, epoch: int, observations: Sequence[tuple[int, int]]) -> list[int]:
        return [
            threshold_decide(q, bound, self.delta)
            for (_, q), bound in zip(observations, self.queue_bounds)
        ]


class QlController:
    """Re-apportions all assignable UAVs by queue length every
    `update_multiple` epochs, and sits still in between."""

    def __init__(self, total_uavs: int, update_multiple: int):
        if update_multiple < 1:
            raise ValueError("update multiple must be >= 1")
        self.total_uavs = total_uavs
        self.update_multiple = update_multiple

    def decide(self, epoch: int, observations: Sequence[tuple[int, int]]) -> list[int]:
        if epoch % self.update_multiple != 0:
            return [0] * len(observations)
        targets = ql_allocation([q for _, q in observations], self.total_uavs)
        return [target - n for target, (n, _) in zip(targets, observations)]
