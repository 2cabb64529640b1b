"""Truck arrivals feeding each distribution center.

Trucks can show up only at fixed opportunity slots (every `truck_interval`
minutes). Whether one shows up is a coin flip whose probability is set by a
rate rule: constant (Bernoulli), a square wave (time-varying), or a
two-phase Markov chain (Markov-modulated). A truck that arrives unloads a
whole batch of packages at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RATE_RULES = ("constant", "square", "markov")


@dataclass
class ArrivalProcess:
    """Trucks at one distribution center. On each opportunity slot a truck
    shows up with probability p_high in the high phase and p_low in the
    low one; the rule decides the phase:

    - constant: always high;
    - square: `period` slots high, then `period` low, repeating;
    - markov: a chain that starts high and leaves its phase with
      p_high_to_low or p_low_to_high. By default it is stepped once per
      slot; with per_slot_phase False it steps once per truck opportunity,
      which stretches mean phase sojourns by the truck interval. Only
      opportunities read the phase, so the simulator steps the chain over a
      whole truck interval in one advance_slot call; its uniforms come in
      one rng.random call, the same doubles that one call per step gives.

    Batch sizes are integer-uniform on
    [batch_mean - batch_half_width, batch_mean + batch_half_width].
    """

    truck_interval: int
    batch_mean: int
    batch_half_width: int
    p_high: float
    p_low: float = 0.0
    rule: str = "constant"
    period: int = 0
    p_high_to_low: float = 0.0
    p_low_to_high: float = 0.0
    per_slot_phase: bool = True
    is_high: bool = True

    def __post_init__(self):
        if self.rule not in RATE_RULES:
            raise ValueError(f"unknown rate rule {self.rule!r}")
        if self.truck_interval <= 0:
            raise ValueError("truck interval must be positive")
        if self.batch_half_width < 0 or self.batch_mean - self.batch_half_width < 0:
            raise ValueError("batch support must be nonnegative")
        for p in (self.p_high, self.p_low, self.p_high_to_low, self.p_low_to_high):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probability outside [0, 1]")
        if self.rule == "square" and self.period <= 0:
            raise ValueError("period must be positive")

    def rate_at(self, t: int) -> float:
        if self.rule == "square":
            high = (t % (2 * self.period)) < self.period
        else:
            high = self.is_high
        return self.p_high if high else self.p_low

    def advance_slot(self, t: int, rng: np.random.Generator, slots: int = 1) -> None:
        """Step the phase chain over the `slots` slots from t on.

        A slot's step comes after its draws, so the initial phase governs
        t = 0. Only the markov rule has a chain; per opportunity, it steps
        only on the opportunity slots among them.
        """
        if self.rule != "markov":
            return
        if not self.per_slot_phase:
            interval = self.truck_interval
            slots = (t + slots - 1) // interval - (t - 1) // interval
        if slots <= 0:
            return
        high, to_low, to_high = self.is_high, self.p_high_to_low, self.p_low_to_high
        for u in rng.random(slots).tolist():
            high = u >= to_low if high else u < to_high
        self.is_high = high

    def draw_batch(self, t: int, rng: np.random.Generator) -> int:
        """Batch size landing at slot t (0 when no truck shows up).

        Consumes no randomness outside opportunity slots, so traces are
        reproducible slot for slot.
        """
        if t % self.truck_interval:
            return 0
        if rng.random() < self.rate_at(t):
            mean, half = self.batch_mean, self.batch_half_width
            return int(rng.integers(mean - half, mean + half, endpoint=True))
        return 0
