"""District layout: regions, distribution centers, the central port.

Coordinates are planar meters. Travel times are whole one-minute slots
(distance / speed, rounded up). The clock and the map meet in two places,
both dividing by District.meters_per_slot: travel_time_slots here, for
relocation legs, and simcore._draw_ahead, which rounds package trips up in
one array operation. A district from configs.district_from_dict has finite
corners with min <= max, weights >= 0 that sum above 0 in each region, and a
positive speed; nothing here checks them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

Point = tuple[float, float]


@dataclass(frozen=True)
class SubRegion:
    """Axis-aligned rectangle with a population weight."""

    min_corner: Point
    max_corner: Point
    weight: float


@dataclass(frozen=True)
class Region:
    pdc_location: Point
    subregions: tuple[SubRegion, ...]

    @property
    def weight(self) -> float:
        return sum(s.weight for s in self.subregions)

    @cached_property
    def _sampler(self) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
        """Cumulative sub-region weights, their total, and the min corner and
        extent of each sub-region; built on first use, once per region."""
        weights = np.array([s.weight for s in self.subregions], dtype=np.float64)
        lo = np.array([s.min_corner for s in self.subregions], dtype=np.float64)
        span = np.array([s.max_corner for s in self.subregions], dtype=np.float64) - lo
        return np.cumsum(weights), weights.sum(), lo, span


@dataclass(frozen=True)
class District:
    regions: tuple[Region, ...]
    port_location: Point
    total_uavs: int
    speed_kph: float

    @property
    def num_pdcs(self) -> int:
        return len(self.regions)

    def location_of(self, home: int) -> Point:
        """Position of home index 0 (the port) or 1..D (a PDC)."""
        if home == 0:
            return self.port_location
        return self.regions[home - 1].pdc_location

    @property
    def meters_per_slot(self) -> float:
        return self.speed_kph * 1000.0 / 60.0


def distance(a: Point, b: Point) -> float:
    """Straight-line distance in meters."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def travel_time_slots(dist_m: float, meters_per_slot: float) -> int:
    """Whole slots needed to cover dist_m; zero only for a zero-length trip."""
    return math.ceil(dist_m / meters_per_slot)


def sample_destinations(
    region: Region, rng: np.random.Generator, count: int, batches: list[int] | None = None
) -> np.ndarray:
    """Draw `count` delivery points, shape (count, 2): sub-region by weight,
    then uniform inside the chosen rectangle.

    A batch takes its sub-region picks, then its coordinates, from rng.
    `batches`, sizes that sum to count (default: one batch), gives the
    points that one call per batch, in turn, would give.
    """
    sizes = np.asarray([count] if batches is None else batches, dtype=np.int64)
    if sizes.sum() != count:
        raise ValueError("batch sizes must sum to count")
    # Generator.random fills its doubles one after another, so one call
    # holds every batch's draws in order: each batch's picks, then its coordinates
    u = rng.random(3 * count)
    is_pick = np.repeat(
        np.tile([True, False], len(sizes)), np.column_stack((sizes, 2 * sizes)).ravel()
    )
    cum, total, lo, span = region._sampler
    idx = np.minimum(cum.searchsorted(u[is_pick] * total, side="right"), len(cum) - 1)
    # Generator.uniform(low, high) draws low + (high - low) * u, u filled in
    # C order; written out, the same doubles cost a fifth of its time
    return lo.take(idx, axis=0) + span.take(idx, axis=0) * u[~is_pick].reshape(count, 2)

