"""District layout: regions, distribution centers, the central port.

Coordinates are planar meters. Travel times are whole one-minute slots
(distance / speed, rounded up). The clock and the map meet in two places:
travel_time_slots here, for relocation legs, and simcore._draw_ahead, which
rounds package trips up by District.meters_per_slot in one array operation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

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
        total = weights.sum()
        if total <= 0:
            raise ValueError("region has no population weight")
        lo = np.array([s.min_corner for s in self.subregions], dtype=np.float64)
        span = np.array([s.max_corner for s in self.subregions], dtype=np.float64) - lo
        if not np.isfinite(span).all():
            raise ValueError("sub-region corners must be finite")
        return np.cumsum(weights), total, lo, span


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


def travel_time_slots(dist_m: float, speed_kph: float) -> int:
    """Whole slots needed to cover dist_m; zero only for a zero-length trip."""
    if dist_m < 0:
        raise ValueError("negative distance")
    if speed_kph <= 0:
        raise ValueError("speed must be positive")
    return math.ceil(dist_m / (speed_kph * 1000.0 / 60.0))


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


def _point(value, name: str) -> Point:
    point = tuple(float(x) for x in value)
    if len(point) != 2 or not all(map(math.isfinite, point)):
        raise ValueError(f"{name} must be two finite numbers: {value!r}")
    return point


def _subregion(doc: dict) -> SubRegion:
    sub = SubRegion(
        min_corner=_point(doc["min"], "sub-region corner"),
        max_corner=_point(doc["max"], "sub-region corner"),
        weight=float(doc["weight"]),
    )
    # written so that NaN fails; a negative weight or an inverted corner
    # would make sample_destinations draw outside the intended area
    if not 0.0 <= sub.weight < math.inf:
        raise ValueError(f"sub-region weight must be finite and >= 0: {doc['weight']!r}")
    if not all(lo <= hi for lo, hi in zip(sub.min_corner, sub.max_corner)):
        raise ValueError(f"sub-region min corner exceeds its max corner: {doc['min']!r}")
    return sub


def district_from_dict(doc: dict) -> District:
    try:
        regions = []
        for reg in doc["regions"]:
            subs = tuple(_subregion(s) for s in reg["subregions"])
            if not subs:
                raise ValueError("region without subregions")
            if not sum(s.weight for s in subs) > 0:
                raise ValueError("region has no population weight")
            regions.append(Region(pdc_location=_point(reg["pdc"], "pdc"), subregions=subs))
        if not regions:
            raise ValueError("district without regions")
        total_uavs = int(doc["total_uavs"])
        # int() would truncate 40.9 to 40
        if isinstance(doc["total_uavs"], float) and total_uavs != doc["total_uavs"]:
            raise ValueError(f"total_uavs must be a whole number: {doc['total_uavs']!r}")
        speed = float(doc["speed_kph"])
        if not 0.0 < speed < math.inf:
            raise ValueError(f"speed_kph must be finite and > 0: {doc['speed_kph']!r}")
        return District(
            regions=tuple(regions),
            port_location=_point(doc["port"], "port"),
            total_uavs=total_uavs,
            speed_kph=speed,
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed district document: {exc}") from exc


def builtin_district() -> District:
    """The bundled synthetic four-region district."""
    text = resources.files("dronefleet").joinpath("data/district.json").read_text()
    return district_from_dict(json.loads(text))
