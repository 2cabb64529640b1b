"""Experiment configuration: JSON in, validated runnable scenario out.

Three scenario files ship with the package (bernoulli, tvb, mmb); any field
can be overridden by pointing the CLI at a custom JSON document.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace
from importlib import resources

from .arrivals import (
    BatchSpec,
    BernoulliArrivals,
    MarkovModulatedArrivals,
    TimeVaryingArrivals,
)
from .controllers import (
    QlController,
    StaticController,
    ThresholdController,
    static_allocation,
)
from .geography import District, builtin_district, load_district
from .rlagent import GreedyPolicyController, RewardParams
from .training import TrainConfig

BUILTIN_SCENARIOS = ("bernoulli", "tvb", "mmb")
CONTROLLERS = ("rl", "static", "threshold", "ql")


class ConfigError(Exception):
    """Raised for unusable configuration input."""


@dataclass
class ExperimentConfig:
    district: District
    district_source: str
    arrival: dict
    controller: str
    reward: RewardParams
    queue_bounds: list
    delta: int
    train: TrainConfig
    seeds: list
    horizon_slots: int
    warmup_slots: int
    ql_update_multiple: int
    initial_allocation: object = "static"  # "static" or explicit per-PDC counts
    raw: dict = field(default_factory=dict)

    def region_weights(self) -> list:
        return [r.weight for r in self.district.regions]

    def initial_allocation_counts(self) -> list:
        if self.initial_allocation == "static":
            return static_allocation(self.region_weights(), self.district.total_uavs)
        return list(self.initial_allocation)

    def with_fleet(self, total_uavs: int) -> "ExperimentConfig":
        """The same experiment with a fleet of `total_uavs`, split statically."""
        if total_uavs < 1:
            raise ConfigError("total_uavs must be >= 1")
        district = replace(self.district, total_uavs=total_uavs)
        return replace(self, district=district, initial_allocation="static")

    def make_processes(self) -> list:
        """Fresh arrival process per PDC (the modulated one carries state)."""
        arr = self.arrival
        interval = arr["truck_interval_mins"]
        out = []
        for mean in arr["batch_means"]:
            batch = BatchSpec(mean=mean, half_width=arr["batch_half_width"])
            if arr["type"] == "bernoulli":
                out.append(BernoulliArrivals(p=arr["p"], truck_interval=interval, batch=batch))
            elif arr["type"] == "tvb":
                out.append(
                    TimeVaryingArrivals(
                        p_high=arr["p_high"],
                        p_low=arr["p_low"],
                        period=arr["period_mins"],
                        truck_interval=interval,
                        batch=batch,
                    )
                )
            else:
                out.append(
                    MarkovModulatedArrivals(
                        p_high=arr["p_high"],
                        p_low=arr["p_low"],
                        p_high_to_low=arr["p_high_to_low"],
                        p_low_to_high=arr["p_low_to_high"],
                        truck_interval=interval,
                        batch=batch,
                        per_slot_phase=arr["per_slot_phase"],
                    )
                )
        return out

    def build_controller(self, nets=None):
        if self.controller == "static":
            return StaticController()
        if self.controller == "threshold":
            return ThresholdController(self.queue_bounds, self.delta)
        if self.controller == "ql":
            return QlController(self.district.total_uavs, self.ql_update_multiple)
        if nets is None:
            raise ConfigError("the rl controller needs trained checkpoints")
        return GreedyPolicyController(nets, self.delta)

    def resolved_dict(self) -> dict:
        doc = copy.deepcopy(self.raw)
        doc["district"] = self.district_source
        doc["total_uavs"] = self.district.total_uavs
        doc["initial_allocation"] = self.initial_allocation_counts()
        return doc

    def checkpoint_echo(self, seed: int, pdc: int) -> dict:
        return {
            "seed": seed,
            "pdc": pdc,
            "arrival": self.arrival,
            "reward": {
                "lam": self.reward.lam,
                "violation_budget": self.reward.violation_budget,
                "epoch_slots": self.reward.epoch_slots,
            },
            "queue_bounds": list(self.queue_bounds),
            "delta": self.delta,
            "total_uavs": self.district.total_uavs,
            "episodes": self.train.episodes,
            "max_steps_per_episode": self.train.max_steps_per_episode,
        }


_ARRIVAL_DEFAULTS = {
    "truck_interval_mins": 30,
    "batch_half_width": 15,
    "per_slot_phase": True,
}

_TRAIN_KEYS = {f for f in TrainConfig.__dataclass_fields__}


def _validate_probability(doc: dict, key: str) -> float:
    try:
        p = float(doc[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"arrival.{key} missing or not a number") from exc
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"arrival.{key} must lie in [0, 1]")
    return p


def _parse_arrival(doc: dict, num_pdcs: int) -> dict:
    if not isinstance(doc, dict) or "type" not in doc:
        raise ConfigError("arrival section missing")
    arr = dict(_ARRIVAL_DEFAULTS)
    arr.update(doc)
    if arr["type"] not in ("bernoulli", "tvb", "mmb"):
        raise ConfigError(f"unknown arrival type {arr['type']!r}")
    means = arr.get("batch_means")
    if not isinstance(means, list) or len(means) != num_pdcs:
        raise ConfigError("arrival.batch_means must list one mean per PDC")
    if any(m - arr["batch_half_width"] < 0 for m in means):
        raise ConfigError("batch_half_width larger than a batch mean")
    if arr["truck_interval_mins"] < 1:
        raise ConfigError("truck_interval_mins must be >= 1")
    if arr["type"] == "bernoulli":
        _validate_probability(arr, "p")
    else:
        _validate_probability(arr, "p_high")
        _validate_probability(arr, "p_low")
        if arr["type"] == "tvb":
            if int(arr.get("period_mins", 0)) < 1:
                raise ConfigError("arrival.period_mins must be >= 1")
            arr["period_mins"] = int(arr["period_mins"])
        else:
            _validate_probability(arr, "p_high_to_low")
            _validate_probability(arr, "p_low_to_high")
    return arr


def config_from_dict(doc: dict, source: str = "<dict>") -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    district_ref = doc.get("district", "builtin")
    try:
        if district_ref == "builtin":
            district = builtin_district()
        else:
            district = load_district(district_ref)
    except FileNotFoundError as exc:
        raise ConfigError(f"district file not found: {district_ref}") from exc
    except (ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad district document: {exc}") from exc

    d = district.num_pdcs
    arrival = _parse_arrival(doc.get("arrival"), d)

    controller = doc.get("controller", "rl")
    if controller not in CONTROLLERS:
        raise ConfigError(f"unknown controller {controller!r}")

    reward_doc = doc.get("reward", {})
    reward = RewardParams(
        lam=float(reward_doc.get("lam", 4.0)),
        violation_budget=float(reward_doc.get("violation_budget", 0.1)),
        epoch_slots=int(reward_doc.get("epoch_slots", 60)),
    )
    if reward.epoch_slots < 1:
        raise ConfigError("reward.epoch_slots must be >= 1")

    bounds = doc.get("queue_bounds")
    if not isinstance(bounds, list) or len(bounds) != d:
        raise ConfigError("queue_bounds must list one bound per PDC")
    bounds = [float(b) for b in bounds]
    if any(b <= 0 for b in bounds):
        raise ConfigError("queue bounds must be positive")

    if doc.get("total_uavs") is not None:
        district = replace(district, total_uavs=int(doc["total_uavs"]))
    if district.total_uavs < 1:
        raise ConfigError("total_uavs must be >= 1")

    train_doc = doc.get("train", {})
    unknown = set(train_doc) - _TRAIN_KEYS
    if unknown:
        raise ConfigError(f"unknown train settings: {sorted(unknown)}")
    if "hidden_sizes" in train_doc:
        train_doc = dict(train_doc, hidden_sizes=tuple(train_doc["hidden_sizes"]))
    try:
        train = TrainConfig(**{"episodes": 150, **train_doc})
    except TypeError as exc:
        raise ConfigError(f"bad train section: {exc}") from exc

    alloc = doc.get("initial_allocation", "static")
    if alloc != "static":
        if not isinstance(alloc, list) or len(alloc) != d:
            raise ConfigError("initial_allocation must be 'static' or one count per PDC")
        alloc = [int(a) for a in alloc]
        if any(a < 0 for a in alloc) or sum(alloc) > district.total_uavs:
            raise ConfigError("initial_allocation out of range")

    seeds = doc.get("seeds", [1, 2, 3])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds must be a nonempty list")

    horizon = int(doc.get("horizon_slots", 100_000))
    warmup = int(doc.get("warmup_slots", 1_000))
    if horizon < 1 or warmup < 0 or warmup >= horizon:
        raise ConfigError("need 0 <= warmup_slots < horizon_slots")

    ql_mult = int(doc.get("ql_update_multiple", 5))
    if ql_mult < 1:
        raise ConfigError("ql_update_multiple must be >= 1")

    return ExperimentConfig(
        district=district,
        district_source=str(district_ref),
        arrival=arrival,
        controller=controller,
        reward=reward,
        queue_bounds=bounds,
        delta=int(doc.get("delta", 5)),
        train=train,
        seeds=[int(s) for s in seeds],
        horizon_slots=horizon,
        warmup_slots=warmup,
        ql_update_multiple=ql_mult,
        initial_allocation=alloc,
        raw=copy.deepcopy(doc),
    )


def load_experiment_config(ref: str) -> ExperimentConfig:
    """Load a bundled scenario by name or a JSON config by path."""
    if ref in BUILTIN_SCENARIOS:
        text = resources.files("dronefleet").joinpath(f"data/scenario_{ref}.json").read_text()
        return config_from_dict(json.loads(text), source=ref)
    try:
        with open(ref) as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config not found: {ref}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(doc, source=ref)
