"""Experiment configuration: JSON in, validated runnable scenario out.

Three scenario files ship with the package (bernoulli, tvb, mmb); any field
can be overridden by pointing the CLI at a custom JSON document.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace
from importlib import resources

from .arrivals import ArrivalProcess
from .controllers import (
    QlController,
    StaticController,
    ThresholdController,
    largest_remainder,
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
    arrival: dict  # the section as given, defaults filled in
    arrival_args: list  # ArrivalProcess arguments, one dict per PDC
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

    def initial_allocation_counts(self) -> list:
        if self.initial_allocation == "static":
            weights = [r.weight for r in self.district.regions]
            return largest_remainder(weights, self.district.total_uavs)
        return list(self.initial_allocation)

    def make_processes(self) -> list:
        """Fresh arrival process per PDC (the modulated one carries state)."""
        return [ArrivalProcess(**args) for args in self.arrival_args]

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

# TrainConfig field -> (kind, low, high); hidden_sizes is read apart
_TRAIN_FIELDS = {
    "episodes": (int, 1, None),
    "max_steps_per_episode": (int, 1, None),
    "gamma": (float, 0.0, 1.0),
    "batch_size": (int, 1, None),
    "buffer_capacity": (int, 1, None),
    "min_buffer": (int, 0, None),
    "target_update_episodes": (int, 1, None),
    "learning_rate": (float, 0.0, None),
    "eps_start": (float, 0.0, 1.0),
    "eps_end": (float, 0.0, 1.0),
    "eps_decay_fraction": (float, 0.0, 1.0),
    "saturation_cutoff": (int, 0, None),
}


# arrival type -> the rate rule of its process
_RATE_RULES = {"bernoulli": "constant", "tvb": "square", "mmb": "markov"}


def _number(value, name: str, kind=float, low=None, high=None):
    """`value` read as `kind` and range-checked, or a ConfigError naming `name`."""
    try:
        x = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} missing or not a number: {value!r}") from exc
    # int() would truncate 40.9 to 40
    if kind is int and isinstance(value, float) and x != value:
        raise ConfigError(f"{name} must be a whole number: {value!r}")
    # written so that NaN fails every bound
    if low is not None and not x >= low:
        raise ConfigError(f"{name} must be >= {low}")
    if high is not None and not x <= high:
        raise ConfigError(f"{name} must be <= {high}")
    return x


def _numbers(values, name: str, kind=float, **bounds) -> list:
    if not isinstance(values, list):
        raise ConfigError(f"{name} must be a list")
    return [_number(v, f"{name}[{i}]", kind, **bounds) for i, v in enumerate(values)]


def _section(doc: dict, key: str) -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object")
    return value


def _parse_train(doc: dict) -> TrainConfig:
    unknown = set(doc) - set(_TRAIN_FIELDS) - {"hidden_sizes"}
    if unknown:
        raise ConfigError(f"unknown train settings: {sorted(unknown)}")
    values = {}
    for key, value in {"episodes": 150, **doc}.items():
        if key != "hidden_sizes":
            kind, low, high = _TRAIN_FIELDS[key]
            values[key] = _number(value, f"train.{key}", kind, low=low, high=high)
    if "hidden_sizes" in doc:
        values["hidden_sizes"] = tuple(
            _numbers(doc["hidden_sizes"], "train.hidden_sizes", int, low=1)
        )
    return TrainConfig(**values)


def _probability(doc: dict, key: str) -> float:
    return _number(doc.get(key), f"arrival.{key}", low=0.0, high=1.0)


def _parse_arrival(doc: dict, num_pdcs: int) -> tuple[dict, list]:
    """The section with defaults filled in, and each PDC's process arguments."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise ConfigError("arrival section missing")
    arr = dict(_ARRIVAL_DEFAULTS)
    arr.update(doc)
    if not isinstance(arr["type"], str) or arr["type"] not in _RATE_RULES:
        raise ConfigError(f"unknown arrival type {arr['type']!r}")
    rule = _RATE_RULES[arr["type"]]
    half = _number(arr["batch_half_width"], "arrival.batch_half_width", int, low=0)
    means = _numbers(arr.get("batch_means"), "arrival.batch_means", int, low=half)
    if len(means) != num_pdcs:
        raise ConfigError("arrival.batch_means must list one mean per PDC")
    # a string such as "no" would read as true
    if not isinstance(arr["per_slot_phase"], bool):
        raise ConfigError(
            f"arrival.per_slot_phase must be true or false: {arr['per_slot_phase']!r}"
        )
    args = {
        "truck_interval": _number(
            arr["truck_interval_mins"], "arrival.truck_interval_mins", int, low=1
        ),
        "batch_half_width": half,
        "rule": rule,
        "per_slot_phase": arr["per_slot_phase"],
    }
    if rule == "constant":
        args["p_high"] = _probability(arr, "p")
    else:
        args["p_high"] = _probability(arr, "p_high")
        args["p_low"] = _probability(arr, "p_low")
    if rule == "square":
        period = _number(arr.get("period_mins"), "arrival.period_mins", int, low=1)
        args["period"] = arr["period_mins"] = period
    if rule == "markov":
        args["p_high_to_low"] = _probability(arr, "p_high_to_low")
        args["p_low_to_high"] = _probability(arr, "p_low_to_high")
    return arr, [dict(args, batch_mean=mean) for mean in means]


def config_from_dict(doc: dict, source: str = "<dict>", **overrides) -> ExperimentConfig:
    """The checked config of `doc`, with `overrides` in place of its top-level
    values. They pass the same checks and the resolved config records them;
    an overriding horizon_slots at or below the warmup runs without one."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    doc = {**doc, **overrides}
    district_ref = doc.get("district", "builtin")
    if not isinstance(district_ref, str):
        raise ConfigError("district must be 'builtin' or the path of a district file")
    try:
        if district_ref == "builtin":
            district = builtin_district()
        else:
            district = load_district(district_ref)
    except OSError as exc:
        raise ConfigError(f"cannot read district file {district_ref}: {exc}") from exc
    except (ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad district document: {exc}") from exc

    d = district.num_pdcs
    arrival, arrival_args = _parse_arrival(doc.get("arrival"), d)

    controller = doc.get("controller", "rl")
    if controller not in CONTROLLERS:
        raise ConfigError(f"unknown controller {controller!r}")

    reward_doc = _section(doc, "reward")
    reward = RewardParams(
        lam=_number(reward_doc.get("lam", 4.0), "reward.lam"),
        violation_budget=_number(
            reward_doc.get("violation_budget", 0.1), "reward.violation_budget"
        ),
        epoch_slots=_number(reward_doc.get("epoch_slots", 60), "reward.epoch_slots", int, low=1),
    )

    bounds = _numbers(doc.get("queue_bounds"), "queue_bounds")
    if len(bounds) != d:
        raise ConfigError("queue_bounds must list one bound per PDC")
    if not all(b > 0 for b in bounds):
        raise ConfigError("queue bounds must be positive")

    if doc.get("total_uavs") is not None:
        district = replace(district, total_uavs=_number(doc["total_uavs"], "total_uavs", int))
    if district.total_uavs < 1:
        raise ConfigError("total_uavs must be >= 1")

    train = _parse_train(_section(doc, "train"))

    alloc = doc.get("initial_allocation", "static")
    if alloc != "static":
        alloc = _numbers(alloc, "initial_allocation", int, low=0)
        if len(alloc) != d:
            raise ConfigError("initial_allocation must be 'static' or one count per PDC")
        if sum(alloc) > district.total_uavs:
            raise ConfigError("initial_allocation out of range")

    seeds = _numbers(doc.get("seeds", [1, 2, 3]), "seeds", int, low=0)
    if not seeds:
        raise ConfigError("seeds must be a nonempty list")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"seeds lists a seed more than once: {seeds}")

    horizon = _number(doc.get("horizon_slots", 100_000), "horizon_slots", int, low=1)
    warmup = _number(doc.get("warmup_slots", 1_000), "warmup_slots", int, low=0)
    if warmup >= horizon and "horizon_slots" in overrides:
        warmup = doc["warmup_slots"] = 0
    if warmup >= horizon:
        raise ConfigError("need 0 <= warmup_slots < horizon_slots")

    ql_mult = _number(doc.get("ql_update_multiple", 5), "ql_update_multiple", int, low=1)

    return ExperimentConfig(
        district=district,
        district_source=district_ref,
        arrival=arrival,
        arrival_args=arrival_args,
        controller=controller,
        reward=reward,
        queue_bounds=bounds,
        delta=_number(doc.get("delta", 5), "delta", int, low=1),
        train=train,
        seeds=seeds,
        horizon_slots=horizon,
        warmup_slots=warmup,
        ql_update_multiple=ql_mult,
        initial_allocation=alloc,
        raw=copy.deepcopy(doc),
    )


def load_experiment_config(ref: str, **overrides) -> ExperimentConfig:
    """Load a bundled scenario by name or a JSON config by path, with
    `overrides` as config_from_dict takes them."""
    if ref in BUILTIN_SCENARIOS:
        text = resources.files("dronefleet").joinpath(f"data/scenario_{ref}.json").read_text()
        return config_from_dict(json.loads(text), ref, **overrides)
    try:
        with open(ref) as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config not found: {ref}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(doc, ref, **overrides)
