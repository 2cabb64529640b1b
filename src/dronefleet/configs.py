"""Experiment configuration: JSON in, validated runnable scenario out.

Three scenario files ship with the package (bernoulli, tvb, mmb); any field
can be overridden by pointing the CLI at a custom JSON document.
"""

from __future__ import annotations

import copy
import json
import reprlib
from dataclasses import dataclass, replace
from importlib import resources

from .arrivals import ArrivalProcess
from .controllers import (
    QlController,
    StaticController,
    ThresholdController,
    largest_remainder,
)
from .geography import District, builtin_district, district_from_dict
from .rlagent import CheckpointError, GreedyPolicyController, RewardParams
from .training import TrainConfig

BUILTIN_SCENARIOS = ("bernoulli", "tvb", "mmb")
CONTROLLERS = ("rl", "static", "threshold", "ql")


class ConfigError(Exception):
    """Raised for unusable configuration input."""


def read_json(path: str, error: type[Exception], what: str):
    """The JSON document in the file at `path`, or `error` naming `what` when
    the file cannot be opened, decoded as UTF-8 or parsed (nor nested too deep)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


@dataclass
class ExperimentConfig:
    district: District
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
    initial_allocation: list  # drones per PDC at the start of a run
    resolved: dict  # the document as run: what config_from_dict reads back unchanged

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

    def check_echo(self, echo, pdc: int, path: str) -> None:
        """Raise CheckpointError when `echo`, a checkpoint_echo read from `path`,
        names another center, delta or epoch length than this config. Another
        arrival pattern fits; a value the echo leaves out is not checked."""
        if not isinstance(echo, dict):
            raise CheckpointError(f"malformed checkpoint {path}: its config echo is not an object")
        reward = echo.get("reward") if isinstance(echo.get("reward"), dict) else {}
        for key, trained, wanted in [
            ("pdc", echo.get("pdc"), pdc),
            ("delta", echo.get("delta"), self.delta),
            ("epoch_slots", reward.get("epoch_slots"), self.reward.epoch_slots),
        ]:
            if trained is not None and trained != wanted:
                raise CheckpointError(
                    f"checkpoint {path} was trained with {key} {trained!r}, the config has {wanted}"
                )


_TOP_KEYS = (
    "district arrival controller reward queue_bounds delta initial_allocation train seeds"
    " horizon_slots warmup_slots ql_update_multiple total_uavs"
).split()

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


# arrival type -> the rate rule of its process and the keys that rule reads
_RATE_RULES = {
    "bernoulli": ("constant", ("p",)),
    "tvb": ("square", ("p_high", "p_low", "period_mins")),
    "mmb": ("markov", ("p_high", "p_low", "p_high_to_low", "p_low_to_high")),
}


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


def _section(doc, key, known) -> dict:
    """doc[key] (an empty object when absent), or `doc` itself for key None:
    a JSON object that holds no key but `known`. A misspelled key would
    otherwise run with the default and still be recorded as given."""
    value = doc if key is None else doc.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key or 'config root'} must be a JSON object")
    unknown = set(value) - set(known)
    if unknown:
        raise ConfigError(f"unknown {key or 'top-level'} settings: {sorted(unknown)}")
    return value


def _parse_train(doc: dict) -> TrainConfig:
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
    """The arrival section of `doc` with defaults filled in, and each PDC's
    process arguments."""
    given = doc.get("arrival")
    if not isinstance(given, dict) or "type" not in given:
        raise ConfigError("arrival section missing")
    if not isinstance(given["type"], str) or given["type"] not in _RATE_RULES:
        raise ConfigError(f"unknown arrival type {reprlib.repr(given['type'])}")
    rule, rate_keys = _RATE_RULES[given["type"]]
    arr = dict(_ARRIVAL_DEFAULTS)
    arr.update(_section(doc, "arrival", (*_ARRIVAL_DEFAULTS, "type", "batch_means", *rate_keys)))
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


def config_from_dict(doc: dict, **overrides) -> ExperimentConfig:
    """The checked config of `doc`, with `overrides` in place of its top-level
    values. They pass the same checks and the resolved config records them;
    an overriding horizon_slots at or below the warmup runs without one.
    The resolved config, read back, gives the same config."""
    doc = {**_section(doc, None, _TOP_KEYS), **_section(overrides, None, _TOP_KEYS)}
    district_ref = doc.get("district", "builtin")
    if not isinstance(district_ref, str):
        raise ConfigError("district must be 'builtin' or the path of a district file")
    try:
        if district_ref == "builtin":
            district = builtin_district()
        else:
            district = district_from_dict(read_json(district_ref, ConfigError, "district file"))
    except ValueError as exc:
        raise ConfigError(f"bad district document: {exc}") from exc

    d = district.num_pdcs
    arrival, arrival_args = _parse_arrival(doc, d)

    controller = doc.get("controller", "rl")
    if controller not in CONTROLLERS:
        raise ConfigError(f"unknown controller {reprlib.repr(controller)}")

    reward_doc = _section(doc, "reward", ("lam", "violation_budget", "epoch_slots"))
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

    train = _parse_train(_section(doc, "train", (*_TRAIN_FIELDS, "hidden_sizes")))

    alloc = doc.get("initial_allocation", "static")
    if alloc == "static":
        alloc = largest_remainder([r.weight for r in district.regions], district.total_uavs)
    else:
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

    resolved = copy.deepcopy(doc)
    resolved.update(district=district_ref, total_uavs=district.total_uavs, initial_allocation=alloc)
    return ExperimentConfig(
        district=district,
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
        initial_allocation=list(alloc),
        resolved=resolved,
    )


def load_experiment_config(ref: str, **overrides) -> ExperimentConfig:
    """Load a bundled scenario by name or a JSON config by path, with
    `overrides` as config_from_dict takes them."""
    if ref in BUILTIN_SCENARIOS:
        text = resources.files("dronefleet").joinpath(f"data/scenario_{ref}.json").read_text()
        return config_from_dict(json.loads(text), **overrides)
    return config_from_dict(read_json(ref, ConfigError, "config"), **overrides)
