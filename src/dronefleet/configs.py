"""Experiment configuration: JSON in, validated runnable scenario out.

Three scenario files ship with the package (bernoulli, tvb, mmb); any field
can be overridden by pointing the CLI at a custom JSON document. read_json
opens every input file. Config and district documents are checked here: each
section's numbers by one settings table and one reader (_read), through one
rule for what counts as a number (_number) and one for what keys an object
may hold (_section). The rules that span fields are written out by hand.
"""

from __future__ import annotations

import copy
import json
import math
import reprlib
from dataclasses import asdict, dataclass, replace
from importlib import resources

from .arrivals import ArrivalProcess
from .controllers import (
    QlController,
    StaticController,
    ThresholdController,
    largest_remainder,
)
from .geography import District, Point, Region, SubRegion
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
            "reward": asdict(self.reward),
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


# A settings table maps each key of a section to (kind, low, high[, default]).
# kind is int or float, or [int] / [float] for a list of them; low and high
# bound each number (None: unbounded). A row without a default is required;
# a default of None lets the key be left out, for the value's owner to fill.
_TOP = {
    "queue_bounds": ([float], None, None),
    "delta": (int, 1, None, 5),
    "seeds": ([int], 0, None, [1, 2, 3]),
    "horizon_slots": (int, 1, None, 100_000),
    "warmup_slots": (int, 0, None, 1_000),
    "ql_update_multiple": (int, 1, None, 5),
    "total_uavs": (int, 1, None, None),  # left out: the district's fleet
}
_TOP_BY_HAND = ("district", "arrival", "controller", "reward", "train", "initial_allocation")

_REWARD = {
    "lam": (float, None, None, 4.0),
    "violation_budget": (float, None, None, 0.1),
    "epoch_slots": (int, 1, None, 60),
}

# TrainConfig holds the defaults
_TRAIN = {
    "episodes": (int, 1, None, None),
    "max_steps_per_episode": (int, 1, None, None),
    "gamma": (float, 0.0, 1.0, None),
    "batch_size": (int, 1, None, None),
    "buffer_capacity": (int, 1, None, None),
    "min_buffer": (int, 0, None, None),
    "target_update_episodes": (int, 1, None, None),
    "learning_rate": (float, 0.0, None, None),
    "eps_start": (float, 0.0, 1.0, None),
    "eps_end": (float, 0.0, 1.0, None),
    "eps_decay_fraction": (float, 0.0, 1.0, None),
    "saturation_cutoff": (int, 0, None, None),
    "hidden_sizes": ([int], 1, None, None),
}

# the arrival keys of every type; type and per_slot_phase are read by hand
_ARRIVAL = {
    "truck_interval_mins": (int, 1, None, 30),
    "batch_half_width": (int, 0, None, 15),
    "batch_means": ([int], 0, None),
}
_P = (float, 0.0, 1.0)  # a probability
# arrival type -> the rate rule of its process and the keys that rule reads
_RATE_RULES = {
    "bernoulli": ("constant", {"p": _P}),
    "tvb": ("square", {"p_high": _P, "p_low": _P, "period_mins": (int, 1, None)}),
    "mmb": ("markov", {"p_high": _P, "p_low": _P, "p_high_to_low": _P, "p_low_to_high": _P}),
}
# arrival key -> the ArrivalProcess argument it sets, where the names differ
_PROCESS_ARGS = {"truck_interval_mins": "truck_interval", "p": "p_high", "period_mins": "period"}

_DISTRICT = {"total_uavs": (int, 1, None), "speed_kph": (float, None, None)}


def _number(value, name: str, kind=float, low=None, high=None):
    """`value` read as `kind` and range-checked, or a ConfigError naming `name`."""
    # float() and int() would read "0.25" and JSON true as numbers
    if isinstance(value, (str, bool)):
        raise ConfigError(f"{name} must be a number, not {value!r}")
    try:
        x = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} missing or not a number: {value!r}") from exc
    # NaN and Infinity would pass a missing bound (int() refuses both)
    if kind is float and not math.isfinite(x):
        raise ConfigError(f"{name} must be a finite number: {value!r}")
    # int() would truncate 40.9 to 40
    if kind is int and isinstance(value, float) and x != value:
        raise ConfigError(f"{name} must be a whole number: {value!r}")
    if low is not None and x < low:
        raise ConfigError(f"{name} must be >= {low}")
    if high is not None and x > high:
        raise ConfigError(f"{name} must be <= {high}")
    return x


def _numbers(values, name: str, kind=float, **bounds) -> list:
    if not isinstance(values, list):
        raise ConfigError(f"{name} must be a list")
    return [_number(v, f"{name}[{i}]", kind, **bounds) for i, v in enumerate(values)]


def _section(value, name: str, known) -> dict:
    """`value`, a JSON object that holds no key but `known`, or a ConfigError
    naming it `name`. A misspelled key would otherwise run with the default
    and still be recorded as given."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(value) - set(known)
    if unknown:
        raise ConfigError(f"unknown {name} settings: {sorted(unknown)}")
    return value


def _read(doc, name: str, table: dict, by_hand=()) -> dict:
    """The numbers that `table`'s rows read from `doc`, the section called
    `name`. It may hold no key but the table's and `by_hand`, the keys
    that its caller reads."""
    doc = _section(doc, name, (*table, *by_hand))
    prefix = "" if name == "top-level" else f"{name}."
    values = {}
    for key, (kind, low, high, *default) in table.items():
        if key not in doc and default == [None]:
            continue
        value = doc.get(key, *default)
        if isinstance(kind, list):
            values[key] = _numbers(value, prefix + key, kind[0], low=low, high=high)
        else:
            values[key] = _number(value, prefix + key, kind, low, high)
    return values


def _point(value, name: str) -> Point:
    point = _numbers(value, name)
    if len(point) != 2:
        raise ConfigError(f"{name} must be two numbers")
    return tuple(point)


def _subregion(doc, name: str) -> SubRegion:
    doc = _section(doc, name, ("min", "max", "weight"))
    lo, hi = _point(doc.get("min"), f"{name}.min"), _point(doc.get("max"), f"{name}.max")
    # an inverted corner would make sample_destinations draw outside the intended area
    if not all(a <= b for a, b in zip(lo, hi)):
        raise ConfigError(f"{name}.min exceeds its max corner")
    return SubRegion(lo, hi, _number(doc.get("weight"), f"{name}.weight", low=0.0))


def district_from_dict(doc) -> District:
    """The district of a district document, read by the config's number
    rules, or a ConfigError that names the bad field's path."""
    try:
        numbers = _read(doc, "top-level", _DISTRICT, ("port", "regions"))
        if not isinstance(doc.get("regions"), list) or not doc["regions"]:
            raise ConfigError("regions must be a nonempty list")
        regions = []
        for i, region in enumerate(doc["regions"]):
            name = f"regions[{i}]"
            region = _section(region, name, ("pdc", "subregions"))
            subs = region.get("subregions")
            if not isinstance(subs, list) or not subs:
                raise ConfigError(f"{name}.subregions must be a nonempty list")
            subs = tuple(_subregion(s, f"{name}.subregions[{j}]") for j, s in enumerate(subs))
            regions.append(Region(_point(region.get("pdc"), f"{name}.pdc"), subs))
            if not regions[-1].weight > 0:
                raise ConfigError(f"{name} has no population weight")
        if numbers["speed_kph"] <= 0:
            raise ConfigError("speed_kph must be > 0")
        return District(tuple(regions), _point(doc.get("port"), "port"), **numbers)
    except ConfigError as exc:
        raise ConfigError(f"bad district document: {exc}") from exc


def _packaged(name: str):
    """The JSON document bundled with the package as data/<name>."""
    return json.loads(resources.files("dronefleet").joinpath(f"data/{name}").read_text())


def builtin_district() -> District:
    """The bundled synthetic four-region district."""
    return district_from_dict(_packaged("district.json"))


def _parse_arrival(given, num_pdcs: int) -> tuple[dict, list]:
    """The arrival section with defaults filled in, and each PDC's process
    arguments."""
    if not isinstance(given, dict) or "type" not in given:
        raise ConfigError("arrival section missing")
    if not isinstance(given["type"], str) or given["type"] not in _RATE_RULES:
        raise ConfigError(f"unknown arrival type {reprlib.repr(given['type'])}")
    rule, rate_keys = _RATE_RULES[given["type"]]
    values = _read(given, "arrival", {**_ARRIVAL, **rate_keys}, ("type", "per_slot_phase"))
    means = values.pop("batch_means")
    if len(means) != num_pdcs:
        raise ConfigError("arrival.batch_means must list one mean per PDC")
    if any(mean < values["batch_half_width"] for mean in means):
        raise ConfigError("arrival.batch_means must be >= arrival.batch_half_width")
    # checkpoints echo this, key order included: the defaults, then the section as given
    arr = {key: values[key] for key in ("truck_interval_mins", "batch_half_width")}
    arr = {**arr, "per_slot_phase": ArrivalProcess.per_slot_phase, **given}
    phase = arr["per_slot_phase"]
    # a string such as "no" would read as true
    if not isinstance(phase, bool):
        raise ConfigError(f"arrival.per_slot_phase must be true or false: {phase!r}")
    if "period_mins" in values:
        arr["period_mins"] = values["period_mins"]
    args = {_PROCESS_ARGS.get(key, key): value for key, value in values.items()}
    args.update(rule=rule, per_slot_phase=phase)
    return arr, [dict(args, batch_mean=mean) for mean in means]


def config_from_dict(doc: dict, **overrides) -> ExperimentConfig:
    """The checked config of `doc`, with `overrides` in place of its top-level
    values. They pass the same checks and the resolved config records them;
    an overriding horizon_slots at or below the warmup runs without one.
    The resolved config, read back, gives the same config."""
    doc = {**_section(doc, "top-level", (*_TOP, *_TOP_BY_HAND)), **overrides}
    top = _read(doc, "top-level", _TOP, _TOP_BY_HAND)
    district_ref = doc.get("district", "builtin")
    if not isinstance(district_ref, str):
        raise ConfigError("district must be 'builtin' or the path of a district file")
    if district_ref == "builtin":
        district = builtin_district()
    else:
        district = district_from_dict(read_json(district_ref, ConfigError, "district file"))
    district = replace(district, total_uavs=top.pop("total_uavs", district.total_uavs))

    d = district.num_pdcs
    arrival, arrival_args = _parse_arrival(doc.get("arrival"), d)

    controller = doc.get("controller", "rl")
    if controller not in CONTROLLERS:
        raise ConfigError(f"unknown controller {reprlib.repr(controller)}")

    if len(top["queue_bounds"]) != d:
        raise ConfigError("queue_bounds must list one bound per PDC")
    if not all(b > 0 for b in top["queue_bounds"]):
        raise ConfigError("queue bounds must be positive")

    train = _read(doc.get("train", {}), "train", _TRAIN)
    if "hidden_sizes" in train:
        train["hidden_sizes"] = tuple(train["hidden_sizes"])

    alloc = doc.get("initial_allocation", "static")
    if alloc == "static":
        alloc = largest_remainder([r.weight for r in district.regions], district.total_uavs)
    else:
        alloc = _numbers(alloc, "initial_allocation", int, low=0)
        if len(alloc) != d:
            raise ConfigError("initial_allocation must be 'static' or one count per PDC")
        if sum(alloc) > district.total_uavs:
            raise ConfigError("initial_allocation out of range")

    if not top["seeds"]:
        raise ConfigError("seeds must be a nonempty list")
    if len(set(top["seeds"])) < len(top["seeds"]):
        raise ConfigError(f"seeds lists a seed more than once: {top['seeds']}")

    if top["warmup_slots"] >= top["horizon_slots"] and "horizon_slots" in overrides:
        top["warmup_slots"] = doc["warmup_slots"] = 0
    if top["warmup_slots"] >= top["horizon_slots"]:
        raise ConfigError("need 0 <= warmup_slots < horizon_slots")

    resolved = copy.deepcopy(doc)
    resolved.update(district=district_ref, total_uavs=district.total_uavs, initial_allocation=alloc)
    return ExperimentConfig(
        district=district,
        arrival=arrival,
        arrival_args=arrival_args,
        controller=controller,
        reward=RewardParams(**_read(doc.get("reward", {}), "reward", _REWARD)),
        train=TrainConfig(**train),
        initial_allocation=list(alloc),
        resolved=resolved,
        **top,
    )


def load_experiment_config(ref: str, **overrides) -> ExperimentConfig:
    """Load a bundled scenario by name or a JSON config by path, with
    `overrides` as config_from_dict takes them."""
    if ref in BUILTIN_SCENARIOS:
        return config_from_dict(_packaged(f"scenario_{ref}.json"), **overrides)
    return config_from_dict(read_json(ref, ConfigError, "config"), **overrides)
