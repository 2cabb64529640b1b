import copy
import csv
import json
import math
import os

import numpy as np
import pytest

import dronefleet
from dronefleet import cli
from dronefleet.cli import main
from dronefleet.configs import (
    BUILTIN_SCENARIOS,
    ConfigError,
    config_from_dict,
    load_experiment_config,
    read_json,
)
from dronefleet.metrics import CSV_COLUMNS
from dronefleet.network import init_network
from dronefleet.rlagent import STATE_SIZE, CheckpointError, checkpoint_from_dict, save_checkpoint


def base_doc(**overrides):
    doc = {
        "district": "builtin",
        "arrival": {
            "type": "bernoulli",
            "p": 0.25,
            "batch_means": [55, 50, 75, 90],
        },
        "controller": "static",
        "queue_bounds": [110, 110, 150, 200],
        "seeds": [1],
        "horizon_slots": 600,
        "warmup_slots": 100,
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_bundled_scenarios_load():
    for name in BUILTIN_SCENARIOS:
        cfg = load_experiment_config(name)
        assert cfg.district.num_pdcs == 4
        assert cfg.district.total_uavs == 60
        assert len(cfg.queue_bounds) == 4
        assert cfg.arrival["type"] == name
        assert cfg.initial_allocation == [12, 11, 17, 20]


def test_unknown_config_ref_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_experiment_config(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ConfigError):
        load_experiment_config(str(bad))


def test_validation_rejects_bad_documents():
    cases = [
        {},  # no arrival
        base_doc(arrival={"type": "martian", "batch_means": [1, 1, 1, 1]}),
        base_doc(arrival={"type": ["bernoulli"], "batch_means": [1, 1, 1, 1]}),
        base_doc(arrival={"type": "bernoulli", "p": 1.5, "batch_means": [55, 50, 75, 90]}),
        base_doc(arrival={"type": "bernoulli", "p": 0.2, "batch_means": [55, 50]}),
        base_doc(controller="magic"),
        base_doc(queue_bounds=[10, 10]),
        base_doc(queue_bounds=[0, 10, 10, 10]),
        base_doc(train={"episodes": 2, "bogus_knob": 1}),
        base_doc(initial_allocation=[1, 2, 3]),
        base_doc(initial_allocation=[50, 50, 50, 50]),
        base_doc(seeds=[]),
        base_doc(seeds=[1, 2, 1]),
        base_doc(arrival={**base_doc()["arrival"], "per_slot_phase": "no"}),
        base_doc(arrival={**base_doc()["arrival"], "per_slot_phase": 1}),
        base_doc(warmup_slots=600),
        base_doc(ql_update_multiple=0),
        base_doc(total_uavs=0),
    ]
    for doc in cases:
        with pytest.raises(ConfigError):
            config_from_dict(doc)


def test_total_uavs_sets_the_district_fleet():
    cfg = config_from_dict(base_doc(total_uavs=40))
    assert cfg.district.total_uavs == 40
    assert sum(cfg.initial_allocation) == 40
    assert cfg.resolved["total_uavs"] == 40
    assert cfg.checkpoint_echo(seed=1, pdc=1)["total_uavs"] == 40
    bigger = config_from_dict(base_doc(total_uavs=40), total_uavs=70, initial_allocation="static")
    assert bigger.district.total_uavs == 70
    assert sum(bigger.initial_allocation) == 70
    with pytest.raises(ConfigError):
        config_from_dict(base_doc(total_uavs=40), total_uavs=0, initial_allocation="static")


def test_explicit_initial_allocation_passes_through():
    cfg = config_from_dict(base_doc(initial_allocation=[10, 10, 10, 10]))
    assert cfg.initial_allocation == [10, 10, 10, 10]


def test_make_processes_are_independent():
    cfg = load_experiment_config("mmb")
    first = cfg.make_processes()
    second = cfg.make_processes()
    rng = np.random.default_rng(0)
    first[0].is_high = False
    assert second[0].is_high  # fresh state, not shared
    first[0].advance_slot(0, rng)
    assert len(first) == len(second) == 4


def test_build_controller_variants():
    cfg = config_from_dict(base_doc(controller="threshold"))
    assert cfg.build_controller().decide(0, [(1, 0)] * 4) == [-5, -5, -5, -5]
    cfg = config_from_dict(base_doc(controller="ql"))
    assert sum(cfg.build_controller().decide(0, [(15, 0)] * 4)) == 0
    cfg = config_from_dict(base_doc(controller="rl"))
    with pytest.raises(ConfigError):
        cfg.build_controller()
    nets = [init_network([25, 4, 3], np.random.default_rng(i)) for i in range(4)]
    assert len(cfg.build_controller(nets).decide(0, [(1, 0)] * 4)) == 4


def test_resolved_document_and_checkpoint_echo():
    cfg = config_from_dict(base_doc())
    resolved = cfg.resolved
    assert resolved["district"] == "builtin"
    assert resolved["total_uavs"] == 60
    assert resolved["initial_allocation"] == [12, 11, 17, 20]
    echo = cfg.checkpoint_echo(seed=3, pdc=2)
    assert echo["seed"] == 3 and echo["pdc"] == 2
    assert "queue_bounds" in echo and "arrival" in echo
    assert not any("path" in k or "dir" in k for k in echo)


# arrival sections that carry every numeric field of their rate rule
ARRIVALS = {
    "bernoulli": base_doc()["arrival"],
    "tvb": {
        "type": "tvb",
        "p_high": 0.9,
        "p_low": 0.1,
        "period_mins": 300,
        "batch_means": [55, 50, 75, 90],
    },
    "mmb": {
        "type": "mmb",
        "p_high": 0.9,
        "p_low": 0.1,
        "p_high_to_low": 0.15,
        "p_low_to_high": 0.15,
        "batch_means": [55, 50, 75, 90],
    },
}
# what each bad value adds to a test id: the "x" cases keep their old ids
BAD_NUMBERS = {"x": "", True: "=true", math.nan: "=NaN", math.inf: "=Infinity"}
NUMERIC_FIELDS = [
    ("bernoulli", path)
    for path in [
        ("total_uavs",),
        ("delta",),
        ("horizon_slots",),
        ("warmup_slots",),
        ("ql_update_multiple",),
        ("queue_bounds", 0),
        ("initial_allocation", 0),
        ("seeds", 0),
        ("reward", "lam"),
        ("reward", "violation_budget"),
        ("reward", "epoch_slots"),
        ("arrival", "truck_interval_mins"),
        ("arrival", "batch_half_width"),
        ("arrival", "batch_means", 0),
        ("arrival", "p"),
    ]
] + [
    (kind, ("arrival", key))
    for kind, keys in [
        ("tvb", ("p_high", "p_low", "period_mins")),
        ("mmb", ("p_high", "p_low", "p_high_to_low", "p_low_to_high")),
    ]
    for key in keys
]
NUMERIC_CASES = [(kind, path, value) for kind, path in NUMERIC_FIELDS for value in BAD_NUMBERS]


@pytest.mark.parametrize(
    "kind, path, value",
    NUMERIC_CASES,
    ids=[f"{k}:" + ".".join(map(str, p)) + BAD_NUMBERS[v] for k, p, v in NUMERIC_CASES],
)
def test_non_numeric_config_value_exits_2(tmp_path, capsys, kind, path, value):
    # json.dumps writes NaN and Infinity as JSON's extensions, which json.load
    # reads back as floats; true would read as 1
    doc = base_doc(
        arrival=copy.deepcopy(ARRIVALS[kind]),
        controller="threshold",
        initial_allocation=[10, 10, 10, 10],
        reward={"lam": 4.0, "violation_budget": 0.1, "epoch_slots": 60},
    )
    assert main(["eval", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "ok")]) == 0
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    out = tmp_path / "bad"
    assert main(["eval", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    name = path[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path[1:])
    assert err.startswith(f"config error: {name} ") and err.count("\n") == 1
    assert "Traceback" not in err and not out.exists()


# train settings that must be rejected: not a number (JSON true, NaN and
# Infinity included), or out of range
BAD_TRAIN_VALUES = [
    (key, value)
    for value in ("x", True, math.nan, math.inf)
    for key in (
        "episodes",
        "max_steps_per_episode",
        "gamma",
        "batch_size",
        "buffer_capacity",
        "min_buffer",
        "target_update_episodes",
        "learning_rate",
        "eps_start",
        "eps_end",
        "eps_decay_fraction",
        "saturation_cutoff",
    )
] + [
    ("episodes", 0),
    ("max_steps_per_episode", 0),
    ("batch_size", 0),
    ("buffer_capacity", 0),
    ("target_update_episodes", 0),
    ("min_buffer", -1),
    ("saturation_cutoff", -1),
    ("learning_rate", -0.001),
    ("gamma", 1.5),
    ("eps_start", -0.1),
    ("eps_end", 2.0),
    ("eps_decay_fraction", 1.1),
    ("hidden_sizes", ["a"]),
    ("hidden_sizes", [32, 0]),
    ("hidden_sizes", 32),
]


@pytest.mark.parametrize(
    "key, value", BAD_TRAIN_VALUES, ids=[f"{k}={v!r}" for k, v in BAD_TRAIN_VALUES]
)
def test_bad_train_value_exits_2(tmp_path, capsys, key, value):
    train = {"episodes": 1, "max_steps_per_episode": 2, key: value}
    config = write_config(tmp_path, base_doc(controller="rl", train=train))
    out = tmp_path / "out"
    assert main(["train", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()


def test_train_section_values_are_read_as_numbers():
    cfg = config_from_dict(
        base_doc(train={"episodes": "3", "gamma": 1, "hidden_sizes": [16, "8"]})
    )
    assert (cfg.train.episodes, cfg.train.gamma, cfg.train.hidden_sizes) == (3, 1.0, (16, 8))
    assert cfg.train.batch_size == 25  # unset fields keep their defaults


@pytest.mark.parametrize(
    "overrides",
    [
        {"reward": [1]},
        {"train": [1]},
        {"train": "x"},
        {"district": 5},
        {"district": ["builtin"]},
        {"district": None},
    ],
    ids=["reward-list", "train-list", "train-str", "district-int", "district-list", "district-null"],
)
def test_bad_section_or_district_type_exits_2(tmp_path, capsys, overrides):
    config = write_config(tmp_path, base_doc(controller="rl", **overrides))
    out = tmp_path / "out"
    assert main(["train", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()


# integer settings given a fractional number, one list entry among them
NON_INTEGRAL = [
    (("total_uavs",), 40.9),
    (("horizon_slots",), 600.5),
    (("train", "episodes"), 2.7),
    (("arrival", "batch_means", 0), 55.5),
]


@pytest.mark.parametrize(
    "path, value", NON_INTEGRAL, ids=[".".join(map(str, p)) for p, _ in NON_INTEGRAL]
)
def test_non_integral_count_exits_2(tmp_path, capsys, path, value):
    doc = base_doc(controller="threshold", train={"episodes": 2})
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = float(round(value))
    config_from_dict(copy.deepcopy(doc))  # a whole float is read as an int
    node[path[-1]] = value
    out = tmp_path / "out"
    assert main(["eval", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "whole number" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("delta", [0, -5])
def test_delta_below_one_exits_2(tmp_path, capsys, delta):
    config = write_config(tmp_path, base_doc(controller="threshold", delta=delta))
    out = tmp_path / "out"
    assert main(["eval", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "delta" in err and "Traceback" not in err
    assert not out.exists()


def bundled_district_doc():
    path = os.path.join(os.path.dirname(dronefleet.__file__), "data", "district.json")
    with open(path) as fh:
        return json.load(fh)


def test_district_file_fleet_of_whole_float_loads(tmp_path):
    doc = bundled_district_doc()
    doc["total_uavs"] = 40.0
    district = write_config(tmp_path, doc, "district.json")
    cfg = config_from_dict(base_doc(district=district))
    assert cfg.district.total_uavs == 40 and isinstance(cfg.district.total_uavs, int)


def _fractional_fleet(doc):
    doc["total_uavs"] = 40.9


def _negative_weight(doc):
    first, second = doc["regions"][0]["subregions"]
    first["weight"], second["weight"] = -1, 2


def _inverted_corner(doc):
    sub = doc["regions"][1]["subregions"][0]
    sub["min"], sub["max"] = sub["max"], sub["min"]


def _weightless_region(doc):
    for sub in doc["regions"][2]["subregions"]:
        sub["weight"] = 0


def _still_drones(doc):
    doc["speed_kph"] = 0


def _backward_drones(doc):
    doc["speed_kph"] = -5


def _speed_nan(doc):
    doc["speed_kph"] = float("nan")


def _one_coordinate_pdc(doc):
    doc["regions"][0]["pdc"] = [1.0]


def _pdc_nan(doc):
    doc["regions"][1]["pdc"][0] = float("nan")


def _port_string(doc):
    doc["port"] = "ab"


def _infinite_corner(doc):
    doc["regions"][2]["subregions"][0]["max"][1] = float("inf")


@pytest.mark.parametrize(
    "fault",
    [
        _fractional_fleet,
        _negative_weight,
        _inverted_corner,
        _weightless_region,
        _still_drones,
        _backward_drones,
        _speed_nan,
        _one_coordinate_pdc,
        _pdc_nan,
        _port_string,
        _infinite_corner,
    ],
)
def test_bad_district_file_exits_2(tmp_path, capsys, fault):
    doc = bundled_district_doc()
    fault(doc)
    district = write_config(tmp_path, doc, "district.json")
    config = write_config(tmp_path, base_doc(district=district))
    out = tmp_path / "out"
    assert main(["eval", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "bad district document" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["eval", "--config", str(tmp_path / "missing.json")]) == 2
    # the bundled rl scenario cannot be evaluated without checkpoints, and a
    # command that fails on its checkpoints writes nothing
    assert main(["eval", "--config", "bernoulli", "--out", str(tmp_path / "o1")]) == 3
    assert not (tmp_path / "o1").exists()
    empty = tmp_path / "empty"
    empty.mkdir()
    for ckpts in (empty, tmp_path / "nonexistent"):
        out = tmp_path / "o2"
        argv = ["eval", "--config", "bernoulli", "--checkpoints", str(ckpts), "--out", str(out)]
        assert main(argv) == 3
        assert not out.exists()
    # checkpoints for only the first pattern: compare runs no cell of it
    net = init_network([STATE_SIZE, 8, 3], np.random.default_rng(0))
    (tmp_path / "ck" / "bernoulli").mkdir(parents=True)
    for pdc in range(1, 5):
        save_checkpoint(str(tmp_path / "ck" / "bernoulli" / f"agent_pdc{pdc}.json"), net, 1, {})
    out = tmp_path / "o3"
    argv = ["compare", "--patterns", "bernoulli", "tvb", "--algorithms", "static", "rl"]
    assert main(argv + ["--checkpoints", str(tmp_path / "ck"), "--out", str(out)]) == 3
    assert "missing checkpoint" in capsys.readouterr().err
    assert not out.exists()
    # overrides out of range are config problems, caught before anything runs
    config = write_config(tmp_path, base_doc(controller="threshold"))
    bad_overrides = [
        ["eval", "--config", config, "--horizon", "-5"],
        ["eval", "--config", config, "--horizon", "0"],
        ["eval", "--config", config, "--seed", "-1"],
        ["sweep", "--config", config, "--n-uavs", "40", "--seed", "-1"],
        # the N = 40 cell would run before the bad size was seen
        ["sweep", "--config", config, "--n-uavs", "40", "0", "--horizon", "120"],
        ["eval", "--config", config, "--n-uavs", "0"],
        ["compare", "--patterns", "bernoulli", "--algorithms", "static", "--horizon", "0"],
        ["train", "--config", config, "--seeds", "1", "-2"],
        ["train", "--config", config, "--seeds", "1", "1"],
    ]
    for argv in bad_overrides:
        out = tmp_path / "bad_override"
        assert main(argv + ["--out", str(out)]) == 2, argv
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


def test_cli_eval_writes_reports(tmp_path):
    config = write_config(tmp_path, base_doc())
    out = tmp_path / "out"
    assert main(["eval", "--config", config, "--out", str(out), "--trace"]) == 0
    assert (out / "resolved_config.json").exists()
    assert (out / "trace.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {
        "violation",
        "p_max",
        "q_mean",
        "q_std",
        "w_mean",
        "w_std",
        "n_mean",
        "horizon_slots",
    }
    with open(out / "report.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert rows[1][0] == "static"
    assert rows[1][1] == "bernoulli"


def test_cli_eval_horizon_override(tmp_path):
    config = write_config(tmp_path, base_doc(horizon_slots=100_000, warmup_slots=1000))
    out = tmp_path / "out"
    assert main(["eval", "--config", config, "--out", str(out), "--horizon", "120"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["horizon_slots"] == 120  # warmup was reset to fit


def test_cli_default_out_respects_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DRONEFLEET_OUT", str(tmp_path / "root"))
    config = write_config(tmp_path, base_doc())
    assert main(["eval", "--config", config]) == 0
    assert (tmp_path / "root" / "eval" / "report.json").exists()


def test_cli_train_artifacts(tmp_path):
    doc = base_doc(
        controller="rl",
        train={
            "episodes": 2,
            "max_steps_per_episode": 4,
            "min_buffer": 8,
            "batch_size": 4,
        },
        seeds=[5],
    )
    config = write_config(tmp_path, doc)
    out = tmp_path / "train_out"
    assert main(["train", "--config", config, "--out", str(out)]) == 0

    with open(out / "curves" / "seed5.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["episode", "steps", "avg_reward", "violation_window", "epsilon"]
    assert len(rows) == 3  # header plus one row per episode

    for pdc in range(1, 5):
        path = str(out / "checkpoints" / "seed5" / f"agent_pdc{pdc}.json")
        net, steps, echo = checkpoint_from_dict(read_json(path, CheckpointError, "checkpoint"))
        assert net.layer_sizes == [25, 32, 32, 3]
        assert steps == 8
        assert echo["seed"] == 5 and echo["pdc"] == pdc

    with open(out / "curves" / "summary.csv") as fh:
        summary = list(csv.reader(fh))
    assert summary[0] == ["episode", "mean_reward", "stderr_reward", "mean_violation", "stderr_violation"]
    assert len(summary) == 3


def test_cli_train_seed_override(tmp_path):
    doc = base_doc(
        controller="rl",
        train={"episodes": 1, "max_steps_per_episode": 2},
        seeds=[1, 2, 3],
    )
    config = write_config(tmp_path, doc)
    out = tmp_path / "train_out"
    assert main(["train", "--config", config, "--out", str(out), "--seeds", "9"]) == 0
    assert (out / "curves" / "seed9.csv").exists()
    assert not (out / "curves" / "seed1.csv").exists()


def test_cli_sweep(tmp_path):
    config = write_config(tmp_path, base_doc())
    out = tmp_path / "sweep_out"
    assert (
        main(
            [
                "sweep",
                "--config",
                config,
                "--out",
                str(out),
                "--n-uavs",
                "40",
                "60",
                "--horizon",
                "300",
            ]
        )
        == 0
    )
    with open(out / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["total_uavs", "p_max", "n_mean"] + [f"violation_{p}" for p in range(1, 5)]
    assert [r[0] for r in rows[1:]] == ["40", "60"]
    # one resolved config per fleet size, each recording the fleet it ran
    assert sorted(p.name for p in out.glob("resolved_*")) == ["resolved_n40.json", "resolved_n60.json"]
    for total in (40, 60):
        resolved = json.loads((out / f"resolved_n{total}.json").read_text())
        assert resolved["total_uavs"] == total
        assert sum(resolved["initial_allocation"]) == total  # the static split


def _bundled_scenario_doc(pattern):
    path = os.path.join(os.path.dirname(dronefleet.__file__), "data", f"scenario_{pattern}.json")
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("seeds, ran", [(None, 1), ([4, 5], 4)])
def test_one_seed_commands_record_the_seed_that_ran(tmp_path, seeds, ran):
    # eval, sweep and compare run only the first seed; with the config's
    # seeds left to the default, that is its first
    doc = {**_bundled_scenario_doc("bernoulli"), "controller": "static"}
    del doc["seeds"]
    if seeds is not None:
        doc["seeds"] = seeds
    config = write_config(tmp_path, doc)
    runs = {
        "eval": ["eval", "--config", config],
        "eval_seeded": ["eval", "--config", config, "--seed", str(ran)],
        "sweep": ["sweep", "--config", config, "--n-uavs", "40"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--horizon", "120", "--out", str(tmp_path / name)]) == 0
        resolved_name = "resolved_n40.json" if name == "sweep" else "resolved_config.json"
        resolved = json.loads((tmp_path / name / resolved_name).read_text())
        assert resolved["seeds"] == [ran]
    report = (tmp_path / "eval" / "report.json").read_bytes()
    assert report == (tmp_path / "eval_seeded" / "report.json").read_bytes()

    out = tmp_path / "compare"
    argv = ["compare", "--patterns", "bernoulli", "--algorithms", "static", "--horizon", "120"]
    assert main([*argv, "--out", str(out)]) == 0
    assert json.loads((out / "resolved_bernoulli.json").read_text())["seeds"] == [1]


def test_cli_eval_n_uavs_sets_the_fleet(tmp_path):
    config = write_config(tmp_path, base_doc())
    out = tmp_path / "out"
    assert main(["eval", "--config", config, "--out", str(out), "--trace", "--n-uavs", "40"]) == 0
    with open(out / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    # the static split puts the whole fleet at the PDCs
    assert {sum(int(row[f"n_{p}"]) for p in range(1, 5)) for row in rows} == {40}
    assert json.loads((out / "resolved_config.json").read_text())["total_uavs"] == 40


def test_cli_sweep_beyond_the_bundled_fleet(tmp_path):
    config = write_config(tmp_path, base_doc())
    out = tmp_path / "sweep_out"
    argv = ["sweep", "--config", config, "--out", str(out), "--n-uavs", "70", "--horizon", "120"]
    assert main(argv) == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["70"]


def test_cli_rejects_checkpoint_of_wrong_width(tmp_path, capsys):
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    for pdc in range(1, 5):
        net = init_network([7, 32, 32, 3], np.random.default_rng(pdc))
        save_checkpoint(str(ckpts / f"agent_pdc{pdc}.json"), net, 1, {})
    argv = ["eval", "--config", "bernoulli", "--checkpoints", str(ckpts), "--out", str(tmp_path / "o")]
    assert main(argv + ["--horizon", "120"]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_cli_rejects_checkpoints_of_mixed_shapes(tmp_path, capsys):
    # the per-PDC networks are run as one stack, so they must share a shape
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    for pdc in range(1, 5):
        net = init_network([STATE_SIZE, 8 * pdc, 3], np.random.default_rng(pdc))
        save_checkpoint(str(ckpts / f"agent_pdc{pdc}.json"), net, 1, {})
    out = tmp_path / "o"
    argv = ["eval", "--config", "bernoulli", "--checkpoints", str(ckpts), "--out", str(out)]
    assert main(argv + ["--horizon", "120"]) == 3
    assert "differ in layer sizes" in capsys.readouterr().err
    assert not out.exists()


def _eval_with_pdc3_edited(tmp_path, capsys, edit) -> str:
    """Exit 3 and one line of stderr, naming the file, from an eval of four
    saved checkpoints, the third of them passed through `edit`. Returns the
    line."""
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    for pdc in range(1, 5):
        net = init_network([STATE_SIZE, 32, 32, 3], np.random.default_rng(pdc))
        save_checkpoint(str(ckpts / f"agent_pdc{pdc}.json"), net, 1, {})
    bad = ckpts / "agent_pdc3.json"
    doc = json.loads(bad.read_text())
    edit(doc)
    bad.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main([*_eval_rl(str(ckpts)), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error: ") and err.count("\n") == 1
    assert str(bad) in err and "Traceback" not in err
    assert not out.exists()
    return err


def test_malformed_checkpoint_error_names_the_file(tmp_path, capsys):
    err = _eval_with_pdc3_edited(tmp_path, capsys, lambda doc: doc.pop("weights"))
    assert "'weights'" in err


@pytest.mark.parametrize("key, value", [("weights", math.nan), ("biases", math.inf)])
def test_non_finite_checkpoint_error_names_the_file(tmp_path, capsys, key, value):
    def edit(doc):
        layer = doc[key][-1]
        if key == "weights":
            layer = layer[0]
        layer[0] = value

    err = _eval_with_pdc3_edited(tmp_path, capsys, edit)
    assert "not all finite" in err


# config values that ask numpy for more than a 47-bit address space holds,
# so the allocation fails at once whatever the host's overcommit mode: a
# batch of 10**14 packages' destination draws, an 18.2 PiB count buffer, and
# a 1 x 10**14 weight layer ([10**7, 10**7] would first fill a 2 GB layer)
OVERSIZED = {
    "batch-mean": (
        ["eval"],
        {"arrival": {"type": "bernoulli", "p": 0.25, "batch_means": [10**14, 50, 75, 90]}},
        "2.13 PiB",
    ),
    "epoch-slots": (["eval", "--horizon", "600"], {"reward": {"epoch_slots": 10**13}}, "18.2 PiB"),
    "hidden-sizes": (
        ["train"],
        {"controller": "rl", "train": {"episodes": 1, "hidden_sizes": [1, 10**14]}},
        "728. TiB",
    ),
}


@pytest.mark.parametrize("case", list(OVERSIZED))
def test_oversized_config_value_exits_2(tmp_path, capsys, case):
    command, overrides, size = OVERSIZED[case]
    config = write_config(tmp_path, base_doc(**overrides))
    out = tmp_path / "out"
    assert main([command[0], "--config", config, *command[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: out of memory: Unable to allocate {size} ")
    assert err.count("\n") == 1 and "Traceback" not in err
    # the run got as far as the resolved config
    assert [p.name for p in out.rglob("*") if p.is_file()] == ["resolved_config.json"]


@pytest.mark.parametrize("key", ["arrival.type", "controller"])
def test_bad_value_is_echoed_short(tmp_path, capsys, key):
    nested = "bernoulli"
    for _ in range(900):
        nested = [nested]
    if key == "controller":
        doc = base_doc(controller=nested)
    else:
        doc = base_doc(arrival=_arrival_with(type=nested))
    out = str(tmp_path / "o")
    assert main(["eval", "--config", write_config(tmp_path, doc), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: unknown {key.replace('.', ' ')} ")
    assert err.count("\n") == 1 and len(err) < 200


def test_per_slot_phase_must_be_a_json_boolean(tmp_path, capsys):
    arrival = {
        "type": "mmb",
        "p_high": 0.9,
        "p_low": 0.1,
        "p_high_to_low": 0.15,
        "p_low_to_high": 0.15,
        "batch_means": [55, 50, 75, 90],
        "per_slot_phase": "no",
    }
    config = write_config(tmp_path, base_doc(arrival=arrival))
    assert main(["eval", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "per_slot_phase" in capsys.readouterr().err
    arrival["per_slot_phase"] = False
    config = write_config(tmp_path, base_doc(arrival=arrival))
    assert main(["eval", "--config", config, "--out", str(tmp_path / "o")]) == 0


def test_train_duplicate_seeds_named(tmp_path, capsys):
    config = write_config(tmp_path, base_doc(controller="rl"))
    out = tmp_path / "o"
    assert main(["train", "--config", config, "--seeds", "1", "1", "--out", str(out)]) == 2
    assert "more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "trained, code",
    [
        ({}, 0),
        ({"arrival": {"type": "mmb"}}, 0),  # evaluating across patterns is allowed
        ({"delta": 5}, 3),
        ({"reward": {"epoch_slots": 30}}, 3),
        ({"pdc": "swapped"}, 3),
    ],
    ids=["same", "other-pattern", "delta", "epoch-slots", "pdc"],
)
def test_cli_checks_the_checkpoint_echo(tmp_path, capsys, trained, code):
    cfg = config_from_dict(base_doc(controller="rl", delta=20))
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    for pdc in range(1, 5):
        echo = cfg.checkpoint_echo(seed=1, pdc=pdc)
        echo.update(trained)
        if trained.get("pdc") == "swapped":
            echo["pdc"] = 5 - pdc
        net = init_network([STATE_SIZE, 32, 32, 3], np.random.default_rng(pdc))
        save_checkpoint(str(ckpts / f"agent_pdc{pdc}.json"), net, 1, echo)
    config = write_config(tmp_path, base_doc(controller="rl", delta=20))
    argv = ["eval", "--config", config, "--checkpoints", str(ckpts), "--out", str(tmp_path / "o")]
    assert main(argv + ["--horizon", "120"]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert "checkpoint error" in err and "was trained with" in err


def test_cli_compare(tmp_path):
    out = tmp_path / "cmp_out"
    code = main(
        [
            "compare",
            "--patterns",
            "bernoulli",
            "--algorithms",
            "static",
            "threshold",
            "--out",
            str(out),
            "--horizon",
            "300",
        ]
    )
    assert code == 0
    with open(out / "compare.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert [(r[0], r[1]) for r in rows[1:]] == [("static", "bernoulli"), ("threshold", "bernoulli")]
    assert (out / "reports" / "static_bernoulli.json").exists()
    assert (out / "resolved_bernoulli.json").exists()


def _raw_file(tmp_path, name, data: bytes):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def _district_file(tmp_path, fault):
    doc = bundled_district_doc()
    fault(doc)
    return write_config(tmp_path, doc, "district.json")


def _arrival_with(**extra):
    return {**base_doc()["arrival"], **extra}


def _checkpoint_files(tmp_path, data: bytes):
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    for pdc in range(1, 5):
        (ckpts / f"agent_pdc{pdc}.json").write_bytes(data)
    return str(ckpts)


def _file_at_out(tmp_path):
    (tmp_path / "taken").write_text("x")
    return str(tmp_path / "taken")


def _eval(tmp_path, **overrides):
    return ["eval", "--config", write_config(tmp_path, base_doc(**overrides))]


def _eval_rl(checkpoints):
    return ["eval", "--config", "bernoulli", "--horizon", "120", "--checkpoints", checkpoints]


COMPARE = ["compare", "--patterns", "bernoulli", "--algorithms", "static", "--horizon", "120"]
DEEP = b"[" * 100_000 + b"]" * 100_000

# id -> (exit code, builder of the argv from tmp_path; --out is appended
# unless the argv names its own)
INPUT_FAULTS = {
    "config-is-a-directory": (2, lambda t: ["eval", "--config", str(t)]),
    "config-not-utf8": (
        2,
        lambda t: ["eval", "--config", _raw_file(t, "c.json", b'{"controller": "st\xe4tic"}')],
    ),
    "config-nested-100000-deep": (2, lambda t: ["eval", "--config", _raw_file(t, "c.json", DEEP)]),
    "district-is-a-directory": (2, lambda t: _eval(t, district=str(t))),
    "district-not-utf8": (
        2,
        lambda t: _eval(t, district=_raw_file(t, "d.json", b'{"port": "\xff"}')),
    ),
    # no PDC, so no batch mean or queue bound either: the static split is
    # the first to need a region
    "district-without-regions": (
        2,
        lambda t: _eval(
            t,
            district=_district_file(t, lambda doc: doc.update(regions=[])),
            arrival=_arrival_with(batch_means=[]),
            queue_bounds=[],
        ),
    ),
    "checkpoint-not-utf8": (
        3,
        lambda t: _eval_rl(_checkpoint_files(t, b'{"layer_sizes": "\xff"}')),
    ),
    "checkpoint-nested-100000-deep": (3, lambda t: _eval_rl(_checkpoint_files(t, DEEP))),
    "unknown-top-level-key": (2, lambda t: _eval(t, horizon_slot=120)),
    "unknown-reward-key": (2, lambda t: _eval(t, reward={"epoch": 30})),
    "unknown-arrival-key": (2, lambda t: _eval(t, arrival=_arrival_with(truck_interval=7))),
    "arrival-key-of-another-type": (2, lambda t: _eval(t, arrival=_arrival_with(p_high=0.9))),
    "out-is-a-file": (2, lambda t: [*COMPARE, "--out", _file_at_out(t)]),
    "out-under-a-file": (2, lambda t: [*COMPARE, "--out", os.path.join(_file_at_out(t), "sub")]),
    "pattern-listed-twice": (
        2,
        lambda t: ["compare", "--patterns", "bernoulli", "bernoulli", "--algorithms", "static"],
    ),
    "algorithm-listed-twice": (
        2,
        lambda t: ["compare", "--patterns", "bernoulli", "--algorithms", "static", "static"],
    ),
    "fleet-size-listed-twice": (2, lambda t: ["sweep", *_eval(t)[1:], "--n-uavs", "40", "40"]),
}


@pytest.mark.parametrize("case", list(INPUT_FAULTS))
def test_input_fault_exits_with_one_line(tmp_path, capsys, case):
    code, build = INPUT_FAULTS[case]
    argv = build(tmp_path)
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    dirs_before = sorted(p for p in tmp_path.rglob("*") if p.is_dir())
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("config error: " if code == 2 else "checkpoint error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(p for p in tmp_path.rglob("*") if p.is_dir()) == dirs_before


def test_every_arrival_type_reads_only_its_own_keys():
    for kind, arrival in ARRIVALS.items():
        config_from_dict(base_doc(arrival={**arrival, "per_slot_phase": False}))
        for other in ARRIVALS.values():
            for key in set(other) - set(arrival):
                with pytest.raises(ConfigError, match="unknown arrival settings"):
                    config_from_dict(base_doc(arrival={**arrival, key: other[key]}))


@pytest.mark.parametrize("pattern", BUILTIN_SCENARIOS)
@pytest.mark.parametrize(
    "flags",
    [[], ["--horizon", "600"], ["--n-uavs", "40"], ["--seed", "7"]],
    ids=["plain", "horizon", "n-uavs", "seed"],
)
def test_resolved_config_loads_back_as_the_same_config(tmp_path, pattern, flags):
    args = cli.build_parser().parse_args(["eval", "--config", pattern, *flags])
    cfg = cli._config(args, args.config, args.n_uavs)
    path = tmp_path / "resolved.json"
    path.write_text(json.dumps(cfg.resolved, indent=2, sort_keys=True))
    args = cli.build_parser().parse_args(["eval", "--config", str(path)])
    again = cli._config(args, args.config, args.n_uavs)
    assert again.resolved == cfg.resolved
    assert again == cfg
