"""Tests of the benchmark's own output checks and tracer.

    python3 -m pytest -q bench

Each check gets a small hand-made output with a known answer, and
corrupted copies that it must reject.
"""

import copy
import csv
import json
import math
import os
import sys
import types

import numpy as np
import pytest

import calibrate
import checks
import run
import tracer

# --- eval trace: a 3-package FIFO case ---------------------------------------

# One PDC, trucks may come every 2 slots. Two packages land at t=0, one at
# t=2; one is dispatched at each of t=1, 2, 3, so the FIFO waits are 1, 2, 1.
TRACE_DOC = {
    "arrival": {
        "type": "bernoulli",
        "p": 0.5,
        "truck_interval_mins": 2,
        "batch_means": [2],
        "batch_half_width": 1,
    },
    "queue_bounds": [1],
    "warmup_slots": 0,
    "horizon_slots": 4,
    "reward": {"epoch_slots": 2},
}


def _trace():
    col = lambda *v: np.array(v, dtype=np.int64)[:, None]  # noqa: E731
    return {
        "t": np.arange(4),
        "q": col(2, 1, 1, 0),
        "n": col(1, 1, 1, 1),
        "arrivals": col(2, 0, 1, 0),
        "dispatches": col(0, 1, 1, 1),
    }


def _report():
    return {
        "violation": [0.75],
        "p_max": 0.75,
        "q_mean": 1.0,
        "q_std": math.sqrt(0.5),
        "w_mean": 4 / 3,
        "w_std": math.sqrt(2 / 9),
        "n_mean": 1.0,
        "horizon_slots": 4,
    }


def _trace_problems(trace=None, report=None, fleet=1):
    return checks.check_trace(trace or _trace(), report or _report(), TRACE_DOC, fleet)


def test_fifo_waits_known_answer():
    t = _trace()
    assert checks.fifo_waits(t["arrivals"], t["dispatches"], 0).tolist() == [1, 2, 1]
    assert checks.fifo_waits(t["arrivals"], t["dispatches"], 1).tolist() == [1]


def test_hand_made_trace_passes():
    assert _trace_problems() == []


def test_violation_bracket_accepts_either_side_of_the_bound():
    # q > 1 in 1 of 4 slots, q >= 1 in 3 of 4.
    for v in (0.25, 0.75):
        assert _trace_problems(report=dict(_report(), violation=[v], p_max=v)) == []


def _rejects(fragment, trace=None, report=None, fleet=1):
    problems = _trace_problems(trace, report, fleet)
    assert any(fragment in p for p in problems), problems


def test_q_mean_off_by_one_is_rejected():
    _rejects("q_mean", report=dict(_report(), q_mean=2.0))


def test_n_mean_off_is_rejected():
    _rejects("n_mean", report=dict(_report(), n_mean=1.5))


def test_wrong_waits_are_rejected():
    _rejects("w_mean", report=dict(_report(), w_mean=1.0))
    _rejects("w_std", report=dict(_report(), w_std=0.5))


def test_broken_queue_balance_is_rejected():
    t = _trace()
    t["q"][1, 0] = 2
    _rejects("queue balance", trace=t)


def test_dispatch_beyond_allocation_is_rejected():
    t = _trace()
    t["n"][2, 0] = 0
    _rejects("dispatches exceed", trace=t)


def test_more_drones_than_fleet_is_rejected():
    t = _trace()
    t["n"][:, 0] = 2
    _rejects("more than the fleet", trace=t)


def test_truck_off_opportunity_slot_is_rejected():
    t = _trace()
    t["arrivals"][:, 0] = [2, 1, 0, 0]
    t["dispatches"][:, 0] = [0, 1, 1, 1]
    t["q"][:, 0] = [2, 2, 1, 0]
    _rejects("outside truck opportunity", trace=t)


def test_batch_outside_support_is_rejected():
    t = _trace()
    t["arrivals"][0, 0] = 4
    t["q"][:, 0] = [4, 3, 3, 2]
    _rejects("batch size outside", trace=t)


def test_violation_outside_bracket_is_rejected():
    _rejects("violation", report=dict(_report(), violation=[0.1], p_max=0.1))
    _rejects("p_max", report=dict(_report(), p_max=0.5))


def test_horizon_mismatch_is_rejected():
    _rejects("horizon_slots", report=dict(_report(), horizon_slots=3))


def test_trace_file_round_trip(tmp_path):
    t = _trace()
    path = tmp_path / "trace.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "q_1", "n_1", "arrivals_1", "dispatches_1"])
        for i in range(4):
            w.writerow([i, t["q"][i, 0], t["n"][i, 0], t["arrivals"][i, 0], t["dispatches"][i, 0]])
    read = checks.read_trace(str(path))
    for key in t:
        assert np.array_equal(read[key], t[key])


# --- truck share against the stationary rate -----------------------------------


def test_stationary_truck_rate():
    mmb = {"type": "mmb", "p_high": 0.9, "p_low": 0.1, "p_high_to_low": 0.15,
           "p_low_to_high": 0.15}
    assert checks.stationary_truck_rate(mmb) == pytest.approx(0.5)
    mmb.update(p_high_to_low=0.3, p_low_to_high=0.1)
    assert checks.stationary_truck_rate(mmb) == pytest.approx(0.25 * 0.9 + 0.75 * 0.1)


def test_truck_share():
    assert checks.truck_share_problem(500, 1000, 0.5, "x") is None
    assert checks.truck_share_problem(1000, 1000, 0.5, "x") is not None
    assert checks.truck_share_problem(430, 1000, 0.5, "x") is not None  # 4.4 se off
    assert checks.truck_share_problem(0, 0, 0.5, "x") is not None


# --- Bernoulli eval report: Little's law --------------------------------------

LITTLE_DOC = {
    "arrival": {
        "type": "bernoulli",
        "p": 0.25,
        "truck_interval_mins": 30,
        "batch_means": [55, 50, 75, 90],
        "batch_half_width": 15,
    },
    "queue_bounds": [110, 110, 150, 200],
    "warmup_slots": 1000,
    "horizon_slots": 100000,
    "reward": {"epoch_slots": 60},
}


def _little_report(**kw):
    # lambda = 0.25 * 270 / 30 = 2.25 packages per slot over 4 PDCs
    doc = {"q_mean": 2.25 * 268.0 / 4, "w_mean": 268.0, "n_mean": 28.0, "p_max": 0.5,
           "q_std": 100.0, "w_std": 150.0, "horizon_slots": 100020 - 1000}
    doc.update(kw)
    return doc


def test_little_consistent_report_passes():
    assert checks.check_little(_little_report(), LITTLE_DOC, 60) == []
    # 1.2% off, as measured at the default seed, is inside the tolerance
    assert checks.check_little(_little_report(w_mean=268.0 * 1.012), LITTLE_DOC, 60) == []


def test_little_tolerance_is_the_package_count_error():
    tol = checks.little_tolerance(LITTLE_DOC, 99020)
    assert 0.01 < tol < 0.02


@pytest.mark.parametrize(
    "kw, fragment",
    [
        ({"w_mean": 2 * 268.0}, "Little"),
        ({"q_mean": 2.25 * 268.0 / 4 * 1.2}, "Little"),
        ({"n_mean": 61.0}, "n_mean"),
        ({"n_mean": -1.0}, "n_mean"),
        ({"horizon_slots": 99000}, "horizon_slots"),
        ({"q_mean": float("nan")}, "q_mean"),
    ],
)
def test_little_corrupted_report_is_rejected(kw, fragment):
    problems = checks.check_little(_little_report(**kw), LITTLE_DOC, 60)
    assert any(fragment in p for p in problems), problems


# --- training outputs ----------------------------------------------------------

TRAIN_DOC = {
    "reward": {"lam": 4.0, "violation_budget": 0.1, "epoch_slots": 60},
    "queue_bounds": [110, 110],
    "train": {"episodes": 2, "max_steps_per_episode": 3, "hidden_sizes": [4]},
}
# 6 planned steps, decay over the first 4.8: eps(2) = 0.5 - 0.45 * 2/4.8
CURVE = [
    {"episode": 0, "steps": 3, "avg_reward": -100.0, "violation_window": 0.5,
     "epsilon": 0.5 - 0.45 * 2 / 4.8},
    {"episode": 1, "steps": 2, "avg_reward": 20.0, "violation_window": 0.0,
     "epsilon": 0.5 - 0.45 * 4 / 4.8},
]


def _write_train(root, curve=CURVE, mutate=None):
    os.makedirs(root / "curves")
    with open(root / "curves" / "seed7.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(curve[0]))
        w.writeheader()
        for row in curve:
            w.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    ckpt_dir = root / "checkpoints" / "seed7"
    os.makedirs(ckpt_dir)
    for pdc in (1, 2):
        doc = {
            "layer_sizes": [25, 4, 3],
            "weights": [np.zeros((25, 4)).tolist(), np.ones((4, 3)).tolist()],
            "biases": [[0.0] * 4, [0.0] * 3],
            "train_steps": 5,
            "config": {},
        }
        if mutate and pdc == 2:
            mutate(doc)
        (ckpt_dir / f"agent_pdc{pdc}.json").write_text(json.dumps(doc))
    return str(root)


def test_train_outputs_pass(tmp_path):
    assert checks.check_train_outputs(_write_train(tmp_path), TRAIN_DOC, 7, 60) == []


def test_epsilon_schedule_known_values():
    assert checks.epsilon_schedule(TRAIN_DOC["train"], 0) == 0.5
    assert checks.epsilon_schedule(TRAIN_DOC["train"], 5) == 0.05


def test_reward_bounds():
    # 60 slots at (0.4 - 4) each and all 60 drones held, up to 60 at 0.4
    assert checks.reward_bounds(TRAIN_DOC, 60) == pytest.approx((-276.0, 24.0))


@pytest.mark.parametrize(
    "row, fragment",
    [
        ({"epsilon": 0.3}, "epsilon"),
        ({"steps": 4}, "steps"),
        ({"steps": 0}, "steps"),
        ({"avg_reward": 30.0}, "avg_reward"),
        ({"avg_reward": -300.0}, "avg_reward"),
        ({"violation_window": 1.5}, "violation_window"),
    ],
)
def test_corrupted_curve_is_rejected(tmp_path, row, fragment):
    curve = copy.deepcopy(CURVE)
    curve[0].update(row)
    problems = checks.check_train_outputs(_write_train(tmp_path, curve), TRAIN_DOC, 7, 60)
    assert any(fragment in p for p in problems), problems


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (_set("train_steps", 6), "train_steps"),
        (_set("layer_sizes", [7, 4, 3]), "layer_sizes"),
        (lambda d: d["weights"][1][0].__setitem__(0, float("nan")), "non-finite"),
        (lambda d: d["biases"].__setitem__(1, [0.0, 0.0]), "shape"),
    ],
)
def test_corrupted_checkpoint_is_rejected(tmp_path, mutate, fragment):
    out = _write_train(tmp_path, mutate=mutate)
    problems = checks.check_train_outputs(out, TRAIN_DOC, 7, 60)
    assert any(fragment in p for p in problems), problems


def test_missing_checkpoint_is_rejected(tmp_path):
    out = _write_train(tmp_path)
    os.remove(os.path.join(out, "checkpoints", "seed7", "agent_pdc2.json"))
    problems = checks.check_train_outputs(out, TRAIN_DOC, 7, 60)
    assert any("checkpoints" in p for p in problems), problems


# --- byte-identical outputs --------------------------------------------------------


def test_identical_outputs(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "report.json").write_text("{}")
    same = [checks.sha256_tree(str(tmp_path / n)) for n in ("a", "b")]
    assert checks.check_identical(same) == []
    (tmp_path / "b" / "report.json").write_text("{ }")
    differ = [checks.sha256_tree(str(tmp_path / n)) for n in ("a", "b")]
    assert "report.json" in checks.check_identical(differ)[0]


# --- tracer --------------------------------------------------------------------


def _fake_modules():
    mod = types.ModuleType("fakefleet.core")

    def inner(x):
        return x + 1

    def step(x):
        return ([0], [x, mod.inner(x)])

    class Proc:
        def draw(self, x):
            return x * 2

    for fn in (inner, step):
        fn.__module__ = mod.__name__
    Proc.__module__ = mod.__name__
    mod.inner, mod.step, mod.Proc = inner, step, Proc
    user = types.ModuleType("fakefleet.user")
    user.step = step  # imported by name, as runner imports step_slot
    return mod, user


def test_tracer_wraps_found_functions_and_reports_missing_ones(monkeypatch):
    mod, user = _fake_modules()
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    tr = tracer.Tracer()
    tr.install(
        [
            ("simcore.step_slot", mod.__name__, "step"),
            ("core.inner", mod.__name__, "inner"),
            ("core.draw", mod.__name__, "*.draw"),
            ("core.gone", mod.__name__, "renamed_away"),
            ("core.no_method", mod.__name__, "*.no_such_method"),
            ("other.f", "fakefleet.not_loaded", "f"),
        ],
        [mod, user],
    )
    assert len(tr.unmeasured) == 3
    assert user.step(3) == ([0], [3, 4])  # the alias was wrapped too
    assert mod.Proc().draw(2) == 4
    assert tr.counters["simcore.packages_dispatched"] == 7
    summary = tr.summary()
    assert summary["simcore.step_slot"]["calls"] == 1
    assert summary["core.inner"]["calls"] == 1
    assert summary["core.draw"]["calls"] == 1
    step = summary["simcore.step_slot"]
    assert step["self_s"] <= step["busy_s"]
    assert list(tr.parent) == [-1, 0, -1]  # inner ran inside step


def test_tracer_counter_failure_keeps_the_run_going(monkeypatch):
    mod, user = _fake_modules()
    mod.step = lambda x: x  # a result the step_slot counter cannot read
    mod.step.__module__ = mod.__name__
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    tr = tracer.Tracer()
    tr.install([("simcore.step_slot", mod.__name__, "step")], [mod])
    assert mod.step(5) == 5
    assert mod.step(6) == 6
    assert len(tr.unmeasured) == 1 and "counters" in tr.unmeasured[0]
    assert tr.summary()["simcore.step_slot"]["calls"] == 2


def test_tracer_writes_spans(tmp_path):
    tr = tracer.Tracer()
    f = tr.wrap(lambda: None, "x")
    f()
    tr.save_spans(str(tmp_path / "s.npz"))
    spans = np.load(tmp_path / "s.npz")
    assert spans["names"].tolist() == ["x"]
    assert (spans["end_ns"] >= spans["start_ns"]).all()


# --- BENCHMARK.json agrees with what the runner prints ---------------------------


def test_benchmark_json_matches_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    layer = run.per_layer_metrics({"layers": {}, "counters": {}, "cli_import_ms": 1.0}, 0.0)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: unit for k, (_, unit) in layer.items()
    }


# --- the reference kernel that scales times to reference host speed ---------


def test_reference_kernel_is_fixed_work():
    # the same work on every call, so its time measures the host alone
    assert calibrate.reference_work(500) == calibrate.reference_work(500)
    assert calibrate.reference_work(500) > 0
    assert calibrate.slowness() > 0
