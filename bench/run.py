#!/usr/bin/env python3
"""dronefleet benchmark: eval and training throughput through the public CLI.

    python3 bench/run.py --workload eval-mmb --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (it needs src/dronefleet). Each
operation is one fresh `python3 -m dronefleet.cli` process with one BLAS
thread; operations run one at a time. With --trace 0 the run alternates
the command cut to one decision epoch (set-up time) with the whole
workload until --seconds are used, and reports the end-to-end metrics as
medians. Times are scaled to a host of reference speed by a fixed kernel
timed between operations (bench/calibrate.py), since the shared host's
speed drifts. With --trace 1 it alternates an untimed
plain operation with one run under bench/tracer.py and reports the
per-layer metrics. Every operation's outputs are checked (bench/checks.py)
and must be byte-identical to the other operations of the run. The last
line of standard output is a JSON object with correct, attempted, failed
and metrics. Outputs go under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import calibrate
import checks

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(SRC, "dronefleet", "data")
OUT = os.path.join(ROOT, ".bench_out")

# Scenario overrides per workload, applied to the bundled scenario file.
# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "eval-bernoulli": {
        "command": "eval",
        "scenario": "bernoulli",
        "overrides": {"controller": "threshold"},
        "flags": [],
    },
    "eval-mmb": {
        "command": "eval",
        "scenario": "mmb",
        "overrides": {"controller": "ql"},
        "flags": ["--trace"],
    },
    "train-bernoulli": {
        "command": "train",
        "scenario": "bernoulli",
        "overrides": {
            "train": {"episodes": 20, "max_steps_per_episode": 100, "min_buffer": 25}
        },
        "flags": [],
    },
}

SETUP_RUNS = 5  # one-epoch runs per timed run; their median is setup_s
OP_TIMEOUT_S = 45  # a child still running after this is killed and counted failed

END_TO_END = {"setup_s": "s", "slots_per_s": "slots/s", "peak_rss_mb": "MB"}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(doc: dict, overhead_s: float) -> dict:
    """Per-layer metric name -> (value, unit) from a tracer summary."""
    layers, counters = doc["layers"], doc["counters"]

    def get(name, field):
        return float(layers.get(name, {}).get(field, 0))

    def us(name):
        return get(name, "median_us"), "us"

    step_busy_us = get("simcore.step_slot", "busy_s") * 1e6
    requested = counters.get("scheduler.requested", 0)
    return {
        "simcore.step_slot.us": us("simcore.step_slot"),
        "simcore.step_slot.us_p99": (get("simcore.step_slot", "p99_us"), "us"),
        "simcore.step_slot.self_s": (get("simcore.step_slot", "self_s"), "s"),
        "simcore.us_per_package": (
            _ratio(step_busy_us, counters.get("simcore.packages_dispatched", 0)),
            "us",
        ),
        "simcore.step_slot.calls": (get("simcore.step_slot", "calls"), "count"),
        "simcore.packages_dispatched": (counters.get("simcore.packages_dispatched", 0), "count"),
        "simcore.moves_applied": (counters.get("simcore.moves_applied", 0), "count"),
        "simcore.apply_allocation_moves.us": us("simcore.apply_allocation_moves"),
        "simcore.init_sim.us": us("simcore.init_sim"),
        "arrivals.draw_batch.us": us("arrivals.draw_batch"),
        "arrivals.advance_slot.us": us("arrivals.advance_slot"),
        "geography.sample_destinations.us": us("geography.sample_destinations"),
        "geography.destinations_drawn": (counters.get("geography.destinations_drawn", 0), "count"),
        "scheduler.schedule.us": us("scheduler.schedule"),
        "scheduler.form_donor_set.us": us("scheduler.form_donor_set"),
        "scheduler.assign_donors.us": us("scheduler.assign_donors"),
        "scheduler.requested": (requested, "count"),
        "scheduler.granted": (counters.get("scheduler.granted", 0), "count"),
        "scheduler.parked": (counters.get("scheduler.parked", 0), "count"),
        "scheduler.grant_ratio": (_ratio(counters.get("scheduler.granted", 0), requested), "ratio"),
        "controllers.decide.us": us("controllers.decide"),
        "runner.run_policy.s": (get("runner.run_policy", "busy_s"), "s"),
        "runner.self_s": (get("runner.run_policy", "self_s"), "s"),
        "metrics.summarize.ms": (get("metrics.summarize", "median_us") / 1e3, "ms"),
        "rlagent.encode_state.us": us("rlagent.encode_state"),
        "rlagent.select_action.us": us("rlagent.select_action"),
        "rlagent.replay_push.us": us("rlagent.replay_push"),
        "rlagent.replay_sample.us": us("rlagent.replay_sample"),
        "rlagent.ddqn_targets_batch.us": us("rlagent.ddqn_targets_batch"),
        "rlagent.compute_reward.us": us("rlagent.compute_reward"),
        "rlagent.save_checkpoint.ms": (get("rlagent.save_checkpoint", "median_us") / 1e3, "ms"),
        "network.forward.us": us("network.forward"),
        "network.batch_gradient.us": us("network.batch_gradient"),
        "network.adam_step.us": us("network.adam_step"),
        "training.train.s": (get("training.train", "busy_s"), "s"),
        "training.self_s": (get("training.train", "self_s"), "s"),
        "training.steps": (counters.get("training.steps", 0), "count"),
        "training.learner_updates": (get("network.adam_step", "calls"), "count"),
        "configs.load_experiment_config.ms": (
            get("configs.load_experiment_config", "median_us") / 1e3,
            "ms",
        ),
        "cli.import.ms": (doc["cli_import_ms"], "ms"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def scenario_doc(name: str, one_epoch: bool) -> dict:
    """The workload's config: bundled scenario plus overrides. The one-epoch
    variant used for set-up timing runs a single decision epoch."""
    spec = WORKLOADS[name]
    with open(os.path.join(DATA, f"scenario_{spec['scenario']}.json")) as fh:
        doc = json.load(fh)
    doc.update(copy.deepcopy(spec["overrides"]))
    if one_epoch and spec["command"] == "train":
        doc["train"] = dict(doc["train"], episodes=1, max_steps_per_episode=1)
    return doc


def fleet_size() -> int:
    """The bundled district's fleet, which the simulator sizes itself from."""
    with open(os.path.join(DATA, "district.json")) as fh:
        return int(json.load(fh)["total_uavs"])


def cli_args(name: str, cfg_path: str, out: str, seed: int, one_epoch: bool) -> list:
    spec = WORKLOADS[name]
    seed_flag = "--seeds" if spec["command"] == "train" else "--seed"
    args = [spec["command"], "--config", cfg_path, "--out", out, seed_flag, str(seed)]
    if one_epoch and spec["command"] == "eval":
        args += ["--horizon", "60"]
    return args + spec["flags"]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DRONEFLEET_OUT"}
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list, log_prefix: str) -> tuple:
    """Run one child to completion; returns (exit code, wall s, peak RSS MiB)."""
    with open(log_prefix + ".stdout", "w") as out, open(log_prefix + ".stderr", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            # wait4 reaps this child alone and returns its own resource usage
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Run:
    """One benchmark run of one workload: its operations, checks and counts."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.dir = os.path.join(OUT, name)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(os.path.join(self.dir, "logs"))
        self.doc = scenario_doc(name, one_epoch=False)
        self.fleet = fleet_size()
        self.cfg = {}
        for one_epoch in (False, True):
            path = os.path.join(self.dir, "setup.json" if one_epoch else "config.json")
            with open(path, "w") as fh:
                json.dump(scenario_doc(name, one_epoch), fh, indent=2)
            self.cfg[one_epoch] = path
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digests = {False: [], True: []}
        self._checked: dict[str, list] = {}

    def op(self, label: str, one_epoch: bool = False, traced: bool = False):
        """One CLI invocation. Returns (wall s, RSS MiB, out dir) or None if it failed."""
        out = os.path.join(self.dir, label)
        args = cli_args(self.name, self.cfg[one_epoch], out, self.seed, one_epoch)
        if traced:
            prefix = os.path.join(self.dir, "logs", label)
            argv = [sys.executable, os.path.join(BENCH, "tracer.py"),
                    "--spans", prefix + ".spans.npz", "--layers", prefix + ".layers.json",
                    "--", *args]
        else:
            argv = [sys.executable, "-m", "dronefleet.cli", *args]
        self.attempted += 1
        code, wall, rss = run_child(argv, os.path.join(self.dir, "logs", label))
        if code != 0:
            self.failed += 1
            with open(os.path.join(self.dir, "logs", label + ".stderr")) as fh:
                tail = fh.read()[-2000:]
            print(f"{label}: exit code {code}\n{tail}", file=sys.stderr)
            return None
        digest = checks.sha256_tree(out)
        self.digests[one_epoch].append(digest)
        if not one_epoch:
            key = json.dumps(digest, sort_keys=True)
            if key not in self._checked:  # identical bytes need checking once
                self._checked[key] = self.check(out)
                for p in self._checked[key]:
                    print(f"{label}: CHECK FAILED: {p}", file=sys.stderr)
                self.problems += self._checked[key]
        return wall, rss, out

    def check(self, out: str) -> list:
        if WORKLOADS[self.name]["command"] == "train":
            return checks.check_train_outputs(out, self.doc, self.seed, self.fleet)
        return checks.check_eval_outputs(out, self.doc, self.fleet)

    def slots(self, out: str) -> int:
        """Simulated slots in a finished full operation."""
        if WORKLOADS[self.name]["command"] == "train":
            rows = checks.read_curve(os.path.join(out, "curves", f"seed{self.seed}.csv"))
            return sum(r["steps"] for r in rows) * self.doc["reward"]["epoch_slots"]
        return checks.eval_horizon(self.doc)

    def correct(self) -> bool:
        for one_epoch, digests in self.digests.items():
            for p in checks.check_identical(digests):
                print(f"{'set-up' if one_epoch else 'full'} runs: {p}", file=sys.stderr)
                self.problems.append(p)
        return not self.problems


def timed_run(run: Run, seconds: float) -> dict:
    """Rounds of (one-epoch run, full run) until `seconds` are used.

    Interleaving puts the set-up samples in the same stretches of machine
    load as the full runs; at least SETUP_RUNS set-up samples are taken.
    The reference kernel (bench/calibrate.py) is timed before the first
    operation and after each one. An operation's wall time divided by the
    mean slowness on either side of it is its time at reference speed;
    the end-to-end times are medians of these.
    """
    run.op("warmup", one_epoch=True)  # fills the bytecode and file caches
    calibrate.slowness()  # warms the kernel's own code paths
    t_start = time.perf_counter()
    setup, full, rounds, slow = [], [], [], [calibrate.slowness()]

    def timed_op(label, one_epoch=False):
        res = run.op(label, one_epoch=one_epoch)
        slow.append(calibrate.slowness())
        return res and (res[0] / ((slow[-2] + slow[-1]) / 2), *res)

    while len(rounds) < 2 or time.perf_counter() - t_start + statistics.median(rounds) <= seconds:
        i = len(rounds)
        t0 = time.perf_counter()
        res = timed_op(f"setup{i}", one_epoch=True)
        if res:
            setup.append(res[:2])
        res = timed_op(f"op{i}")
        if res:
            scaled, wall, peak, out = res
            full.append((scaled, wall, peak, run.slots(out)))
            if i > 0:
                shutil.rmtree(out)  # its digest is kept; op0 stays for inspection
        rounds.append(time.perf_counter() - t0)
    while len(setup) < SETUP_RUNS:
        res = timed_op(f"setup-extra{len(setup)}", one_epoch=True)
        if res is None:
            break
        setup.append(res[:2])

    setup_s = statistics.median(s[0] for s in setup) if setup else float("nan")
    print(f"host slowness: median {statistics.median(slow):.3f}, "
          f"{min(slow):.3f}-{max(slow):.3f} over {len(slow)} measurements")
    print(f"set-up: {len(setup)} one-epoch runs, median {setup_s:.4f} s at reference speed, "
          f"{statistics.median(s[1] for s in setup) if setup else float('nan'):.4f} s wall")
    rates = []
    for i, (scaled, wall, peak, slots) in enumerate(full):
        rates.append(slots / (scaled - setup_s))
        print(f"full run {i}: wall {wall:.3f} s, {scaled:.3f} s at reference speed, "
              f"{slots} slots, {rates[-1]:.1f} slots/s, peak RSS {peak:.1f} MB")
    return {
        "setup_s": setup_s,
        "slots_per_s": statistics.median(rates) if rates else float("nan"),
        "peak_rss_mb": statistics.median(r[2] for r in full) if full else float("nan"),
    }


def traced_run(run: Run, seconds: float) -> dict:
    run.op("warmup", one_epoch=True)
    t_start = time.perf_counter()
    per_pair: list[dict] = []
    pair_s: list[float] = []
    while not pair_s or time.perf_counter() - t_start + statistics.median(pair_s) <= seconds:
        i = len(pair_s)
        t0 = time.perf_counter()
        plain = run.op(f"plain{i}")
        traced = run.op(f"traced{i}", traced=True)
        pair_s.append(time.perf_counter() - t0)
        if plain is None or traced is None:
            continue
        with open(os.path.join(run.dir, "logs", f"traced{i}.layers.json")) as fh:
            doc = json.load(fh)
        for missing in doc["unmeasured"] if not per_pair else []:
            print(f"unmeasured: {missing}")
        overhead = traced[0] - plain[0]
        print(f"pair {i}: plain {plain[0]:.3f} s, traced {traced[0]:.3f} s, "
              f"{doc['spans']} spans, overhead {overhead:.3f} s")
        per_pair.append(per_layer_metrics(doc, overhead))
        shutil.rmtree(plain[2])
        if i > 0:  # the first pair's outputs and spans stay for inspection
            shutil.rmtree(traced[2])
            os.remove(os.path.join(run.dir, "logs", f"traced{i}.spans.npz"))
    if not per_pair:
        return {}
    return {
        k: (statistics.median(m[k][0] for m in per_pair), per_pair[0][k][1])
        for k in per_pair[0]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead of end-to-end")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dronefleet", "cli.py")):
        print(f"no dronefleet source under {SRC}: run from a source checkout", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} cpus {os.cpu_count()} python {sys.version.split()[0]}")
    if args.trace:
        metrics = traced_run(run, args.seconds)
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in timed_run(run, args.seconds).items()}
    correct = run.correct()
    if run.digests[False]:
        for path, digest in run.digests[False][0].items():
            print(f"sha256 {digest} {path}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"checks: {'pass' if correct else 'FAIL'}; attempted {run.attempted}, "
          f"failed {run.failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
