"""Acceptance gate: one test per release criterion, slowest last.

Each test prints a single ACCEPTANCE line (PASS or FAIL with the measured
numbers) straight to the terminal, then asserts. Criteria 1 to 5 and 8 are
exact or statistical checks that finish in seconds; 7 and 9 run short
simulations; 6 trains the full agent stack at desk scale and dominates the
wall clock.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial

import numpy as np

import dronefleet
from dronefleet.arrivals import ArrivalProcess
from dronefleet.cli import run_cells
from dronefleet.configs import load_experiment_config
from dronefleet.controllers import StaticController, ThresholdController
from dronefleet.geography import builtin_district
from dronefleet.metrics import Tally, summarize
from dronefleet.network import QNetwork, batch_gradient, forward, init_network
from dronefleet.rlagent import GreedyPolicyController, RewardParams, compute_reward
from dronefleet.runner import run_policy
from dronefleet.scheduler import schedule
from dronefleet.simcore import apply_allocation_moves, init_sim, observe, step_slot
from dronefleet.training import TrainConfig, train

from oracles import ddqn_target, random_fleet_instance, replay_schedule


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}"
    with capsys.disabled():
        print(f"\n{line}", flush=True)
    assert ok, line


# --- 1: per-epoch rewards collapse to the penalized average form ------------


def test_criterion_1_reward_identity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        T = 60
        lam = float(rng.integers(1, 9))
        budget = float(rng.uniform(0.02, 0.3))
        bound = float(rng.integers(3, 40))
        params = RewardParams(lam=lam, violation_budget=budget, epoch_slots=T)
        epochs = int(rng.integers(1, 25))
        rewards, counts, over = [], [], 0
        for _ in range(epochs):
            trace = rng.integers(0, int(2 * bound) + 1, size=T)
            n = int(rng.integers(0, 40))
            rewards.append(compute_reward(trace, bound, n, params))
            over += int((trace > bound).sum())
            counts.append(n)
        mean_reward = sum(rewards) / epochs
        closed_form = -(lam * T * (over / (epochs * T) - budget) + sum(counts) / epochs)
        worst = max(worst, abs(mean_reward - closed_form))
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and dt < 1.0
    _verdict(capsys, 1, ok, f"reward identity max |diff| {worst:.2e} over 100 traces ({dt:.2f}s)")


# --- 2: backprop agrees with central finite differences ---------------------


def _masked_loss(net, xs, actions, targets):
    q = forward(net, xs)
    rows = np.arange(xs.shape[0])
    return float(np.mean((q[rows, actions] - targets) ** 2))


def _fd_grads(net, xs, actions, targets, h=1e-5):
    grads_w, grads_b = [], []
    for params, grads in ((net.weights, grads_w), (net.biases, grads_b)):
        for p in params:
            g = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = p[idx]
                p[idx] = keep + h
                up = _masked_loss(net, xs, actions, targets)
                p[idx] = keep - h
                down = _masked_loss(net, xs, actions, targets)
                p[idx] = keep
                g[idx] = (up - down) / (2 * h)
            grads.append(g)
    return grads_w, grads_b


def _clear_of_kinks(net, xs, margin=1e-3):
    # central differences are meaningless where a rectifier input sits at
    # its corner, so candidate inputs must keep every preactivation away
    # from zero by more than the perturbation can move it
    a = xs
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        if i == last:
            return True
        if np.abs(z).min() < margin:
            return False
        a = np.maximum(z, 0.0)
    return True


def test_criterion_2_gradient_check(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(100):
        hidden = [int(rng.integers(4, 12)) for _ in range(int(rng.integers(1, 3)))]
        sizes = [int(rng.integers(3, 9)), *hidden, int(rng.integers(2, 5))]
        net = init_network(sizes, rng)
        batch = int(rng.integers(1, 6))
        for _ in range(200):
            xs = rng.normal(size=(batch, sizes[0]))
            if _clear_of_kinks(net, xs):
                break
        else:
            raise AssertionError("no kink-free inputs found")
        actions = rng.integers(0, sizes[-1], size=batch)
        targets = rng.normal(size=batch)
        gw, gb = batch_gradient(net, xs, actions, targets)
        fw, fb = _fd_grads(net, xs, actions, targets)
        for a, b in zip(gw + gb, fw + fb):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
            worst = max(worst, float((np.abs(a - b) / denom).max()))
    dt = time.perf_counter() - t0
    ok = worst < 1e-4
    _verdict(capsys, 2, ok, f"backprop vs finite differences max rel err {worst:.2e} over 100 nets ({dt:.1f}s)")


# --- 3: target uses the online argmax, not the target-net max ---------------


def _const_net(q_values, inputs=25):
    return QNetwork(
        weights=[np.zeros((inputs, len(q_values)))],
        biases=[np.array(q_values, dtype=np.float64)],
    )


def test_criterion_3_double_estimator_semantics(capsys):
    online = _const_net([0.1, 0.5, 0.2])
    target = _const_net([1.0, 2.0, 3.0])
    nxt = np.zeros(25)
    y = ddqn_target(1.0, nxt, False, online, target, 0.99)
    # the single-estimator mutant prices its own argmax: 1 + 0.99 * 3
    y_mutant = 1.0 + 0.99 * float(np.max(forward(target, nxt)))
    ok = abs(y - 2.98) < 1e-12 and abs(y_mutant - 3.97) < 1e-12 and abs(y_mutant - 2.98) > 1e-9
    _verdict(capsys, 3, ok, f"hand example target {y:.6f} (want 2.98); mutant {y_mutant:.6f} rejected")


# --- 4: swap scheduler matches an independent replay; fleet is conserved ----


def test_criterion_4_scheduler_oracle_and_conservation(capsys):
    t0 = time.perf_counter()
    district = builtin_district()
    checked = 0
    trial = 0
    while checked < 10_000:
        trial += 1
        inst_rng = np.random.default_rng(40_000 + trial)
        state, requests = random_fleet_instance(district, inst_rng)
        expected = replay_schedule(state, requests, np.random.default_rng(trial))
        if len(expected) > 10:
            continue  # keep instances at ten donors or fewer
        actual = schedule(state, requests, np.random.default_rng(trial))
        assert actual == expected, f"instance {trial}: {actual} != {expected}"
        checked += 1

    cfg = load_experiment_config("bernoulli")
    state = init_sim(
        cfg.district,
        cfg.make_processes(),
        cfg.initial_allocation,
        np.random.SeedSequence(44),
    )
    fuzz_rng = np.random.default_rng(45)
    total = cfg.district.total_uavs
    slots = 0
    while slots < 100_000:
        deltas = [int(x) for x in fuzz_rng.integers(-3, 4, size=cfg.district.num_pdcs)]
        apply_allocation_moves(state, schedule(state, deltas, fuzz_rng))
        # no drone changes home within a call, so one check per call sees
        # every home the fleet holds
        step_slot(state, 60)
        assert sum(n for n, _ in observe(state)) + state.home.count(0) == total
        slots += 60
    dt = time.perf_counter() - t0
    ok = dt < 60.0
    _verdict(
        capsys,
        4,
        ok,
        f"{checked} replay instances exact; fleet sum {total} held for {slots} slots ({dt:.1f}s)",
    )


# --- 5: arrival process statistics ------------------------------------------


def test_criterion_5_arrival_statistics(capsys):
    batch = {"truck_interval": 30, "batch_mean": 55, "batch_half_width": 15}
    bern = ArrivalProcess(**batch, p_high=0.25)
    rng = np.random.default_rng(55)
    hits = sum(bern.draw_batch(30 * k, rng) > 0 for k in range(100_000))
    freq = hits / 100_000

    tvb = ArrivalProcess(**batch, p_high=0.9, p_low=0.1, rule="square", period=300)
    phases_ok = all(
        tvb.rate_at(t) == (0.9 if (t % 600) < 300 else 0.1) for t in range(3 * 600)
    )

    mmb = ArrivalProcess(
        **batch, p_high=0.9, p_low=0.1, rule="markov", p_high_to_low=0.15, p_low_to_high=0.15,
    )
    high = 0
    for t in range(100_000):
        high += mmb.is_high
        mmb.advance_slot(t, rng)
    occupancy = high / 100_000

    ok = abs(freq - 0.25) <= 0.01 and phases_ok and abs(occupancy - 0.5) <= 0.02
    _verdict(
        capsys,
        5,
        ok,
        f"bernoulli freq {freq:.4f} (want 0.25 +/- 0.01); square-wave blocks of 300 slots "
        f"{'exact' if phases_ok else 'WRONG'}; modulated high occupancy {occupancy:.4f}",
    )


# --- 7: fixed split saturates under shifting demand; threshold rule copes ----


def test_criterion_7_baselines_under_shifting_demand(capsys):
    t0 = time.perf_counter()
    cfg = load_experiment_config("tvb")
    reports = {}
    for name, controller in (
        ("static", StaticController()),
        ("threshold", ThresholdController(cfg.queue_bounds, cfg.delta)),
    ):
        scenario = replace(cfg, horizon_slots=60_000, warmup_slots=1000)
        tally = run_policy(scenario, controller, np.random.SeedSequence(7))
        reports[name] = summarize(tally)
    sv = reports["static"].violation
    saturated = sum(v >= 0.9 for v in sv)
    near_zero = sum(v <= 0.05 for v in sv)
    dt = time.perf_counter() - t0
    ok = (
        reports["static"].p_max >= 0.9
        and saturated >= 2
        and near_zero >= 2
        and reports["threshold"].p_max > 0.3
    )
    _verdict(
        capsys,
        7,
        ok,
        f"static p_max {reports['static'].p_max:.4f} with {saturated} saturated / "
        f"{near_zero} near-zero centers; threshold p_max {reports['threshold'].p_max:.4f} ({dt:.1f}s)",
    )


# --- 8: metrics agree with a worked 3-slot, 2-center example -----------------


def test_criterion_8_metrics_hand_example(capsys):
    # three one-slot epochs; q is [[0, 4, 0], [4, 0, 4]], so q == bound
    # counts, and the FIFO waits are eight of 0 and eight of 1
    tally = Tally([4.0, 4.0], warmup_slots=0)
    tally.fold(
        arrivals=np.array([[4, 4, 0], [4, 4, 4]]),
        dispatches=np.array([[4, 0, 4], [0, 8, 0]]),
        n=np.array([[2, 2, 2], [1, 1, 3]]).T,
    )
    rep = summarize(tally)
    checks = [
        rep.violation == [1 / 3, 2 / 3],
        rep.p_max == 2 / 3,
        rep.q_mean == 2.0,
        rep.q_std == 2.0,
        rep.w_mean == 0.5,
        rep.w_std == 0.5,
        rep.n_mean == 11 / 3,
    ]
    ok = all(checks)
    _verdict(
        capsys,
        8,
        ok,
        f"violation {rep.violation}, q {rep.q_mean}/{rep.q_std}, "
        f"w {rep.w_mean}/{rep.w_std:.6f}, n_mean {rep.n_mean:.6f} all exact"
        if ok
        else f"mismatch flags {checks}",
    )


# --- 9: same config and seed give byte-identical outputs --------------------


def test_criterion_9_bitwise_reproducibility(capsys, tmp_path):
    t0 = time.perf_counter()
    doc = {
        "district": "builtin",
        "arrival": {"type": "bernoulli", "p": 0.25, "batch_means": [55, 50, 75, 90]},
        "controller": "rl",
        "queue_bounds": [110, 110, 150, 200],
        "delta": 5,
        "train": {
            "episodes": 4,
            "max_steps_per_episode": 6,
            "min_buffer": 8,
            "batch_size": 4,
            "target_update_episodes": 2,
        },
        "seeds": [3],
        "horizon_slots": 2000,
        "warmup_slots": 100,
    }
    cfg_path = tmp_path / "repro.json"
    cfg_path.write_text(json.dumps(doc))
    env = {k: v for k, v in os.environ.items() if k != "DRONEFLEET_OUT"}
    # the child runs in tmp_path, so point it at this package's source by path
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(dronefleet.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    for out in ("a", "b"):
        proc = subprocess.run(
            [
                sys.executable, "-m", "dronefleet.cli", "train",
                "--config", str(cfg_path), "--out", str(tmp_path / out),
            ],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
    names = ["curves/seed3.csv"] + [f"checkpoints/seed3/agent_pdc{p}.json" for p in range(1, 5)]
    same = {
        name: (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in names
    }
    dt = time.perf_counter() - t0
    ok = all(same.values())
    _verdict(
        capsys,
        9,
        ok,
        f"two invocations byte-identical on {len(names)} files ({dt:.1f}s)"
        if ok
        else f"differing files {[n for n, s in same.items() if not s]}",
    )


# --- 6: trained agents beat the fixed split on fleet size at desk scale ------
# Stochastic by nature, so three seeds run and the best group is judged. The
# seeds are independent, so each trains in its own process, up to one per
# core. This is the long test: a few minutes per seed on one laptop core.


def _train_and_evaluate(seed: int):
    cfg = load_experiment_config("bernoulli")
    result = train(cfg, TrainConfig(episodes=250, max_steps_per_episode=400), seed=seed)
    controller = GreedyPolicyController(result.nets, cfg.delta)
    scenario = replace(cfg, horizon_slots=20_000, warmup_slots=1000)
    tally = run_policy(scenario, controller, np.random.SeedSequence(1000 + seed))
    return seed, summarize(tally)


def test_criterion_6_training_reproduction(capsys):
    t0 = time.perf_counter()
    seeds = (1, 2, 3)
    # per seed: 250 episodes of 400 epochs of 60 slots, then 20,000 slots of evaluation
    slots = len(seeds) * (250 * 400 * 60 + 20_000)
    rows = run_cells([partial(_train_and_evaluate, seed) for seed in seeds], slots)
    for seed, rep in rows:
        with capsys.disabled():
            print(f"\n  seed {seed}: viol_max {rep.p_max:.4f} n_mean {rep.n_mean:.2f}", flush=True)
    qualifying = [
        (seed, rep) for seed, rep in rows if max(rep.violation) <= 0.15 and rep.n_mean < 60.0
    ]
    dt = time.perf_counter() - t0
    ok = bool(qualifying) and dt < 7200.0
    best = min(qualifying or rows, key=lambda r: r[1].n_mean)
    _verdict(
        capsys,
        6,
        ok,
        f"best seed {best[0]}: violations {[round(v, 4) for v in best[1].violation]} "
        f"(all <= 0.15), fleet mean {best[1].n_mean:.2f} < 60 static; "
        f"{len(qualifying)}/3 seed groups qualify ({dt / 60:.1f} min)",
    )
