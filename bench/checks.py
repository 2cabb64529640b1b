"""Output checks for the benchmark workloads.

Every check is computed apart from the program, from its output files and
the scenario document that produced them, or rests on a property the
method must have (queue balance, Little's law, FIFO service). Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

# How many standard errors a statistical check allows. At 4 the chance of
# a false alarm on correct output is below 1e-4 per check.
SIGMAS = 4.0


def sha256_tree(root: str) -> dict:
    """SHA-256 of every file under root, keyed by path relative to it."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def check_identical(digests: list) -> list:
    """All runs of one command with one seed must write the same bytes."""
    problems = []
    for i, other in enumerate(digests[1:], start=1):
        if other != digests[0]:
            differ = sorted(
                k for k in set(other) | set(digests[0]) if other.get(k) != digests[0].get(k)
            )
            problems.append(f"run {i} differs from run 0 in {differ}")
    return problems


def eval_horizon(doc: dict) -> int:
    """Slots an eval simulates: the horizon rounded up to whole epochs."""
    epoch = doc["reward"]["epoch_slots"]
    return -(-doc["horizon_slots"] // epoch) * epoch


def stationary_truck_rate(arrival: dict) -> float:
    """Long-run chance that a truck shows up at an opportunity slot
    (Bernoulli, or Markov-modulated with its two-phase chain)."""
    if arrival["type"] == "bernoulli":
        return arrival["p"]
    up, down = arrival["p_low_to_high"], arrival["p_high_to_low"]
    pi_high = up / (up + down)
    return pi_high * arrival["p_high"] + (1.0 - pi_high) * arrival["p_low"]


def read_trace(path: str) -> dict:
    """trace.csv as integer arrays: 't' of shape (T,), the others (T, D)."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    cols = {}
    for name in ("q", "n", "arrivals", "dispatches"):
        idx = [i for i, h in enumerate(header) if h.rsplit("_", 1)[0] == name]
        cols[name] = data[:, idx]
    cols["t"] = data[:, header.index("t")]
    return cols


def fifo_waits(arrivals: np.ndarray, dispatches: np.ndarray, warmup: int) -> np.ndarray:
    """Waits rebuilt by pairing each PDC's k-th arrival with its k-th dispatch.

    Only packages that arrived at or after warmup and were dispatched within
    the trace count; PDCs are concatenated in order, as the report pools them.
    """
    slots = np.arange(arrivals.shape[0])
    out = []
    for d in range(arrivals.shape[1]):
        arr = np.repeat(slots, arrivals[:, d])
        dep = np.repeat(slots, dispatches[:, d])
        arr = arr[: len(dep)]
        out.append((dep - arr)[arr >= warmup])
    return np.concatenate(out).astype(np.float64)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def truck_share_problem(trucks: int, opportunities: int, rate: float, label: str):
    """The share of opportunities with a truck against its stationary rate."""
    if opportunities == 0:
        return f"{label}: no truck opportunities"
    share = trucks / opportunities
    se = math.sqrt(rate * (1.0 - rate) / opportunities)
    if abs(share - rate) > SIGMAS * se + 1e-12:
        return (
            f"{label}: truck share {share:.4f} is more than {SIGMAS:g} standard errors "
            f"from the stationary rate {rate:.4f} (se {se:.4f})"
        )
    return None


def check_trace(cols: dict, report: dict, doc: dict, fleet: int) -> list:
    """Checks of an eval trace.csv and its report.json, from the trace alone."""
    problems = []
    q, n, a, s = cols["q"], cols["n"], cols["arrivals"], cols["dispatches"]
    horizon, d = q.shape
    warmup = doc["warmup_slots"]
    arrival = doc["arrival"]
    if not np.array_equal(cols["t"], np.arange(horizon)):
        problems.append("column t is not 0, 1, 2, ...")

    prev = np.vstack([np.zeros((1, d), dtype=q.dtype), q[:-1]])
    bad = np.argwhere(q != prev + a - s)
    if len(bad):
        t, pdc = bad[0]
        problems.append(f"queue balance broken at t={t} pdc={pdc + 1}")
    if (q < 0).any() or (n < 0).any() or (a < 0).any() or (s < 0).any():
        problems.append("negative count in trace")
    if (s > n).any():
        t, pdc = np.argwhere(s > n)[0]
        problems.append(f"dispatches exceed n_d at t={t} pdc={pdc + 1}")
    if (n.sum(axis=1) > fleet).any():
        problems.append(f"PDCs hold more than the fleet of {fleet}")

    interval = arrival["truck_interval_mins"]
    half = arrival["batch_half_width"]
    opp = np.arange(horizon) % interval == 0
    if (a[~opp] != 0).any():
        problems.append("packages arrived outside truck opportunity slots")
    for i, mean in enumerate(arrival["batch_means"]):
        sizes = a[opp, i][a[opp, i] > 0]
        if ((sizes < mean - half) | (sizes > mean + half)).any():
            problems.append(f"pdc {i + 1}: batch size outside [{mean - half}, {mean + half}]")
    rate = stationary_truck_rate(arrival)
    trucks = a[opp] > 0
    for i in range(d):
        p = truck_share_problem(int(trucks[:, i].sum()), int(opp.sum()), rate, f"pdc {i + 1}")
        if p:
            problems.append(p)
    p = truck_share_problem(int(trucks.sum()), int(trucks.size), rate, "all pdcs")
    if p:
        problems.append(p)

    return problems + check_report_against_trace(cols, report, doc)


def check_report_against_trace(cols: dict, report: dict, doc: dict) -> list:
    """report.json against values recomputed from the trace."""
    problems = []
    warmup = doc["warmup_slots"]
    q = cols["q"][warmup:]
    n = cols["n"][warmup:]
    if report["horizon_slots"] != q.shape[0]:
        problems.append(f"horizon_slots {report['horizon_slots']} != {q.shape[0]} trace slots")
    # Integer sums below 2**53 are exact, so the means are correctly rounded.
    q_mean = int(q.sum()) / q.size
    n_mean = int(n.sum()) / q.shape[0]
    if not _close(report["q_mean"], q_mean):
        problems.append(f"q_mean {report['q_mean']!r} != {q_mean!r} from the trace")
    if not _close(report["n_mean"], n_mean):
        problems.append(f"n_mean {report['n_mean']!r} != {n_mean!r} from the trace")
    waits = fifo_waits(cols["arrivals"], cols["dispatches"], warmup)
    if waits.size:
        if not _close(report["w_mean"], float(waits.mean())):
            problems.append(f"w_mean {report['w_mean']!r} != FIFO {float(waits.mean())!r}")
        if not _close(report["w_std"], float(waits.std())):
            problems.append(f"w_std {report['w_std']!r} != FIFO {float(waits.std())!r}")
    # Whichever side of q == bound counts as a violation, the share lies
    # between the strict and the inclusive count.
    for i, bound in enumerate(doc["queue_bounds"]):
        above = float((q[:, i] > bound).mean())
        at_or_above = float((q[:, i] >= bound).mean())
        v = report["violation"][i]
        if not above - 1e-12 <= v <= at_or_above + 1e-12:
            problems.append(
                f"pdc {i + 1}: violation {v!r} outside [{above!r}, {at_or_above!r}]"
            )
    if report["p_max"] != max(report["violation"]):
        problems.append("p_max is not the largest violation")
    return problems


def little_tolerance(doc: dict, slots: int) -> float:
    """Relative standard error of the package count over `slots` slots.

    Each opportunity brings Bernoulli(p) trucks of integer-uniform batches,
    so the count's variance is p(m^2 + s^2) - (p m)^2 per PDC and opportunity.
    """
    arr = doc["arrival"]
    p, h = arr["p"], arr["batch_half_width"]
    batch_var = ((2 * h + 1) ** 2 - 1) / 12.0
    opps = slots / arr["truck_interval_mins"]
    mean = sum(p * m for m in arr["batch_means"])
    var = sum(p * (m * m + batch_var) - (p * m) ** 2 for m in arr["batch_means"])
    return math.sqrt(opps * var) / (opps * mean)


def check_little(report: dict, doc: dict, fleet: int) -> list:
    """Checks of a Bernoulli eval's report.json alone."""
    problems = []
    for key in ("q_mean", "w_mean", "n_mean", "p_max", "q_std", "w_std"):
        if not isinstance(report.get(key), (int, float)) or not math.isfinite(report[key]):
            return [f"{key} missing or not finite"]
    expected = eval_horizon(doc) - doc["warmup_slots"]
    if report["horizon_slots"] != expected:
        problems.append(f"horizon_slots {report['horizon_slots']} != {expected}")
    if not 0.0 <= report["n_mean"] <= fleet:
        problems.append(f"n_mean {report['n_mean']} outside [0, {fleet}]")
    arr = doc["arrival"]
    lam = arr["p"] * sum(arr["batch_means"]) / arr["truck_interval_mins"]
    d = len(arr["batch_means"])
    if report["w_mean"] <= 0:
        problems.append("w_mean is not positive")
        return problems
    # Little's law: packages in queue = arrival rate x time in queue. The
    # count of arrivals, not the law, carries the error.
    ratio = d * report["q_mean"] / (lam * report["w_mean"])
    tol = SIGMAS * little_tolerance(doc, report["horizon_slots"])
    if abs(ratio - 1.0) > tol:
        problems.append(f"Little's law off: D*q_mean/(lambda*w_mean) = {ratio:.4f}, tol {tol:.4f}")
    return problems


def epsilon_schedule(train: dict, step: int) -> float:
    """The documented linear exploration schedule, from the train section."""
    start = train.get("eps_start", 0.5)
    end = train.get("eps_end", 0.05)
    cutoff = train.get("eps_decay_fraction", 0.8) * train["episodes"] * train[
        "max_steps_per_episode"
    ]
    if cutoff <= 0 or step >= cutoff:
        return end
    return start + (end - start) * (step / cutoff)


def reward_bounds(doc: dict, fleet: int) -> tuple:
    """Per-epoch reward range: every slot over the bound and the whole fleet
    held, up to every slot under it and no drone held."""
    r = doc["reward"]
    lam, budget, slots = r["lam"], r["violation_budget"], r["epoch_slots"]
    return slots * (budget * lam - lam) - fleet, slots * budget * lam


def check_curve(rows: list, doc: dict, fleet: int) -> list:
    """A training curve (rows of floats/ints keyed by column) against the config."""
    train = doc["train"]
    problems = []
    if len(rows) != train["episodes"]:
        problems.append(f"{len(rows)} episodes, expected {train['episodes']}")
    lo, hi = reward_bounds(doc, fleet)
    done = 0
    for i, row in enumerate(rows):
        if row["episode"] != i:
            problems.append(f"row {i} has episode {row['episode']}")
        if not 1 <= row["steps"] <= train["max_steps_per_episode"]:
            problems.append(f"episode {i}: steps {row['steps']} outside [1, max_steps]")
        done += row["steps"]
        eps = epsilon_schedule(train, done - 1)
        if not _close(row["epsilon"], eps):
            problems.append(f"episode {i}: epsilon {row['epsilon']!r} != schedule {eps!r}")
        if not lo <= row["avg_reward"] <= hi:
            problems.append(f"episode {i}: avg_reward {row['avg_reward']} outside [{lo}, {hi}]")
        if not 0.0 <= row["violation_window"] <= 1.0:
            problems.append(f"episode {i}: violation_window outside [0, 1]")
    return problems


def check_checkpoint(ckpt: dict, layer_sizes: list, train_steps: int, label: str) -> list:
    problems = []
    if ckpt.get("layer_sizes") != layer_sizes:
        problems.append(f"{label}: layer_sizes {ckpt.get('layer_sizes')} != {layer_sizes}")
        return problems
    pairs = list(zip(layer_sizes[:-1], layer_sizes[1:]))
    for k, ((fan_in, fan_out), w, b) in enumerate(zip(pairs, ckpt["weights"], ckpt["biases"])):
        w, b = np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64)
        if w.shape != (fan_in, fan_out) or b.shape != (fan_out,):
            problems.append(f"{label}: layer {k} has shape {w.shape}/{b.shape}")
        elif not (np.isfinite(w).all() and np.isfinite(b).all()):
            problems.append(f"{label}: layer {k} has non-finite weights")
    if ckpt.get("train_steps") != train_steps:
        problems.append(f"{label}: train_steps {ckpt.get('train_steps')} != {train_steps} steps run")
    return problems


def read_curve(path: str) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [
        {
            "episode": int(r["episode"]),
            "steps": int(r["steps"]),
            "avg_reward": float(r["avg_reward"]),
            "violation_window": float(r["violation_window"]),
            "epsilon": float(r["epsilon"]),
        }
        for r in rows
    ]


def check_train_outputs(out: str, doc: dict, seed: int, fleet: int) -> list:
    """A `dronefleet train` output directory for one seed."""
    curve_path = os.path.join(out, "curves", f"seed{seed}.csv")
    if not os.path.isfile(curve_path):
        return [f"missing {curve_path}"]
    rows = read_curve(curve_path)
    problems = check_curve(rows, doc, fleet)
    total = sum(r["steps"] for r in rows)
    d = len(doc["queue_bounds"])
    sizes = [25, *doc["train"].get("hidden_sizes", [32, 32]), 3]
    ckpt_dir = os.path.join(out, "checkpoints", f"seed{seed}")
    expected = [f"agent_pdc{p}.json" for p in range(1, d + 1)]
    found = sorted(os.listdir(ckpt_dir)) if os.path.isdir(ckpt_dir) else []
    if found != expected:
        return problems + [f"checkpoints {found}, expected {expected}"]
    for name in expected:
        with open(os.path.join(ckpt_dir, name)) as fh:
            problems += check_checkpoint(json.load(fh), sizes, total, name)
    return problems


def check_eval_outputs(out: str, doc: dict, fleet: int) -> list:
    """A `dronefleet eval` output directory: the trace checks when a trace
    was written, the report-only checks otherwise."""
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    trace = os.path.join(out, "trace.csv")
    if os.path.isfile(trace):
        cols = read_trace(trace)
        if cols["q"].shape[0] != eval_horizon(doc):
            return [f"trace has {cols['q'].shape[0]} slots, expected {eval_horizon(doc)}"]
        return check_trace(cols, report, doc, fleet)
    return check_little(report, doc, fleet)
