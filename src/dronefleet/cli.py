"""Command line front end.

Subcommands: train, eval, sweep, compare. Exit codes: 0 on success, 2 for
configuration problems, 3 for checkpoint problems. The default output root
is ./runs, or $DRONEFLEET_OUT when set; every run directory receives the
fully resolved configuration that produced it.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import replace
from functools import partial

from .configs import (
    BUILTIN_SCENARIOS,
    CONTROLLERS,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    load_experiment_config,
    read_json,
)
from .metrics import CSV_COLUMNS, csv_row, summarize
from .rlagent import CheckpointError, checkpoint_from_dict, save_checkpoint
from .runner import run_policy
from .training import train

logger = logging.getLogger(__name__)

LOG_FORMAT = "%(levelname)s %(name)s: %(message)s"
# a spawned worker imports numpy and the package before its first cell; on two
# cores the pool broke even at 200k-250k slots of sweep or compare cells
POOL_MIN_SLOTS = 300_000


def _config(args, ref: str, total_uavs: int | None) -> ExperimentConfig:
    """The config `ref` with the command line's values in place of its own:
    --horizon, --seed(s) (else the first seed, for a command that runs one),
    and a fleet of `total_uavs` drones, split statically. configs checks
    them by its own rules."""
    overrides = {}
    if getattr(args, "horizon", None) is not None:
        overrides["horizon_slots"] = args.horizon
    if args.seeds is not None:
        overrides["seeds"] = args.seeds
    if total_uavs is not None:
        overrides.update(total_uavs=total_uavs, initial_allocation="static")
    cfg = load_experiment_config(ref, **overrides)
    if args.command != "train":  # eval, sweep and compare run one seed
        cfg = config_from_dict(cfg.resolved, seeds=cfg.seeds[:1])
    return cfg


def _checkpoints(args, cfg: ExperimentConfig, pattern: str = "") -> list:
    """The per-PDC networks under --checkpoints (in its `pattern` directory
    under compare), checked against `cfg`."""
    if not args.checkpoints:
        raise CheckpointError(f"{args.command} of the rl controller needs --checkpoints")
    nets = []
    for pdc in range(1, cfg.district.num_pdcs + 1):
        path = os.path.join(args.checkpoints, pattern, f"agent_pdc{pdc}.json")
        if not os.path.exists(path):
            raise CheckpointError(f"missing checkpoint {path}")
        doc = read_json(path, CheckpointError, "checkpoint")
        try:
            net, _, echo = checkpoint_from_dict(doc)
        except CheckpointError as exc:
            raise CheckpointError(f"{path}: {exc}") from exc
        cfg.check_echo(echo, pdc, path)
        nets.append(net)
    # the controller runs them as one stack
    if len({tuple(net.layer_sizes) for net in nets}) > 1:
        raise CheckpointError(f"the checkpoints in {os.path.dirname(path)} differ in layer sizes")
    return nets


def _output_dir(args, resolved: dict) -> str:
    """Make the output directory and write each config of `resolved` there
    under its file name. Runs once every input has passed its checks, so a
    command that fails on its input writes nothing."""
    out = args.out or os.path.join(os.environ.get("DRONEFLEET_OUT", "runs"), args.command)
    try:
        os.makedirs(out, exist_ok=True)
        for name, cfg in resolved.items():
            _write_json(os.path.join(out, name), cfg.resolved, sort_keys=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _check_distinct(values: list, option: str) -> None:
    """Each of `values` is a cell of its own: one listed twice would run twice."""
    if len(set(values)) < len(values):
        raise ConfigError(f"{option} lists a value more than once: {values}")


def run_cells(cells: list, slots: int) -> list:
    """Call each cell, a picklable callable that carries its own config and
    seed, and return the results in cell order: in this process for one cell,
    one usable core or fewer than POOL_MIN_SLOTS `slots` simulated in all,
    else in spawned workers, up to one per usable core."""
    affinity = getattr(os, "sched_getaffinity", None)  # the cores `taskset` allows
    workers = min(len(cells), len(affinity(0)) if affinity else os.cpu_count() or 1)
    if workers < 2 or slots < POOL_MIN_SLOTS:
        return [cell() for cell in cells]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # spawn, not fork: a forked child can inherit a BLAS thread pool mid-use
    context = multiprocessing.get_context("spawn")
    log = partial(logging.basicConfig, level=logging.getLogger().level, format=LOG_FORMAT)
    with ProcessPoolExecutor(workers, mp_context=context, initializer=log) as pool:
        return [future.result() for future in [pool.submit(cell) for cell in cells]]


def _run_report(cfg: ExperimentConfig, nets, trace_path=None):
    return summarize(run_policy(cfg, cfg.build_controller(nets), cfg.seeds[0], trace_path))


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: str, doc: dict, **options) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, **options)


CURVE_COLUMNS = ["episode", "steps", "avg_reward", "violation_window", "epsilon"]


def cmd_train(args) -> int:
    cfg = _config(args, args.config, args.n_uavs)
    out = _output_dir(args, {"resolved_config.json": cfg})
    curves_dir = os.path.join(out, "curves")
    os.makedirs(curves_dir, exist_ok=True)

    cells = [partial(train, cfg, cfg.train, seed) for seed in cfg.seeds]
    epochs = cfg.train.episodes * cfg.train.max_steps_per_episode
    results = run_cells(cells, len(cells) * epochs * cfg.reward.epoch_slots)
    for seed, result in zip(cfg.seeds, results):
        curve = [[repr(row[key]) for key in CURVE_COLUMNS] for row in result.curve]
        _write_csv(os.path.join(curves_dir, f"seed{seed}.csv"), CURVE_COLUMNS, curve)
        seed_dir = os.path.join(out, "checkpoints", f"seed{seed}")
        os.makedirs(seed_dir, exist_ok=True)
        for pdc, net in enumerate(result.nets, start=1):
            path = os.path.join(seed_dir, f"agent_pdc{pdc}.json")
            save_checkpoint(path, net, result.train_steps, cfg.checkpoint_echo(seed, pdc))

    all_curves = [result.curve for result in results]
    k = len(all_curves)
    summary = []
    for ep in range(min(len(c) for c in all_curves)):
        row = [ep]
        for key in ("avg_reward", "violation_window"):
            values = [c[ep][key] for c in all_curves]
            mean = sum(values) / k
            spread = math.sqrt(sum((v - mean) ** 2 for v in values) / k)
            row += [repr(mean), repr(spread / math.sqrt(k) if k > 1 else 0.0)]
        summary.append(row)
    header = ["episode", "mean_reward", "stderr_reward", "mean_violation", "stderr_violation"]
    _write_csv(os.path.join(curves_dir, "summary.csv"), header, summary)

    print(f"trained seeds {cfg.seeds}; checkpoints and curves under {out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _config(args, args.config, args.n_uavs)
    nets = _checkpoints(args, cfg) if cfg.controller == "rl" else None
    out = _output_dir(args, {"resolved_config.json": cfg})
    trace_path = os.path.join(out, "trace.csv") if args.trace else None
    report = _run_report(cfg, nets, trace_path)

    _write_json(os.path.join(out, "report.json"), report.to_dict())
    row = csv_row(cfg.controller, cfg.arrival["type"], report)
    _write_csv(os.path.join(out, "report.csv"), CSV_COLUMNS, [row])
    print(
        f"{cfg.controller}/{cfg.arrival['type']}: p_max={report.p_max:.4f} "
        f"n_mean={report.n_mean:.1f} q_mean={report.q_mean:.1f} (report under {out})"
    )
    return 0


def cmd_sweep(args) -> int:
    _check_distinct(args.fleet_sizes, "--n-uavs")
    cfgs = [_config(args, args.config, total) for total in args.fleet_sizes]
    cfg = cfgs[0]  # the fleet size is all they differ in
    nets = _checkpoints(args, cfg) if cfg.controller == "rl" else None
    out = _output_dir(
        args, {f"resolved_n{total}.json": run_cfg for total, run_cfg in zip(args.fleet_sizes, cfgs)}
    )
    d = cfg.district.num_pdcs
    cells = [partial(_run_report, run_cfg, nets) for run_cfg in cfgs]
    reports = run_cells(cells, len(cells) * cfg.horizon_slots)
    rows = []
    for total, report in zip(args.fleet_sizes, reports):
        rows.append([total, *map(repr, [report.p_max, report.n_mean, *report.violation])])
        logger.info("N=%d p_max=%.4f n_mean=%.1f", total, report.p_max, report.n_mean)

    _write_csv(
        os.path.join(out, "sweep.csv"),
        ["total_uavs", "p_max", "n_mean"] + [f"violation_{pdc}" for pdc in range(1, d + 1)],
        rows,
    )
    print(f"swept N over {list(args.fleet_sizes)}; table under {out}")
    return 0


def cmd_compare(args) -> int:
    _check_distinct(args.patterns, "--patterns")
    _check_distinct(args.algorithms, "--algorithms")
    cfgs = [(pattern, _config(args, pattern, None)) for pattern in args.patterns]
    rl = "rl" in args.algorithms
    nets = [_checkpoints(args, cfg, pattern) if rl else None for pattern, cfg in cfgs]
    out = _output_dir(args, {f"resolved_{pattern}.json": cfg for pattern, cfg in cfgs})
    reports_dir = os.path.join(out, "reports")
    os.makedirs(reports_dir, exist_ok=True)
    cells, rows = [], []
    for (pattern, cfg), pattern_nets in zip(cfgs, nets):
        for algorithm in args.algorithms:
            cells.append(partial(_run_report, replace(cfg, controller=algorithm), pattern_nets))
            rows.append((algorithm, pattern))
    reports = run_cells(cells, len(args.algorithms) * sum(c.horizon_slots for _, c in cfgs))
    for (algorithm, pattern), report in zip(rows, reports):
        _write_json(os.path.join(reports_dir, f"{algorithm}_{pattern}.json"), report.to_dict())
        logger.info("%s/%s p_max=%.4f", algorithm, pattern, report.p_max)

    table = (csv_row(*row, report) for row, report in zip(rows, reports))
    _write_csv(os.path.join(out, "compare.csv"), CSV_COLUMNS, table)
    print(f"compared {len(rows)} cells; table under {out}")
    return 0


def _add_run_flags(p, checkpoints_help: str) -> None:
    """The flags eval, sweep and compare share."""
    p.add_argument("--checkpoints", help=checkpoints_help)
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", dest="seeds", type=int, nargs=1)
    p.add_argument("--horizon", type=int, help="override horizon in slots")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dronefleet",
        description="Simulate a multi-center drone delivery district and its fleet controllers.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    config_help = f"bundled scenario name {BUILTIN_SCENARIOS} or path to a JSON config"

    p = sub.add_parser("train", help="train one agent per PDC")
    p.add_argument("--config", required=True, help=config_help)
    p.add_argument("--out", help="output directory")
    p.add_argument("--seeds", type=int, nargs="+", help="override config seeds")
    p.add_argument("--n-uavs", type=int, help="override fleet size")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate one controller over a long horizon")
    p.add_argument("--config", required=True, help=config_help)
    _add_run_flags(p, "directory with agent_pdc*.json files")
    p.add_argument("--n-uavs", type=int, help="override fleet size")
    p.add_argument("--trace", action="store_true", help="also write a per-slot trace CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="evaluate across fleet sizes")
    p.add_argument("--config", required=True, help=config_help)
    _add_run_flags(p, "directory with agent_pdc*.json files")
    p.add_argument(
        "--n-uavs",
        dest="fleet_sizes",
        type=int,
        nargs="+",
        required=True,
        help="fleet sizes to evaluate",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="controller-by-arrival-pattern comparison table")
    p.add_argument(
        "--patterns", nargs="+", default=list(BUILTIN_SCENARIOS), choices=BUILTIN_SCENARIOS
    )
    p.add_argument(
        "--algorithms", nargs="+", default=list(CONTROLLERS), choices=CONTROLLERS
    )
    _add_run_flags(p, "directory with per-pattern subdirectories of checkpoints")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING, format=LOG_FORMAT)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a config value too large to allocate for
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 2
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
