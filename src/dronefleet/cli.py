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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from .configs import (
    BUILTIN_SCENARIOS,
    CONTROLLERS,
    ConfigError,
    ExperimentConfig,
    load_experiment_config,
)
from .metrics import CSV_COLUMNS, csv_row, summarize
from .rlagent import CheckpointError, load_checkpoint, save_checkpoint
from .runner import run_policy
from .training import train

logger = logging.getLogger(__name__)


def _setup(args, command: str, pattern: str | None = None, algorithms=None):
    """Check the --horizon and --seed(s) overrides, load the config (the
    bundled `pattern` under compare) and apply them, make the output
    directory, write the resolved config there, load the checkpoints when
    one of `algorithms` (default: the config's controller) is rl, and pick
    the seeds. Returns (cfg, out, seeds, nets)."""
    horizon = getattr(args, "horizon", None)
    seed = getattr(args, "seed", None)
    seeds = [seed] if seed is not None else getattr(args, "seeds", None)
    if horizon is not None and horizon < 1:
        raise ConfigError("--horizon must be >= 1")
    if seeds and min(seeds) < 0:
        raise ConfigError("--seed and --seeds must be >= 0")
    if seeds and len(set(seeds)) < len(seeds):
        raise ConfigError(f"--seeds lists a seed more than once: {seeds}")

    cfg = load_experiment_config(pattern or args.config)
    if horizon is not None:
        cfg = replace(cfg, horizon_slots=horizon)
        if cfg.warmup_slots >= cfg.horizon_slots:
            cfg = replace(cfg, warmup_slots=0)
    if getattr(args, "n_uavs", None) is not None:
        cfg = cfg.with_fleet(args.n_uavs)

    out = args.out or os.path.join(os.environ.get("DRONEFLEET_OUT", "runs"), command)
    os.makedirs(out, exist_ok=True)
    resolved = f"resolved_{pattern}.json" if pattern else "resolved_config.json"
    with open(os.path.join(out, resolved), "w") as fh:
        json.dump(cfg.resolved_dict(), fh, indent=2, sort_keys=True)

    nets = None
    if "rl" in (algorithms if algorithms is not None else [cfg.controller]):
        if not args.checkpoints:
            raise CheckpointError(f"{command} of the rl controller needs --checkpoints")
        nets = []
        for pdc in range(1, cfg.district.num_pdcs + 1):
            path = os.path.join(args.checkpoints, pattern or "", f"agent_pdc{pdc}.json")
            if not os.path.exists(path):
                raise CheckpointError(f"missing checkpoint {path}")
            net, _, echo = load_checkpoint(path)
            _check_echo(echo, cfg, pdc, path)
            nets.append(net)
    return cfg, out, seeds or cfg.seeds, nets


def _check_echo(echo, cfg: ExperimentConfig, pdc: int, path: str) -> None:
    """A checkpoint trained for another center, delta or epoch length does
    not fit this config. Another arrival pattern does: evaluating across
    patterns is a use of its own. A value the echo leaves out is not checked."""
    if not isinstance(echo, dict):
        raise CheckpointError(f"malformed checkpoint {path}: its config echo is not an object")
    reward = echo.get("reward")
    trained = {
        "pdc": echo.get("pdc"),
        "delta": echo.get("delta"),
        "epoch_slots": reward.get("epoch_slots") if isinstance(reward, dict) else None,
    }
    wanted = {"pdc": pdc, "delta": cfg.delta, "epoch_slots": cfg.reward.epoch_slots}
    for key, value in trained.items():
        if value is not None and value != wanted[key]:
            raise CheckpointError(
                f"checkpoint {path} was trained with {key} {value!r}, the config has {wanted[key]}"
            )


def _train_one_seed(job):
    cfg, seed = job
    return seed, train(cfg, cfg.train, seed)


def _write_curve(path: str, curve: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "steps", "avg_reward", "violation_window", "epsilon"])
        for row in curve:
            writer.writerow(
                [
                    row["episode"],
                    row["steps"],
                    repr(row["avg_reward"]),
                    repr(row["violation_window"]),
                    repr(row["epsilon"]),
                ]
            )


def cmd_train(args) -> int:
    if args.workers < 1:
        raise ConfigError("--workers must be >= 1")
    cfg, out, seeds, _ = _setup(args, "train", algorithms=())
    curves_dir = os.path.join(out, "curves")
    ckpt_dir = os.path.join(out, "checkpoints")
    os.makedirs(curves_dir, exist_ok=True)
    os.makedirs(ckpt_dir, exist_ok=True)

    jobs = [(cfg, seed) for seed in seeds]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_train_one_seed, jobs))
    else:
        results = [_train_one_seed(job) for job in jobs]

    all_curves = []
    for seed, result in results:
        _write_curve(os.path.join(curves_dir, f"seed{seed}.csv"), result.curve)
        seed_dir = os.path.join(ckpt_dir, f"seed{seed}")
        os.makedirs(seed_dir, exist_ok=True)
        for pdc, net in enumerate(result.nets, start=1):
            save_checkpoint(
                os.path.join(seed_dir, f"agent_pdc{pdc}.json"),
                net,
                result.train_steps,
                cfg.checkpoint_echo(seed, pdc),
            )
        all_curves.append(result.curve)

    episodes = min(len(c) for c in all_curves)
    with open(os.path.join(curves_dir, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["episode", "mean_reward", "stderr_reward", "mean_violation", "stderr_violation"]
        )
        k = len(all_curves)
        for ep in range(episodes):
            rewards = [c[ep]["avg_reward"] for c in all_curves]
            viols = [c[ep]["violation_window"] for c in all_curves]
            mr = sum(rewards) / k
            mv = sum(viols) / k
            sr = math.sqrt(sum((r - mr) ** 2 for r in rewards) / k) / math.sqrt(k) if k > 1 else 0.0
            sv = math.sqrt(sum((v - mv) ** 2 for v in viols) / k) / math.sqrt(k) if k > 1 else 0.0
            writer.writerow([ep, repr(mr), repr(sr), repr(mv), repr(sv)])

    print(f"trained seeds {seeds}; checkpoints and curves under {out}")
    return 0


def _run_report(cfg: ExperimentConfig, controller, seed: int, trace_path=None):
    traces = run_policy(
        cfg.district,
        cfg.make_processes(),
        controller,
        cfg.initial_allocation_counts(),
        cfg.reward.epoch_slots,
        cfg.horizon_slots,
        seed,
        trace_path=trace_path,
    )
    return summarize(traces, cfg.queue_bounds, cfg.warmup_slots)


def cmd_eval(args) -> int:
    cfg, out, seeds, nets = _setup(args, "eval")
    trace_path = os.path.join(out, "trace.csv") if args.trace else None
    report = _run_report(cfg, cfg.build_controller(nets), seeds[0], trace_path)

    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    with open(os.path.join(out, "report.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerow(csv_row(cfg.controller, cfg.arrival["type"], report))
    print(
        f"{cfg.controller}/{cfg.arrival['type']}: p_max={report.p_max:.4f} "
        f"n_mean={report.n_mean:.1f} q_mean={report.q_mean:.1f} (report under {out})"
    )
    return 0


def cmd_sweep(args) -> int:
    cfg, out, seeds, nets = _setup(args, "sweep")
    d = cfg.district.num_pdcs
    rows = []
    for total in args.fleet_sizes:
        run_cfg = cfg.with_fleet(total)
        report = _run_report(run_cfg, run_cfg.build_controller(nets), seeds[0])
        rows.append((total, report))
        logger.info("N=%d p_max=%.4f n_mean=%.1f", total, report.p_max, report.n_mean)

    with open(os.path.join(out, "sweep.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["total_uavs", "p_max", "n_mean"] + [f"violation_{pdc}" for pdc in range(1, d + 1)]
        )
        for total, report in rows:
            writer.writerow(
                [total, repr(report.p_max), repr(report.n_mean)]
                + [repr(v) for v in report.violation]
            )
    print(f"swept N over {list(args.fleet_sizes)}; table under {out}")
    return 0


def cmd_compare(args) -> int:
    rows = []
    for pattern in args.patterns:
        cfg, out, seeds, nets = _setup(args, "compare", pattern, args.algorithms)
        reports_dir = os.path.join(out, "reports")
        os.makedirs(reports_dir, exist_ok=True)
        for algorithm in args.algorithms:
            controller = replace(cfg, controller=algorithm).build_controller(nets)
            report = _run_report(cfg, controller, seeds[0])
            rows.append((algorithm, pattern, report))
            with open(os.path.join(reports_dir, f"{algorithm}_{pattern}.json"), "w") as fh:
                json.dump(report.to_dict(), fh, indent=2)
            logger.info("%s/%s p_max=%.4f", algorithm, pattern, report.p_max)

    with open(os.path.join(out, "compare.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for algorithm, pattern, report in rows:
            writer.writerow(csv_row(algorithm, pattern, report))
    print(f"compared {len(rows)} cells; table under {out}")
    return 0


def _add_run_flags(p, checkpoints_help: str) -> None:
    """The flags eval, sweep and compare share."""
    p.add_argument("--checkpoints", help=checkpoints_help)
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int)
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
    p.add_argument("--workers", type=int, default=1, help="parallel seed workers")
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
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
