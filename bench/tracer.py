"""Run the dronefleet CLI in this process with its layers timed from outside.

    python3 bench/tracer.py --spans SPANS.npz --layers LAYERS.json -- eval --config ...

The public functions listed in LAYERS are wrapped before the command runs;
every call records a span (layer, start, end, parent span) in memory. At
the end the spans go to SPANS.npz and a per-layer summary (calls, busy and
self time, median and p99 per call, and work counters) to LAYERS.json. A
function that cannot be found is listed as unmeasured and the run goes on.
Exits with the CLI's own exit code.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time
from array import array

# (layer, module, attribute). "*.name" wraps `name` on every class defined
# in the module that defines it itself.
LAYERS = [
    ("configs.load_experiment_config", "dronefleet.configs", "load_experiment_config"),
    ("runner.run_policy", "dronefleet.runner", "run_policy"),
    ("metrics.summarize", "dronefleet.metrics", "summarize"),
    ("simcore.init_sim", "dronefleet.simcore", "init_sim"),
    ("simcore.step_slot", "dronefleet.simcore", "step_slot"),
    ("simcore.apply_allocation_moves", "dronefleet.simcore", "apply_allocation_moves"),
    ("arrivals.draw_batch", "dronefleet.arrivals", "*.draw_batch"),
    ("arrivals.advance_slot", "dronefleet.arrivals", "*.advance_slot"),
    ("geography.sample_destinations", "dronefleet.geography", "sample_destinations"),
    ("scheduler.schedule", "dronefleet.scheduler", "schedule"),
    ("scheduler.form_donor_set", "dronefleet.scheduler", "form_donor_set"),
    ("scheduler.assign_donors", "dronefleet.scheduler", "assign_donors"),
    ("controllers.decide", "dronefleet.controllers", "*.decide"),
    ("controllers.decide", "dronefleet.rlagent", "*.decide"),
    ("training.train", "dronefleet.training", "train"),
    ("rlagent.encode_state", "dronefleet.rlagent", "encode_state"),
    ("rlagent.select_action", "dronefleet.rlagent", "select_action"),
    ("rlagent.replay_push", "dronefleet.rlagent", "ReplayBuffer.push"),
    ("rlagent.replay_sample", "dronefleet.rlagent", "ReplayBuffer.sample"),
    ("rlagent.ddqn_targets_batch", "dronefleet.rlagent", "ddqn_targets_batch"),
    ("rlagent.compute_reward", "dronefleet.rlagent", "compute_reward"),
    ("rlagent.save_checkpoint", "dronefleet.rlagent", "save_checkpoint"),
    ("network.forward", "dronefleet.network", "forward"),
    ("network.batch_gradient", "dronefleet.network", "batch_gradient"),
    ("network.adam_step", "dronefleet.network", "adam_step"),
]


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_step(c, args, kwargs, result):
    c["simcore.packages_dispatched"] += sum(result[1])


def _count_moves(c, args, kwargs, result):
    c["simcore.moves_applied"] += len(_arg(args, kwargs, 1, "moves"))


def _count_destinations(c, args, kwargs, result):
    c["geography.destinations_drawn"] += int(_arg(args, kwargs, 2, "count"))


def _count_schedule(c, args, kwargs, result):
    c["scheduler.requested"] += sum(r for r in _arg(args, kwargs, 1, "requests") if r > 0)
    parked = sum(1 for _, target in result if target == 0)
    c["scheduler.parked"] += parked
    c["scheduler.granted"] += len(result) - parked


def _count_train(c, args, kwargs, result):
    c["training.steps"] += int(result.train_steps)


# Work counters read from a layer's arguments and result, after its span.
COUNTERS = {
    "simcore.step_slot": (_count_step, ["simcore.packages_dispatched"]),
    "simcore.apply_allocation_moves": (_count_moves, ["simcore.moves_applied"]),
    "geography.sample_destinations": (_count_destinations, ["geography.destinations_drawn"]),
    "scheduler.schedule": (
        _count_schedule,
        ["scheduler.requested", "scheduler.granted", "scheduler.parked"],
    ),
    "training.train": (_count_train, ["training.steps"]),
}


class Tracer:
    """Spans in flat arrays: layer id, parent span index (-1 at the root),
    start and end in perf_counter nanoseconds."""

    def __init__(self):
        self.names: list[str] = []
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.unmeasured: list[str] = []
        self._ids: dict[str, int] = {}

    def layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        lid = self.layer_id(name)
        layer, parent, start, end, stack = self.layer, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns
        hook = None
        if name in COUNTERS:
            hook, keys = COUNTERS[name]
            for key in keys:
                self.counters.setdefault(key, 0)
        counters, unmeasured = self.counters, self.unmeasured

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nonlocal hook
            idx = len(layer)
            layer.append(lid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(counters, args, kwargs, result)
                except Exception as exc:  # a renamed argument must not end the run
                    unmeasured.append(f"{name} counters: {exc!r}")
                    hook = None
            return result

        return traced

    def install(self, layers, modules) -> None:
        """Wrap each listed function where it is defined and everywhere it was
        imported by name; record the ones that are missing as unmeasured."""
        for name, module_name, attr in layers:
            module = sys.modules.get(module_name)
            if module is None:
                self.unmeasured.append(f"{name}: module {module_name} not loaded")
                continue
            if attr.startswith("*."):
                method = attr[2:]
                classes = [
                    c for c in vars(module).values()
                    if inspect.isclass(c) and c.__module__ == module_name and method in vars(c)
                ]
                if not classes:
                    self.unmeasured.append(f"{name}: no class in {module_name} defines {method}")
                for cls in classes:
                    setattr(cls, method, self.wrap(vars(cls)[method], name))
                continue
            owner_path, _, leaf = attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.unmeasured.append(f"{name}: {module_name}.{attr} not found")
                continue
            traced = self.wrap(original, name)
            setattr(owner, leaf, traced)
            if owner is module:
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, traced)

    def summary(self) -> dict:
        """Per layer: calls, busy and self seconds, median and p99 µs per call."""
        import numpy as np

        layer = np.frombuffer(self.layer, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        child = np.zeros(len(dur) + 1, dtype=np.int64)
        np.add.at(child, parent, dur)  # index -1 collects the roots
        self_ns = dur - child[:-1]
        layers = {}
        for lid, name in enumerate(self.names):
            mask = layer == lid
            d = dur[mask]
            layers[name] = {
                "calls": int(mask.sum()),
                "busy_s": float(d.sum()) / 1e9,
                "self_s": float(self_ns[mask].sum()) / 1e9,
                "median_us": float(np.median(d)) / 1e3 if d.size else 0.0,
                "p99_us": float(np.percentile(d, 99)) / 1e3 if d.size else 0.0,
            }
        return layers

    def save_spans(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans (.npz)")
    parser.add_argument("--layers", required=True, help="where to write the summary (.json)")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t0 = time.perf_counter()
    cli = importlib.import_module("dronefleet.cli")
    import_ms = (time.perf_counter() - t0) * 1e3

    tracer = Tracer()
    modules = [m for k, m in sys.modules.items() if k == "dronefleet" or k.startswith("dronefleet.")]
    tracer.install(LAYERS, modules)
    t1 = time.perf_counter()
    code = tracer.wrap(cli.main, "cli.main")(cli_args)
    wall_s = time.perf_counter() - t1

    tracer.save_spans(args.spans)
    doc = {
        "exit_code": code,
        "cli_import_ms": import_ms,
        "main_s": wall_s,
        "spans": len(tracer.layer),
        "layers": tracer.summary(),
        "counters": tracer.counters,
        "unmeasured": tracer.unmeasured,
        "source": cli.__file__,
    }
    with open(args.layers, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
