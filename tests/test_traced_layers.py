"""The benchmark's tracer finds every layer it times.

bench/tracer.py looks its layers up by name and reads a missing one as 0,
so a renamed function would silently zero a per-layer metric. This runs it
on a short eval and requires that nothing is left unmeasured, and that the
tracer can count the slot kernel's calls and read its dispatch counts.
"""

import csv
import json
import os
import subprocess
import sys

import dronefleet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_traced_layer_resolves(tmp_path):
    config = tmp_path / "threshold.json"
    scenario = {
        # Markov-modulated, so that every process has a phase chain to step
        "arrival": {
            "type": "mmb",
            "p_high": 0.9,
            "p_low": 0.1,
            "p_high_to_low": 0.15,
            "p_low_to_high": 0.15,
            "batch_means": [55, 50, 75, 90],
        },
        "controller": "threshold",
        "queue_bounds": [110, 110, 150, 200],
        "seeds": [1],
    }
    config.write_text(json.dumps(scenario))
    layers = tmp_path / "layers.json"
    env = {k: v for k, v in os.environ.items() if k != "DRONEFLEET_OUT"}
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(dronefleet.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    argv = [
        sys.executable,
        os.path.join(ROOT, "bench", "tracer.py"),
        "--spans",
        str(tmp_path / "spans.npz"),
        "--layers",
        str(layers),
        "--",
        "eval",
        "--config",
        str(config),
        "--horizon",
        "600",
        "--out",
        str(tmp_path / "out"),
        "--trace",
    ]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(layers.read_text())
    assert doc["unmeasured"] == []
    # The arrival layers are methods of the one process class. Arrivals are
    # drawn ahead in blocks of 60, 120, 240 and 480 slots, so 900 slots'
    # worth: one draw_batch and one advance_slot call per center and
    # 30-slot opportunity.
    assert doc["layers"]["arrivals.draw_batch"]["calls"] == 4 * 900 // 30
    assert doc["layers"]["arrivals.advance_slot"]["calls"] == 4 * 900 // 30
    # one step_slot call per 60-slot epoch, and its dispatch counts are the trace's
    assert doc["layers"]["simcore.step_slot"]["calls"] == 600 // 60
    with open(tmp_path / "out" / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 600
    dispatched = sum(int(v) for row in rows for k, v in row.items() if k.startswith("dispatches_"))
    assert dispatched > 0
    assert doc["counters"]["simcore.packages_dispatched"] == dispatched
