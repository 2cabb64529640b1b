"""The cell runner: cells run in this process on one usable core or below
POOL_MIN_SLOTS simulated slots, and in spawned workers otherwise. The
golden runs check that a command writes the same bytes either way."""

import logging
import os
import subprocess
import sys
from functools import partial

import pytest

from dronefleet import cli


def _force_pool(monkeypatch, cores, min_slots=0):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(cli, "POOL_MIN_SLOTS", min_slots)


@pytest.mark.parametrize(
    "cores, slots, pooled", [(1, 10**9, False), (2, 99, False), (2, 100, True)]
)
def test_cells_come_back_in_order_from_where_they_ran(monkeypatch, cores, slots, pooled):
    _force_pool(monkeypatch, cores, min_slots=100)
    pids = cli.run_cells([os.getpid] * 3, slots)
    if pooled:
        assert os.getpid() not in pids
    else:
        assert pids == [os.getpid()] * 3
    assert cli.run_cells([partial(pow, 2, k) for k in range(5)], slots) == [1, 2, 4, 8, 16]
    assert cli.run_cells([partial(pow, 3, 2)], slots) == [9]


def test_workers_log_with_the_parents_level_and_format(monkeypatch, capfd):
    _force_pool(monkeypatch, 2)
    monkeypatch.setattr(logging.getLogger(), "level", logging.INFO)
    log = logging.getLogger("dronefleet.cells").info
    cli.run_cells([partial(log, "cell %d", k) for k in range(2)], 0)
    err = capfd.readouterr().err
    assert "INFO dronefleet.cells: cell 0" in err
    assert "INFO dronefleet.cells: cell 1" in err


def test_importing_the_cli_loads_no_process_pool():
    code = (
        "import sys, dronefleet.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('concurrent', 'multiprocessing')))"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
