"""Golden output digests: short fixed-seed CLI runs must keep their bytes.

Every run goes through `cli.main` in this process, and the SHA-256 of each
file it writes (resolved configs, reports, sweep and compare tables, trace,
curves, checkpoints) is compared with the digest recorded below. Random
streams and float formatting come from numpy, so the digests hold for the
numpy version recorded beside them. Change a digest only together with a
stated reason why the bytes changed.

To print the digests of the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import hashlib
import json
import math
import os
import sys
import tempfile
from importlib import resources

import numpy as np
import pytest

from dronefleet import cli
from dronefleet.cli import main

from oracles import whole_array_report

NUMPY_VERSION = "2.4.6"

PATTERNS = ("bernoulli", "tvb", "mmb")
BASELINES = ("static", "threshold", "ql")
TRAIN_SETTINGS = {"episodes": 2, "max_steps_per_episode": 30, "min_buffer": 25}
TRAIN_SEED = 7
# three seeds, so that curves/summary.csv has a spread to report, and 3 x 20
# steps, where the order of the epsilon cutoff's product shows in its bits
MULTI_SEED_TRAIN = {"episodes": 3, "max_steps_per_episode": 20, "min_buffer": 25}
MULTI_SEEDS = [3, 5, 8]
RUN_FLAGS = ["--horizon", "6000", "--seed", "7"]
EVAL_FLAGS = ["--trace", *RUN_FLAGS]
SWEEP_FLAGS = ["--n-uavs", "40", "60", *RUN_FLAGS]
COMPARE_FLAGS = ["--patterns", "bernoulli", "mmb", "--algorithms", "static", "ql", *RUN_FLAGS]

GOLDEN = {
    "eval/bernoulli/static": {
        "report.csv": "5928e7008e5650b91d15024ea396d5b2ce0bdf55eedef23021ef4d3841280ef5",
        "report.json": "1551918175d191cc8b6b336eac157303102382c639f1174dd4a22068d4686c59",
        "resolved_config.json": "e1aa3b91f55ca3a3a6517ade1b2ba338f2bcef9c681e647fec778f879fb602ff",
        "trace.csv": "1ba46758e62cae78505644d84ca8dcf24e6e3de91518a74704417032ac8bad91"
    },
    "eval/bernoulli/threshold": {
        "report.csv": "38049cf4be8e60f4b3e772a9b936d813cf0cdac062f27f1327a2842fd6bc9d79",
        "report.json": "1061c59c4f0b7c9b65bf54e8cd663021cab5442eefc3f7314305b846711b95cf",
        "resolved_config.json": "098c7825431829ccb66523ae8ec44260672e7fdb2234d90ccf88aaa1725abfcb",
        "trace.csv": "8414c540f528e78aea1d4eda825453bfc14e20ed31d1090f7b9163d867d3e839"
    },
    "eval/bernoulli/ql": {
        "report.csv": "166ebc1f75e4cbc8eeb4aa92a3d56eedb70669609a58563c64415b9c68b29f36",
        "report.json": "ef612c8c35a61784e2b3e5fa3b968d7c73edd5e4c0be6e2fcdf73680436a1d30",
        "resolved_config.json": "ec0d88b00279ff8fee74492d610e8a6a7dd77cb8bc1a80d02d78f94b80ea3541",
        "trace.csv": "72fc112beca2321837edcb3f7f0f0f79029d7e4e26ff4738de8cfc6a2d9c3310"
    },
    "eval/tvb/static": {
        "report.csv": "602543d77be0b100344dbf7fed5e78e095ce41c38134600c33712fab58ee9b73",
        "report.json": "e320a21722652114893405259d6eba45c4e36c79bfd8526498096d2c3839d747",
        "resolved_config.json": "8fa9f903f4be9af48ea738933eef7de78b47b65aaf088a0cdf88b4ef9a00b20b",
        "trace.csv": "7fc918e05e24803203dff5b4ace661e6956bb213cbff0b894d1b2348e323b6f7"
    },
    "eval/tvb/threshold": {
        "report.csv": "02607b5fea8c0f14b91125151c472ed51d6ca15d9b84259c6474b0ee0ec84153",
        "report.json": "709bd9ad58cdbaed0b8a4271de242c84b6d9af4d1a554bdb2958e4de302769d3",
        "resolved_config.json": "2acbf2ed639d9f76091b9622cb3cda1d68ec3cfe4f474f4a958afa03835c4c29",
        "trace.csv": "bbfcf72e0bbc0811080f43e5c5045e5f834e81b66b52efaaf2055326ba538199"
    },
    "eval/tvb/ql": {
        "report.csv": "fe3ac5d30aab262baa60343b12db0d79290f07d0e1ac7a3667c63835d03e1567",
        "report.json": "bbb6952f825746a456f6bcbc3d47b21ce87c8c6afb5c8ae4bf3784614aeff709",
        "resolved_config.json": "14e41a638ed3843561e386b6b9ed533afab04718193bf964e015a3f1e25b3712",
        "trace.csv": "47b0671face750251d6de112e7c00e837f935bb1be536fa42bed1c4febc4d65d"
    },
    "eval/mmb/static": {
        "report.csv": "1a97dd8301c251f16a406f8bc7616d586d37e526e6151553481b10dccadbf105",
        "report.json": "299541a92f6e1fea9b031d2d5a345810ea51e100d5e8b7603077b12b839dd3de",
        "resolved_config.json": "ab3e3352cf541ee6e69afbc3cdf75454b32e12625fbe6c0f4d18af2e0580f295",
        "trace.csv": "fa9393d52cae711aebe3cd28b0e506b299c1b63208fc810bbb14652185614d9f"
    },
    "eval/mmb/threshold": {
        "report.csv": "771fbb63f29bfaf34f0250bc4247c63306999cc9aa6986b793ea1d7aecc2ed81",
        "report.json": "6842c11d4f01b6a312efcd1eb668641ea9ad3b37323fbf8ec1d42ebda5658ee2",
        "resolved_config.json": "4f0e4def46bc5565a9be680f54fb2a57110131dd5ad06a145e648fe96103fc64",
        "trace.csv": "39d36704d5766890ede1505c5f530b8400b4e6c985ab7af55a30a2dfbd36972b"
    },
    "eval/mmb/ql": {
        "report.csv": "aa0d4fc8633b47c240e216edeea07f2f7e5064a28bf4fb413976c7e88ae60a18",
        "report.json": "da7a115ff70bb734c808158f8b91e7d8534160052fbf34dad7d5cef5f5a3b0ba",
        "resolved_config.json": "3cf4a6c41afc06038754948c62f7844f6646f41608f2933d96184f490e82385e",
        "trace.csv": "7e11e6a09fd43abc70d430c97443afe64639ef6e857cb53ed28ac8f92c1f0b44"
    },
    "train/bernoulli": {
        "checkpoints/seed7/agent_pdc1.json": "d9724a5473eb49014ba28c6c173c9a8c06e6519c2471e0d5c9762e1a6b3de163",
        "checkpoints/seed7/agent_pdc2.json": "c524d1442481a6a4b2c26e03377c85c0e0a54098fa211ad0acb920ae85ffc9d3",
        "checkpoints/seed7/agent_pdc3.json": "2e419ff18b38a46667318f47824849ed1bd53d3c41c29c2fadecffa1a606a14b",
        "checkpoints/seed7/agent_pdc4.json": "4fae300486d51e00b820e24e34144491fbee38c19ec7b12cf20de275ab53f613",
        "curves/seed7.csv": "db1a1fe66ea1d77390bd982835dc69c45868ba77187ed0a875400884dd028c1c",
        "curves/summary.csv": "29aa20aa71e75dd57e4a7ff699670c9a6eec67604b8e440e11fe9e81c1c6f387",
        "resolved_config.json": "c690f8ea9d577f87b0fcf9a79aab03a67cb4f2a6d824b85fc744e3f5321941a4"
    },
    "eval/bernoulli/rl": {
        "report.csv": "5f98879cdb2291b9cb237d5d62e2f67e4342dcff433a5248675c1ee4eb3ea012",
        "report.json": "c640f050f5a5b8fbd6d4edb769129072b68083bde23c82873dadcaf2a843de37",
        "resolved_config.json": "4600966d98a4dff9b3b14cec0d7ab6bcae7e155b1c936efe8cbd40c337aef4c3",
        "trace.csv": "5759d34ccabb6a24e8e6b5757e92b109c165b73f07b5664033f3f94bb7c16115"
    },
    "train/bernoulli-3-seeds": {
        "checkpoints/seed3/agent_pdc1.json": "beb51b748c1b6f189f9ccdc4f21d0e0e2b4615d560ae38e83880c482386bc480",
        "checkpoints/seed3/agent_pdc2.json": "61332d6e52340a93905d50d39d2bbd495f7d6a6d5213df7345a0a6d2fddf1ae7",
        "checkpoints/seed3/agent_pdc3.json": "a12c69b5c3ec23b0b211d7ee62ff6480cf99ec627ac0e709c89e860577e54829",
        "checkpoints/seed3/agent_pdc4.json": "098d8668a61e26ca040153bfc9455bd29faacb3548cdc144393e117d834f0758",
        "checkpoints/seed5/agent_pdc1.json": "90f2e7cd9df9423d8d43cc47116a10091be57a205c4354b6f0c1f69d4d092fb1",
        "checkpoints/seed5/agent_pdc2.json": "cc7e264a6e5b8d70220061056656187bfdc78faf89bcbe2a6c40fdcd1a322400",
        "checkpoints/seed5/agent_pdc3.json": "88ff71a06fab6e9c95f4449533bc4c84b7df8cb1d1ab54c37ee86446d2237d41",
        "checkpoints/seed5/agent_pdc4.json": "d0081d354b909b4bb5ff77690832a80a321fc9361fca527aaae8e03dec274d00",
        "checkpoints/seed8/agent_pdc1.json": "f38cadf701e626d3e4c47eb9964891936bb185f5df807bcb7cca8e095fb80de7",
        "checkpoints/seed8/agent_pdc2.json": "ddbb97cd12a54669cd18f76e870e8e0b45170f4fc7612adb1e49136c40fbdee5",
        "checkpoints/seed8/agent_pdc3.json": "9fa2a38b8a933ef4277e1574c2761dfda4022ee0dc5bd998aa84b22a6c8deaf8",
        "checkpoints/seed8/agent_pdc4.json": "319c2edc3744181b63634c273470936c3c2616054e06ddd9e7cf7aef550ed97c",
        "curves/seed3.csv": "b261607f4bf072f8ad5e5b005516527cb03647979e7636936d72f517cddb9d80",
        "curves/seed5.csv": "98b63ab4b07b8d44ca6794ac1093f81dbd9e47150554e896e237536761b8ddf7",
        "curves/seed8.csv": "eb2f502cfd54463cf274c072ba5dbed55dcd790b81571f985d89fb4792b34e4f",
        "curves/summary.csv": "50cc0c61f7962d370c952708c79e34fa5fd721a6182f6aaf61ddb00f24d6c0d3",
        "resolved_config.json": "7c244b9c9e4f68ab1061bd38d81346f082e0aa1ef49401369d3f2cfa65d1f421"
    },
    "sweep/bernoulli": {
        "resolved_n40.json": "4a558824979521533e0c343bc2e13350313631916d6a36383bdb646f76bfcbb1",
        "resolved_n60.json": "098c7825431829ccb66523ae8ec44260672e7fdb2234d90ccf88aaa1725abfcb",
        "sweep.csv": "4823241cc4864516ea09645ed40db478bc72cf86929eae90c7541c9c98061b01"
    },
    "compare": {
        "compare.csv": "73879d726857640a182ff5bab1faec09b3152d76c812e5fc02d72f583964ced7",
        "reports/ql_bernoulli.json": "ef612c8c35a61784e2b3e5fa3b968d7c73edd5e4c0be6e2fcdf73680436a1d30",
        "reports/ql_mmb.json": "da7a115ff70bb734c808158f8b91e7d8534160052fbf34dad7d5cef5f5a3b0ba",
        "reports/static_bernoulli.json": "1551918175d191cc8b6b336eac157303102382c639f1174dd4a22068d4686c59",
        "reports/static_mmb.json": "299541a92f6e1fea9b031d2d5a345810ea51e100d5e8b7603077b12b839dd3de",
        "resolved_bernoulli.json": "25884ee9c03e096d70eb5c13d9c1722141b8e830ea50043c0cc088378ce0c460",
        "resolved_mmb.json": "84a23ade3e801b09b56da758002df2e27ce02584a088bd01d7958d1b1e39abf2"
    }
}


def _scenario(pattern, **overrides):
    text = resources.files("dronefleet").joinpath(f"data/scenario_{pattern}.json").read_text()
    return {**json.loads(text), **overrides}


def _digests(out):
    found = {}
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(found.items()))


def _run(tmp, name, doc, argv):
    """Run `argv` with its output under `tmp`/`name`, and with `doc` as its
    --config unless `doc` is None (compare reads the bundled scenarios)."""
    out = os.path.join(tmp, name)
    if doc is not None:
        config = os.path.join(tmp, f"{name.replace('/', '_')}.json")
        with open(config, "w") as fh:
            json.dump(doc, fh)
        argv = [argv[0], "--config", config, *argv[1:]]
    code = main([*argv, "--out", out])
    assert code == 0, f"{name} exited {code}"
    return out


def collect_digests(tmp):
    """Run every golden command under `tmp`; digests per run, per file."""
    runs = {}
    for pattern in PATTERNS:
        for controller in BASELINES:
            name = f"eval/{pattern}/{controller}"
            doc = _scenario(pattern, controller=controller)
            runs[name] = _digests(_run(tmp, name, doc, ["eval", *EVAL_FLAGS]))
    doc = _scenario("bernoulli", train=TRAIN_SETTINGS, seeds=[TRAIN_SEED])
    out = _run(tmp, "train/bernoulli", doc, ["train"])
    runs["train/bernoulli"] = _digests(out)
    ckpts = os.path.join(out, "checkpoints", f"seed{TRAIN_SEED}")
    out = _run(tmp, "eval/bernoulli/rl", doc, ["eval", *EVAL_FLAGS, "--checkpoints", ckpts])
    runs["eval/bernoulli/rl"] = _digests(out)
    for name, (doc, argv) in multi_cell_runs().items():
        runs[name] = _digests(_run(tmp, name, doc, argv))
    return runs


def multi_cell_runs():
    """The golden runs of more than one cell: name -> (config doc, argv)."""
    return {
        "train/bernoulli-3-seeds": (
            _scenario("bernoulli", train=MULTI_SEED_TRAIN, seeds=MULTI_SEEDS),
            ["train"],
        ),
        "sweep/bernoulli": (_scenario("bernoulli", controller="threshold"), ["sweep", *SWEEP_FLAGS]),
        "compare": (None, ["compare", *COMPARE_FLAGS]),
    }


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    """The directory the golden runs wrote, and their digests."""
    tmp = str(tmp_path_factory.mktemp("golden"))
    return tmp, collect_digests(tmp)


@pytest.fixture(scope="module")
def digests(golden_dir):
    return golden_dir[1]


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_output_bytes_match_golden(digests, run):
    changed = {
        name: (GOLDEN[run].get(name), digests[run].get(name))
        for name in sorted(set(GOLDEN[run]) | set(digests[run]))
        if GOLDEN[run].get(name) != digests[run].get(name)
    }
    assert not changed, (
        f"{run}: output bytes changed in {sorted(changed)}; digests were recorded "
        f"with numpy {NUMPY_VERSION}, this run uses numpy {np.__version__}"
    )


def test_every_run_is_pinned(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("run", sorted(name for name in GOLDEN if name.startswith("eval/")))
def test_report_is_the_whole_trace_statistics(golden_dir, run):
    # the report is folded from the run block by block; recomputed by numpy
    # from the whole trace.csv, every field is the same float but the
    # standard deviations, which may differ from np.std by 2 ulp at most
    out = os.path.join(golden_dir[0], run)
    with open(os.path.join(out, "resolved_config.json")) as fh:
        cfg = json.load(fh)
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    with open(os.path.join(out, "trace.csv"), newline="") as fh:
        header, *rows = csv.reader(fh)
    d = len(cfg["queue_bounds"])
    _, n, arrivals, dispatches = np.array(rows, dtype=np.int64).T[1:].reshape(4, d, -1)
    n = n[:, :: cfg["reward"]["epoch_slots"]]
    want = whole_array_report(arrivals, dispatches, n, cfg["queue_bounds"], cfg["warmup_slots"])
    assert want["waits"].size
    for field in ("violation", "p_max", "q_mean", "w_mean", "n_mean", "horizon_slots"):
        assert report[field] == want[field], field
    for field in ("q_std", "w_std"):
        assert abs(report[field] - want[field]) <= 2 * math.ulp(want[field]), field


@pytest.mark.parametrize("run", sorted(multi_cell_runs()))
def test_pooled_cells_write_the_golden_bytes(monkeypatch, tmp_path, run):
    # the golden runs are too small for the pool; force it on two cores
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cli, "POOL_MIN_SLOTS", 0)
    doc, argv = multi_cell_runs()[run]
    assert _digests(_run(str(tmp_path), run, doc, argv)) == GOLDEN[run]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        runs = collect_digests(tmp)
    json.dump(runs, sys.stdout, indent=4)
    print()
