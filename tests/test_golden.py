"""Golden output digests: short fixed-seed CLI runs must keep their bytes.

Every run goes through `cli.main` in this process, and the SHA-256 of each
file it writes (resolved config, reports, trace, curves, checkpoints) is
compared with the digest recorded below. Random streams and float formatting
come from numpy, so the digests hold for the numpy version recorded beside
them. Change a digest only together with a stated reason why the bytes
changed.

To print the digests of the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from importlib import resources

import numpy as np
import pytest

from dronefleet.cli import main

NUMPY_VERSION = "2.4.6"

PATTERNS = ("bernoulli", "tvb", "mmb")
BASELINES = ("static", "threshold", "ql")
EVAL_FLAGS = ["--trace", "--horizon", "6000", "--seed", "7"]
TRAIN_SETTINGS = {"episodes": 2, "max_steps_per_episode": 30, "min_buffer": 25}
TRAIN_SEED = 7

GOLDEN = {
    "eval/bernoulli/static": {
        "report.csv": "5928e7008e5650b91d15024ea396d5b2ce0bdf55eedef23021ef4d3841280ef5",
        "report.json": "1551918175d191cc8b6b336eac157303102382c639f1174dd4a22068d4686c59",
        "resolved_config.json": "73ba4c57173d8e5a1f9662cfd6d9568ba953363d9d6cab9eb843be62210b2d5d",
        "trace.csv": "1ba46758e62cae78505644d84ca8dcf24e6e3de91518a74704417032ac8bad91"
    },
    "eval/bernoulli/threshold": {
        "report.csv": "076ebd5e6e6fa3515b1cff20c4adc63815c2d63c372f3bd3ae34d362a9602925",
        "report.json": "e58c8b6267a808cf1c8c4ca843cba269da619f27535108568316e0c974c6b62c",
        "resolved_config.json": "094a89e1350bda011182b6357330a963cda10b01e68c760c9dad7c273b2f248f",
        "trace.csv": "8414c540f528e78aea1d4eda825453bfc14e20ed31d1090f7b9163d867d3e839"
    },
    "eval/bernoulli/ql": {
        "report.csv": "166ebc1f75e4cbc8eeb4aa92a3d56eedb70669609a58563c64415b9c68b29f36",
        "report.json": "ef612c8c35a61784e2b3e5fa3b968d7c73edd5e4c0be6e2fcdf73680436a1d30",
        "resolved_config.json": "00003a66f8b15ede3d6bde92c286099b1d8b0de01aedaf8fffb1d79ef244dbbf",
        "trace.csv": "72fc112beca2321837edcb3f7f0f0f79029d7e4e26ff4738de8cfc6a2d9c3310"
    },
    "eval/tvb/static": {
        "report.csv": "602543d77be0b100344dbf7fed5e78e095ce41c38134600c33712fab58ee9b73",
        "report.json": "e320a21722652114893405259d6eba45c4e36c79bfd8526498096d2c3839d747",
        "resolved_config.json": "1a29e54f5628048158b66a59dd1ff547cc8f95549d7494ef07dda544718af5ac",
        "trace.csv": "7fc918e05e24803203dff5b4ace661e6956bb213cbff0b894d1b2348e323b6f7"
    },
    "eval/tvb/threshold": {
        "report.csv": "02607b5fea8c0f14b91125151c472ed51d6ca15d9b84259c6474b0ee0ec84153",
        "report.json": "709bd9ad58cdbaed0b8a4271de242c84b6d9af4d1a554bdb2958e4de302769d3",
        "resolved_config.json": "947d9447ad02761c7bd70529d71d4495d56f622a46795dfe6f899e590818d908",
        "trace.csv": "bbfcf72e0bbc0811080f43e5c5045e5f834e81b66b52efaaf2055326ba538199"
    },
    "eval/tvb/ql": {
        "report.csv": "fe3ac5d30aab262baa60343b12db0d79290f07d0e1ac7a3667c63835d03e1567",
        "report.json": "bbb6952f825746a456f6bcbc3d47b21ce87c8c6afb5c8ae4bf3784614aeff709",
        "resolved_config.json": "20772f9df045e284b33c2e0cb8419fd47ed08c3b74d65179c3772d4bc13df3e3",
        "trace.csv": "47b0671face750251d6de112e7c00e837f935bb1be536fa42bed1c4febc4d65d"
    },
    "eval/mmb/static": {
        "report.csv": "9cc7c1dcc92de05c3d66e7f64371edf03d11598267af5be7ea982cea2097ac38",
        "report.json": "143fc4aa539431f21d087887c672348c3507095b2c40d788c0e39b94d85f2ba9",
        "resolved_config.json": "6f74bb41a51640575642f25a5d1d99106dfc6e0a55a914c33cb15314ba25589e",
        "trace.csv": "fa9393d52cae711aebe3cd28b0e506b299c1b63208fc810bbb14652185614d9f"
    },
    "eval/mmb/threshold": {
        "report.csv": "e47c86870acec15aacda91baa4fcd6868edb5c3e5d3f1dbaf4b0e2f069c8b970",
        "report.json": "1fa16873260f812f319796bef2ae1571c055231983cdee7b134506696546302b",
        "resolved_config.json": "f11e55df256866dc1fd98823f9723cf58f4df5356e53d6d8a342c2ac981c075d",
        "trace.csv": "39d36704d5766890ede1505c5f530b8400b4e6c985ab7af55a30a2dfbd36972b"
    },
    "eval/mmb/ql": {
        "report.csv": "aa0d4fc8633b47c240e216edeea07f2f7e5064a28bf4fb413976c7e88ae60a18",
        "report.json": "da7a115ff70bb734c808158f8b91e7d8534160052fbf34dad7d5cef5f5a3b0ba",
        "resolved_config.json": "ece354d582a3c5514f4c52c90a4fdc3b063f977faa736eb988780b6f59600839",
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
        "report.csv": "7d224a538dad5468ccd8f3783c1cc0ace68c46360c611b303484219f621965f6",
        "report.json": "68924f7d9034011156840e658df7d03d310b0aca59d846a4b8631c57a4b7e14c",
        "resolved_config.json": "c690f8ea9d577f87b0fcf9a79aab03a67cb4f2a6d824b85fc744e3f5321941a4",
        "trace.csv": "5759d34ccabb6a24e8e6b5757e92b109c165b73f07b5664033f3f94bb7c16115"
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
    config = os.path.join(tmp, f"{name.replace('/', '_')}.json")
    with open(config, "w") as fh:
        json.dump(doc, fh)
    out = os.path.join(tmp, name)
    code = main([argv[0], "--config", config, "--out", out, *argv[1:]])
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
    return runs


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return collect_digests(str(tmp_path_factory.mktemp("golden")))


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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        runs = collect_digests(tmp)
    json.dump(runs, sys.stdout, indent=4)
    print()
