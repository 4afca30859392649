"""The bytes every benchmark workload writes, pinned by sha256.

For each workload of perfbench/workloads.py at its tiny size and seeds 1-3,
`cli train` writes a model and a trace and `cli predict` writes a prediction
CSV.  byte_manifest.json holds the sha256 of those three files together with
the numpy and scipy versions that wrote them, and the test below reruns the
chain and compares.  A change that moves bytes on purpose rewrites the
manifest with

    PYTHONPATH=src python tests/test_byte_manifest.py

and names the digests that moved and why.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import numpy as np
import pytest
import scipy

from distboost import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = pathlib.Path(__file__).with_name("byte_manifest.json")
SEEDS = (1, 2, 3)
CASES = [f"{name}/{seed}" for name in ("gamma_wide", "nb_joint", "zip_score") for seed in SEEDS]
FILES = ("model", "trace", "preds")


def digests(workloads, key, workdir):
    """sha256 of the model, trace and prediction CSV of one tiny workload chain."""
    name, seed = key.split("/")
    p = workloads.WORKLOADS[name]("tiny").setup(str(workdir), int(seed))
    with contextlib.redirect_stdout(io.StringIO()):
        codes = (cli.main(["train", "--data", p["train"], "--config", p["config"],
                           "--out", p["model"], "--trace", p["trace"]]),
                 cli.main(["predict", "--model", p["model"], "--data", p["score"],
                           "--out", p["preds"]]))
    if codes != (0, 0):
        raise RuntimeError(f"{key}: train and predict exited {codes}")
    return {f: hashlib.sha256(pathlib.Path(p[f]).read_bytes()).hexdigest() for f in FILES}


def _manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    return workloads


def test_manifest_covers_every_workload_and_seed(workloads):
    assert CASES == sorted(f"{name}/{seed}" for name in workloads.WORKLOADS for seed in SEEDS)
    assert sorted(_manifest()["digests"]) == CASES


@pytest.mark.parametrize("key", CASES)
def test_workload_bytes_match_the_manifest(tmp_path, workloads, key):
    got = digests(workloads, key, tmp_path)
    manifest = _manifest()
    want = manifest["digests"][key]
    moved = [f for f in FILES if got[f] != want[f]]
    assert not moved, (
        f"{key}: the {', '.join(moved)} bytes differ from {MANIFEST.name}, which numpy "
        f"{manifest['numpy']} and scipy {manifest['scipy']} wrote; this run has numpy "
        f"{np.__version__} and scipy {scipy.__version__}.  Another build's SIMD exp and "
        f"log may round differently.  If the change is meant, rewrite the manifest "
        f"(see this module's docstring) and name the moved digests.")


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as _workloads

    with tempfile.TemporaryDirectory() as tmp:
        table = {key: digests(_workloads, key, pathlib.Path(tmp, key)) for key in CASES}
    MANIFEST.write_text(json.dumps({"numpy": np.__version__, "scipy": scipy.__version__,
                                    "digests": table}, indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}")
