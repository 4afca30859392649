"""The bytes every benchmark workload writes, pinned by sha256.

For each workload of perfbench/workloads.py at its tiny size and seeds 1-3,
`cli train` writes a model and a trace and `cli predict` writes a prediction
CSV.  No tiny workload clamps a row, so one more case, "ac7_clamp", pins the
model and trace that `cli train` writes for the AC-7 fit, whose narrow
domain clamps rows.  byte_manifest.json holds the sha256 of those files
together with the numpy and scipy versions that wrote them, and the test
below reruns each chain and compares.  A change that moves bytes on
purpose rewrites the manifest with

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

import distboost as db
from distboost import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = pathlib.Path(__file__).with_name("byte_manifest.json")
SEEDS = (1, 2, 3)
CLAMP_CASE = "ac7_clamp"
CASES = [f"{name}/{seed}" for name in ("gamma_wide", "nb_joint", "zip_score")
         for seed in SEEDS] + [CLAMP_CASE]
FILES = ("model", "trace", "preds")


def _write_clamp_inputs(workdir):
    """AC-7's data and config: gamma, 500 rows, seed 17, domain [3.5, 5.5], 50 rounds."""
    workdir.mkdir(parents=True, exist_ok=True)
    p = {f: str(workdir / name) for f, name in
         (("train", "train.csv"), ("config", "config.json"),
          ("model", "model.json"), ("trace", "trace.csv"))}
    ds = db.generate_synthetic(
        "gamma", 500, 17, lambda X: {"mu": np.where(X[:, 0] < 0.5, 3.0, 6.0), "alpha": 5.0})
    db.write_csv(ds, p["train"])
    pathlib.Path(p["config"]).write_text(json.dumps({
        "loss": {"name": "gamma", "nuisance": {"alpha": 5.0}}, "total_rounds": 50,
        "params": [{"eta": 0.5, "clip_m": 0.5, "domain": [3.5, 5.5],
                    "lambda_reg": 0.1, "max_depth": 2}]}), encoding="utf-8")
    return p


def digests(workloads, key, workdir):
    """sha256 of the model, trace and (for a workload) prediction CSV of one chain."""
    if key == CLAMP_CASE:
        p = _write_clamp_inputs(pathlib.Path(workdir))
    else:
        name, seed = key.split("/")
        p = workloads.WORKLOADS[name]("tiny").setup(str(workdir), int(seed))
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(["train", "--data", p["train"], "--config", p["config"],
                           "--out", p["model"], "--trace", p["trace"]])]
        if "score" in p:
            codes.append(cli.main(["predict", "--model", p["model"], "--data", p["score"],
                                   "--out", p["preds"]]))
    if any(codes):
        raise RuntimeError(f"{key}: the chain exited {codes}")
    return {f: hashlib.sha256(pathlib.Path(p[f]).read_bytes()).hexdigest()
            for f in FILES if f in p}


def _manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    return workloads


def test_manifest_covers_every_workload_and_seed(workloads):
    assert CASES[:-1] == sorted(f"{name}/{seed}" for name in workloads.WORKLOADS
                                for seed in SEEDS)
    assert sorted(_manifest()["digests"]) == sorted(CASES)


@pytest.mark.parametrize("key", CASES)
def test_workload_bytes_match_the_manifest(tmp_path, workloads, key):
    got = digests(workloads, key, tmp_path)
    manifest = _manifest()
    want = manifest["digests"][key]
    moved = [f for f in FILES if got.get(f) != want.get(f)]
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
