"""Workload definitions: input generation and run configs, all from a seed.

Each workload writes a training CSV, a scoring CSV and a run config into a
work directory.  Every input is a pure function of (workload, size, seed),
so two runs with the same seed train on identical bytes.  The three shapes
are chosen so that each layer of distboost carries most of the time in one
workload and little in another (see README.md):

* nb_joint   -- joint negative-binomial fit of both parameters with
                exposure and adjustment columns: loss-derivative bound.
* gamma_wide -- gamma severity with 8 continuous features and 8 rating
                factors at depth 4: split-search bound.
* zip_score  -- zero-inflated Poisson trained on a small file and scored on
                one 20x larger: CSV read and ensemble prediction bound.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from distboost import cli, dataset

SPEC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "specs")


@dataclass(frozen=True)
class Size:
    train_rows: int       # rows of the training CSV, holdout included
    score_rows: int       # rows of the scoring CSV
    rounds: int           # total_rounds of the run config
    quotes: int           # single-row quotes per measured iteration (>= 1000 in full size)
    trace_quotes: int     # quotes in the traced run (fixed, so counts repeat)


def _param_block(name, eta, lambda_reg, a, max_depth, min_leaf_samples):
    return {"name": name, "eta": eta, "clip_m": 10000.0, "a": a,
            "gamma_reg": 0.0, "lambda_reg": lambda_reg,
            "max_depth": max_depth, "min_leaf_samples": min_leaf_samples}


class Workload:
    name = ""
    n_features = 2
    sizes: dict = {}
    loss: dict = {}
    holdout_fraction = 0.2
    # config keys binding non-feature columns, e.g. {"exposure_col": "exposure"}
    columns: dict = {}

    def __init__(self, size="full"):
        self.size_name = size
        self.size = self.sizes[size]

    def params(self):
        raise NotImplementedError

    def write_inputs(self, workdir, seed):
        """Write train.csv and score.csv; the data depend only on the seed."""
        raise NotImplementedError

    def config(self, seed):
        return {"loss": self.loss, "response_col": "y",
                "total_rounds": self.size.rounds, "seed": seed,
                "holdout_fraction": self.holdout_fraction,
                "params": self.params(), **self.columns}

    def eval_flags(self):
        """`cli eval` flags binding the same columns as the run config."""
        return [a for key, col in self.columns.items()
                for a in ("--" + key.replace("_", "-"), col)]

    def setup(self, workdir, seed):
        """Generate both CSVs and the run config; return the file paths."""
        os.makedirs(workdir, exist_ok=True)
        self.write_inputs(workdir, seed)
        paths = self.paths(workdir)
        with open(paths["config"], "w", encoding="utf-8") as fh:
            json.dump(self.config(seed), fh, indent=2, sort_keys=True)
        return paths

    @staticmethod
    def paths(workdir):
        names = {"train": "train.csv", "score": "score.csv",
                 "config": "config.json", "model": "model.json",
                 "trace": "trace.csv", "preds": "preds.csv",
                 "report": "report.json"}
        return {k: os.path.join(workdir, v) for k, v in names.items()}


def _gen(dist, n, seed, spec, out):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["gen", "--dist", dist, "--n", str(n), "--seed", str(seed),
                         "--params", os.path.join(SPEC_DIR, spec), "--out", out])
    if code != 0:
        raise RuntimeError(f"gen of {out} exited {code}")


class NbJoint(Workload):
    """Both NB parameters boosted with bound exposure and adjustment columns.

    The shipped negbin_gen_params.json has no adjustment_choices, so its
    output lacks the adjustment column that negbin_exposure.json binds; the
    benchmark's own spec draws deductible coefficients instead.
    """

    name = "nb_joint"
    sizes = {"full": Size(8000, 8000, 60, 1000, 100),
             "tiny": Size(1200, 600, 4, 50, 20)}
    loss = {"name": "negbin", "nuisance": {}}
    holdout_fraction = 0.25
    columns = {"exposure_col": "exposure", "adjustment_col": "adjustment"}

    def params(self):
        leaf = 1500 if self.size_name == "full" else 150
        return [dict(_param_block(p, 0.1, 1.0, 0.25, 2, leaf), interval=1, offset=0)
                for p in ("beta", "gamma")]

    def write_inputs(self, workdir, seed):
        p = self.paths(workdir)
        _gen("negbin", self.size.train_rows, 2 * seed, "negbin_gen.json", p["train"])
        _gen("negbin", self.size.score_rows, 2 * seed + 1, "negbin_gen.json", p["score"])


class ZipScore(Workload):
    """Small training file, scoring file 20x larger: pricing a portfolio."""

    name = "zip_score"
    sizes = {"full": Size(3000, 60000, 100, 1000, 200),
             "tiny": Size(400, 2000, 5, 50, 20)}
    loss = {"name": "zip", "nuisance": {"alpha": 0.5}}

    def params(self):
        return [_param_block("mu", 0.05, 5.0, 0.5, 3, 50)]

    def write_inputs(self, workdir, seed):
        p = self.paths(workdir)
        _gen("zip", self.size.train_rows, 2 * seed, "zip_gen.json", p["train"])
        _gen("zip", self.size.score_rows, 2 * seed + 1, "zip_gen.json", p["score"])


class GammaWide(Workload):
    """Gamma severity over 8 continuous features and 8 rating factors.

    The factors have 2 to 8 levels, so a lossless binning of low-cardinality
    features would touch half the columns here and none in nb_joint.
    """

    name = "gamma_wide"
    sizes = {"full": Size(5000, 5000, 25, 1000, 200),
             "tiny": Size(600, 300, 3, 50, 20)}
    loss = {"name": "gamma", "nuisance": {"alpha": 5.0}}
    n_continuous = 8
    levels = (2, 3, 4, 5, 6, 7, 8, 8)
    n_features = n_continuous + len(levels)

    def params(self):
        # min_leaf_samples 1 grows full depth-4 trees for every seed, so quote
        # cost does not change with the shape the seed's data happens to give
        return [_param_block("mu", 0.1, 10.0, 0.5, 4, 1)]

    def _sample(self, n, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        cont = rng.random((n, self.n_continuous))
        fac = np.column_stack([rng.integers(0, k, size=n) for k in self.levels])
        log_mu = (np.log(2000.0) + 0.6 * cont[:, 0] - 0.4 * cont[:, 1]
                  + 0.3 * (cont[:, 2] > 0.5) + 0.3 * fac[:, 0]
                  + 0.05 * fac[:, 3] - 0.04 * fac[:, 6] + 0.1 * (fac[:, 7] % 2))
        mu = np.exp(log_mu)
        y = rng.gamma(shape=5.0, scale=mu / 5.0)
        names = ([f"c{j + 1}" for j in range(self.n_continuous)]
                 + [f"f{j + 1}" for j in range(len(self.levels))])
        return dataset.Dataset(np.column_stack([cont, fac]).astype(np.float64), y,
                               feature_names=names, source=f"gamma_wide:{seed}")

    def write_inputs(self, workdir, seed):
        p = self.paths(workdir)
        dataset.write_csv(self._sample(self.size.train_rows, 2 * seed), p["train"])
        dataset.write_csv(self._sample(self.size.score_rows, 2 * seed + 1), p["score"])


WORKLOADS = {w.name: w for w in (NbJoint, GammaWide, ZipScore)}
