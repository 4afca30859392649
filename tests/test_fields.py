"""Every count of the Python API and of run configs reads through fields.count,
and every real-valued config field through fields.typed."""

import re

import numpy as np
import pytest

import distboost as db
from distboost.cli import parse_run_config
from distboost.errors import ValidationError

_DS = db.generate_synthetic("gamma", 40, 1, lambda X: {"mu": 1.0 + X[:, 0], "alpha": 5.0})
_LOSS = db.make_loss("gamma", {"alpha": 5.0})


def _trees(total_rounds, **cfg):
    result = db.train(_DS, _LOSS, [db.ParamTrainConfig(**cfg)], total_rounds)
    return len(result.model.params[0].trees)


def _config(**doc):
    return parse_run_config({"loss": {"name": "gamma", "nuisance": {"alpha": 5.0}},
                             "total_rounds": 3, **doc})


# field named in the error, least accepted value, and a call that uses the
# count and returns what it did with it
COUNTS = {
    "train.total_rounds": ("total_rounds", 0, lambda v: len(
        db.train(_DS, _LOSS, [db.ParamTrainConfig()], v).trace)),
    "ParamTrainConfig.rounds": ("rounds", 0, lambda v: _trees(5, rounds=v)),
    "ParamTrainConfig.interval": ("interval", 1, lambda v: _trees(7, interval=v)),
    "ParamTrainConfig.offset": ("offset", 0, lambda v: _trees(6, offset=v)),
    "TreeParams.max_depth": ("max_depth", 1, lambda v: db.TreeParams(max_depth=v)),
    "TreeParams.min_leaf_samples": ("min_leaf_samples", 1,
                                    lambda v: db.TreeParams(min_leaf_samples=v)),
    "generate_synthetic.n": ("n", 1, lambda v: db.generate_synthetic(
        "gamma", v, 1, lambda X: {"mu": 1.0, "alpha": 2.0}).identifier()),
    "generate_synthetic.seed": ("seed", 0, lambda v: db.generate_synthetic(
        "gamma", 5, v, lambda X: {"mu": 1.0, "alpha": 2.0}).identifier()),
    "split_holdout.seed": ("seed", 0, lambda v: [
        part.identifier() for part in db.split_holdout(_DS, 0.25, v)]),
    "check_admissibility.grid_points": ("grid_points", 100, lambda v: db.check_admissibility(
        _LOSS, [1.0, 4.0], v).describe()),
    "config.total_rounds": ("config.total_rounds", 0,
                            lambda v: _config(total_rounds=v).total_rounds),
    "config.seed": ("config.seed", 0, lambda v: _config(seed=v).seed),
}


@pytest.mark.parametrize("entry", COUNTS)
@pytest.mark.parametrize("bad", [2.5, "3", True, 2 ** 53 + 1, "least - 1"])
def test_every_count_rejects_what_is_not_a_count(entry, bad):
    where, least, call = COUNTS[entry]
    if bad == "least - 1":
        bad = least - 1
    with pytest.raises(ValidationError, match=f"^{re.escape(where)}(:| must)"):
        call(bad)


@pytest.mark.parametrize("entry", COUNTS)
def test_every_count_reads_an_integral_float_or_numpy_integer_as_its_int(entry):
    _, least, call = COUNTS[entry]
    good = max(3, least)
    assert call(float(good)) == call(np.int64(good)) == call(good)


def test_train_runs_three_rounds_for_three_point_zero_and_numpy_three():
    for rounds in (3.0, np.int64(3)):
        assert len(db.train(_DS, _LOSS, [db.ParamTrainConfig()], rounds).trace) == 3


@pytest.mark.parametrize("build, where", [
    (lambda v: db.TreeParams(gamma_reg=v), "gamma_reg"),
    (lambda v: db.TreeParams(lambda_reg=v), "lambda_reg"),
    (lambda v: db.TreeParams(a=v), "a"),
    (lambda v: db.ParamTrainConfig(eta=v), "eta"),
    (lambda v: db.ParamTrainConfig(clip_m=v), "clip_m"),
    (lambda v: db.ParamTrainConfig(base_value=v), "base_value"),
    (lambda v: db.ParameterDomain(v, 2.0), "domain"),
    (lambda v: db.ParameterDomain(0.0, v), "domain"),
    (lambda v: db.clip_gradient(1.0, v), "clip threshold m"),
    (lambda v: db.losses.GammaNLL(v), "gamma shape alpha"),
    (lambda v: db.losses.ZipNLL(v), "zip mixing weight alpha"),
    (lambda v: db.split_holdout(_DS, v, 1), "holdout fraction"),
])
@pytest.mark.parametrize("bad", ["1", True, float("nan"), float("inf")])
def test_real_valued_fields_reject_what_is_not_a_finite_number(build, where, bad):
    with pytest.raises(ValidationError, match=f"^{where}: expected a finite number"):
        build(bad)
