import dataclasses
import itertools
import json

import numpy as np
import pytest

import distboost as db
from distboost import model_io
from distboost.errors import ModelFormatError, ValidationError


def _trained_model(n_params=1):
    if n_params == 1:
        ds = db.generate_synthetic("gamma", 300, 1,
                                   lambda X: {"mu": np.where(X[:, 0] < 0.5, 2.0, 6.0),
                                              "alpha": 5.0})
        loss = db.gamma_nll(5.0)
        cfgs = [db.ParamTrainConfig(eta=0.1, tree=db.TreeParams(max_depth=3))]
    else:
        ds = db.generate_synthetic("negbin", 300, 2,
                                   lambda X: {"beta": 1.0, "gamma": 2.0})
        loss = db.negbin_nll()
        cfgs = [db.ParamTrainConfig(eta=0.1, tree=db.TreeParams(max_depth=2))
                for _ in range(2)]
    return db.train(ds, loss, cfgs, 20).model


def test_round_trip_predicts_bit_identically(tmp_path):
    model = _trained_model()
    path = str(tmp_path / "m.json")
    db.save(model, path)
    loaded = db.load(path)
    rng = np.random.default_rng(0)
    X = rng.random((1000, 2))
    assert np.array_equal(model.predict_many(X), loaded.predict_many(X))
    for x in X[:20]:
        assert model.predict(x) == loaded.predict(x)


def test_save_is_deterministic_and_idempotent(tmp_path):
    model = _trained_model()
    p1, p2, p3 = (str(tmp_path / f"{i}.json") for i in range(3))
    db.save(model, p1)
    db.save(model, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    db.save(db.load(p1), p3)
    assert open(p1, "rb").read() == open(p3, "rb").read()


def test_zero_tree_model_round_trip(tmp_path):
    model = db.BoostedModel("negbin", {}, ("x1", "x2"), [
        db.ParamEnsemble("beta", 1.5, db.ParameterDomain(1e-4, 1e4), []),
        db.ParamEnsemble("gamma", 2.0, db.ParameterDomain(1e-4, 1e4), []),
    ])
    path = str(tmp_path / "m.json")
    db.save(model, path)
    doc = json.loads(open(path).read())
    assert [p["name"] for p in doc["params"]] == ["beta", "gamma"]
    assert all(p["trees"] == {"eta": [], "size": [], "feature": [], "threshold": [],
                              "left": [], "right": [], "weight": []} for p in doc["params"])
    loaded = db.load(path)
    assert loaded.predict([0.1, 0.2]) == (1.5, 2.0)


def test_two_param_blocks_in_index_order(tmp_path):
    model = _trained_model(n_params=2)
    path = str(tmp_path / "m.json")
    db.save(model, path)
    doc = json.loads(open(path).read())
    assert doc["format_version"] == 2
    assert [p["name"] for p in doc["params"]] == ["beta", "gamma"]
    for block, param in zip(doc["params"], model.params):
        trees = block["trees"]
        assert trees["size"] == [t.n_nodes for t, _ in param.trees]
        assert all(len(trees[key]) == sum(trees["size"])
                   for key in ("feature", "threshold", "left", "right", "weight"))


def test_unknown_format_version_is_a_version_error(tmp_path):
    model = _trained_model()
    doc = model_io.model_to_dict(model)
    doc["format_version"] = 99
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="format_version"):
        db.load(str(path))
    # the per-node layout of version 1 has no reader
    doc["format_version"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError,
                       match="unsupported format_version 1; this build reads 2"):
        db.load(str(path))


def _one_tree_doc(feature, left, right):
    """A squared-error model whose one tree has the given columns."""
    n = len(feature)
    return {
        "format_version": 2,
        "loss_name": "squared_error",
        "nuisance": {},
        "feature_names": ["x1"],
        "params": [{
            "name": "theta",
            "base_value": 0.0,
            "domain": {"lo": -1.0, "hi": 1.0},
            "trees": {"eta": [0.1], "size": [n], "feature": feature,
                      "threshold": [0.5] * n, "left": left, "right": right,
                      "weight": [1.0] * n},
        }],
    }


def test_cycle_in_nodes_rejected(tmp_path):
    # node 0 is its own left child
    doc = _one_tree_doc([0, -1], [0, -1], [1, -1])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="twice|cycle"):
        db.load(str(path))


def test_structure_errors_name_parameter_tree_and_local_node(tmp_path):
    doc = model_io.model_to_dict(_trained_model(n_params=2))
    trees = doc["params"][1]["trees"]
    k = max(k for k, size in enumerate(trees["size"]) if size > 1)
    start = sum(trees["size"][:k])
    assert trees["feature"][start] >= 0
    trees["right"][start] = trees["left"][start]
    with pytest.raises(ModelFormatError, match=(
            rf"params\[1\]\.trees: tree {k} node {trees['left'][start]} is listed twice")):
        db.load(_write(tmp_path, doc))


def test_models_built_in_memory_are_validated():
    wide = db.RegressionTree([1, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1],
                             [0.0, 1.0, 2.0])
    with pytest.raises(ValidationError, match=r"params\[0\]\.trees: tree 0 node 0 "
                                              "splits on unknown feature"):
        db.BoostedModel("squared_error", {}, ("x1",), [
            db.ParamEnsemble("theta", 0.0, db.ParameterDomain(-1.0, 1.0), [(wide, 0.1)])])
    leaf = db.RegressionTree([-1], [0.0], [-1], [-1], [1.0])
    with pytest.raises(ValidationError, match=r"params\[0\]\.trees: tree 1 eta must lie "
                                              r"in \(0, 1\], got 1.5"):
        db.BoostedModel("squared_error", {}, ("x1",), [
            db.ParamEnsemble("theta", 0.0, db.ParameterDomain(-1.0, 1.0),
                             [(leaf, 0.1), (leaf, 1.5)])])


def test_unknown_loss_name_rejected(tmp_path):
    doc = _one_tree_doc([-1], [-1], [-1])
    doc["loss_name"] = "mystery"
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="unknown loss_name"):
        db.load(str(path))


def test_parse_failure_is_format_error(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("not json {")
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        db.load(str(path))


def test_unknown_keys_rejected(tmp_path):
    model = _trained_model()
    doc = model_io.model_to_dict(model)
    doc["surprise"] = 1
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="unknown key"):
        db.load(str(path))


def test_every_float_survives_text_round_trip(tmp_path):
    model = _trained_model()
    path = str(tmp_path / "m.json")
    db.save(model, path)
    loaded = db.load(path)
    for orig, back in zip(model.params, loaded.params):
        assert back.base_value == orig.base_value
        assert (back.domain.lo, back.domain.hi) == (orig.domain.lo, orig.domain.hi)
        for (t1, e1), (t2, e2) in zip(orig.trees, back.trees):
            assert e1 == e2
            assert np.array_equal(t1.threshold, t2.threshold)
            assert np.array_equal(t1.weight, t2.weight)
            assert np.array_equal(t1.feature, t2.feature)


def _write(tmp_path, doc):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_param_blocks_must_match_the_loss(tmp_path):
    doc = model_io.model_to_dict(_trained_model(n_params=2))
    one_block = dict(doc, params=doc["params"][:1])
    with pytest.raises(ModelFormatError, match="beta, gamma"):
        db.load(_write(tmp_path, one_block))
    swapped = dict(doc, params=doc["params"][::-1])
    with pytest.raises(ModelFormatError, match="beta, gamma"):
        db.load(_write(tmp_path, swapped))


@pytest.mark.parametrize("nuisance", [{}, {"alpha": -1.0}, {"alpha": "x"},
                                      {"alpha": 5.0, "beta": 1.0}, [5.0]])
def test_nuisance_must_build_the_loss(tmp_path, nuisance):
    doc = model_io.model_to_dict(_trained_model())
    doc["nuisance"] = nuisance
    with pytest.raises(ModelFormatError, match="nuisance"):
        db.load(_write(tmp_path, doc))


@pytest.mark.parametrize("value", ["x", None, [5.0], float("inf")])
def test_save_names_a_nuisance_value_that_is_not_a_number(tmp_path, value):
    model = db.BoostedModel("gamma", {"alpha": value}, ("x1",), [
        db.ParamEnsemble("mu", 1.0, db.ParameterDomain(0.5, 2.0), [])])
    path = tmp_path / "m.json"
    with pytest.raises(ModelFormatError, match=r"^model\.nuisance\.alpha: expected a finite "):
        db.save(model, str(path))
    assert not path.exists()


@pytest.mark.parametrize("n_params,j,lo,loss", [(1, 0, -5.0, "gamma"), (2, 1, 0.0, "negbin")])
def test_domain_reaching_zero_rejected_for_a_positive_parameter(tmp_path, n_params, j, lo, loss):
    doc = model_io.model_to_dict(_trained_model(n_params))
    doc["params"][j]["domain"] = {"lo": lo, "hi": 1.0}
    doc["params"][j]["base_value"] = -3.0
    with pytest.raises(ModelFormatError, match=rf"params\[{j}\]\.domain: \[{lo}, 1\.0\] "
                                               rf"must stay above 0 for '{loss}'"):
        db.load(_write(tmp_path, doc))


def test_squared_error_domain_may_span_zero(tmp_path):
    model = db.BoostedModel("squared_error", {}, ("x1",), [
        db.ParamEnsemble("theta", -3.0, db.ParameterDomain(-5.0, 1.0), [])])
    assert db.load(_write(tmp_path, model_io.model_to_dict(model))).predict([0.5]) == (-3.0,)


def test_model_keeps_its_own_copy_of_the_trees():
    stump = db.RegressionTree([0, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1],
                              [0.0, -1.0, 1.0])
    trees = [(stump, 0.5)]
    block = db.ParamEnsemble("theta", 0.0, db.ParameterDomain(-10.0, 10.0), trees)
    model = db.BoostedModel("squared_error", {}, ("x1",), [block])
    X = np.array([[0.1], [0.9]])
    text = model_io.dumps(model)
    trees.append((stump, 0.5))
    with pytest.raises(dataclasses.FrozenInstanceError):
        block.trees = trees
    assert model.predict([0.9]) == (0.5,)
    assert model_io.dumps(model) == text
    assert model_io.model_from_dict(json.loads(text)).predict([0.9]) == (0.5,)
    assert np.array_equal(model.predict_many(X), [[-0.5], [0.5]])


def _stump_model(loss_name, nuisance, names, domain, features):
    """A model with one stump on feature 0 per parameter, or None where it does not build."""
    stump = db.RegressionTree([0, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1],
                              [0.0, -0.1, 0.1])
    try:
        return db.BoostedModel(loss_name, nuisance, features, [
            db.ParamEnsemble(name, 0.5, db.ParameterDomain(*domain), [(stump, 0.1)])
            for name in names])
    except ValidationError:
        return None


def test_save_writes_exactly_the_models_load_reads(tmp_path):
    path = tmp_path / "m.json"
    previous = b"a model file that a failed save must leave alone\n"
    X = np.random.default_rng(0).random((50, 2))
    saved = rejected = 0
    for loss_name, nuisance, names, domain, features in itertools.product(
            ("squared_error", "gamma", "zip", "negbin", "mystery"),
            ({}, {"alpha": 0.5}, {"alpha": 5.0}),
            (("theta",), ("mu",), ("beta", "gamma"), ("gamma", "beta")),
            ((-5.0, 1.0), (0.0, 1.0), (0.25, 4.0)),
            (("x1",), ("x1", "x2"), ("x1", "x1"), ())):
        model = _stump_model(loss_name, nuisance, names, domain, features)
        if model is None:
            continue
        path.write_bytes(previous)
        try:
            db.save(model, str(path))
        except ModelFormatError:
            assert path.read_bytes() == previous
            rejected += 1
            continue
        loaded = db.load(str(path))
        assert path.read_bytes() == model_io.dumps(loaded).encode("utf-8")
        width = len(features)
        assert np.array_equal(loaded.predict_many(X[:, :width]), model.predict_many(X[:, :width]))
        saved += 1
    # repeated or missing feature names never build a model
    assert (saved, rejected) == (14, 346)


def test_a_custom_loss_trains_and_scores_in_memory_but_is_not_saved(tmp_path):
    class HalfSquared(db.squared_error):
        name = "half_squared"

    rng = np.random.default_rng(1)
    X = rng.random((200, 2))
    ds = db.Dataset(X, np.where(X[:, 0] < 0.5, -1.0, 2.0) + rng.normal(0.0, 0.1, 200))
    loss = HalfSquared()
    model = db.train(ds, loss, [db.ParamTrainConfig(tree=db.TreeParams(max_depth=2))],
                     10).model
    assert model.predict_many(X).shape == (200, 1)
    assert np.isfinite(db.nll_score(model, loss, ds).mean_nll)
    path = tmp_path / "m.json"
    path.write_bytes(b"old\n")
    with pytest.raises(ModelFormatError, match="unknown loss_name 'half_squared'"):
        db.save(model, str(path))
    assert path.read_bytes() == b"old\n"


@pytest.mark.parametrize("features", [["x1", "x1"], []])
def test_feature_names_must_be_nonempty_and_distinct(tmp_path, features):
    doc = _one_tree_doc([-1], [-1], [-1])
    doc["feature_names"] = features
    with pytest.raises(ModelFormatError, match="feature_names must be nonempty and distinct"):
        db.load(_write(tmp_path, doc))
    with pytest.raises(ValidationError, match="feature_names must be nonempty and distinct"):
        db.BoostedModel("squared_error", {}, features, [
            db.ParamEnsemble("theta", 0.0, db.ParameterDomain(-1.0, 1.0), [])])
