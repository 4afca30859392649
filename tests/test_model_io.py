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
