import hashlib

import numpy as np
import pytest

import distboost as db
from distboost import model_io
from distboost.errors import NumericError, ValidationError


def _constant_model(loss, ds):
    base = loss.mle_init(ds)
    domains = loss.default_domains(ds)
    return db.BoostedModel(loss.name, loss.nuisance, ds.feature_names, [
        db.ParamEnsemble(name, value, dom, [])
        for name, value, dom in zip(loss.param_names, base, domains)])


def test_zero_tree_model_scores_constant_nll():
    ds = db.generate_synthetic("gamma", 300, 1,
                               lambda X: {"mu": 4.0, "alpha": 5.0})
    loss = db.gamma_nll(5.0)
    model = _constant_model(loss, ds)
    report = db.nll_score(model, loss, ds)
    mu0 = loss.mle_init(ds)[0]
    expected = float(np.sum(loss.value((mu0,), ds.response)))
    assert report.total_nll == pytest.approx(expected, rel=1e-12)
    assert report.n == 300
    assert report.total_nll == pytest.approx(report.mean_nll * report.n, rel=1e-9)
    # the default model identity is the sha256 of the model file's text
    text = model_io.dumps(model).encode("utf-8")
    assert report.model_id == hashlib.sha256(text).hexdigest()


def test_single_row_total_equals_mean():
    ds = db.Dataset([[0.0]], [3.0])
    loss = db.squared_error()
    report = db.nll_score(_constant_model(loss, ds), loss, ds)
    assert report.total_nll == report.mean_nll


def test_trained_model_beats_constant_on_signal():
    ds = db.generate_synthetic(
        "zip", 4000, 2, lambda X: {"mu": np.where(X[:, 0] < 0.5, 0.4, 3.0),
                                   "alpha": 0.5})
    main, hold = db.split_holdout(ds, 0.25, 7)
    loss = db.zip_nll(0.5)
    cfg = db.ParamTrainConfig(eta=0.1, tree=db.TreeParams(max_depth=3))
    res = db.train(main, loss, [cfg], 100)
    trained = db.nll_score(res.model, loss, hold, model_id="trained")
    constant = db.nll_score(_constant_model(loss, main), loss, hold,
                            model_id="constant")
    assert trained.total_nll < constant.total_nll


def test_training_trace_matches_nll_score_replay():
    ds = db.generate_synthetic("gamma", 200, 3,
                               lambda X: {"mu": np.where(X[:, 0] < 0.5, 2.0, 5.0),
                                          "alpha": 2.0})
    loss = db.gamma_nll(2.0)
    # the default domain never binds; [2.5, 4.5] clamps both groups of rows
    for domain, clamps in ((None, False), (db.ParameterDomain(2.5, 4.5), True)):
        cfg = db.ParamTrainConfig(eta=0.1, clip_m=1e6, domain=domain,
                                  tree=db.TreeParams(max_depth=3, lambda_reg=1.0))
        res = db.train(ds, loss, [cfg], 40)
        assert res.clamped.any() == clamps
        report = db.nll_score(res.model, loss, ds)
        assert report.total_nll == res.trace[-1].train_nll


@pytest.mark.parametrize("col", ["exposure", "adjustment"])
@pytest.mark.parametrize("loss", [db.squared_error(), db.gamma_nll(2.0), db.zip_nll(0.5)],
                         ids=lambda loss: loss.name)
def test_losses_refuse_a_column_they_do_not_read(loss, col):
    ones = db.Dataset([[0.0], [1.0]], [1.0, 2.0], **{col: [1.0, 1.0]})
    other = db.Dataset([[0.0], [1.0]], [1.0, 2.0], **{col: [0.1, 5.0]})
    model = _constant_model(loss, ones)
    cfg = [db.ParamTrainConfig(tree=db.TreeParams(max_depth=1))]
    db.train(ones, loss, cfg, 1)
    db.nll_score(model, loss, ones)
    message = f"loss '{loss.name}' does not read {col}"
    with pytest.raises(ValidationError, match=message):
        db.train(other, loss, cfg, 1)
    with pytest.raises(ValidationError, match=message):
        db.nll_score(model, loss, other)


def test_negbin_reads_exposure_and_adjustment():
    ds = db.generate_synthetic("negbin", 200, 5, lambda X: {"beta": 1.0, "gamma": 2.0},
                               exposure_choices=[0.1, 5.0], adjustment_choices=[0.5, 2.0])
    loss = db.negbin_nll()
    res = db.train(ds, loss, [db.ParamTrainConfig(), db.ParamTrainConfig()], 2)
    assert db.nll_score(res.model, loss, ds).total_nll == res.trace[-1].train_nll


def test_count_losses_have_nonnegative_per_sample_nll():
    for dist, loss in [("zip", db.zip_nll(0.5)), ("negbin", db.negbin_nll())]:
        ds = db.generate_synthetic(dist, 500, 4,
                                   (lambda X: {"mu": 1.5, "alpha": 0.5})
                                   if dist == "zip"
                                   else (lambda X: {"beta": 1.0, "gamma": 2.0}))
        model = _constant_model(loss, ds)
        theta = model.predict_many(ds.features)
        values = loss.value([theta[:, j] for j in range(loss.n_params)],
                            ds.response, ds.exposure, ds.adjustment)
        assert np.all(np.asarray(values) >= 0.0)


def test_nll_score_rejects_loss_mismatch():
    ds = db.Dataset([[0.0]], [1.0])
    gamma_model = _constant_model(db.gamma_nll(5.0), ds)
    with pytest.raises(ValidationError, match="does not match"):
        db.nll_score(gamma_model, db.squared_error(), ds)
    with pytest.raises(ValidationError, match="nuisance"):
        db.nll_score(gamma_model, db.gamma_nll(2.0), ds)


def test_nll_score_rejects_other_feature_order():
    ds = db.Dataset([[0.0, 1.0]], [1.0], feature_names=("x1", "x2"))
    model = _constant_model(db.squared_error(), ds)
    swapped = db.Dataset([[1.0, 0.0]], [1.0], feature_names=("x2", "x1"))
    with pytest.raises(ValidationError, match="features"):
        db.nll_score(model, db.squared_error(), swapped)


def test_nll_score_reports_nonfinite_row():
    ds = db.Dataset([[0.0], [1.0]], [1.0, 8.0])
    model = db.BoostedModel("squared_error", {}, ("x1",), [
        db.ParamEnsemble("theta", 1e9, db.ParameterDomain(-2e9, 2e9), [])])

    class Overflow(db.Loss):
        name = "squared_error"
        param_names = ("theta",)

        def value(self, theta, y, exposure=1.0, adjustment=1.0):
            out = np.asarray(theta[0]) - np.asarray(y, dtype=np.float64)
            return np.where(out > 0, np.inf, out)

    with pytest.raises(NumericError, match="row 0"):
        db.nll_score(model, Overflow(), ds)
