import numpy as np
import pytest

import distboost as db
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
    cfg = db.ParamTrainConfig(eta=0.1, clip_m=1e6,
                              tree=db.TreeParams(max_depth=3, lambda_reg=1.0))
    res = db.train(ds, loss, [cfg], 40)
    assert not res.clamped.any()
    report = db.nll_score(res.model, loss, ds)
    assert report.total_nll == pytest.approx(res.trace[-1].train_nll, rel=1e-9)


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


def test_compare_ranks_and_ties():
    r1 = db.EvalReport("model-b", "ds|n=5|abc", 10.0, 2.0, 5)
    r2 = db.EvalReport("model-a", "ds|n=5|abc", 9.5, 1.9, 5)
    ranked = db.compare([r1, r2])
    assert [e.report.model_id for e in ranked] == ["model-a", "model-b"]
    assert [e.rank for e in ranked] == [1, 2]
    assert not any(e.tied for e in ranked)

    r3 = db.EvalReport("model-c", "ds|n=5|abc", 10.0, 2.0, 5)
    ranked2 = db.compare([r1, r3, r2])
    assert [e.report.model_id for e in ranked2] == ["model-a", "model-b", "model-c"]
    assert ranked2[1].tied and ranked2[2].tied
    assert not ranked2[0].tied


def test_compare_rejects_different_datasets():
    r1 = db.EvalReport("a", "ds1|n=5|x", 10.0, 2.0, 5)
    r2 = db.EvalReport("b", "ds2|n=5|y", 9.0, 1.8, 5)
    with pytest.raises(ValidationError, match="different datasets"):
        db.compare([r1, r2])
