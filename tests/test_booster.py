import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distboost as db
from distboost.errors import NumericError, TrainingError, ValidationError

import oracles


# ---------------------------------------------------------------------------
# scalar statistic adjustments

def test_clip_gradient_band():
    assert db.clip_gradient(250.0, 100.0) == 100.0
    assert db.clip_gradient(-50.0, 100.0) == -50.0
    assert db.clip_gradient(-250.0, 100.0) == -100.0
    assert db.clip_gradient(float("inf"), 100.0) == 100.0
    assert db.clip_gradient(float("-inf"), 100.0) == -100.0
    assert db.clip_gradient(float("nan"), 100.0) == 100.0


def test_clip_gradient_rejects_bad_threshold():
    for m in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValidationError):
            db.clip_gradient(1.0, m)


@settings(max_examples=200, deadline=None)
@given(g=st.floats(allow_nan=True, allow_infinity=True),
       m=st.floats(1e-6, 1e12))
def test_clip_gradient_always_lands_in_band(g, m):
    out = db.clip_gradient(g, m)
    assert -m <= out <= m
    assert db.clip_gradient(out, m) == out  # idempotent


def test_effective_hessian():
    assert db.effective_hessian(-0.01) == 0.0
    assert db.effective_hessian(2.0) == 2.0
    assert db.effective_hessian(float("nan")) == 0.0
    assert db.effective_hessian(float("inf")) == 0.0
    assert db.effective_hessian(0.0) == 0.0


def test_clamp_to_domain():
    dom = db.ParameterDomain(0.01, 1000.0)
    assert db.clamp_to_domain(1200.0, dom) == 1000.0
    assert db.clamp_to_domain(5.0, dom) == 5.0
    assert db.clamp_to_domain(-3.0, dom) == 0.01


@settings(max_examples=200, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=True),
       lo=st.floats(-1e9, 1e9), width=st.floats(1e-6, 1e9))
def test_clamp_always_lands_inside(x, lo, width):
    dom = db.ParameterDomain(lo, lo + width)
    out = db.clamp_to_domain(x, dom)
    assert dom.lo <= out <= dom.hi


# ---------------------------------------------------------------------------
# config validation

def test_config_validation():
    db.ParamTrainConfig()
    with pytest.raises(ValidationError):
        db.ParamTrainConfig(eta=0.0)
    with pytest.raises(ValidationError):
        db.ParamTrainConfig(eta=1.5)
    with pytest.raises(ValidationError):
        db.ParamTrainConfig(clip_m=0.0)
    with pytest.raises(ValidationError):
        db.ParamTrainConfig(interval=0)
    with pytest.raises(ValidationError):
        db.ParamTrainConfig(offset=-1)
    # a = 0 with lambda_reg = 0 is a rule of the loss, checked when train starts
    cfg = db.ParamTrainConfig(tree=db.TreeParams(a=0.0, lambda_reg=0.0))
    with pytest.raises(ValidationError, match="parameter 'theta': lambda_reg = 0"):
        db.train(db.Dataset([[0.0]], [4.0]), db.squared_error(), [cfg], 1)


def test_train_rejects_arity_mismatch():
    ds = db.Dataset([[0.0]], [4.0])
    with pytest.raises(ValidationError, match="config blocks"):
        db.train(ds, db.negbin_nll(), [db.ParamTrainConfig()], 1)


def _count_build_tree(monkeypatch):
    from distboost import booster
    calls = []
    original = booster.build_tree

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(booster, "build_tree", counting)
    return calls


def _gamma_ds():
    return db.generate_synthetic("gamma", 200, 7,
                                 lambda X: {"mu": np.where(X[:, 0] < 0.5, 2.0, 6.0),
                                            "alpha": 5.0})


def _zip_ds():
    return db.generate_synthetic("zip", 200, 7,
                                 lambda X: {"mu": np.where(X[:, 0] < 0.5, 0.5, 2.0),
                                            "alpha": 0.5})


@pytest.mark.parametrize("loss,ds,lo", [(db.gamma_nll(5.0), _gamma_ds(), -5.0),
                                        (db.zip_nll(0.5), _zip_ds(), -1.0)],
                         ids=["gamma", "zip"])
def test_domain_reaching_zero_rejected_before_the_first_tree(monkeypatch, loss, ds, lo):
    calls = _count_build_tree(monkeypatch)
    db.train(ds, loss, [db.ParamTrainConfig(domain=db.ParameterDomain(1e-3, 50.0))], 1)
    assert calls == [1]
    calls.clear()
    cfg = db.ParamTrainConfig(domain=db.ParameterDomain(lo, 50.0))
    with pytest.raises(ValidationError,
                       match=rf"parameter 'mu': domain \[{lo}, 50.0\] must stay above 0"):
        db.train(ds, loss, [cfg], 5)
    assert calls == []


def test_squared_error_domain_may_span_zero():
    ds = db.Dataset([[0.0], [1.0]], [-1.0, 1.0])
    cfg = db.ParamTrainConfig(domain=db.ParameterDomain(-5.0, 5.0))
    assert len(db.train(ds, db.squared_error(), [cfg], 2).trace) == 2


@pytest.mark.parametrize("loss,ds,base", [
    (db.gamma_nll(5.0), _gamma_ds(), (50.0,)),
    (db.zip_nll(0.5), _zip_ds(), (None,)),
    (db.negbin_nll(), db.generate_synthetic("negbin", 200, 7,
                                            lambda X: {"beta": 1.0, "gamma": 2.0}),
     (None, None)),
], ids=["gamma", "zip", "negbin"])
def test_lambda_zero_rejected_before_the_first_tree_unless_hessian_positive(
        monkeypatch, loss, ds, base):
    # gamma from mu = 50 starts where its curvature is negative on every row:
    # with lambda_reg = 0 each leaf's denominator would be 0 in round 1
    calls = _count_build_tree(monkeypatch)
    cfgs = [db.ParamTrainConfig(base_value=b, tree=db.TreeParams(lambda_reg=0.0))
            for b in base]
    name = loss.param_names[0]
    with pytest.raises(ValidationError, match=rf"parameter '{name}': lambda_reg = 0 "
                                              rf"needs a > 0 and a loss whose hessian"):
        db.train(ds, loss, cfgs, 5)
    assert calls == []


# ---------------------------------------------------------------------------
# single Newton step solves a quadratic exactly

def test_squared_error_one_round_newton_exact():
    ds = db.Dataset([[0.0]], [4.0])
    cfg = db.ParamTrainConfig(
        eta=1.0, base_value=0.0,
        tree=db.TreeParams(gamma_reg=0.0, lambda_reg=0.0, a=0.5, max_depth=1))
    res = db.train(ds, db.squared_error(), [cfg], 1)
    tree, eta = res.model.params[0].trees[0]
    assert tree.n_leaves == 1
    assert float(tree.weight[tree.root]) == 4.0
    assert res.model.predict([0.0]) == (4.0,)
    assert res.trace[-1].train_nll == 0.0


# ---------------------------------------------------------------------------
# the single-sample divergence scenario: positive gradient with negative
# curvature makes the raw second-order step move away; the clipped step
# descends to the optimum

def test_gamma_counterexample_converges_where_raw_newton_diverges():
    lam = 0.005
    loss = db.gamma_nll(5.0)
    g0 = float(loss.grad(0, (10.0,), 4.0))
    h0 = float(loss.hess(0, (10.0,), 4.0))
    assert g0 == pytest.approx(0.3, abs=1e-14)
    assert h0 == pytest.approx(-0.01, abs=1e-14)
    raw_step = -g0 / (h0 + lam)
    assert raw_step == pytest.approx(60.0, rel=1e-12)  # moves AWAY from y=4

    ds = db.Dataset([[0.0]], [4.0])
    cfg = db.ParamTrainConfig(
        eta=0.1, clip_m=1e6, base_value=10.0,
        tree=db.TreeParams(gamma_reg=0.0, lambda_reg=lam, a=0.5, max_depth=1))
    res = db.train(ds, loss, [cfg], 500)
    assert abs(res.final_theta[0, 0] - 4.0) < 0.01
    trail = np.array([r.train_nll for r in res.trace])
    assert np.all(np.diff(trail) <= 1e-9)


# ---------------------------------------------------------------------------
# small-eta descent for every built-in loss

def _descent_cases():
    return [
        (db.squared_error(), db.generate_synthetic(
            "gamma", 200, 1, lambda X: {"mu": np.where(X[:, 0] < 0.5, 2.0, 6.0),
                                        "alpha": 2.0})),
        (db.gamma_nll(2.0), db.generate_synthetic(
            "gamma", 200, 2, lambda X: {"mu": np.where(X[:, 0] < 0.5, 2.0, 6.0),
                                        "alpha": 2.0})),
        (db.zip_nll(0.5), db.generate_synthetic(
            "zip", 200, 3, lambda X: {"mu": np.where(X[:, 1] < 0.5, 0.5, 3.0),
                                      "alpha": 0.5})),
        (db.negbin_nll(), db.generate_synthetic(
            "negbin", 200, 4, lambda X: {"beta": 1.0,
                                         "gamma": np.where(X[:, 0] < 0.5, 1.0, 3.0)},
            exposure_choices=[0.5, 1.0, 2.0])),
    ]


@pytest.mark.parametrize("loss,ds", _descent_cases(), ids=lambda v: getattr(v, "name", ""))
def test_small_eta_trace_is_nonincreasing(loss, ds):
    cfgs = [db.ParamTrainConfig(eta=0.01, clip_m=1e6,
                                tree=db.TreeParams(max_depth=3, lambda_reg=1.0))
            for _ in range(loss.n_params)]
    res = db.train(ds, loss, cfgs, 60)
    trail = np.array([res.initial_nll] + [r.train_nll for r in res.trace])
    assert np.all(np.diff(trail) <= 1e-9)


# ---------------------------------------------------------------------------
# classic-mode equivalence against the straight-line reference booster

def test_classic_boosting_equivalence():
    rng = np.random.default_rng(99)
    for trial in range(3):
        n = 50
        X = rng.random((n, 2))
        y = np.sin(6.0 * X[:, 0]) + rng.normal(0, 0.1, n)
        ds = db.Dataset(X, y)
        eta, lam, greg, depth, rounds = 0.5, 1.0, 0.01, 3, 4
        base = float(np.mean(y))
        cfg = db.ParamTrainConfig(
            eta=eta, clip_m=1e12,
            tree=db.TreeParams(gamma_reg=greg, lambda_reg=lam, a=0.5,
                               max_depth=depth))
        res = db.train(ds, db.squared_error(), [cfg], rounds)
        ref_trees, ref_pred = oracles.classic_boost_squared_error(
            X, y, base, eta, rounds, lam, greg, depth)
        engine_pred = res.model.predict_many(X)[:, 0]
        assert np.all(np.abs(engine_pred - ref_pred) <= 1e-12 * np.maximum(
            1.0, np.abs(ref_pred)))
        for (tree, _), ref in zip(res.model.params[0].trees, ref_trees):
            assert _trees_equal(tree, ref)


def _trees_equal(tree, ref, nid=0):
    if "leaf" in ref:
        return tree.feature[nid] < 0 and \
            abs(tree.weight[nid] - ref["leaf"]) <= 1e-12 * max(1.0, abs(ref["leaf"]))
    return (tree.feature[nid] == ref["feature"]
            and tree.threshold[nid] == ref["threshold"]
            and _trees_equal(tree, ref["left"], int(tree.left[nid]))
            and _trees_equal(tree, ref["right"], int(tree.right[nid])))


# ---------------------------------------------------------------------------
# guards: clipping, clamping, and their bookkeeping

def test_tight_clipping_and_narrow_domain_guards():
    ds = db.generate_synthetic("gamma", 300, 6,
                               lambda X: {"mu": np.where(X[:, 0] < 0.5, 3.0, 6.0),
                                          "alpha": 5.0})
    cfg = db.ParamTrainConfig(
        eta=0.5, clip_m=0.5, domain=db.ParameterDomain(3.5, 5.5),
        tree=db.TreeParams(lambda_reg=0.1, max_depth=2))
    res = db.train(ds, db.gamma_nll(5.0), [cfg], 40)
    for rec in res.trace:
        if rec.active[0]:
            assert rec.max_abs_grad[0] <= 0.5
    assert np.all(res.final_theta[:, 0] >= 3.5)
    assert np.all(res.final_theta[:, 0] <= 5.5)
    assert res.clamped.any()  # the narrow domain actually binds
    preds = res.model.predict_many(ds.features)
    assert np.all((preds >= 3.5) & (preds <= 5.5))


def _replay_fit(case):
    """The data and training result of one replay case: a gamma fit whose
    domain never binds, AC-7's narrow gamma domain, or both negbin
    parameters in narrow domains on AC-8's data."""
    if case == "no_clamp":
        ds = db.generate_synthetic("gamma", 150, 8,
                                   lambda X: {"mu": np.where(X[:, 0] < 0.5, 2.0, 5.0),
                                              "alpha": 2.0})
        cfg = db.ParamTrainConfig(eta=0.1, clip_m=1e6,
                                  tree=db.TreeParams(lambda_reg=1.0, max_depth=3))
        return ds, db.train(ds, db.gamma_nll(2.0), [cfg], 50)
    if case == "ac7":
        ds = db.generate_synthetic("gamma", 500, 17,
                                   lambda X: {"mu": np.where(X[:, 0] < 0.5, 3.0, 6.0),
                                              "alpha": 5.0})
        cfg = db.ParamTrainConfig(eta=0.5, clip_m=0.5, domain=db.ParameterDomain(3.5, 5.5),
                                  tree=db.TreeParams(lambda_reg=0.1, max_depth=2))
        return ds, db.train(ds, db.gamma_nll(5.0), [cfg], 50)
    ds = db.generate_synthetic("negbin", 1500, 18,
                               lambda X: {"beta": np.where(X[:, 0] < 0.5, 1.0, 2.0),
                                          "gamma": 2.0},
                               exposure_choices=[0.5, 1.0, 2.0])
    cfgs = [db.ParamTrainConfig(eta=0.1, domain=db.ParameterDomain(lo, hi),
                                tree=db.TreeParams(max_depth=3))
            for lo, hi in ((0.8, 1.6), (1.5, 3.0))]
    return ds, db.train(ds, db.negbin_nll(), cfgs, 60)


@pytest.mark.parametrize("case", ["no_clamp", "ac7", "nb_narrow"])
def test_saved_model_replays_the_training_path(case):
    # the model clamps the tree sum once, as training does, so it predicts
    # every training row bitwise, rows whose sum left the domain included
    ds, res = _replay_fit(case)
    assert res.clamped.any() == (case != "no_clamp")
    preds = res.model.predict_many(ds.features)
    assert np.array_equal(preds, res.final_theta)


# ---------------------------------------------------------------------------
# schedules

def test_interval_offset_and_round_caps():
    ds = db.generate_synthetic("negbin", 200, 5,
                               lambda X: {"beta": 1.0, "gamma": 2.0})
    cfgs = [
        db.ParamTrainConfig(eta=0.1, interval=2, offset=0,
                            tree=db.TreeParams(max_depth=2)),
        db.ParamTrainConfig(eta=0.1, interval=3, offset=1, rounds=2,
                            tree=db.TreeParams(max_depth=2)),
    ]
    res = db.train(ds, db.negbin_nll(), cfgs, 10)
    # active on rounds (1-based): param0 on odd t; param1 on t in {2,5} (cap 2)
    expected0 = [t % 2 == 1 for t in range(1, 11)]
    expected1 = [t in (2, 5) for t in range(1, 11)]
    assert [r.active[0] for r in res.trace] == expected0
    assert [r.active[1] for r in res.trace] == expected1
    assert len(res.model.params[0].trees) == 5
    assert len(res.model.params[1].trees) == 2


def test_zero_rounds_gives_base_model():
    ds = db.Dataset([[0.0], [1.0]], [2.0, 6.0])
    res = db.train(ds, db.squared_error(), [db.ParamTrainConfig()], 0)
    assert res.trace == []
    assert res.model.predict([0.5]) == (4.0,)


# ---------------------------------------------------------------------------
# determinism

def test_training_is_bit_deterministic():
    from distboost import model_io
    ds = db.generate_synthetic("zip", 400, 10,
                               lambda X: {"mu": np.where(X[:, 0] < 0.5, 0.5, 2.0),
                                          "alpha": 0.5})
    cfg = db.ParamTrainConfig(eta=0.1, tree=db.TreeParams(max_depth=3))
    a = db.train(ds, db.zip_nll(0.5), [cfg], 30)
    b = db.train(ds, db.zip_nll(0.5), [cfg], 30)
    assert model_io.dumps(a.model) == model_io.dumps(b.model)
    assert np.array_equal(a.final_theta, b.final_theta)


# ---------------------------------------------------------------------------
# abort on non-finite loss

class _BlowupLoss(db.Loss):
    name = "blowup"
    param_names = ("theta",)
    hess_positive = True

    def value(self, theta, y, exposure=1.0, adjustment=1.0):
        th = np.asarray(theta[0], dtype=np.float64)
        out = 0.5 * (th - np.asarray(y, dtype=np.float64)) ** 2
        return np.where(th > 2.0, np.inf, out)

    def grad(self, j, theta, y, exposure=1.0, adjustment=1.0):
        return np.asarray(theta[0], dtype=np.float64) - np.asarray(y, dtype=np.float64)

    def hess(self, j, theta, y, exposure=1.0, adjustment=1.0):
        th = np.asarray(theta[0], dtype=np.float64)
        return np.ones(np.broadcast(th, np.asarray(y)).shape)

    def mle_init(self, ds):
        return (0.0,)

    def default_domains(self, ds=None):
        return (db.ParameterDomain(-10.0, 10.0),)


def test_nonfinite_loss_aborts_with_round_index():
    ds = db.Dataset([[0.0]], [8.0])
    cfg = db.ParamTrainConfig(eta=1.0, tree=db.TreeParams(lambda_reg=0.0, a=0.5,
                                                          max_depth=1))
    with pytest.raises(TrainingError) as err:
        db.train(ds, _BlowupLoss(), [cfg], 5)
    assert err.value.round_index == 1


def test_nonfinite_start_rejected():
    ds = db.Dataset([[0.0]], [8.0])
    cfg = db.ParamTrainConfig(eta=0.1, base_value=3.0,
                              tree=db.TreeParams(max_depth=1))
    with pytest.raises(NumericError, match="start point"):
        db.train(ds, _BlowupLoss(), [cfg], 5)


# ---------------------------------------------------------------------------
# prediction surface

def test_predict_composition_and_clamp():
    t1 = db.RegressionTree([-1], [0.0], [-1], [-1], [1.0])
    t2 = db.RegressionTree([-1], [0.0], [-1], [-1], [2.0])
    model = db.BoostedModel("squared_error", {}, ("x1",), [
        db.ParamEnsemble("theta", 0.0, db.ParameterDomain(-10.0, 10.0),
                         [(t1, 0.5), (t2, 0.5)])])
    assert model.predict([0.3]) == (1.5,)
    narrow = db.BoostedModel("squared_error", {}, ("x1",), [
        db.ParamEnsemble("theta", 0.0, db.ParameterDomain(-1.0, 1.0),
                         [(t1, 0.5), (t2, 0.5)])])
    assert narrow.predict([0.3]) == (1.0,)


def test_predict_rejects_arity_mismatch():
    model = db.BoostedModel("squared_error", {}, ("x1", "x2"), [
        db.ParamEnsemble("theta", 0.0, db.ParameterDomain(-1.0, 1.0), [])])
    with pytest.raises(ValidationError, match="expected 2 features"):
        model.predict([1.0])
    with pytest.raises(ValidationError, match="^X must be 2-D$"):
        model.predict_many([1.0, 2.0])


def test_statistic_adjustments_are_elementwise():
    g = np.array([250.0, -50.0, -250.0, np.inf, -np.inf, np.nan])
    assert np.array_equal(db.clip_gradient(g, 100.0),
                          [db.clip_gradient(v, 100.0) for v in g])
    h = np.array([-0.01, 2.0, np.nan, np.inf, 0.0])
    assert np.array_equal(db.effective_hessian(h), [db.effective_hessian(v) for v in h])
    dom = db.ParameterDomain(0.01, 1000.0)
    t = np.array([1200.0, 5.0, -3.0])
    assert np.array_equal(db.clamp_to_domain(t, dom), [db.clamp_to_domain(v, dom) for v in t])
    assert type(db.clip_gradient(1.0, 2.0)) is float


def _assert_batch_matches_quotes(model, seed):
    from distboost import booster
    # enough rows for predict_many to route them in at least three chunks of
    # its one table, which holds every parameter's base value and trees
    roots = sum(len(p.trees) + 1 for p in model.params)
    X = np.random.default_rng(seed).random((3 * (booster._ROUTE_BUDGET // roots) + 17,
                                            len(model.feature_names)))
    many = model.predict_many(X)
    quotes = [model.predict(x) for x in X]
    assert all(type(q) is tuple and all(type(v) is float for v in q) for q in quotes)
    assert many.tobytes() == np.array(quotes).tobytes()
    return many


def test_predict_many_matches_predict_bitwise_with_clamping():
    ds = db.generate_synthetic("gamma", 500, 3,
                               lambda X: {"mu": np.where(X[:, 0] < 0.5, 2.0, 6.0),
                                          "alpha": 5.0})
    cfg = db.ParamTrainConfig(eta=0.5, tree=db.TreeParams(max_depth=3),
                              domain=db.ParameterDomain(3.5, 5.5))
    model = db.train(ds, db.gamma_nll(5.0), [cfg], 40).model
    many = _assert_batch_matches_quotes(model, 4)
    assert np.any(many == 3.5) and np.any(many == 5.5)


def test_predict_many_matches_predict_bitwise_with_single_leaf_trees():
    ds = db.generate_synthetic("negbin", 300, 5, lambda X: {"beta": 1.0, "gamma": 2.0})
    # beta never splits (min_leaf_samples above half the rows); gamma does
    cfgs = [db.ParamTrainConfig(eta=0.3, tree=db.TreeParams(max_depth=2, min_leaf_samples=200)),
            db.ParamTrainConfig(eta=0.3, tree=db.TreeParams(max_depth=2))]
    model = db.train(ds, db.negbin_nll(), cfgs, 30).model
    assert all(t.n_nodes == 1 for t, _ in model.params[0].trees)
    assert any(t.n_nodes > 1 for t, _ in model.params[1].trees)
    _assert_batch_matches_quotes(model, 6)


def test_predict_many_matches_predict_bitwise_with_unequal_depths():
    ds = db.generate_synthetic("negbin", 400, 5, lambda X: {"beta": 1.0 + X[:, 1],
                                                           "gamma": 1.0 + 3.0 * X[:, 0]})
    # beta's depth-1 trees stay at their leaves while gamma's trees take two more steps
    cfgs = [db.ParamTrainConfig(eta=0.3, tree=db.TreeParams(max_depth=d)) for d in (1, 3)]
    model = db.train(ds, db.negbin_nll(), cfgs, 20).model
    assert {t.depth for t, _ in model.params[0].trees} == {1}
    assert max(t.depth for t, _ in model.params[1].trees) == 3
    _assert_batch_matches_quotes(model, 7)


def test_predict_many_matches_predict_bitwise_without_trees():
    ds = db.generate_synthetic("negbin", 300, 3, lambda X: {"beta": 1.0, "gamma": 2.0})
    cfg = db.ParamTrainConfig(eta=0.3, tree=db.TreeParams(max_depth=2))
    model = db.train(ds, db.negbin_nll(), [cfg] * 2, 10).model
    # every parameter at its base value alone, and one parameter with trees beside one without
    constant = db.BoostedModel(model.loss_name, model.nuisance, model.feature_names,
                               [db.ParamEnsemble(p.name, p.base_value, p.domain, [])
                                for p in model.params])
    assert _assert_batch_matches_quotes(constant, 8)[0].tolist() == [p.base_value
                                                                     for p in model.params]
    beta, gamma = model.params
    mixed = db.BoostedModel(model.loss_name, model.nuisance, model.feature_names,
                            [beta, db.ParamEnsemble(gamma.name, gamma.base_value,
                                                    gamma.domain, [])])
    assert np.all(_assert_batch_matches_quotes(mixed, 9)[:, 1] == gamma.base_value)
    X = np.random.default_rng(9).random((50, len(model.feature_names)))
    assert np.array_equal(mixed.predict_many(X)[:, 0], model.predict_many(X)[:, 0])


@pytest.mark.parametrize("base, lo, hi", [(-0.0, 0.0, 1.0), (0.0, -1.0, -0.0)])
def test_quote_and_batch_keep_the_sign_of_a_zero_at_the_domain_edge(base, lo, hi):
    # np.clip with scalar bounds, as training clamps, keeps -0.0 at lo = 0.0;
    # np.minimum(np.maximum(-0.0, 0.0), 1.0), or np.clip with array bounds, gives +0.0
    model = db.BoostedModel("squared_error", {}, ("x1",), [
        db.ParamEnsemble("theta", base, db.ParameterDomain(lo, hi), [])])
    many = _assert_batch_matches_quotes(model, 10)
    assert np.all(many == 0.0) and np.all(np.signbit(many) == np.signbit(base))
    (quote,) = model.predict([0.5])
    assert math.copysign(1.0, quote) == math.copysign(1.0, base)
    assert db.clamp_to_domain(base, db.ParameterDomain(lo, hi)).hex() == quote.hex()


@pytest.mark.parametrize("last_chunk", [1, 2])
@pytest.mark.parametrize("loss, params", [
    (db.gamma_nll(5.0), lambda X: {"mu": np.where(X[:, 0] < 0.5, 2.0, 6.0), "alpha": 5.0}),
    (db.negbin_nll(), lambda X: {"beta": 1.0 + X[:, 1],
                                 "gamma": np.where(X[:, 0] < 0.5, 1.0, 4.0)}),
], ids=["1-param", "2-param"])
def test_predict_many_adds_trees_in_fit_order(loss, params, last_chunk):
    from distboost import booster
    ds = db.generate_synthetic(loss.name, 400, 8, params)
    cfg = db.ParamTrainConfig(eta=0.3, tree=db.TreeParams(max_depth=3))
    model = db.train(ds, loss, [cfg] * loss.n_params, 40).model
    assert [len(p.trees) for p in model.params] == [40] * loss.n_params
    # predict_many routes chunks of its one table, which holds every parameter's
    # base value and trees, so the last chunk has last_chunk rows
    step = booster._ROUTE_BUDGET // (41 * loss.n_params)
    X = np.random.default_rng(9).random((2 * step + last_chunk, 2))
    # the reference adds tree after tree (cumsum is sequential) per parameter;
    # np.sum or np.add.reduce over the tree axis is not that sum: on a one-row
    # chunk the reduction is contiguous and numpy adds pairwise
    leaf = db.RegressionTree([-1], [0.0], [-1], [-1], [1.0])
    want = np.empty((len(X), loss.n_params))
    for j, p in enumerate(model.params):
        stack = db.RegressionTree.stack([leaf] + [t for t, _ in p.trees],
                                        [p.base_value] + [eta for _, eta in p.trees])
        want[:, j] = db.clamp_to_domain(np.cumsum(stack.predict_many(X), axis=0)[-1], p.domain)
    assert model.predict_many(X).tobytes() == want.tobytes()


def test_predict_many_routes_a_table_with_a_tree_of_more_than_64_leaves():
    X = np.random.default_rng(11).random((600, 2))
    small, deep = (db.build_tree(X, np.sin(40.0 * X[:, 0]) + X[:, 1], np.ones(600),
                                 db.TreeParams(max_depth=d, lambda_reg=1e-6)) for d in (2, 7))
    assert deep.n_leaves > 64
    ensemble = db.ParamEnsemble("theta", 0.5, db.ParameterDomain(-0.5, 1.5),
                                [(small, 0.5), (deep, 0.5)])
    model = db.BoostedModel("squared_error", {}, ("x1", "x2"), [ensemble])
    _assert_batch_matches_quotes(model, 11)
    assert model._table._prefix is None  # one word per tree holds at most 64 leaves


def test_predict_many_routes_a_table_whose_prefix_tables_exceed_the_budget(monkeypatch):
    from distboost import tree
    ds = db.generate_synthetic("negbin", 400, 5, lambda X: {"beta": 1.0 + X[:, 1],
                                                           "gamma": 1.0 + 3.0 * X[:, 0]})
    cfg = db.ParamTrainConfig(eta=0.3, tree=db.TreeParams(max_depth=3))
    model = db.train(ds, db.negbin_nll(), [cfg] * 2, 20).model
    size = sum(table.nbytes for _, _, table in model._table._prefix.columns)
    assert size < tree._TABLE_BUDGET
    for budget, built in ((size, True), (size - 1, False)):
        monkeypatch.setattr(tree, "_TABLE_BUDGET", budget)
        vars(model._table).pop("_prefix")  # build the tables again under this budget
        _assert_batch_matches_quotes(model, 12)
        assert (model._table._prefix is not None) is built


@pytest.mark.parametrize("name", ["nb_joint", "gamma_wide", "zip_score"])
def test_train_writes_the_bytes_of_the_earlier_scan_builder(tmp_path, monkeypatch, name):
    # the benchmark's workload shapes at their tiny sizes, trained by `cli
    # train` with the package's builder and with the frozen earlier one
    from distboost import booster, cli
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    paths = workloads.WORKLOADS[name]("tiny").setup(str(tmp_path), 1)

    def train(tag):
        model, trace = tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv"
        assert cli.main(["train", "--data", paths["train"], "--config", paths["config"],
                         "--out", str(model), "--trace", str(trace)]) == 0
        return model.read_bytes(), trace.read_bytes()

    default = train("default")
    monkeypatch.setattr(booster, "build_tree", oracles.ref_build_tree_scan)
    assert train("scan") == default
    sizes = [n for p in json.loads(default[0])["params"] for n in p["trees"]["size"]]
    assert max(sizes) > 1
