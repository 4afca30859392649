"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import contextlib
import pathlib
import time

import numpy as np
import pytest

import distboost as db

import oracles


@contextlib.contextmanager
def criterion(name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL ({time.perf_counter() - start:.2f} s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"{name}: PASS ({elapsed:.2f} s)")
    assert elapsed < budget_seconds, f"{name} exceeded {budget_seconds}s budget"


# ---------------------------------------------------------------------------

def test_ac1_single_sample_divergence_fixed_by_clipped_updates():
    with criterion("AC-1 concave-region counterexample", 1.0):
        lam = 0.005
        loss = db.gamma_nll(5.0)
        g = float(loss.grad(0, (10.0,), 4.0))
        h = float(loss.hess(0, (10.0,), 4.0))
        assert g == pytest.approx(0.3, abs=1e-14)
        assert h == pytest.approx(-0.01, abs=1e-14)
        # raw second-order step: positive, so the estimate moves further
        # from the optimum at y = 4
        assert -g / (h + lam) == pytest.approx(60.0, rel=1e-12)

        ds = db.Dataset([[0.0]], [4.0])
        cfg = db.ParamTrainConfig(
            eta=0.1, clip_m=1e6, base_value=10.0,
            tree=db.TreeParams(gamma_reg=0.0, lambda_reg=lam, a=0.5, max_depth=1))
        res = db.train(ds, loss, [cfg], 500)
        assert abs(res.final_theta[0, 0] - 4.0) < 0.01
        trail = np.array([res.initial_nll] + [r.train_nll for r in res.trace])
        assert np.all(np.diff(trail) <= 1e-9)


def test_ac2_classic_equivalence_on_random_datasets():
    with criterion("AC-2 classic second-order equivalence", 10.0):
        rng = np.random.default_rng(2024)
        eta, lam, greg, depth, rounds = 0.3, 1.0, 0.01, 3, 2
        for trial in range(10):
            n, m = 500, 5
            X = rng.random((n, m))
            y = (np.sin(5 * X[:, 0]) + X[:, 1] ** 2
                 + rng.normal(0, 0.2, n))
            ds = db.Dataset(X, y)
            base = float(np.mean(y))
            cfg = db.ParamTrainConfig(
                eta=eta, clip_m=1e12,
                tree=db.TreeParams(gamma_reg=greg, lambda_reg=lam, a=0.5,
                                   max_depth=depth))
            res = db.train(ds, db.squared_error(), [cfg], rounds)
            ref_trees, ref_pred = oracles.classic_boost_squared_error(
                X, y, base, eta, rounds, lam, greg, depth,
                builder=oracles.ref_build_tree_np)
            for (tree, _), ref in zip(res.model.params[0].trees, ref_trees):
                assert _identical(tree, ref), f"trial {trial}"
            engine_pred = res.model.predict_many(X)[:, 0]
            assert np.all(np.abs(engine_pred - ref_pred)
                          <= 1e-12 * np.maximum(1.0, np.abs(ref_pred)))


def _identical(tree, ref, nid=0):
    if "leaf" in ref:
        return tree.feature[nid] < 0 and abs(
            tree.weight[nid] - ref["leaf"]) <= 1e-12 * max(1.0, abs(ref["leaf"]))
    return (int(tree.feature[nid]) == ref["feature"]
            and float(tree.threshold[nid]) == ref["threshold"]
            and _identical(tree, ref["left"], int(tree.left[nid]))
            and _identical(tree, ref["right"], int(tree.right[nid])))


def test_ac3_derivatives_match_finite_differences():
    with criterion("AC-3 analytic derivatives vs finite differences", 5.0):
        rng = np.random.default_rng(77)
        n = 200
        ones = np.ones(n)
        cases = [
            (db.squared_error(), (rng.uniform(-100, 100, n),),
             rng.uniform(-100, 100, n), ones, ones),
            (db.gamma_nll(5.0),
             (np.exp(rng.uniform(np.log(1e-2), np.log(1e2), n)),),
             rng.uniform(0.05, 50.0, n), ones, ones),
            (db.zip_nll(0.5),
             (np.exp(rng.uniform(np.log(1e-2), np.log(1e2), n)),),
             rng.integers(0, 9, n).astype(float), ones, ones),
            (db.negbin_nll(),
             (np.exp(rng.uniform(np.log(0.05), np.log(50.0), n)),
              np.exp(rng.uniform(np.log(0.05), np.log(50.0), n))),
             rng.integers(0, 11, n).astype(float),
             rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)),
        ]
        for loss, theta, y, expo, adj in cases:
            for j in range(loss.n_params):
                step = 1e-5 * np.maximum(1.0, np.abs(theta[j]))

                def at(ds_):
                    shifted = list(theta)
                    shifted[j] = theta[j] + ds_
                    return shifted

                grad = np.asarray(loss.grad(j, theta, y, expo, adj))
                fd_g = (np.asarray(loss.value(at(step), y, expo, adj))
                        - np.asarray(loss.value(at(-step), y, expo, adj))) / (2 * step)
                assert np.all(np.abs(grad - fd_g) <= 1e-5 * (1 + np.abs(grad))), loss.name
                hess = np.asarray(loss.hess(j, theta, y, expo, adj))
                fd_h = (np.asarray(loss.grad(j, at(step), y, expo, adj))
                        - np.asarray(loss.grad(j, at(-step), y, expo, adj))) / (2 * step)
                assert np.all(np.abs(hess - fd_h) <= 1e-5 * (1 + np.abs(hess))), loss.name


def test_ac4_admissibility_screen():
    with criterion("AC-4 admissibility screening", 10.0):
        for alpha in (0.5, 5.0, 50.0):
            rep = db.check_admissibility(db.gamma_nll(alpha),
                                         [0.1, 4.0, 100.0], 512)
            assert rep.passed, rep.describe()
        for alpha in (0.2, 0.5, 1.0):
            rep = db.check_admissibility(db.zip_nll(alpha),
                                         [0.0, 1.0, 3.0, 12.0], 512)
            assert rep.passed, rep.describe()
        rep = db.check_admissibility(db.negbin_nll(), [0.0, 1.0, 2.0, 7.0], 512)
        assert rep.passed, rep.describe()
        rep = db.check_admissibility(db.squared_error(), [0.1, 4.0, 100.0], 512)
        assert rep.passed, rep.describe()

        rep = db.check_admissibility(db.double_well(), [1.0], 512)
        assert not rep.passed
        locs = sorted(rep.slices[0].minima_locations)
        assert len(locs) == 2
        assert locs[0] == pytest.approx(-1.0, abs=0.05)
        assert locs[1] == pytest.approx(1.0, abs=0.05)


def _nb_param_fn(X):
    return {"beta": np.where(X[:, 0] < 0.5, 1.0, 2.0),
            "gamma": np.where(X[:, 1] < 0.5, 1.0, 3.0)}


def test_ac5_multivariate_parameter_recovery():
    with criterion("AC-5 joint NB parameter recovery", 120.0):
        ds = db.generate_synthetic("negbin", 20000, 15, _nb_param_fn,
                                   exposure_choices=[0.5, 0.5, 1.0, 2.0, 2.0])
        main, hold = db.split_holdout(ds, 0.25, 3)
        loss = db.negbin_nll()
        tp = db.TreeParams(max_depth=2, a=0.25, lambda_reg=1.0,
                           min_leaf_samples=1500)
        cfgs = [db.ParamTrainConfig(eta=0.1, tree=tp),
                db.ParamTrainConfig(eta=0.1, tree=tp)]
        res = db.train(main, loss, cfgs, 300)

        truth = _nb_param_fn(ds.features)
        pred = res.model.predict_many(ds.features)
        for b_true, g_true in [(1, 1), (1, 3), (2, 1), (2, 3)]:
            m = (truth["beta"] == b_true) & (truth["gamma"] == g_true)
            med_b = float(np.median(pred[m, 0]))
            med_g = float(np.median(pred[m, 1]))
            assert abs(med_b - b_true) / b_true < 0.15, \
                f"region ({b_true},{g_true}): beta median {med_b}"
            assert abs(med_g - g_true) / g_true < 0.15, \
                f"region ({b_true},{g_true}): gamma median {med_g}"

        base = loss.mle_init(main)
        constant = db.BoostedModel(loss.name, {}, main.feature_names, [
            db.ParamEnsemble(nm, v, d, []) for nm, v, d in
            zip(loss.param_names, base, loss.default_domains(main))])
        trained_nll = db.nll_score(res.model, loss, hold, model_id="trained")
        constant_nll = db.nll_score(constant, loss, hold, model_id="constant")
        assert trained_nll.total_nll < constant_nll.total_nll


def test_ac6_zip_improvement_and_domain_containment():
    with criterion("AC-6 ZIP holdout improvement", 60.0):
        ds = db.generate_synthetic(
            "zip", 8000, 16,
            lambda X: {"mu": np.where(X[:, 0] < 0.5, 0.4, 2.5), "alpha": 0.5})
        main, hold = db.split_holdout(ds, 0.25, 5)
        loss = db.zip_nll(0.5)
        cfg = db.ParamTrainConfig(
            eta=0.1, tree=db.TreeParams(max_depth=3, lambda_reg=1.0,
                                        min_leaf_samples=20))
        res = db.train(main, loss, [cfg], 150)

        trained = db.nll_score(res.model, loss, hold, model_id="trained")
        base = loss.mle_init(main)
        constant = db.BoostedModel(loss.name, loss.nuisance, main.feature_names, [
            db.ParamEnsemble("mu", base[0], loss.default_domains(main)[0], [])])
        const_rep = db.nll_score(constant, loss, hold, model_id="constant")
        assert trained.total_nll < const_rep.total_nll

        dom = res.model.params[0].domain
        preds = res.model.predict_many(hold.features)
        assert np.all((preds[:, 0] >= dom.lo) & (preds[:, 0] <= dom.hi))


def test_ac7_clipping_and_clamping_guards():
    with criterion("AC-7 clipping/clamping guards", 10.0):
        ds = db.generate_synthetic(
            "gamma", 500, 17,
            lambda X: {"mu": np.where(X[:, 0] < 0.5, 3.0, 6.0), "alpha": 5.0})
        domain = db.ParameterDomain(3.5, 5.5)
        cfg = db.ParamTrainConfig(
            eta=0.5, clip_m=0.5, domain=domain,
            tree=db.TreeParams(lambda_reg=0.1, max_depth=2))
        res = db.train(ds, db.gamma_nll(5.0), [cfg], 50)
        for rec in res.trace:
            if rec.active[0]:
                assert rec.max_abs_grad[0] <= 0.5
        assert np.all(res.final_theta >= domain.lo)
        assert np.all(res.final_theta <= domain.hi)
        assert res.clamped.any()  # the narrow domain really bound the path


def test_ac8_determinism_and_round_trip(tmp_path):
    with criterion("AC-8 determinism and model round-trip", 10.0):
        ds = db.generate_synthetic(
            "negbin", 1500, 18, lambda X: {"beta": np.where(X[:, 0] < 0.5, 1.0, 2.0),
                                           "gamma": 2.0},
            exposure_choices=[0.5, 1.0, 2.0])
        loss = db.negbin_nll()
        cfgs = [db.ParamTrainConfig(eta=0.1, tree=db.TreeParams(max_depth=3))
                for _ in range(2)]
        p1, p2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
        db.save(db.train(ds, loss, cfgs, 40).model, p1)
        db.save(db.train(ds, loss, cfgs, 40).model, p2)
        assert pathlib.Path(p1).read_bytes() == pathlib.Path(p2).read_bytes()

        model = db.load(p1)
        rng = np.random.default_rng(0)
        X = rng.random((1000, 2))
        reload_path = str(tmp_path / "m3.json")
        db.save(model, reload_path)
        again = db.load(reload_path)
        assert np.array_equal(model.predict_many(X), again.predict_many(X))


def test_ac9_micro_instance_tree_oracle():
    with criterion("AC-9 micro-instance tree oracle", 30.0):
        rng = np.random.default_rng(42)
        for trial in range(50):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 3))
            X = rng.random((n, m))
            g = rng.normal(size=n)
            h = np.abs(rng.normal(size=n)) * (rng.random(n) > 0.2)
            a = float(rng.choice([0.0, 0.25, 0.5]))
            lam = float(rng.choice([0.1, 1.0]))
            greg = float(rng.choice([0.0, 0.1]))
            params = db.TreeParams(gamma_reg=greg, lambda_reg=lam, a=a,
                                   max_depth=2)
            tree = db.build_tree(X, g, h, params)
            ref = oracles.ref_build_tree(X, g, h, a, lam, greg, 2)
            assert _identical_tol(tree, ref), f"trial {trial}"
        # where greedy IS exhaustive (one split level), it must equal the
        # global optimum over all candidate trees
        rng = np.random.default_rng(7)
        for trial in range(50):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 3))
            X = rng.random((n, m))
            g = rng.normal(size=n)
            h = np.abs(rng.normal(size=n))
            params = db.TreeParams(gamma_reg=0.05, lambda_reg=0.5, a=0.5,
                                   max_depth=1)
            tree = db.build_tree(X, g, h, params)
            score = _structure_score(tree, X, g, h, params)
            best = oracles.exhaustive_best_score(X, g, h, 0.5, 0.5, 0.05, 1)
            assert score == pytest.approx(best, rel=1e-12, abs=1e-12)


def _identical_tol(tree, ref, nid=0):
    if "leaf" in ref:
        return tree.feature[nid] < 0 and abs(
            tree.weight[nid] - ref["leaf"]) <= 1e-12 * max(1.0, abs(ref["leaf"]))
    return (int(tree.feature[nid]) == ref["feature"]
            and abs(float(tree.threshold[nid]) - ref["threshold"]) <= 1e-15
            and _identical_tol(tree, ref["left"], int(tree.left[nid]))
            and _identical_tol(tree, ref["right"], int(tree.right[nid])))


def _structure_score(tree, X, g, h, params):
    leaves = {}
    for i, x in enumerate(X):
        nid = tree.root
        while tree.feature[nid] >= 0:
            nid = tree.left[nid] if x[tree.feature[nid]] < tree.threshold[nid] \
                else tree.right[nid]
        leaves.setdefault(int(nid), []).append(i)
    total = 0.0
    for rows in leaves.values():
        total += -0.5 * db.leaf_score(float(np.sum(g[rows])),
                                      float(np.sum(h[rows])),
                                      params.a, params.lambda_reg)
        total += params.gamma_reg
    return total
