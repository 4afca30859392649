import numpy as np
import pytest

import distboost as db
from distboost.errors import NumericError, ValidationError

import oracles


# ---------------------------------------------------------------------------
# leaf formulas

def test_leaf_weight_examples():
    assert db.leaf_weight(3.0, 6.0, 0.5, 1.0) == pytest.approx(-3.0 / 7.0, rel=1e-15)
    # all hessians clipped away: denominator is lambda alone
    assert db.leaf_weight(1.0, 0.0, 0.5, 0.5) == -2.0
    # first-order mode ignores the hessian term entirely
    assert db.leaf_weight(2.0, 123.0, 0.0, 4.0) == -0.5


def test_leaf_weight_zero_denominator():
    with pytest.raises(NumericError):
        db.leaf_weight(1.0, 0.0, 0.5, 0.0)
    with pytest.raises(NumericError):
        db.leaf_weight(1.0, 5.0, 0.0, 0.0)


def test_leaf_score_examples():
    assert db.leaf_score(0.0, 3.0, 0.5, 1.0) == 0.0
    assert db.leaf_score(3.0, 6.0, 0.5, 1.0) == pytest.approx(9.0 / 7.0, rel=1e-15)
    assert db.leaf_score(-3.0, 6.0, 0.5, 1.0) == db.leaf_score(3.0, 6.0, 0.5, 1.0)


def test_split_gain_examples():
    params = db.TreeParams(gamma_reg=0.0, lambda_reg=1.0, a=0.5)
    gain = db.split_gain(db.GradPair(1.0, 1.0), db.GradPair(-1.0, 1.0), params)
    assert gain == pytest.approx(0.5, rel=1e-15)
    # proportional halves: children exactly reproduce the pooled score
    params2 = db.TreeParams(gamma_reg=0.25, lambda_reg=0.0, a=0.5)
    gain2 = db.split_gain(db.GradPair(2.0, 2.0), db.GradPair(2.0, 2.0), params2)
    assert gain2 == pytest.approx(0.5 * (2.0 + 2.0 - 4.0) - 0.25, rel=1e-15)


# ---------------------------------------------------------------------------
# build_tree basics

def test_single_sample_tree():
    tree = db.build_tree(np.array([[3.0]]), np.array([2.0]), np.array([4.0]),
                         db.TreeParams(lambda_reg=1.0, a=0.5))
    assert tree.n_leaves == 1
    assert tree.predict([3.0]) == pytest.approx(-2.0 / 5.0, rel=1e-15)


def test_depth_one_sign_boundary_split():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    g = np.array([-1.0, -1.0, 1.0, 1.0])
    h = np.ones(4)
    tree = db.build_tree(X, g, h, db.TreeParams(gamma_reg=0.0, lambda_reg=1.0,
                                                a=0.5, max_depth=1))
    assert tree.n_leaves == 2
    root = tree.root
    assert tree.feature[root] == 0
    assert tree.threshold[root] == pytest.approx(2.5)
    assert tree.predict([2.0]) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert tree.predict([3.0]) == pytest.approx(-2.0 / 3.0, rel=1e-15)
    # exactly at the threshold routes right
    assert tree.predict([2.5]) == pytest.approx(-2.0 / 3.0, rel=1e-15)


def test_constant_features_yield_single_leaf():
    X = np.ones((5, 2))
    g = np.array([1.0, 2.0, -1.0, 0.5, 0.0])
    tree = db.build_tree(X, g, np.ones(5), db.TreeParams())
    assert tree.n_leaves == 1


def test_identical_gradients_yield_single_leaf():
    X = np.arange(8.0).reshape(8, 1)
    g = np.full(8, 0.7)
    h = np.ones(8)
    tree = db.build_tree(X, g, h, db.TreeParams(gamma_reg=0.0, lambda_reg=1.0))
    assert tree.n_leaves == 1


def test_gamma_reg_acts_as_minimum_gain():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    g = np.array([-1.0, -1.0, 1.0, 1.0])
    h = np.ones(4)
    # best gain is 4/3; a per-leaf penalty above it suppresses the split
    tree = db.build_tree(X, g, h, db.TreeParams(gamma_reg=1.5, lambda_reg=1.0,
                                                a=0.5, max_depth=1))
    assert tree.n_leaves == 1


def test_min_leaf_samples_respected():
    rng = np.random.default_rng(0)
    X = rng.random((40, 2))
    g = rng.normal(size=40)
    h = np.abs(rng.normal(size=40))
    params = db.TreeParams(lambda_reg=1.0, max_depth=4, min_leaf_samples=7)
    tree = db.build_tree(X, g, h, params)
    counts = np.zeros(tree.n_nodes, dtype=int)
    leaf_of = np.array([_leaf_id(tree, x) for x in X])
    for nid in leaf_of:
        counts[nid] += 1
    for nid in range(tree.n_nodes):
        if tree.feature[nid] < 0:
            assert counts[nid] >= 7


def _leaf_id(tree, x):
    nid = tree.root
    while tree.feature[nid] >= 0:
        nid = tree.left[nid] if x[tree.feature[nid]] < tree.threshold[nid] \
            else tree.right[nid]
    return int(nid)


def test_partition_consistency_predictions_match_assigned_weights():
    rng = np.random.default_rng(5)
    X = rng.random((60, 3))
    g = rng.normal(size=60)
    h = np.abs(rng.normal(size=60))
    params = db.TreeParams(lambda_reg=0.7, max_depth=3)
    tree = db.build_tree(X, g, h, params)
    preds = tree.predict_many(X)
    # recompute each leaf's weight from the rows routed to it
    leaf_of = np.array([_leaf_id(tree, x) for x in X])
    for nid in np.unique(leaf_of):
        rows = leaf_of == nid
        expected = db.leaf_weight(float(np.sum(g[rows])), float(np.sum(h[rows])),
                                  params.a, params.lambda_reg)
        assert np.all(preds[rows] == tree.weight[nid])
        assert tree.weight[nid] == pytest.approx(expected, rel=1e-12)


def test_every_split_has_positive_gain():
    rng = np.random.default_rng(8)
    X = rng.random((80, 2))
    g = rng.normal(size=80)
    h = np.abs(rng.normal(size=80))
    params = db.TreeParams(gamma_reg=0.05, lambda_reg=1.0, max_depth=4)
    tree = db.build_tree(X, g, h, params)

    def check(nid, rows):
        if tree.feature[nid] < 0:
            return
        f, t = int(tree.feature[nid]), float(tree.threshold[nid])
        mask = X[rows, f] < t
        L, R = rows[mask], rows[~mask]
        gain = db.split_gain(
            db.GradPair(float(g[L].sum()), float(h[L].sum())),
            db.GradPair(float(g[R].sum()), float(h[R].sum())), params)
        assert gain > 0.0
        check(int(tree.left[nid]), L)
        check(int(tree.right[nid]), R)

    check(tree.root, np.arange(80))


def test_build_tree_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        db.build_tree(np.zeros((0, 1)), np.zeros(0), np.zeros(0), db.TreeParams())
    with pytest.raises(ValidationError):
        db.build_tree(np.zeros((2, 1)), np.array([np.nan, 0.0]), np.ones(2),
                      db.TreeParams())
    with pytest.raises(ValidationError):
        db.build_tree(np.zeros((2, 1)), np.ones(2), np.array([-1.0, 1.0]),
                      db.TreeParams())


def test_tree_params_validation():
    with pytest.raises(ValidationError):
        db.TreeParams(a=0.6)
    with pytest.raises(ValidationError):
        db.TreeParams(gamma_reg=-1.0)
    with pytest.raises(ValidationError):
        db.TreeParams(max_depth=0)
    with pytest.raises(ValidationError):
        db.TreeParams(min_leaf_samples=0)


def test_validate_structure_detects_cycle():
    tree = db.RegressionTree([0, -1], [0.5, 0.0], [0, -1], [1, -1], [0.0, 1.0])
    with pytest.raises(ValidationError, match="twice|cycle"):
        tree.validate_structure(1)


def test_validate_structure_detects_shared_child():
    # the orphan node 2 balances the node count of the shared child 1
    tree = db.RegressionTree([0, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [1, -1, -1],
                             [0.0, 1.0, 2.0])
    with pytest.raises(ValidationError, match="node 1 is listed twice"):
        tree.validate_structure(1)


def test_validate_structure_detects_unreachable():
    tree = db.RegressionTree([-1, -1], [0.0, 0.0], [-1, -1], [-1, -1], [1.0, 2.0])
    with pytest.raises(ValidationError, match="unreachable"):
        tree.validate_structure(1)


# ---------------------------------------------------------------------------
# classic equivalence: a = 1/2 with all-positive hessians reproduces the
# plain second-order formulas -G/(H+lambda), gains included

def test_classic_equivalence_on_random_data():
    rng = np.random.default_rng(123)
    for trial in range(10):
        n = 60
        X = rng.random((n, 3))
        g = rng.normal(size=n)
        h = rng.uniform(0.5, 2.0, n)  # all positive: no clipping in play
        lam, greg = 1.0, 0.01
        params = db.TreeParams(gamma_reg=greg, lambda_reg=lam, a=0.5, max_depth=3)
        tree = db.build_tree(X, g, h, params)
        ref = oracles.ref_build_tree(X, g, h, 0.5, lam, greg, 3)
        assert _same_structure(tree, tree.root, ref, 1e-12)


def _same_structure(tree, nid, ref, tol):
    if "leaf" in ref:
        if tree.feature[nid] >= 0:
            return False
        return abs(tree.weight[nid] - ref["leaf"]) <= tol * max(1.0, abs(ref["leaf"]))
    if tree.feature[nid] != ref["feature"]:
        return False
    if abs(tree.threshold[nid] - ref["threshold"]) > tol:
        return False
    return (_same_structure(tree, int(tree.left[nid]), ref["left"], tol)
            and _same_structure(tree, int(tree.right[nid]), ref["right"], tol))


# ---------------------------------------------------------------------------
# micro-instance oracles

def test_matches_naive_greedy_on_micro_instances():
    rng = np.random.default_rng(42)
    for trial in range(50):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 3))
        X = rng.random((n, m))
        g = rng.normal(size=n)
        h = np.abs(rng.normal(size=n)) * (rng.random(n) > 0.2)  # some exact zeros
        a = float(rng.choice([0.0, 0.25, 0.5]))
        lam = float(rng.choice([0.1, 1.0]))
        greg = float(rng.choice([0.0, 0.1]))
        params = db.TreeParams(gamma_reg=greg, lambda_reg=lam, a=a, max_depth=2)
        tree = db.build_tree(X, g, h, params)
        ref = oracles.ref_build_tree(X, g, h, a, lam, greg, 2)
        assert _same_structure(tree, tree.root, ref, 1e-12), f"trial {trial}"
        engine_score = _engine_total_score(tree, X, g, h, params)
        ref_score = oracles.ref_total_score(ref, X, g, h, list(range(n)), a, lam, greg)
        assert engine_score == pytest.approx(ref_score, rel=1e-12, abs=1e-12)


def _engine_total_score(tree, X, g, h, params):
    leaf_of = np.array([_leaf_id(tree, x) for x in X])
    total = 0.0
    for nid in np.unique(leaf_of):
        rows = leaf_of == nid
        total += -0.5 * db.leaf_score(float(g[rows].sum()), float(h[rows].sum()),
                                      params.a, params.lambda_reg)
        total += params.gamma_reg
    return total


def test_depth_one_greedy_is_globally_optimal():
    # at depth 1 the greedy scan IS exhaustive enumeration
    rng = np.random.default_rng(7)
    for trial in range(50):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 3))
        X = rng.random((n, m))
        g = rng.normal(size=n)
        h = np.abs(rng.normal(size=n))
        params = db.TreeParams(gamma_reg=0.05, lambda_reg=0.5, a=0.5, max_depth=1)
        tree = db.build_tree(X, g, h, params)
        score = _engine_total_score(tree, X, g, h, params)
        best = oracles.exhaustive_best_score(X, g, h, 0.5, 0.5, 0.05, 1)
        assert score == pytest.approx(best, rel=1e-12, abs=1e-12)


def test_depth_two_greedy_never_beats_exhaustive():
    rng = np.random.default_rng(11)
    for trial in range(50):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 3))
        X = rng.random((n, m))
        g = rng.normal(size=n)
        h = np.abs(rng.normal(size=n))
        params = db.TreeParams(gamma_reg=0.0, lambda_reg=1.0, a=0.5, max_depth=2)
        tree = db.build_tree(X, g, h, params)
        score = _engine_total_score(tree, X, g, h, params)
        best = oracles.exhaustive_best_score(X, g, h, 0.5, 1.0, 0.0, 2)
        assert score >= best - 1e-12


# ---------------------------------------------------------------------------
# prediction plumbing

def test_predict_many_agrees_with_scalar_predict():
    rng = np.random.default_rng(17)
    X = rng.random((100, 2))
    g = rng.normal(size=100)
    h = np.abs(rng.normal(size=100))
    tree = db.build_tree(X, g, h, db.TreeParams(max_depth=4))
    Q = rng.random((500, 2))
    many = tree.predict_many(Q)
    each = np.array([tree.predict(q) for q in Q])
    assert np.array_equal(many, each)


def test_presort_reuse_gives_identical_tree():
    rng = np.random.default_rng(23)
    X = rng.random((50, 2))
    g = rng.normal(size=50)
    h = np.abs(rng.normal(size=50))
    params = db.TreeParams(max_depth=3)
    pres = db.presort_features(X)
    t1 = db.build_tree(X, g, h, params)
    t2 = db.build_tree(X, g, h, params, presorted=pres)
    assert np.array_equal(t1.feature, t2.feature)
    assert np.array_equal(t1.threshold, t2.threshold)
    assert np.array_equal(t1.weight, t2.weight)


def test_stack_predicts_each_tree_scaled():
    rng = np.random.default_rng(31)
    X = rng.random((200, 3))
    trees = [db.build_tree(X, rng.normal(size=200), np.ones(200),
                           db.TreeParams(max_depth=d)) for d in (1, 3, 2)]
    trees.append(db.RegressionTree([-1], [0.0], [-1], [-1], [0.25]))
    scales = [0.5, 0.1, 1.0, 3.0]
    stack = db.RegressionTree.stack(trees, scales)
    assert stack.depth == max(t.depth for t in trees) == 3
    Q = rng.random((50, 3))
    expected = np.array([s * t.predict_many(Q) for t, s in zip(trees, scales)])
    assert np.array_equal(stack.predict_many(Q), expected)
    assert np.array_equal(stack.predict(Q[7]), expected[:, 7])


def test_predict_rejects_narrow_input():
    X = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
    tree = db.build_tree(X, np.array([-1.0, 0.0, 1.0]), np.ones(3), db.TreeParams())
    assert tree.feature[tree.root] == 1
    with pytest.raises(ValidationError, match="feature 1"):
        tree.predict_many(X[:, :1])
