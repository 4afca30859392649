"""Independent reference implementations used as test oracles.

Everything here is deliberately written the most straightforward way
(plain Python loops, explicit candidate enumeration, no code shared with
the package) so the engine is checked against implementations that cannot
share its bugs.  The exceptions are split_gain, which combines the
package's leaf_score so that its tests check that formula, and
ref_build_tree_scan, a frozen copy of the package's earlier builder that
pins the current one to the same trees, bit for bit; it uses the package's
leaf formulas, presort and tree class.
"""

from typing import NamedTuple

import numpy as np

from distboost.errors import ValidationError
from distboost.tree import (RegressionTree, TreeParams, leaf_score, leaf_weight,
                            presort_features)


def central_diff(f, x, step):
    return (f(x + step) - f(x - step)) / (2.0 * step)


class GradPair(NamedTuple):
    """Summed first-order statistic and clipped second-order statistic."""

    g: float
    h_eff: float


def split_gain(left: GradPair, right: GradPair, params: TreeParams):
    """Objective reduction of a candidate split, net of the per-leaf penalty."""
    a, lam = params.a, params.lambda_reg
    pooled = leaf_score(left.g + right.g, left.h_eff + right.h_eff, a, lam)
    return 0.5 * (leaf_score(left.g, left.h_eff, a, lam)
                  + leaf_score(right.g, right.h_eff, a, lam)
                  - pooled) - params.gamma_reg


# ---------------------------------------------------------------------------
# Naive greedy regression tree under the generalized objective.
# Nodes are dicts: {"leaf": weight} or
# {"feature": f, "threshold": t, "left": node, "right": node}.

def _den(h_sum, a, lam):
    return 2.0 * a * h_sum + lam


def ref_leaf_weight(g_sum, h_sum, a, lam):
    return -g_sum / _den(h_sum, a, lam)


def ref_leaf_score(g_sum, h_sum, a, lam):
    return g_sum * g_sum / _den(h_sum, a, lam)


def _candidates(values):
    xs = sorted(set(values))
    out = []
    for lo, hi in zip(xs[:-1], xs[1:]):
        t = (lo + hi) / 2.0
        if t <= lo:  # adjacent floats: midpoint may round onto the left value
            t = hi
        out.append(t)
    return out


def ref_build_tree(X, g, h, a, lam, gamma, max_depth, min_leaf=1):
    """Greedy growth with every candidate split evaluated by brute force."""
    X = np.asarray(X, dtype=float)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)

    def grow(rows, depth):
        g_sum = sum(g[i] for i in rows)
        h_sum = sum(h[i] for i in rows)
        best_gain = 0.0
        best = None
        if depth < max_depth and len(rows) >= 2 * min_leaf:
            parent = ref_leaf_score(g_sum, h_sum, a, lam)
            for f in range(X.shape[1]):
                for t in _candidates([X[i, f] for i in rows]):
                    left = [i for i in rows if X[i, f] < t]
                    right = [i for i in rows if X[i, f] >= t]
                    if len(left) < min_leaf or len(right) < min_leaf:
                        continue
                    gl = sum(g[i] for i in left)
                    hl = sum(h[i] for i in left)
                    gr = sum(g[i] for i in right)
                    hr = sum(h[i] for i in right)
                    gain = 0.5 * (ref_leaf_score(gl, hl, a, lam)
                                  + ref_leaf_score(gr, hr, a, lam) - parent) - gamma
                    if gain > best_gain:
                        best_gain = gain
                        best = (f, t, left, right)
        if best is None:
            return {"leaf": ref_leaf_weight(g_sum, h_sum, a, lam)}
        f, t, left, right = best
        return {"feature": f, "threshold": t,
                "left": grow(left, depth + 1), "right": grow(right, depth + 1)}

    return grow(list(range(X.shape[0])), 0)


def ref_predict(node, x):
    while "leaf" not in node:
        node = node["left"] if x[node["feature"]] < node["threshold"] else node["right"]
    return node["leaf"]


def ref_total_score(node, X, g, h, rows, a, lam, gamma):
    """-1/2 sum of leaf scores + gamma * leaf count, over the given rows."""
    if "leaf" in node:
        g_sum = sum(g[i] for i in rows)
        h_sum = sum(h[i] for i in rows)
        return -0.5 * ref_leaf_score(g_sum, h_sum, a, lam) + gamma
    f, t = node["feature"], node["threshold"]
    left = [i for i in rows if X[i, f] < t]
    right = [i for i in rows if X[i, f] >= t]
    return (ref_total_score(node["left"], X, g, h, left, a, lam, gamma)
            + ref_total_score(node["right"], X, g, h, right, a, lam, gamma))


def ref_flatten(node):
    """Canonical (structure, values) tuples for comparing tree topologies."""
    if "leaf" in node:
        return ("leaf", node["leaf"])
    return ("split", node["feature"], node["threshold"],
            ref_flatten(node["left"]), ref_flatten(node["right"]))


def exhaustive_best_score(X, g, h, a, lam, gamma, max_depth, min_leaf=1):
    """Minimum structure score over ALL axis-aligned trees up to max_depth."""
    X = np.asarray(X, dtype=float)

    def best(rows, depth):
        g_sum = sum(g[i] for i in rows)
        h_sum = sum(h[i] for i in rows)
        value = -0.5 * ref_leaf_score(g_sum, h_sum, a, lam) + gamma
        if depth == 0 or len(rows) < 2 * min_leaf:
            return value
        for f in range(X.shape[1]):
            for t in _candidates([X[i, f] for i in rows]):
                left = [i for i in rows if X[i, f] < t]
                right = [i for i in rows if X[i, f] >= t]
                if len(left) < min_leaf or len(right) < min_leaf:
                    continue
                value = min(value, best(left, depth - 1) + best(right, depth - 1))
        return value

    return best(list(range(X.shape[0])), max_depth)


def ref_build_tree_np(X, g, h, a, lam, gamma, max_depth, min_leaf=1):
    """Same naive greedy contract as ref_build_tree, with numpy row masks.

    Still no incremental bookkeeping: every candidate's left/right sums are
    recomputed from scratch.  Usable at n in the hundreds where the pure
    Python version would be too slow.
    """
    X = np.asarray(X, dtype=float)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)

    def grow(rows, depth):
        g_sum = float(np.sum(g[rows]))
        h_sum = float(np.sum(h[rows]))
        best_gain = 0.0
        best = None
        if depth < max_depth and len(rows) >= 2 * min_leaf:
            parent = ref_leaf_score(g_sum, h_sum, a, lam)
            for f in range(X.shape[1]):
                for t in _candidates(list(X[rows, f])):
                    mask = X[rows, f] < t
                    L, R = rows[mask], rows[~mask]
                    if len(L) < min_leaf or len(R) < min_leaf:
                        continue
                    gain = 0.5 * (
                        ref_leaf_score(float(np.sum(g[L])), float(np.sum(h[L])), a, lam)
                        + ref_leaf_score(float(np.sum(g[R])), float(np.sum(h[R])), a, lam)
                        - parent) - gamma
                    if gain > best_gain:
                        best_gain = gain
                        best = (f, t, L, R)
        if best is None:
            return {"leaf": ref_leaf_weight(g_sum, h_sum, a, lam)}
        f, t, L, R = best
        return {"feature": f, "threshold": t,
                "left": grow(L, depth + 1), "right": grow(R, depth + 1)}

    return grow(np.arange(X.shape[0]), 0)


# ---------------------------------------------------------------------------
# Straight-line classic second-order boosting for the squared-error loss:
# leaf weight -G/(H+lambda), score G^2/(H+lambda), gain
# 1/2 [L + R - parent] - gamma, shrinkage eta per round.

def classic_boost_squared_error(X, y, base, eta, rounds, lam, gamma,
                                max_depth, min_leaf=1, builder=None):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    build = builder or ref_build_tree
    pred = np.full(len(y), float(base))
    trees = []
    for _ in range(rounds):
        g = pred - y
        h = np.ones(len(y))
        # classic denominator H + lambda == generalized one at a = 1/2
        tree = build(X, g, h, 0.5, lam, gamma, max_depth, min_leaf)
        trees.append(tree)
        pred = pred + eta * np.array([ref_predict(tree, X[i]) for i in range(len(y))])
    return trees, pred


# ---------------------------------------------------------------------------
# The package's exact greedy builder as it was before its canonical-order
# recompute was limited to a rounding window, kept verbatim.

def ref_build_tree_scan(X, g, h_eff, params: TreeParams, presorted=None):
    """Grow one tree by exact greedy search.

    Split candidates at each node are the midpoints between consecutive
    distinct sorted values of each feature within the node.  The best
    candidate is taken only if its gain is strictly positive and both
    children keep min_leaf_samples rows; ties break toward the lower
    feature index, then the smaller threshold, so construction is
    deterministic.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError("X must be 2-D")
    n, m = X.shape
    if n < 1:
        raise ValidationError("cannot build a tree on an empty subset")
    g = np.asarray(g, dtype=np.float64)
    h_eff = np.asarray(h_eff, dtype=np.float64)
    if g.shape != (n,) or h_eff.shape != (n,):
        raise ValidationError("g and h_eff must be 1-D arrays matching X rows")
    if not np.all(np.isfinite(g)):
        raise ValidationError("g must be finite (clip gradients first)")
    if not (np.all(np.isfinite(h_eff)) and np.all(h_eff >= 0)):
        raise ValidationError("h_eff must be finite and >= 0")
    if presorted is None:
        presorted = presort_features(X)

    two_a = 2.0 * params.a
    lam = params.lambda_reg
    min_leaf = int(params.min_leaf_samples)

    feature, threshold, left, right, weight = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        weight.append(0.0)
        return len(feature) - 1

    def grow(rows, orders, depth):
        # rows is the node's row set in ascending global order; all summed
        # node statistics use it so that two splits inducing the same row
        # partition get bit-identical gains regardless of which feature
        # produced them, keeping the documented tie-break exact.
        nid = new_node()
        G = float(np.sum(g[rows]))
        H = float(np.sum(h_eff[rows]))

        best_gain = 0.0
        best = None
        if depth < params.max_depth and len(rows) >= 2 * min_leaf:
            parent_score = leaf_score(G, H, params.a, lam)
            for f in range(m):
                of = orders[f]
                xs = X[of, f]
                boundary = xs[:-1] != xs[1:]
                if not boundary.any():
                    continue
                pos = np.flatnonzero(boundary)
                pos = pos[(pos + 1 >= min_leaf) & (len(of) - pos - 1 >= min_leaf)]
                if pos.size == 0:
                    continue
                # fast scan locates the per-feature winner...
                cg = np.cumsum(g[of])
                ch = np.cumsum(h_eff[of])
                gl, hl = cg[pos], ch[pos]
                gr, hr = G - gl, H - hl
                dl = two_a * hl + lam
                dr = two_a * hr + lam
                ok = (dl > 0) & (dr > 0)
                if not ok.any():
                    continue
                gains = np.full(pos.shape, -np.inf)
                gains[ok] = 0.5 * (gl[ok] ** 2 / dl[ok] + gr[ok] ** 2 / dr[ok]
                                   - parent_score) - params.gamma_reg
                k = int(np.argmax(gains))
                p = int(pos[k])
                # ...whose gain is then recomputed in canonical row order.
                # Midpoints of adjacent floats can round down onto the left
                # value; bump to the right value so "< threshold" reproduces
                # the scanned partition exactly.
                thr = 0.5 * (xs[p] + xs[p + 1])
                if thr <= xs[p]:
                    thr = xs[p + 1]
                # both sides summed directly (not as parent-minus-left) so a
                # mirrored partition on another feature gains bit-identically
                lmask = X[rows, f] < thr
                glc = float(np.sum(g[rows[lmask]]))
                hlc = float(np.sum(h_eff[rows[lmask]]))
                grc = float(np.sum(g[rows[~lmask]]))
                hrc = float(np.sum(h_eff[rows[~lmask]]))
                dlc = two_a * hlc + lam
                drc = two_a * hrc + lam
                if dlc <= 0 or drc <= 0:
                    continue
                gain = 0.5 * (glc * glc / dlc + grc * grc / drc
                              - parent_score) - params.gamma_reg
                if gain > best_gain:
                    best_gain = gain
                    best = (f, thr, lmask)

        if best is None:
            weight[nid] = leaf_weight(G, H, params.a, lam)
            return nid

        f, thr, lmask = best
        in_left = np.zeros(X.shape[0], dtype=bool)
        in_left[rows[lmask]] = True
        left_orders = [o[in_left[o]] for o in orders]
        right_orders = [o[~in_left[o]] for o in orders]

        feature[nid] = f
        threshold[nid] = thr
        left[nid] = grow(rows[lmask], left_orders, depth + 1)
        right[nid] = grow(rows[~lmask], right_orders, depth + 1)
        return nid

    grow(np.arange(n, dtype=np.intp), list(presorted), 0)
    return RegressionTree(feature, threshold, left, right, weight)


def ref_leaves(tree, X):
    """Leaf node of every row in every tree: shape roots.shape + (rows,).
    Each row walks down each tree from its root through the node columns,
    left iff x[feature] < threshold."""
    roots = np.asarray(tree.roots).reshape(-1)
    out = np.empty((roots.size, len(X)), dtype=np.intp)
    for t, root in enumerate(roots):
        for r, x in enumerate(X):
            i = int(root)
            while tree.feature[i] >= 0:
                i = int(tree.left[i] if x[tree.feature[i]] < tree.threshold[i] else tree.right[i])
            out[t, r] = i
    return out.reshape(np.shape(tree.roots) + (len(X),))
