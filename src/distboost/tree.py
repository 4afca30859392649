"""Single regression trees grown by exact greedy split search.

The split objective is the generalized second-order score: per leaf,
score = (sum g)^2 / (2 a * sum h_eff + lambda), where h_eff is the
already-clipped nonnegative second-order statistic and a in [0, 1/2]
blends the first-order expansion (a = 0) into the clipped second-order
one (a = 1/2).  With a = 1/2 and no clipping this is exactly classic
regularized tree boosting.

The tree layer is clipping-agnostic: callers hand it g and h_eff arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericError, ValidationError


class GradPair(NamedTuple):
    """Summed first-order statistic and clipped second-order statistic."""

    g: float
    h_eff: float


@dataclass(frozen=True)
class TreeParams:
    gamma_reg: float = 0.0        # per-leaf penalty; acts as a minimum split gain
    lambda_reg: float = 1.0       # L2 penalty on leaf weights
    a: float = 0.5                # second-order blend weight, in [0, 1/2]
    max_depth: int = 3
    min_leaf_samples: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.gamma_reg) and self.gamma_reg >= 0):
            raise ValidationError("gamma_reg must be finite and >= 0")
        if not (math.isfinite(self.lambda_reg) and self.lambda_reg >= 0):
            raise ValidationError("lambda_reg must be finite and >= 0")
        if not (math.isfinite(self.a) and 0.0 <= self.a <= 0.5):
            raise ValidationError("a must lie in [0, 1/2]")
        if int(self.max_depth) < 1:
            raise ValidationError("max_depth must be >= 1")
        if int(self.min_leaf_samples) < 1:
            raise ValidationError("min_leaf_samples must be >= 1")


def _denominator(sum_h_eff, a, lambda_reg):
    d = 2.0 * a * sum_h_eff + lambda_reg
    if d <= 0.0:
        raise NumericError(
            "zero denominator in leaf formula: set lambda_reg > 0 when a = 0 "
            "or when all hessians may be clipped away")
    return d


def leaf_weight(sum_g, sum_h_eff, a, lambda_reg):
    """Optimal leaf weight -sum_g / (2 a sum_h_eff + lambda)."""
    return -sum_g / _denominator(sum_h_eff, a, lambda_reg)


def leaf_score(sum_g, sum_h_eff, a, lambda_reg):
    """(sum_g)^2 / (2 a sum_h_eff + lambda); half its sum is the objective drop."""
    return sum_g * sum_g / _denominator(sum_h_eff, a, lambda_reg)


def split_gain(left: GradPair, right: GradPair, params: TreeParams):
    """Objective reduction of a candidate split, net of the per-leaf penalty."""
    a, lam = params.a, params.lambda_reg
    pooled = leaf_score(left.g + right.g, left.h_eff + right.h_eff, a, lam)
    return 0.5 * (leaf_score(left.g, left.h_eff, a, lam)
                  + leaf_score(right.g, right.h_eff, a, lam)
                  - pooled) - params.gamma_reg


class RegressionTree:
    """Immutable binary regression tree over dense feature vectors.

    Stored as parallel node arrays; feature[i] == -1 marks a leaf.  Routing
    is "left iff x[feature] < threshold": a sample exactly at the threshold
    goes right.  `RegressionTree.stack` packs several trees into one set of
    node arrays with one root per tree, which predicts one row per tree.
    """

    root = 0

    def __init__(self, feature, threshold, left, right, weight, roots=0):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.weight = np.asarray(weight, dtype=np.float64)
        self.roots = np.asarray(roots, dtype=np.intp)
        for arr in (self.feature, self.threshold, self.left, self.right, self.weight,
                    self.roots):
            arr.setflags(write=False)

    @classmethod
    def stack(cls, trees, scales):
        """Pack trees into one set of node arrays, one root per tree in order.

        Tree t's leaf weights are multiplied by scales[t].
        """
        roots = np.cumsum([0] + [t.n_nodes for t in trees[:-1]])
        return cls(*(np.concatenate(parts) for parts in (
            [t.feature for t in trees], [t.threshold for t in trees],
            [np.where(t.left >= 0, t.left + r, -1) for t, r in zip(trees, roots)],
            [np.where(t.right >= 0, t.right + r, -1) for t, r in zip(trees, roots)],
            [t.weight * s for t, s in zip(trees, scales)])), roots)

    @property
    def n_nodes(self):
        return len(self.feature)

    @property
    def n_leaves(self):
        return int(np.sum(self.feature < 0))

    @functools.cached_property
    def depth(self):
        """Level of the deepest leaf below its root (0 for a lone leaf).

        Raises ValidationError unless every node is listed exactly once among
        the roots and the split children, as in proper binary trees; the
        level walk from the roots then ends, and must meet every node.
        """
        n, split = self.n_nodes, self.feature >= 0
        ids = np.concatenate([self.roots.reshape(-1), self.left[split], self.right[split]])
        if np.any((ids < 0) | (ids >= n)):
            raise ValidationError("node id out of range")
        listed = np.bincount(ids, minlength=n)
        if np.any(listed > 1):
            raise ValidationError(f"node {int(np.argmax(listed > 1))} is listed twice "
                                  "(cycle or shared child)")
        level, depth, reached = self.roots.reshape(-1), 0, 0
        while True:
            reached += level.size
            level = level[split[level]]
            if not level.size:
                break
            level = np.concatenate([self.left[level], self.right[level]])
            depth += 1
        if reached < n:
            raise ValidationError("unreachable nodes in tree")
        return depth

    @functools.cached_property
    def _router(self):
        """Node arrays in router form: a row at node i steps to
        child[2 i + (x[feature[i]] < threshold[i])], and a leaf is its own
        child, so `depth` steps take every row from its root to its leaf."""
        leaf = self.feature < 0
        ids = np.arange(self.n_nodes, dtype=np.intp)
        child = np.column_stack([np.where(leaf, ids, self.right),
                                 np.where(leaf, ids, self.left)]).reshape(-1)
        feat = np.where(leaf, 0, self.feature).astype(np.intp)
        return feat, child, int(feat.max(initial=-1)) + 1

    def _leaves(self, X):
        """Leaf node of every row in every tree: shape roots.shape + (rows,)."""
        feat, child, width = self._router
        n, m = X.shape
        if m < width:
            raise ValidationError(f"tree splits on feature {width - 1} of a {m}-column input")
        flat = np.ascontiguousarray(X).reshape(-1)
        row_start = np.arange(0, n * m, m)
        node = np.broadcast_to(self.roots[..., None], self.roots.shape + (n,))
        for _ in range(self.depth):
            goes_left = flat.take(row_start + feat.take(node)) < self.threshold.take(node)
            node = child.take(2 * node + goes_left)
        return node

    def predict(self, x):
        """Leaf weight of one row: a float, or one per tree for a stack."""
        w = self.weight[self._leaves(np.asarray(x, dtype=np.float64).reshape(1, -1))[..., 0]]
        return float(w) if w.ndim == 0 else w

    def predict_many(self, X):
        return self.weight[self._leaves(np.asarray(X, dtype=np.float64))]

    def validate_structure(self, n_features):
        """Reject node graphs that are not a proper binary tree."""
        self.depth  # the level walk raises on a malformed node graph
        split = self.feature >= 0
        for bad, what in (
                (split & (self.feature >= n_features), "splits on unknown feature"),
                (split & ~np.isfinite(self.threshold), "has non-finite threshold"),
                (~split & ~np.isfinite(self.weight), "is a leaf with non-finite weight")):
            if bad.any():
                raise ValidationError(f"node {np.flatnonzero(bad)[0]} {what}")


def presort_features(X):
    """Per-column stable argsort, reusable across many build_tree calls."""
    X = np.asarray(X, dtype=np.float64)
    return [np.argsort(X[:, f], kind="stable") for f in range(X.shape[1])]


def build_tree(X, g, h_eff, params: TreeParams, presorted=None):
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
