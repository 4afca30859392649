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

import numpy as np

from .errors import NumericError, ValidationError


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


class RegressionTree:
    """Immutable binary regression tree over dense feature vectors.

    Stored as parallel node arrays; feature[i] == -1 marks a leaf.  Routing
    is "left iff x[feature] < threshold": a sample exactly at the threshold
    goes right.  `RegressionTree.stack` packs several trees into one set of
    node arrays with one root per tree, which predicts one row per tree.
    """

    root = 0

    def __init__(self, feature, threshold, left, right, weight, roots=0, first=0):
        self.first = first  # the number of the first tree in error messages
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
    def stack(cls, trees, scales, first=0):
        """Pack trees into one set of node arrays, one root per tree in order.

        Tree t's leaf weights are multiplied by scales[t].  Error messages
        number the trees from `first`.
        """
        sizes = [t.n_nodes for t in trees]
        roots = np.cumsum([0] + sizes[:-1])
        offset = np.repeat(roots, sizes)
        feature, threshold, left, right, weight = (
            np.concatenate([getattr(t, key) for t in trees])
            for key in ("feature", "threshold", "left", "right", "weight"))
        return cls(feature, threshold, np.where(left >= 0, left + offset, -1),
                   np.where(right >= 0, right + offset, -1),
                   weight * np.repeat(scales, sizes), roots, first)

    @property
    def n_nodes(self):
        return len(self.feature)

    @property
    def n_leaves(self):
        return int(np.sum(self.feature < 0))

    def _name(self, i):
        """Node i, named by its tree and its index within that tree."""
        roots = self.roots.reshape(-1)
        k = int(np.searchsorted(roots, i, side="right")) - 1
        return f"tree {self.first + k} node {i - roots[k]}"

    @functools.cached_property
    def depth(self):
        """Level of the deepest leaf below its root (0 for a lone leaf).

        Raises ValidationError unless every tree has a node, both children
        of every split lie in the split's own tree, and every node is listed
        exactly once among the roots and the split children, as in proper
        binary trees; the level walk from the roots then ends, and must
        meet every node.
        """
        n, split = self.n_nodes, self.feature >= 0
        roots = self.roots.reshape(-1)
        ends = np.concatenate([roots[1:], [n]])
        if (roots >= ends).any():
            raise ValidationError(f"tree {self.first + int(np.argmax(roots >= ends))} "
                                  "has no nodes")
        parents = np.flatnonzero(split)
        tree = np.searchsorted(roots, parents, side="right") - 1
        lo, hi = roots[tree], ends[tree]
        left, right = self.left[parents], self.right[parents]
        outside = (left < lo) | (left >= hi) | (right < lo) | (right >= hi)
        if outside.any():
            raise ValidationError(f"{self._name(parents[np.argmax(outside)])} "
                                  "has a child outside its tree")
        listed = np.bincount(np.concatenate([roots, left, right]), minlength=n)
        if (listed > 1).any():
            raise ValidationError(f"{self._name(int(np.argmax(listed > 1)))} is listed "
                                  "twice (cycle or shared child)")
        reached = np.zeros(n, dtype=bool)
        level, depth = roots, 0
        while True:
            reached[level] = True
            level = level[split[level]]
            if not level.size:
                break
            level = np.concatenate([self.left[level], self.right[level]])
            depth += 1
        if not reached.all():
            raise ValidationError(f"{self._name(int(np.argmin(reached)))} is unreachable "
                                  "from its root")
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
        """Leaf node of every row in every tree: shape roots.shape + (rows,).
        Every row takes max(depth, 1) steps; a leaf is its own child."""
        feat, child, width = self._router
        n, m = X.shape
        if m < width:
            raise ValidationError(f"tree splits on feature {width - 1} of a {m}-column input")
        roots = self.roots[..., None]
        # every row starts at its tree's root, so the first step reads one column per tree
        node = child.take(2 * roots + (X.T[feat.take(self.roots)] < self.threshold.take(roots)))
        flat = np.ascontiguousarray(X).reshape(-1)
        row_start = np.arange(0, n * m, m)
        for _ in range(self.depth - 1):
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
        """Reject node graphs that are not proper binary trees, and nodes
        that cannot route a row or give a finite prediction."""
        self.depth  # the level walk raises on a malformed node graph
        split = self.feature >= 0
        for bad, what in (
                ((self.feature < -1) | (self.feature >= n_features),
                 "splits on unknown feature"),
                (~split & ((self.left != -1) | (self.right != -1)), "is a leaf with children"),
                (split & ~np.isfinite(self.threshold), "has non-finite threshold"),
                (~split & ~np.isfinite(self.weight), "is a leaf with non-finite weight")):
            if bad.any():
                raise ValidationError(f"{self._name(int(np.argmax(bad)))} {what}")


def presort_features(X):
    """Stable argsort of every column, as one (features, rows) array that
    many build_tree calls on the same X can share."""
    return np.argsort(np.asarray(X, dtype=np.float64).T, axis=1, kind="stable")


_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


def _gain_slack(n, sum_abs_g, sum_h, two_a, lam, gamma_reg):
    """Bound on how far two evaluations of one split's gain at an n-row node
    can differ when their g and h sums add the same rows in different
    orders; inf where none is derived (lam == 0, lam small against the
    hessian mass, or gains near overflow).

    With rho = (n + 2) eps and k = 2a sum(h) / lam, each g sum lies within
    rho sum|g| of its exact value and each h sum within rho sum(h).  While
    rho (1 + k) <= 1e-3 every denominator 2a h + lam stays above 0.99 lam,
    each term g^2 / d lies within 4.4 rho (1 + k) sum|g|^2 / lam of its
    exact value, and the two gains differ by less than
    10 rho (1 + k) sum|g|^2 / lam + rho gamma_reg.  The factor 16 covers
    sum|g| and sum(h) being rounded sums themselves; the last term covers
    underflow.
    """
    if lam <= 0.0:
        return math.inf
    rho = (n + 2) * _EPS
    spread = rho * (1.0 + two_a * sum_h / lam)
    scale = sum_abs_g * sum_abs_g / lam
    if not (spread <= 1e-3 and scale <= 1e300):
        return math.inf
    return 16.0 * spread * scale + rho * gamma_reg + _TINY * (1.0 + 1.0 / lam)


def build_tree(X, g, h_eff, params: TreeParams, presorted=None):
    """Grow one tree by exact greedy search.

    Split candidates at each node are the midpoints between consecutive
    distinct sorted values of each feature within the node.  The best
    candidate is taken only if its gain is strictly positive and both
    children keep min_leaf_samples rows; ties break toward the lower
    feature index, then the smaller threshold, so construction is
    deterministic.  presorted is presort_features(X), or its rows as a list.
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
    orders = presort_features(X) if presorted is None else np.asarray(presorted, dtype=np.intp)
    XT = np.ascontiguousarray(X.T)
    # g and h_eff as the parts of one complex array: one gather and one cumsum
    # serve both, and each part equals the real cumsum bit for bit.  The parts
    # are assigned (g + 1j * h_eff turns -0.0 into +0.0) and summed as .real and
    # .imag views; np.sum of the complex array would group its adds differently.
    gh = np.empty(n, dtype=np.complex128)
    gh.real = g
    gh.imag = h_eff

    two_a = 2.0 * params.a
    lam = params.lambda_reg
    gamma_reg = params.gamma_reg
    min_leaf = int(params.min_leaf_samples)

    feature, threshold, left, right, weight = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        weight.append(0.0)
        return len(feature) - 1

    def scan(f, of, G, H, parent_score):
        """Feature f's best candidate by cumulative sums along its sorted
        order: (scan gain, threshold, whether "< threshold" puts exactly
        the scanned prefix left), or None when it has no candidate."""
        xs = XT[f].take(of)
        # a boundary after sorted position p leaves p + 1 rows left
        stop = len(of) - min_leaf
        pos = (xs[min_leaf - 1:stop] != xs[min_leaf:stop + 1]).nonzero()[0] + (min_leaf - 1)
        if pos.size == 0:
            return None
        ghl = gh.take(of).cumsum().take(pos)
        gl, hl = ghl.real, ghl.imag
        gr, hr = G - gl, H - hl
        dl = two_a * hl + lam
        dr = two_a * hr + lam
        gains = 0.5 * (gl ** 2 / dl + gr ** 2 / dr - parent_score) - gamma_reg
        # dl rises and dr falls along pos, and a NaN (from a hessian sum
        # that overflowed) reaches the end of either, so the ends show
        # whether any denominator is <= 0
        if not (dl[0] > 0 and dl[-1] > 0 and dr[-1] > 0):
            ok = (dl > 0) & (dr > 0)
            if not ok.any():
                return None
            gains = np.where(ok, gains, -np.inf)
        k = int(gains.argmax())
        lo, hi = xs[pos[k]], xs[pos[k] + 1]
        # Midpoints of adjacent floats can round down onto the left value;
        # bump to the right value so "< threshold" reproduces the scanned
        # partition exactly.
        thr = 0.5 * (lo + hi)
        if thr <= lo:
            thr = hi
        return float(gains[k]), thr, bool(lo < thr <= hi)

    def grow(rows, orders, depth):
        # rows is the node's row set in ascending global order; all summed
        # node statistics use it so that two splits inducing the same row
        # partition get bit-identical gains regardless of which feature
        # produced them, keeping the documented tie-break exact.
        nid = new_node()
        gh_rows = gh.take(rows)
        G = float(np.sum(gh_rows.real))
        H = float(np.sum(gh_rows.imag))

        best_gain = 0.0
        best = None
        if depth < params.max_depth and len(rows) >= 2 * min_leaf:
            parent_score = leaf_score(G, H, params.a, lam)
            found = [(f, *c) for f in range(m)
                     if (c := scan(f, orders[f], G, H, parent_score)) is not None]
            # Each feature's scan winner has its gain recomputed in canonical
            # row order, which is the gain compared across features.  The
            # two differ by at most `slack`, so a feature whose scan gain is
            # more than 2 slack below the best scan gain cannot win or tie,
            # and is skipped.  The bound needs every winner's threshold to
            # reproduce its scanned partition (NaN or overflowing values may
            # not); otherwise every feature is recomputed.
            cut = -math.inf
            if found and all(exact for *_, exact in found):
                best_scan = max(c[1] for c in found)
                slack = _gain_slack(len(rows), float(np.sum(np.abs(gh_rows.real))), H,
                                    two_a, lam, gamma_reg)
                if math.isfinite(best_scan) and abs(best_scan) > 2.0 * slack:
                    cut = best_scan - 2.0 * slack
            for f, scan_gain, thr, _ in found:
                if scan_gain < cut:
                    continue
                # both sides summed directly (not as parent-minus-left) so a
                # mirrored partition on another feature gains bit-identically
                lmask = XT[f].take(rows) < thr
                ghl, ghr = gh_rows.compress(lmask), gh_rows.compress(~lmask)
                glc, hlc = float(np.sum(ghl.real)), float(np.sum(ghl.imag))
                grc, hrc = float(np.sum(ghr.real)), float(np.sum(ghr.imag))
                dlc = two_a * hlc + lam
                drc = two_a * hrc + lam
                if dlc <= 0 or drc <= 0:
                    continue
                gain = 0.5 * (glc * glc / dlc + grc * grc / drc
                              - parent_score) - gamma_reg
                if gain > best_gain:
                    best_gain = gain
                    best = (f, thr, lmask)

        if best is None:
            weight[nid] = leaf_weight(G, H, params.a, lam)
            return nid

        f, thr, lmask = best
        left_rows, right_rows = rows.compress(lmask), rows.compress(~lmask)
        left_orders = right_orders = None
        if depth + 1 < params.max_depth:
            # one gather splits every feature's sorted order between children
            in_left = np.zeros(n, dtype=bool)
            in_left[left_rows] = True
            flat, goes_left = orders.reshape(-1), in_left.take(orders).reshape(-1)
            left_orders = flat.compress(goes_left).reshape(m, -1)
            right_orders = flat.compress(~goes_left).reshape(m, -1)

        feature[nid] = f
        threshold[nid] = thr
        left[nid] = grow(left_rows, left_orders, depth + 1)
        right[nid] = grow(right_rows, right_orders, depth + 1)
        return nid

    with np.errstate(divide="ignore", invalid="ignore"):
        grow(np.arange(n, dtype=np.intp), orders, 0)
    return RegressionTree(feature, threshold, left, right, weight)
