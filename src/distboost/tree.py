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

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .fields import count, typed


@dataclass(frozen=True)
class TreeParams:
    gamma_reg: float = 0.0        # per-leaf penalty; acts as a minimum split gain
    lambda_reg: float = 1.0       # L2 penalty on leaf weights
    a: float = 0.5                # second-order blend weight, in [0, 1/2]
    max_depth: int = 3
    min_leaf_samples: int = 1

    def __post_init__(self):
        if not typed(self.gamma_reg, "number", "gamma_reg", ValidationError) >= 0:
            raise ValidationError("gamma_reg must be finite and >= 0")
        if not typed(self.lambda_reg, "number", "lambda_reg", ValidationError) >= 0:
            raise ValidationError("lambda_reg must be finite and >= 0")
        if not 0.0 <= typed(self.a, "number", "a", ValidationError) <= 0.5:
            raise ValidationError("a must lie in [0, 1/2]")
        count(self.max_depth, "max_depth", ValidationError, 1)
        count(self.min_leaf_samples, "min_leaf_samples", ValidationError, 1)


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


def _index_column(values, key):
    """values as a node index column of np.intp, the width every consumer uses;
    ValidationError unless they are whole numbers that fit it."""
    column = np.asarray(values)
    if column.dtype == np.intp:  # the per-tree views that load and stack cut
        return column
    with np.errstate(invalid="ignore"):  # NaN and out-of-range floats fail the compare
        index = column.astype(np.intp) if column.dtype.kind in "iuf" else None
    if index is None or not np.array_equal(index, column):
        raise ValidationError(f"node column {key} must hold whole numbers that fit np.intp")
    return index


# RegressionTree._router: per-state columns, the first step's arrays, the input width needed
_Router = collections.namedtuple("_Router", "feature threshold weight child root_feature "
                                            "root_threshold root_state width")

# RegressionTree._prefix: (feature, sorted distinct thresholds, prefix table)
# per feature the stack splits on; per tree, the slot of its leaf 0 less the
# float64 exponent bias; the leaf weight of each slot (tree * leaves + leaf);
# the word that holds one tree's leaves
_Prefix = collections.namedtuple("_Prefix", "columns offset weight word")

# bytes of prefix tables above which a stack keeps the router: a table within
# it stays in a core's L2 cache beside the working arrays of a chunk of rows,
# and a larger one grows with distinct thresholds times trees
_TABLE_BUDGET = 1 << 18


def _narrow(width, m):
    return ValidationError(f"tree splits on feature {width - 1} of a {m}-column input")


class RegressionTree:
    """Immutable binary regression tree over dense feature vectors.

    Stored as parallel node arrays; feature[i] == -1 marks a leaf.  Routing
    is "left iff x[feature] < threshold": a sample exactly at the threshold
    goes right.  `RegressionTree.stack` packs several trees into one set of
    node arrays with one root per tree, which predicts one row per tree;
    error messages call tree k names[k], or "tree k" without names.

    A level-wise router answers predict(x), and predict_many of a single
    tree, of a stack with a tree of more than 64 leaves, or of a stack whose
    prefix tables would exceed _TABLE_BUDGET bytes.  predict_many of any
    other stack ANDs prefix tables of leaf bitmasks, one per feature.  Both
    give the leaf that routing gives, bit for bit.
    """

    root = 0

    def __init__(self, feature, threshold, left, right, weight, roots=0, names=None):
        self.names = None if names is None else tuple(names)
        # copy what the caller could still write to; read-only arrays (load's views) are kept
        feature, threshold, left, right, weight, roots = (
            a.copy() if isinstance(a, np.ndarray) and a.flags.writeable else a
            for a in (feature, threshold, left, right, weight, roots))
        self.feature = _index_column(feature, "feature")
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = _index_column(left, "left")
        self.right = _index_column(right, "right")
        self.weight = np.asarray(weight, dtype=np.float64)
        self.roots = np.asarray(roots, dtype=np.intp)
        columns = (self.feature, self.threshold, self.left, self.right, self.weight)
        if self.feature.ndim != 1 or any(c.shape != self.feature.shape for c in columns):
            raise ValidationError("node columns must be 1-D with one length, got shapes "
                                  f"{', '.join(str(c.shape) for c in columns)}")
        for arr in (*columns, self.roots):
            arr.setflags(write=False)

    @classmethod
    def stack(cls, trees, scales, names=None):
        """Pack trees into one set of node arrays, one root per tree in order.

        Tree t's leaf weights are multiplied by scales[t].  Error messages
        call tree t names[t], or "tree t" without names.
        """
        sizes = [t.n_nodes for t in trees]
        roots = np.cumsum([0] + sizes[:-1])
        offset = np.repeat(roots, sizes)
        feature, threshold, left, right, weight = (
            np.concatenate([getattr(t, key) for t in trees])
            for key in ("feature", "threshold", "left", "right", "weight"))
        return cls(feature, threshold, np.where(left >= 0, left + offset, -1),
                   np.where(right >= 0, right + offset, -1),
                   weight * np.repeat(scales, sizes), roots, names)

    @property
    def n_nodes(self):
        return len(self.feature)

    @property
    def n_leaves(self):
        return int(np.sum(self.feature < 0))

    @functools.cached_property
    def _width(self):
        """Columns an input needs: one past the highest feature a split reads."""
        return int(self.feature.max(initial=-1)) + 1

    def _tree(self, k):
        return f"tree {k}" if self.names is None else self.names[k]

    def _name(self, i):
        """Node i, named by its tree and its index within that tree."""
        roots = self.roots.reshape(-1)
        k = int(np.searchsorted(roots, i, side="right")) - 1
        return f"{self._tree(k)} node {i - roots[k]}"

    @functools.cached_property
    def depth(self):
        """Level of the deepest leaf below its root (0 for a lone leaf).

        Raises ValidationError unless every tree has a node, both children
        of every split lie in the split's own tree, and every node is listed
        exactly once among the roots and the split children, as in proper
        binary trees; the level walk from the roots then ends, and must
        meet every node.
        """
        return len(self._levels) - 1

    @functools.cached_property
    def _levels(self):
        """The nodes of each level, roots first; see depth for what it checks."""
        n, split = self.n_nodes, self.feature >= 0
        roots = self.roots.reshape(-1)
        ends = np.concatenate([roots[1:], [n]])
        if (roots >= ends).any():
            raise ValidationError(f"{self._tree(int(np.argmax(roots >= ends)))} has no nodes")
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
        levels = [roots]
        while True:
            reached[levels[-1]] = True
            level = levels[-1][split[levels[-1]]]
            if not level.size:
                break
            levels.append(np.concatenate([self.left[level], self.right[level]]))
        if not reached.all():
            raise ValidationError(f"{self._name(int(np.argmin(reached)))} is unreachable "
                                  "from its root")
        return levels

    @functools.cached_property
    def _router(self):
        """Node arrays in router form, indexed by a row's state s = 2 i at
        node i: the row steps to state child[s + (x[feature[s]] <
        threshold[s])], and a leaf is its own child, so `depth` steps take
        every row from its root to its leaf, where weight[s] is its value.
        The first step reads the roots' own feature, threshold and state."""
        leaf = self.feature < 0
        ids = np.arange(self.n_nodes, dtype=np.intp)
        child = 2 * np.column_stack([np.where(leaf, ids, self.right),
                                     np.where(leaf, ids, self.left)]).reshape(-1)
        feat = np.where(leaf, 0, self.feature)
        roots = self.roots[..., None]
        return _Router(feat.repeat(2), self.threshold.repeat(2), self.weight.repeat(2), child,
                       feat.take(self.roots), self.threshold.take(roots), 2 * roots,
                       self._width)

    def _states(self, X):
        """State of every row's leaf in every tree: shape roots.shape + (rows,).
        Every row takes max(depth, 1) steps; a leaf is its own child."""
        feat, thr, _, child, root_feat, root_thr, root_state, width = self._router
        n, m = X.shape
        if m < width:
            raise _narrow(width, m)
        if not m:  # then every tree is a lone leaf, which is its own state
            return np.repeat(root_state, n, axis=-1)
        # every row starts at its tree's root, so the first step reads one column per tree
        state = child.take(root_state + (X.T[root_feat] < root_thr))
        flat = np.ascontiguousarray(X).reshape(-1)
        row_start = np.arange(0, n * m, m)
        for _ in range(self.depth - 1):
            goes_left = flat.take(row_start + feat.take(state)) < thr.take(state)
            state = child.take(state + goes_left)
        return state

    @functools.cached_property
    def _prefix(self):
        """A stack's prefix tables of leaf bitmasks; None for a single tree,
        a stack with a tree of more than 64 leaves, or tables of more than
        _TABLE_BUDGET bytes, which the router serves.

        Each tree's leaves are the bits of a word, numbered left to right.  A
        row at or above a split's threshold loses the leaves of the split's
        left subtree; NaN thresholds sort as -inf, since no row is below them.
        Per feature, prefix table row j holds, per tree, the AND of the masks
        of the splits at the j lowest distinct thresholds.  ANDing the row
        that each feature's value selects leaves a tree's leaf as its lowest
        set bit: the row's leaf is never cleared, and every leaf left of it is.
        """
        if self.roots.ndim != 1:
            return None
        levels, split = self._levels, self.feature >= 0
        # leaf count and first leaf of every node, numbered left to right in its tree
        count, first = np.ones(self.n_nodes, dtype=np.intp), np.zeros(self.n_nodes, dtype=np.intp)
        for level in reversed(levels):
            s = level[split[level]]
            count[s] = count[self.left[s]] + count[self.right[s]]
        for level in levels:
            s = level[split[level]]
            first[self.left[s]] = first[s]
            first[self.right[s]] = first[s] + count[self.left[s]]
        n_leaves = int(count[self.roots].max())
        if n_leaves > 64:
            return None
        word = next(np.dtype(w) for w in (np.uint8, np.uint16, np.uint32, np.uint64)
                    if np.iinfo(w).bits >= n_leaves)
        splits = np.flatnonzero(split)
        f, t = self.feature[splits], self.threshold[splits]
        t = np.where(np.isnan(t), -np.inf, t)
        order = np.lexsort((t, f))  # by feature, then threshold
        splits, f, t = splits[order], f[order], t[order]
        new_feature = np.diff(f, prepend=-1) != 0
        new_key = new_feature | (t != np.roll(t, 1))
        # each feature's table: a row of ones, then one row per distinct threshold
        row = np.cumsum(new_key.astype(np.intp) + new_feature) - 1
        n_rows = np.count_nonzero(new_key) + np.count_nonzero(new_feature)
        if n_rows * self.roots.size * word.itemsize > _TABLE_BUDGET:
            return None
        ends = np.append(self.roots[1:], self.n_nodes)
        tree = np.repeat(np.arange(self.roots.size), ends - self.roots)
        leaf = ~split
        weight = np.zeros(self.roots.size * n_leaves)
        weight[tree[leaf] * n_leaves + first[leaf]] = self.weight[leaf]
        left, one = self.left[splits], np.uint64(1)
        mask = ~(((one << count[left].astype(np.uint64)) - one)
                 << first[left].astype(np.uint64))
        table = np.full((n_rows, self.roots.size), np.iinfo(word).max, dtype=word)
        np.bitwise_and.at(table, (row, tree[splits]), mask.astype(word))
        bounds = np.append(row[new_feature] - 1, n_rows)
        columns = []
        for i, lo, hi in zip(np.flatnonzero(new_feature), bounds[:-1], bounds[1:]):
            np.bitwise_and.accumulate(table[lo:hi], axis=0, out=table[lo:hi])
            columns.append((int(f[i]), t[new_key & (f == f[i])], table[lo:hi]))
        offset = (np.arange(self.roots.size) * n_leaves - 1023)[:, None]
        return _Prefix(columns, offset, weight, word)

    def predict(self, x):
        """Leaf weight of one row: a float, or one per tree for a stack."""
        state = self._states(np.asarray(x, dtype=np.float64).reshape(1, -1))[..., 0]
        w = self._router.weight[state]
        return float(w) if w.ndim == 0 else w

    def predict_many(self, X):
        """Leaf weights of every row: shape roots.shape + (rows,), from the
        prefix tables where _prefix builds them, else from the router."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValidationError("X must be 2-D")
        prefix = self._prefix
        if prefix is None:
            return self._router.weight[self._states(X)]
        if X.shape[1] < self._width:
            raise _narrow(self._width, X.shape[1])
        bits = np.full((X.shape[0], self.roots.size), np.iinfo(prefix.word).max,
                       dtype=prefix.word)
        for f, thresholds, table in prefix.columns:
            # the prefix table row that each row's value selects
            bits &= table.take(np.searchsorted(thresholds, X[:, f], side="right"), axis=0)
        bits = np.ascontiguousarray(bits.T)
        bits &= -bits  # the lowest set bit; unsigned negation wraps
        # 2**leaf as a float64 has the exponent field 1023 + leaf
        slot = bits.astype(np.float64).view(np.int64)
        slot >>= 52
        slot += prefix.offset
        return prefix.weight.take(slot)

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
