"""Boosting driver for one or several jointly trained distribution parameters.

Each parameter j gets its own additive tree ensemble, learning rate,
gradient clipping threshold M_j, second-order blend weight a_j, and
regularization.  A round proceeds as:

  1. gradients and hessians for every parameter active this round are
     evaluated at the same pre-round state (simultaneous-update semantics),
  2. per-sample gradients are clipped to [-M_j, M_j] and hessians replaced
     by max(0, h), which is what makes non-convex losses trainable,
  3. one tree per active parameter is fitted and added, shrunken, to the
     parameter's tree sum, which the losses see clamped into its domain.

Estimates start from the constant maximum-likelihood fit, which keeps early
gradients tame and clipping/clamping rare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import Dataset
from .errors import NumericError, TrainingError, ValidationError
from .fields import count, typed
from .losses import Loss, ParameterDomain
from .tree import RegressionTree, TreeParams, build_tree, presort_features


def _like_input(out):
    """Scalar in, float out; arrays pass through."""
    return float(out) if np.ndim(out) == 0 else out


def clip_gradient(g, m):
    """Symmetric truncation of a first-order statistic to [-m, m].

    Non-finite inputs are mapped to the band edge: +m for NaN, the signed
    edge for infinities, so a single degenerate sample cannot poison a leaf.
    """
    if not typed(m, "number", "clip threshold m", ValidationError) > 0:
        raise ValidationError("clip threshold m must be positive and finite")
    g = np.asarray(g, dtype=np.float64)
    return _like_input(np.where(np.isnan(g), m, np.clip(g, -m, m)))


def effective_hessian(h):
    """Clipped second-order statistic max(0, h); non-finite maps to 0."""
    h = np.asarray(h, dtype=np.float64)
    return _like_input(np.where(np.isfinite(h), np.maximum(h, 0.0), 0.0))


def clamp_to_domain(theta, domain: ParameterDomain):
    """min(hi, max(lo, theta)), elementwise for arrays."""
    return _like_input(domain.clip(np.asarray(theta, dtype=np.float64)))


_LEAF_TREE = RegressionTree([-1], [0.0], [-1], [-1], [1.0])

# leaf weights (trees x rows) routed per chunk by predict_many, which keeps
# its peak memory flat in the number of rows
_ROUTE_BUDGET = 1 << 16


@dataclass(frozen=True)
class ParamTrainConfig:
    """Per-parameter training hyperparameters.

    rounds caps how many trees this parameter may receive (None: no cap up
    to the master round count).  interval/offset schedule the parameter:
    it trains on 0-based round indices t with t >= offset and
    (t - offset) % interval == 0.  domain/base_value override the loss's
    data-derived defaults.  `train` checks the rules that need the loss.
    """

    eta: float = 0.1
    rounds: int | None = None
    clip_m: float = 1e4
    tree: TreeParams = field(default_factory=TreeParams)
    interval: int = 1
    offset: int = 0
    domain: ParameterDomain | None = None
    base_value: float | None = None

    def __post_init__(self):
        _check_eta(self.eta)
        if self.rounds is not None:
            count(self.rounds, "rounds", ValidationError)
        if not typed(self.clip_m, "number", "clip_m", ValidationError) > 0:
            raise ValidationError("clip_m must be positive and finite")
        count(self.interval, "interval", ValidationError, 1)
        count(self.offset, "offset", ValidationError)
        if self.base_value is not None:
            typed(self.base_value, "number", "base_value", ValidationError)


def _check_eta(eta, where=""):
    """Training's rule for a learning rate, also applied to loaded trees."""
    if not 0.0 < typed(eta, "number", f"{where}eta", ValidationError) <= 1.0:
        raise ValidationError(f"{where}eta must lie in (0, 1], got {float(eta)}")


@dataclass(frozen=True)
class ParamEnsemble:
    """Base value plus the ordered trees fitted for one parameter."""

    name: str
    base_value: float
    domain: ParameterDomain
    trees: tuple  # of (RegressionTree, eta at fit time); train grows a list


class BoostedModel:
    """Per-parameter base values and tree ensembles; immutable after
    construction, which copies every parameter's list of trees.

    Prediction for parameter j is the base value plus the shrunken sum of
    its trees, clamped once into the parameter's working interval.  The sum
    adds tree after tree in fit order, never pairwise as np.sum may.  One
    routing table, packed and validated at construction, holds every
    parameter's base value and trees in turn, so a quote is routed once for
    all parameters, and a chunk of a batch is scored once through the
    table's prefix tables (see RegressionTree).  A sum that ties a bound of
    opposite sign (-0.0 at 0.0) keeps its own, as np.clip with scalar bounds
    does; np.clip with array bounds would take the bound's.
    """

    def __init__(self, loss_name, nuisance, feature_names, params):
        self.loss_name = str(loss_name)
        self.nuisance = dict(nuisance)
        self.feature_names = tuple(feature_names)
        if not self.feature_names or len(set(self.feature_names)) != len(self.feature_names):
            raise ValidationError(
                f"feature_names must be nonempty and distinct, got {self.feature_names}")
        self.params = tuple(replace(p, trees=tuple(p.trees)) for p in params)
        # parameter after parameter: its base value as a one-leaf tree, named
        # tree -1 in messages, then its trees shrunk by eta
        names, trees, scales = [], [], []
        for j, p in enumerate(self.params):
            for k, (tree, scale) in enumerate([(_LEAF_TREE, p.base_value), *p.trees], -1):
                names.append(f"params[{j}].trees: tree {k}")
                if k >= 0:
                    _check_eta(scale, f"{names[-1]} ")
                trees.append(tree)
                scales.append(scale)
        self._table = RegressionTree.stack(trees, scales, names)
        self._table.validate_structure(len(self.feature_names))
        # parameter j's base value and trees are the table's roots a:b, clamped into [lo, hi]
        ends = np.cumsum([0] + [len(p.trees) + 1 for p in self.params]).tolist()
        self._slices = [(a, b, float(p.domain.lo), float(p.domain.hi))
                        for a, b, p in zip(ends, ends[1:], self.params)]

    @property
    def n_params(self):
        return len(self.params)

    @property
    def param_names(self):
        return tuple(p.name for p in self.params)

    def _check_width(self, width):
        if width != len(self.feature_names):
            raise ValidationError(
                f"expected {len(self.feature_names)} features "
                f"({', '.join(self.feature_names)}), got {width}")

    def predict(self, x):
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        self._check_width(x.shape[0])
        w = self._table.predict(x)
        # min and max of floats keep a sum that ties a bound, as the class docstring requires
        return tuple(min(max(np.add.accumulate(w[a:b]).item(-1), lo), hi)
                     for a, b, lo, hi in self._slices)

    def predict_many(self, X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValidationError("X must be 2-D")
        self._check_width(X.shape[1])
        sums = np.empty((self.n_params, X.shape[0]))  # a contiguous row per parameter
        step = max(1, _ROUTE_BUDGET // self._table.roots.size)
        for r in range(0, X.shape[0], step):
            W = self._table.predict_many(X[r:r + step])
            for acc, (a, b, _, _) in zip(sums[:, r:r + step], self._slices):
                acc[:] = W[a]
                for w in W[a + 1:b]:  # tree by tree, as cumsum would
                    acc += w
        out = np.empty((X.shape[0], self.n_params))
        for j, (_, _, lo, hi) in enumerate(self._slices):
            np.clip(sums[j], lo, hi, out=out[:, j])
        return out


@dataclass(frozen=True)
class RoundRecord:
    """One row of the training trace."""

    round: int                # 1-based
    active: tuple             # per-parameter bool
    train_nll: float
    max_abs_grad: tuple       # per-parameter float or None when inactive
    clamped_rows: tuple       # per-parameter count of rows whose tree sum lies
                              # outside its domain after this round
    grad_clipped: tuple       # per-parameter count of rows whose raw gradient was
                              # NaN or outside [-clip_m, clip_m]
    hess_zeroed: tuple        # per-parameter count of rows whose raw hessian was
                              # negative or non-finite


@dataclass
class TrainResult:
    model: BoostedModel
    trace: list               # of RoundRecord, one per round
    initial_nll: float
    final_theta: np.ndarray   # (n, l) training-path estimates
    clamped: np.ndarray       # (n, l) bool: tree sum outside the domain after some round


def train(ds: Dataset, loss: Loss, configs, total_rounds):
    """Run the boosting loop and return the model plus its training trace.

    Each parameter keeps an unclamped sum: its base value plus eta times each
    tree's output, added in fit order as BoostedModel.predict_many adds them.
    A round takes every active parameter's statistics at the pre-round state,
    then fits their trees in index order.  The losses see each sum clamped
    into its domain, so the saved model predicts the training path bitwise.
    """
    total_rounds = count(total_rounds, "total_rounds", ValidationError)
    l = loss.n_params
    if len(configs) != l:
        raise ValidationError(
            f"loss '{loss.name}' has {l} parameter(s) but {len(configs)} config blocks given")
    loss.validate_rows(ds)

    defaults = loss.default_domains(ds)
    # the rules that need the loss, checked once, before the first tree
    for name, cfg, positive in zip(loss.param_names, configs, loss.must_be_positive):
        if cfg.tree.lambda_reg == 0.0 and not (cfg.tree.a > 0.0 and loss.hess_positive):
            raise ValidationError(f"parameter '{name}': lambda_reg = 0 needs a > 0 and a "
                                  "loss whose hessian is positive everywhere (got a = "
                                  f"{cfg.tree.a}, loss '{loss.name}')")
        if cfg.domain is not None and positive and cfg.domain.lo <= 0:
            raise ValidationError(f"parameter '{name}': domain [{cfg.domain.lo}, "
                                  f"{cfg.domain.hi}] must stay above 0 for '{loss.name}'")
    domains = [cfg.domain if cfg.domain is not None else defaults[j]
               for j, cfg in enumerate(configs)]

    mle = loss.mle_init(ds) if any(cfg.base_value is None for cfg in configs) else (None,) * l
    base = [clamp_to_domain(mle[j] if cfg.base_value is None else cfg.base_value, domains[j])
            for j, cfg in enumerate(configs)]

    n, X = ds.n_rows, ds.features
    y, expo, adj = ds.response, ds.exposure, ds.adjustment
    presorted = presort_features(X)

    sums = [np.full(n, b) for b in base]
    theta = [clamp_to_domain(s, d) for s, d in zip(sums, domains)]
    clamped = np.zeros((n, l), dtype=bool)
    ensembles = [ParamEnsemble(loss.param_names[j], base[j], domains[j], [])
                 for j in range(l)]

    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        initial_nll = float(np.sum(loss.value(theta, y, expo, adj)))
    if not math.isfinite(initial_nll):
        raise NumericError("training loss is non-finite at the start point")

    trace = []
    for t in range(1, total_rounds + 1):
        ridx = t - 1
        max_abs_g = [None] * l
        n_grad_clipped = [0] * l
        n_hess_zeroed = [0] * l
        n_clamped = [0] * l
        # Simultaneous-update semantics: all statistics at the pre-round state.
        fits = []
        for j, cfg in enumerate(configs):
            scheduled = ridx >= cfg.offset and (ridx - cfg.offset) % cfg.interval == 0
            capped = cfg.rounds is not None and len(ensembles[j].trees) >= cfg.rounds
            if not scheduled or capped:
                continue
            raw_g = loss.grad(j, theta, y, expo, adj)
            raw_h = loss.hess(j, theta, y, expo, adj)
            g = clip_gradient(raw_g, cfg.clip_m)
            h = effective_hessian(raw_h)
            # NaN compares unequal to everything, so these count exactly the
            # rows that clipping or zeroing changed
            n_grad_clipped[j] = int(np.count_nonzero(g != raw_g))
            n_hess_zeroed[j] = int(np.count_nonzero(h != raw_h))
            max_abs_g[j] = float(np.max(np.abs(g)))
            fits.append((j, cfg, g, h))

        for j, cfg, g, h in fits:
            fitted = build_tree(X, g, h, cfg.tree, presorted)
            sums[j] += cfg.eta * fitted.predict_many(X)
            theta[j] = clamp_to_domain(sums[j], domains[j])
            hit = theta[j] != sums[j]
            n_clamped[j] = int(np.sum(hit))
            clamped[:, j] |= hit
            ensembles[j].trees.append((fitted, cfg.eta))

        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            nll = float(np.sum(loss.value(theta, y, expo, adj)))
        if not math.isfinite(nll):
            raise TrainingError(f"non-finite training loss at round {t}", t)
        trace.append(RoundRecord(
            round=t,
            active=tuple(m is not None for m in max_abs_g),
            train_nll=nll,
            max_abs_grad=tuple(max_abs_g),
            clamped_rows=tuple(n_clamped),
            grad_clipped=tuple(n_grad_clipped),
            hess_zeroed=tuple(n_hess_zeroed),
        ))

    model = BoostedModel(loss.name, loss.nuisance, ds.feature_names, ensembles)
    return TrainResult(model=model, trace=trace, initial_nll=initial_nll,
                       final_theta=np.column_stack(theta), clamped=clamped)
