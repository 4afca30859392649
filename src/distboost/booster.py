"""Boosting driver for one or several jointly trained distribution parameters.

Each parameter j gets its own additive tree ensemble, learning rate,
gradient clipping threshold M_j, second-order blend weight a_j, and
regularization.  A round proceeds as:

  1. gradients and hessians for every parameter active this round are
     evaluated at the same pre-round state (simultaneous-update semantics),
  2. per-sample gradients are clipped to [-M_j, M_j] and hessians replaced
     by max(0, h), which is what makes non-convex losses trainable,
  3. one tree per active parameter is fitted and applied with shrinkage,
     the updated estimates clamped into the parameter's working interval.

Estimates start from the constant maximum-likelihood fit, which keeps early
gradients tame and clipping/clamping rare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import Dataset
from .errors import NumericError, TrainingError, ValidationError
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
    m = float(m)
    if not (math.isfinite(m) and m > 0):
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
        if self.rounds is not None and int(self.rounds) < 0:
            raise ValidationError("rounds cap must be >= 0")
        if not (math.isfinite(self.clip_m) and self.clip_m > 0):
            raise ValidationError("clip_m must be positive and finite")
        if int(self.interval) < 1:
            raise ValidationError("interval must be >= 1")
        if int(self.offset) < 0:
            raise ValidationError("offset must be >= 0")
        if self.base_value is not None and not math.isfinite(self.base_value):
            raise ValidationError("base_value override must be finite")


def _check_eta(eta, where=""):
    """Training's rule for a learning rate, also applied to loaded trees."""
    if not 0.0 < eta <= 1.0:
        raise ValidationError(f"{where}eta must lie in (0, 1], got {eta}")


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
    adds tree after tree in fit order, never pairwise as np.sum may, over one
    stacked tree per parameter, packed and validated at construction and
    routed in one pass.
    """

    def __init__(self, loss_name, nuisance, feature_names, params):
        self.loss_name = str(loss_name)
        self.nuisance = dict(nuisance)
        self.feature_names = tuple(feature_names)
        if not self.feature_names or len(set(self.feature_names)) != len(self.feature_names):
            raise ValidationError(
                f"feature_names must be nonempty and distinct, got {self.feature_names}")
        self.params = tuple(replace(p, trees=tuple(p.trees)) for p in params)
        # per parameter, validated once: base value as one-leaf tree -1, then trees shrunk by eta
        self._stacks = []
        for j, p in enumerate(self.params):
            for k, (_, eta) in enumerate(p.trees):
                _check_eta(eta, f"params[{j}].trees: tree {k} ")
            stack = RegressionTree.stack([_LEAF_TREE] + [t for t, _ in p.trees],
                                         [p.base_value] + [eta for _, eta in p.trees], -1)
            try:
                stack.validate_structure(len(self.feature_names))
            except ValidationError as exc:
                raise ValidationError(f"params[{j}].trees: {exc}") from None
            self._stacks.append(stack)

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
        return tuple(clamp_to_domain(np.cumsum(stack.predict(x))[-1], p.domain)
                     for p, stack in zip(self.params, self._stacks))

    def predict_many(self, X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValidationError("X must be 2-D")
        self._check_width(X.shape[1])
        out = np.empty((X.shape[0], self.n_params))
        for j, (p, stack) in enumerate(zip(self.params, self._stacks)):
            step = max(1, _ROUTE_BUDGET // stack.roots.size)
            for lo in range(0, X.shape[0], step):
                W = stack.predict_many(X[lo:lo + step])
                acc = W[0].copy()  # contiguous; tree by tree, as cumsum would
                for w in W[1:]:
                    acc += w
                out[lo:lo + step, j] = acc
            out[:, j] = clamp_to_domain(out[:, j], p.domain)
        return out


@dataclass(frozen=True)
class RoundRecord:
    """One row of the training trace."""

    round: int                # 1-based
    active: tuple             # per-parameter bool
    train_nll: float
    max_abs_grad: tuple       # per-parameter float or None when inactive
    clamped_rows: tuple       # per-parameter count of rows clamped this round
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
    clamped: np.ndarray       # (n, l) bool: row ever clamped during training


def train(ds: Dataset, loss: Loss, configs, total_rounds):
    """Run the boosting loop and return the model plus its training trace.

    Estimates are one float64 array per parameter, the list the loss takes.
    A round takes every active parameter's statistics at the pre-round state,
    then fits their trees in index order, clamping each updated array into
    its working interval.  That path (not tree replay) is what gradients and
    the loss trace see.
    """
    if not isinstance(total_rounds, (int, np.integer)) or int(total_rounds) < 0:
        raise ValidationError("total_rounds must be a nonnegative integer")
    total_rounds = int(total_rounds)
    l = loss.n_params
    if len(configs) != l:
        raise ValidationError(
            f"loss '{loss.name}' has {l} parameter(s) but {len(configs)} config blocks given")
    loss.validate_response(ds.response)

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

    if any(cfg.base_value is None for cfg in configs):
        mle = loss.mle_init(ds)
    else:
        mle = (None,) * l
    base = [clamp_to_domain(cfg.base_value if cfg.base_value is not None else mle[j],
                            domains[j])
            for j, cfg in enumerate(configs)]

    n = ds.n_rows
    X = ds.features
    y, expo, adj = ds.response, ds.exposure, ds.adjustment
    presorted = presort_features(X)

    theta = [np.full(n, b) for b in base]
    clamped = np.zeros((n, l), dtype=bool)
    ensembles = [ParamEnsemble(loss.param_names[j], base[j], domains[j], [])
                 for j in range(l)]

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
            assert np.all(np.abs(g) <= cfg.clip_m)
            # NaN compares unequal to everything, so these count exactly the
            # rows that clipping or zeroing changed
            n_grad_clipped[j] = int(np.count_nonzero(g != raw_g))
            n_hess_zeroed[j] = int(np.count_nonzero(h != raw_h))
            max_abs_g[j] = float(np.max(np.abs(g)))
            fits.append((j, cfg, g, h))

        for j, cfg, g, h in fits:
            fitted = build_tree(X, g, h, cfg.tree, presorted)
            raw = theta[j] + cfg.eta * fitted.predict_many(X)
            theta[j] = clamp_to_domain(raw, domains[j])
            hit = theta[j] != raw
            n_clamped[j] = int(np.sum(hit))
            clamped[:, j] |= hit
            assert domains[j].contains(theta[j])
            ensembles[j].trees.append((fitted, cfg.eta))

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
