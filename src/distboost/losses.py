"""Per-sample loss functions with analytic first and second partials.

Every loss here is an l-parameter negative log-likelihood (or a simple
diagnostic loss) evaluated per sample.  The boosting engine only ever needs,
for each parameter coordinate j, the value, the first partial, and the PURE
second partial in that coordinate; cross partials are never used.

Losses do not have to be convex.  The admissibility requirement is much
weaker: along each parameter coordinate (others held fixed) the loss must
have at most one local minimum, with the derivative negative before it and
positive after it, or be monotonic throughout.  ``check_admissibility``
verifies that numerically on a grid.

All value/grad/hess methods broadcast over numpy arrays and are pure,
stateless, and safe to call from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln, polygamma

from .dataset import Dataset
from .errors import ValidationError
from .fields import typed


def log_gamma(x):
    """Natural log of the gamma function for finite x > 0 (scipy's gammaln).

    Accepts scalars or arrays; scalar in, float out.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and not np.all(np.isfinite(arr) & (arr > 0.0)):
        raise ValidationError("log_gamma requires finite x > 0")
    res = gammaln(arr)
    return float(res) if arr.ndim == 0 else res


@dataclass(frozen=True)
class ParameterDomain:
    """Closed working interval for one distribution parameter.

    Kept a comfortable distance inside the theoretical boundary so that
    boosted estimates clamped to it remain numerically safe.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValidationError(f"invalid domain [{self.lo}, {self.hi}]")

    def clip(self, x):
        return np.clip(x, self.lo, self.hi)

    def contains(self, x):
        return bool(np.all((np.asarray(x) >= self.lo) & (np.asarray(x) <= self.hi)))

    @property
    def width(self):
        return self.hi - self.lo


class Loss:
    """Base class: an l-parameter per-sample loss.

    theta is a sequence of l arrays (or scalars), one per parameter, all
    broadcastable against y/exposure/adjustment.  grad/hess take the
    coordinate index j and return the first / pure second partial in that
    coordinate.
    """

    name = ""
    param_names: tuple = ()
    # True only when hess(j, ...) > 0 for every parameter, theta and response;
    # then a leaf's denominator stays positive with lambda_reg = 0 and a > 0
    hess_positive = False

    def __init__(self, nuisance=None):
        self.nuisance = dict(nuisance or {})

    @property
    def n_params(self):
        return len(self.param_names)

    def value(self, theta, y, exposure=1.0, adjustment=1.0):
        raise NotImplementedError

    def grad(self, j, theta, y, exposure=1.0, adjustment=1.0):
        raise NotImplementedError

    def hess(self, j, theta, y, exposure=1.0, adjustment=1.0):
        raise NotImplementedError

    def mle_init(self, ds: Dataset):
        """Constant-parameter fit used as the boosting start point."""
        raise NotImplementedError

    def default_domains(self, ds: Dataset | None = None):
        """Per-parameter working intervals, possibly informed by the data."""
        raise NotImplementedError

    def validate_response(self, y):
        """Raise ValidationError when y is outside the loss's support."""

    def _theta_arrays(self, theta):
        if len(theta) != self.n_params:
            raise ValidationError(
                f"{self.name} expects {self.n_params} parameter(s), got {len(theta)}")
        return [np.asarray(t, dtype=np.float64) for t in theta]

    def _check_j(self, j):
        if not 0 <= j < self.n_params:
            raise ValidationError(f"parameter index {j} out of range for {self.name}")

    def __repr__(self):
        nus = ", ".join(f"{k}={v}" for k, v in sorted(self.nuisance.items()))
        return f"{type(self).__name__}({nus})"


# counts up to this many are summed directly in _trigamma_difference; larger
# counts take the two scipy trigamma calls.  On a 2-vCPU Xeon a row's terms
# cost about 12 ns each against about 0.75 us for its two trigamma calls, so
# a row at the cap costs about half of what scipy would
_DIRECT_TERMS = 32


def _trigamma_difference(r, y):
    """psi_1(r) - psi_1(r + y) for r > 0 and nonnegative integer counts y.

    By the recurrence psi_1(x) = psi_1(x + 1) + 1/x^2 the difference is the
    sum of 1/(r + k)^2 over k < y.  Rows with 0 < y <= K = _DIRECT_TERMS add
    those terms in ascending k, over a row set that shrinks as the counts
    run out.  Rows with y > K take psi_1(r) - psi_1(r + y) from scipy, so a
    large count costs about what the two trigamma calls cost.  Result has the
    broadcast shape of r and y; it is exactly 0 where y = 0.
    """
    r, y = np.broadcast_arrays(r, y)
    shape = r.shape
    r, y = r.ravel(), y.ravel()
    out = np.zeros(r.shape)
    large = y > _DIRECT_TERMS
    if large.any():
        rl = r[large]
        out[large] = polygamma(1, rl) - polygamma(1, rl + y[large])
    idx = np.flatnonzero((y > 0) & ~large)
    for k in range(_DIRECT_TERMS):
        if not idx.size:
            break
        out[idx] += 1.0 / (r[idx] + k) ** 2
        idx = idx[y[idx] > k + 1]
    return out.reshape(shape)


def _check_count_response(y, name):
    y = np.asarray(y, dtype=np.float64)
    ok = np.isfinite(y) & (y >= 0) & (y == np.floor(y))
    if not np.all(ok):
        raise ValidationError(f"{name} requires nonnegative integer responses")
    return y


class SquaredError(Loss):
    """Half squared error; the convex sanity check.

    With blend weight a = 1/2 and no clipping this reduces the whole engine
    to plain second-order tree boosting, which the tests exploit.
    """

    name = "squared_error"
    param_names = ("theta",)
    hess_positive = True

    def value(self, theta, y, exposure=1.0, adjustment=1.0):
        (th,) = self._theta_arrays(theta)
        return 0.5 * (th - np.asarray(y, dtype=np.float64)) ** 2

    def grad(self, j, theta, y, exposure=1.0, adjustment=1.0):
        self._check_j(j)
        (th,) = self._theta_arrays(theta)
        return th - np.asarray(y, dtype=np.float64)

    def hess(self, j, theta, y, exposure=1.0, adjustment=1.0):
        self._check_j(j)
        (th,) = self._theta_arrays(theta)
        return np.ones(np.broadcast(th, np.asarray(y)).shape)

    def mle_init(self, ds):
        return (float(np.mean(ds.response)),)

    def default_domains(self, ds=None):
        return (ParameterDomain(-1e9, 1e9),)


class GammaNLL(Loss):
    """Negative log density of a gamma response parameterized by its mean.

    With shape alpha held as a nuisance constant and mean mu boosted:

        l(mu; y) = alpha ln mu + alpha y / mu - alpha ln alpha
                   + ln G(alpha) - (alpha - 1) ln y

    Not convex in mu: past mu = 2y the curvature turns negative, which is
    exactly the regime where clipped-hessian updates matter.
    """

    name = "gamma"
    param_names = ("mu",)

    def __init__(self, alpha):
        alpha = float(alpha)
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValidationError("gamma shape alpha must be a positive finite number")
        super().__init__({"alpha": alpha})
        self.alpha = alpha
        self._const = log_gamma(alpha) - alpha * math.log(alpha)

    def validate_response(self, y):
        y = np.asarray(y, dtype=np.float64)
        if not np.all(np.isfinite(y) & (y > 0)):
            raise ValidationError("gamma requires strictly positive responses")

    def _mu(self, theta):
        (mu,) = self._theta_arrays(theta)
        if not np.all(mu > 0):
            raise ValidationError("gamma mean mu must be positive")
        return mu

    def value(self, theta, y, exposure=1.0, adjustment=1.0):
        mu = self._mu(theta)
        y = np.asarray(y, dtype=np.float64)
        self.validate_response(y)
        a = self.alpha
        return a * np.log(mu) + a * y / mu + self._const - (a - 1.0) * np.log(y)

    def grad(self, j, theta, y, exposure=1.0, adjustment=1.0):
        self._check_j(j)
        mu = self._mu(theta)
        y = np.asarray(y, dtype=np.float64)
        self.validate_response(y)
        return self.alpha / mu - self.alpha * y / mu**2

    def hess(self, j, theta, y, exposure=1.0, adjustment=1.0):
        self._check_j(j)
        mu = self._mu(theta)
        y = np.asarray(y, dtype=np.float64)
        self.validate_response(y)
        return -self.alpha / mu**2 + 2.0 * self.alpha * y / mu**3

    def mle_init(self, ds):
        self.validate_response(ds.response)
        return (float(np.mean(ds.response)),)

    def default_domains(self, ds=None):
        center = float(np.mean(ds.response)) if ds is not None else 1.0
        return (ParameterDomain(1e-6 * center, 1e6 * center),)


class ZipNLL(Loss):
    """Negative log pmf of a zero-inflated Poisson, parameterized by the mean.

    The response is 0 with probability (1 - alpha) and Poisson(mu / alpha)
    with probability alpha, so mu is the unconditional mean.  alpha = 1
    degenerates to a plain Poisson, handled by a dedicated branch so the
    y = 0 expression stays stable for large mu.
    """

    name = "zip"
    param_names = ("mu",)

    def __init__(self, alpha):
        alpha = float(alpha)
        if not (math.isfinite(alpha) and 0 < alpha <= 1):
            raise ValidationError("zip mixing weight alpha must lie in (0, 1]")
        super().__init__({"alpha": alpha})
        self.alpha = alpha

    def validate_response(self, y):
        _check_count_response(y, "zip")

    def _mu(self, theta):
        (mu,) = self._theta_arrays(theta)
        if not np.all(mu > 0):
            raise ValidationError("zip mean mu must be positive")
        return mu

    def value(self, theta, y, exposure=1.0, adjustment=1.0):
        mu = self._mu(theta)
        y = _check_count_response(y, "zip")
        a = self.alpha
        if a == 1.0:
            return -y * np.log(mu) + mu + log_gamma(y + 1.0)
        z = mu / a
        v_zero = -np.log((1.0 - a) + a * np.exp(-z))
        v_pos = (y - 1.0) * math.log(a) - y * np.log(mu) + z + log_gamma(y + 1.0)
        return np.where(y == 0, v_zero, v_pos)

    def grad(self, j, theta, y, exposure=1.0, adjustment=1.0):
        self._check_j(j)
        mu = self._mu(theta)
        y = _check_count_response(y, "zip")
        a = self.alpha
        if a == 1.0:
            return 1.0 - y / mu
        ez = np.exp(-mu / a)
        s = (1.0 - a) + a * ez
        return np.where(y == 0, ez / s, 1.0 / a - y / mu)

    def hess(self, j, theta, y, exposure=1.0, adjustment=1.0):
        self._check_j(j)
        mu = self._mu(theta)
        y = _check_count_response(y, "zip")
        a = self.alpha
        if a == 1.0:
            return y / mu**2
        ez = np.exp(-mu / a)
        s = (1.0 - a) + a * ez
        return np.where(y == 0, ez * (ez - s / a) / s**2, y / mu**2)

    def mle_init(self, ds):
        # No closed form for fixed alpha; the constant-mu likelihood is
        # unimodal, so a golden-section scan over the working interval does.
        self.validate_response(ds.response)
        (dom,) = self.default_domains(ds)
        y, e, adj = ds.response, ds.exposure, ds.adjustment

        def total(mu):
            return float(np.sum(self.value((mu,), y, e, adj)))

        mu_hat = _golden_section_min(total, dom.lo, dom.hi, 1e-8 * dom.width)
        return (float(dom.clip(mu_hat)),)

    def default_domains(self, ds=None):
        top = max(float(np.mean(ds.response)), 1.0) if ds is not None else 1.0
        return (ParameterDomain(1e-6, 1e6 * top),)


class NegBinNLL(Loss):
    """Negative log pmf of a negative binomial with both parameters boosted.

    Per sample, with r = exposure * gamma and b = adjustment * beta:

        l(beta, gamma; y) = ln G(r) + ln G(y + 1) - ln G(y + r)
                            + (r + y) ln(1 + b) - y ln b

    Exposure multiplies the shape (observation-window scaling); the
    adjustment coefficient rescales beta per row (deductible effects on
    claim frequency).  Partials in beta are elementary.  The gamma gradient
    takes scipy's digamma at r and y + r; the gamma hessian needs
    psi_1(r) - psi_1(y + r), which _trigamma_difference sums over the count.
    """

    name = "negbin"
    param_names = ("beta", "gamma")

    def validate_response(self, y):
        _check_count_response(y, "negbin")

    def _parts(self, theta, y, exposure, adjustment):
        beta, gam = self._theta_arrays(theta)
        if not np.all(beta > 0):
            raise ValidationError("negbin beta must be positive")
        if not np.all(gam > 0):
            raise ValidationError("negbin gamma must be positive")
        y = _check_count_response(y, "negbin")
        e = np.asarray(exposure, dtype=np.float64)
        adj = np.asarray(adjustment, dtype=np.float64)
        return e * gam, adj * beta, y, e, adj

    def value(self, theta, y, exposure=1.0, adjustment=1.0):
        r, b, y, _, _ = self._parts(theta, y, exposure, adjustment)
        return (log_gamma(r) + log_gamma(y + 1.0) - log_gamma(y + r)
                + (r + y) * np.log1p(b) - y * np.log(b))

    def grad(self, j, theta, y, exposure=1.0, adjustment=1.0):
        self._check_j(j)
        r, b, y, e, adj = self._parts(theta, y, exposure, adjustment)
        if j == 0:
            return adj * ((r + y) / (1.0 + b) - y / b)
        return e * (digamma(r) - digamma(y + r) + np.log1p(b))

    def hess(self, j, theta, y, exposure=1.0, adjustment=1.0):
        self._check_j(j)
        r, b, y, e, adj = self._parts(theta, y, exposure, adjustment)
        if j == 0:
            return adj**2 * (y / b**2 - (r + y) / (1.0 + b) ** 2)
        return e**2 * _trigamma_difference(r, y)

    def mle_init(self, ds):
        # Method of moments on the per-unit scale y / (exposure * adjustment):
        # cheap, and always clamped into the working box.  Full 2-D MLE is
        # overkill for a start point.
        self.validate_response(ds.response)
        dom_b, dom_g = self.default_domains(ds)
        w = ds.exposure * ds.adjustment
        total_w = float(np.sum(w))
        m1 = float(np.sum(ds.response)) / total_w
        if m1 <= 0:
            return (dom_b.lo, dom_g.lo)
        u = ds.response / w
        var = float(np.sum(w * (u - m1) ** 2)) / total_w
        beta0 = max(dom_b.lo, (var - m1) / m1)
        beta0 = float(dom_b.clip(beta0))
        gamma0 = float(dom_g.clip(m1 / beta0))
        return (beta0, gamma0)

    def default_domains(self, ds=None):
        return (ParameterDomain(1e-4, 1e4), ParameterDomain(1e-4, 1e4))


class DoubleWell(Loss):
    """Deliberately inadmissible diagnostic loss: (theta^2 - 1)^2.

    Two local minima at theta = -1 and theta = +1, so admissibility
    checking must reject it.  The response is ignored.
    """

    name = "double_well"
    param_names = ("theta",)

    def value(self, theta, y, exposure=1.0, adjustment=1.0):
        (th,) = self._theta_arrays(theta)
        th = np.broadcast_arrays(th, np.asarray(y, dtype=np.float64))[0]
        return (th**2 - 1.0) ** 2

    def grad(self, j, theta, y, exposure=1.0, adjustment=1.0):
        self._check_j(j)
        (th,) = self._theta_arrays(theta)
        th = np.broadcast_arrays(th, np.asarray(y, dtype=np.float64))[0]
        return 4.0 * th * (th**2 - 1.0)

    def hess(self, j, theta, y, exposure=1.0, adjustment=1.0):
        self._check_j(j)
        (th,) = self._theta_arrays(theta)
        th = np.broadcast_arrays(th, np.asarray(y, dtype=np.float64))[0]
        return 12.0 * th**2 - 4.0

    def mle_init(self, ds):
        return (0.25,)

    def default_domains(self, ds=None):
        return (ParameterDomain(-3.0, 3.0),)


# factory names of the public API
squared_error = SquaredError
gamma_nll = GammaNLL
zip_nll = ZipNLL
negbin_nll = NegBinNLL
double_well = DoubleWell


_REGISTRY = {
    "squared_error": (SquaredError, ()),
    "gamma": (GammaNLL, ("alpha",)),
    "zip": (ZipNLL, ("alpha",)),
    "negbin": (NegBinNLL, ()),
    "double_well": (DoubleWell, ()),
}


def loss_names():
    return tuple(sorted(_REGISTRY))


def make_loss(name, nuisance=None):
    """Build a registered loss from its name and nuisance-constant map."""
    if name not in _REGISTRY:
        raise ValidationError(f"unknown loss '{name}'; known: {', '.join(loss_names())}")
    cls, required = _REGISTRY[name]
    nuisance = typed({} if nuisance is None else nuisance, "object",
                     f"loss '{name}' nuisance", ValidationError)
    missing = [k for k in required if k not in nuisance]
    if missing:
        raise ValidationError(f"loss '{name}' needs nuisance constant(s): {', '.join(missing)}")
    unknown = [k for k in nuisance if k not in required]
    if unknown:
        raise ValidationError(f"loss '{name}' got unknown nuisance key(s): {', '.join(unknown)}")
    return cls(**{k: typed(nuisance[k], "number", f"loss '{name}' nuisance '{k}'",
                           ValidationError) for k in required})


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_min(f, lo, hi, tol):
    """Golden-section search for the minimum of a unimodal f on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


@dataclass(frozen=True)
class SliceReport:
    """Classification of one 1-D coordinate slice of the loss."""

    y: float
    param: str
    classification: str  # "single-minimum" | "strictly-monotonic" | "fail"
    n_local_minima: int
    minima_locations: tuple

    @property
    def ok(self):
        return self.classification != "fail"

    def describe(self):
        where = ""
        if self.classification == "fail" and self.minima_locations:
            locs = ", ".join(f"{v:.6g}" for v in self.minima_locations)
            where = f" (minima near: {locs})"
        return f"y={self.y:g} param={self.param}: {self.classification}{where}"


@dataclass(frozen=True)
class AdmissibilityReport:
    loss_name: str
    passed: bool
    slices: tuple

    def describe(self):
        lines = [s.describe() for s in self.slices]
        lines.append(f"{self.loss_name}: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def check_admissibility(loss, y_samples, grid_points=512):
    """Numerically screen a loss for the per-coordinate shape conditions.

    For each response sample and each parameter coordinate (the other
    coordinates pinned at the constant fit), the loss value and derivative
    are sampled on a grid spanning the coordinate's working interval
    (log-spaced when it is positive, linear otherwise).  A slice passes if
    it decreases into at most one local minimum and increases after it, or
    is monotonic; anything else fails, with the offending minima reported.
    """
    grid_points = int(grid_points)
    if grid_points < 100:
        raise ValidationError("grid_points must be >= 100")
    y_samples = [float(v) for v in np.atleast_1d(np.asarray(y_samples, dtype=np.float64))]
    if not y_samples:
        raise ValidationError("y_samples must be nonempty")

    probe = Dataset(np.zeros((len(y_samples), 1)), y_samples,
                    source="admissibility-probe")
    loss.validate_response(probe.response)
    init = loss.mle_init(probe)
    domains = loss.default_domains(probe)

    slices = []
    for j in range(loss.n_params):
        dom = domains[j]
        if dom.lo > 0:
            grid = np.geomspace(dom.lo, dom.hi, grid_points)
        else:
            grid = np.linspace(dom.lo, dom.hi, grid_points)
        for y in y_samples:
            theta = [np.full(grid_points, init[k]) for k in range(loss.n_params)]
            theta[j] = grid
            values = np.asarray(loss.value(theta, y))
            grads = np.asarray(loss.grad(j, theta, y))
            slices.append(_classify_slice(grid, values, grads, y, loss.param_names[j]))

    passed = all(s.ok for s in slices)
    return AdmissibilityReport(loss.name, passed, tuple(slices))


def _classify_slice(grid, values, grads, y, param):
    dv = np.diff(values)
    interior = np.arange(1, len(values) - 1)
    is_min = (values[interior] < values[interior - 1]) & (values[interior] < values[interior + 1])
    minima_idx = interior[is_min]
    locations = tuple(float(grid[k]) for k in minima_idx)

    # Sign reversals of the sampled derivative, ignoring exact zeros
    # (saturated tails underflow to zero without breaking monotonicity).
    signs = np.sign(grads)
    signs = signs[signs != 0]
    flips = np.flatnonzero(signs[1:] != signs[:-1])
    down_up = int(np.sum((signs[:-1] == -1) & (signs[1:] == 1)))
    up_down = int(np.sum((signs[:-1] == 1) & (signs[1:] == -1)))

    if len(minima_idx) == 0:
        monotone = bool(np.all(dv <= 0) or np.all(dv >= 0))
        if monotone and np.any(dv != 0) and len(flips) == 0:
            return SliceReport(y, param, "strictly-monotonic", 0, ())
        return SliceReport(y, param, "fail", 0, locations)

    if len(minima_idx) == 1 and up_down == 0 and down_up <= 1:
        k = int(minima_idx[0])
        if np.all(dv[:k] <= 0) and np.all(dv[k:] >= 0):
            return SliceReport(y, param, "single-minimum", 1, locations)
    return SliceReport(y, param, "fail", int(len(minima_idx)), locations)
