import math

import numpy as np
import pytest
from scipy.special import digamma, polygamma

import distboost as db
from distboost import losses
from distboost.errors import ValidationError

RNG = np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# log_gamma

def test_log_gamma_spot_values():
    assert db.log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert db.log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-12)
    assert db.log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)
    assert db.log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)


def test_log_gamma_accuracy_grid():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    xs = np.concatenate([
        np.geomspace(1e-3, 1e4, 400),
        np.geomspace(1e4, 1e6, 100),
        np.linspace(0.01, 20.0, 200),
    ])
    ours = db.log_gamma(xs)
    for x, o in zip(xs, ours):
        true = float(mp.loggamma(mp.mpf(float(x))))
        # 1e-10 absolute where float64 can represent it; a few ulps beyond
        tol = 1e-10 if x <= 1e4 else max(1e-10, 8 * np.spacing(abs(true)))
        assert abs(o - true) <= tol, f"x={x}: {o} vs {true}"


def test_log_gamma_vector_matches_scalar():
    xs = np.array([1e-3, 0.3, 1.0, 7.5, 123.0, 4.5e5])
    vec = db.log_gamma(xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert db.log_gamma(float(x)) == v


def test_log_gamma_rejects_nonpositive():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValidationError):
            db.log_gamma(bad)
    with pytest.raises(ValidationError):
        db.log_gamma(np.array([1.0, -2.0]))


# ---------------------------------------------------------------------------
# squared error

def test_squared_error_examples():
    loss = db.squared_error()
    assert float(loss.value((3.0,), 3.0)) == 0.0
    assert float(loss.grad(0, (3.0,), 3.0)) == 0.0
    assert float(loss.value((5.0,), 3.0)) == 2.0
    assert float(loss.grad(0, (5.0,), 3.0)) == 2.0
    assert float(loss.hess(0, (5.0,), 3.0)) == 1.0
    ds = db.Dataset(np.zeros((3, 1)), [1.0, 2.0, 3.0])
    assert loss.mle_init(ds) == (2.0,)


# ---------------------------------------------------------------------------
# gamma severity

def test_gamma_minimum_at_observation():
    loss = db.gamma_nll(5.0)
    assert float(loss.grad(0, (4.0,), 4.0)) == pytest.approx(0.0, abs=1e-15)
    for y in (0.1, 1.0, 7.3, 250.0):
        assert float(loss.grad(0, (y,), y)) == pytest.approx(0.0, abs=1e-12)


def test_gamma_value_frozen_oracle():
    # -[5 ln 5 - 5 ln 4 - ln 24 + 4 ln 4 - 5] recomputed with mpmath
    loss = db.gamma_nll(5.0)
    assert float(loss.value((4.0,), 4.0)) == pytest.approx(1.5171586292973344, rel=1e-12)


def test_gamma_concave_region_derivatives():
    loss = db.gamma_nll(5.0)
    assert float(loss.grad(0, (10.0,), 4.0)) == pytest.approx(0.3, abs=1e-14)
    assert float(loss.hess(0, (10.0,), 4.0)) == pytest.approx(-0.01, abs=1e-14)


@pytest.mark.parametrize("alpha", [0.1, 1.0, 5.0, 100.0])
def test_gamma_kernels_match_mpmath_at_the_edges(alpha):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    # mu from 1e-6 y to 1e6 y, through the gradient's zero at mu = y and the
    # hessian's at mu = 2y
    ratio = np.append(np.geomspace(1e-6, 1e6, 25), [1.0, 2.0])
    y, mu = (a.ravel() for a in np.meshgrid(np.geomspace(1e-3, 1e3, 13), ratio))
    mu = mu * y
    loss = db.gamma_nll(alpha)
    value, grad, hess = loss.value((mu,), y), loss.grad(0, (mu,), y), loss.hess(0, (mu,), y)
    a = mp.mpf(alpha)
    for yi, mi, v, g, h in zip(y, mu, value, grad, hess):
        yy, mm = mp.mpf(float(yi)), mp.mpf(float(mi))
        # each quantity against its largest term, since grad and hess cross zero
        terms = (a * mp.log(mm), a * yy / mm, mp.loggamma(a), a * mp.log(a),
                 (a - 1) * mp.log(yy))
        true_v = terms[0] + terms[1] - terms[3] + terms[2] - terms[4]
        assert abs(v - true_v) <= 1e-15 * max(map(abs, terms)), (alpha, yi, mi)
        assert abs(g - (a / mm - a * yy / mm**2)) <= 1e-15 * max(a / mm, a * yy / mm**2), (
            alpha, yi, mi)
        true_h = -a / mm**2 + 2 * a * yy / mm**3
        assert abs(h - true_h) <= 1e-15 * max(a / mm**2, 2 * a * yy / mm**3), (alpha, yi, mi)


def test_gamma_rejects_bad_inputs():
    loss = db.gamma_nll(5.0)
    with pytest.raises(ValidationError):
        loss.value((4.0,), -1.0)
    with pytest.raises(ValidationError):
        loss.value((-4.0,), 1.0)
    with pytest.raises(ValidationError):
        db.gamma_nll(0.0)


# ---------------------------------------------------------------------------
# zero-inflated Poisson

def test_zip_value_closed_form_cancellation():
    loss = db.zip_nll(0.5)
    assert float(loss.value((1.0,), 2.0)) == pytest.approx(2.0, abs=1e-12)


def test_zip_zero_value_frozen_oracle():
    # -ln(0.5 + 0.5 e^-2) recomputed with mpmath
    loss = db.zip_nll(0.5)
    assert float(loss.value((1.0,), 0.0)) == pytest.approx(0.5662191695169728, rel=1e-12)


def _poisson_nll(mu, y):
    return -y * math.log(mu) + mu + math.lgamma(y + 1.0)


def test_zip_alpha_one_is_poisson():
    loss = db.zip_nll(1.0)
    for mu in (0.1, 1.0, 10.0):
        for y in range(21):
            assert float(loss.value((mu,), float(y))) == pytest.approx(
                _poisson_nll(mu, y), abs=1e-12)


def test_zip_large_mu_zero_branch_is_stable():
    loss = db.zip_nll(0.5)
    v = float(loss.value((5e5,), 0.0))
    assert math.isfinite(v)
    assert v == pytest.approx(-math.log(0.5), rel=1e-12)
    assert float(loss.grad(0, (5e5,), 0.0)) == 0.0
    assert float(loss.hess(0, (5e5,), 0.0)) == 0.0


def test_zip_rejects_bad_inputs():
    loss = db.zip_nll(0.5)
    with pytest.raises(ValidationError):
        loss.value((1.0,), 2.5)
    with pytest.raises(ValidationError):
        loss.value((1.0,), -1.0)
    with pytest.raises(ValidationError):
        db.zip_nll(0.0)
    with pytest.raises(ValidationError):
        db.zip_nll(1.5)


@pytest.mark.parametrize("alpha", [0.01, 0.3, 0.5, 0.9, 0.999999, 1.0])
def test_zip_kernels_match_mpmath_at_the_edges(alpha):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    eps = np.finfo(np.float64).eps
    # four points a decade, from where 1 - alpha + alpha e^-z loses digits to
    # where e^-z underflows
    y, mu = (v.ravel() for v in np.meshgrid([0.0, 1.0, 2.0, 7.0, 40.0, 1000.0],
                                            np.geomspace(1e-10, 1e4, 57)))
    loss = db.zip_nll(alpha)
    value, grad, hess = loss.value((mu,), y), loss.grad(0, (mu,), y), loss.hess(0, (mu,), y)
    a = mp.mpf(alpha)
    for yi, mi, v, g, h in zip(y, mu, value, grad, hess):
        yy, mm = mp.mpf(float(yi)), mp.mpf(float(mi))
        z = mm / a
        if yi == 0:
            ez = mp.exp(-z)
            s = (1 - a) + a * ez
            # each against itself; rounding z = mu / alpha costs e^-z a relative z eps
            tz = (float(z) + 4) * eps
            want = ((v, -mp.log(s), 1e-15), (g, ez / s, tz), (h, -(1 - a) * ez / (a * s**2), tz))
            bounds = [(got, true, rel * abs(true)) for got, true, rel in want]
        else:
            # the value and gradient against their largest term, as both can cross 0
            terms = ((yy - 1) * mp.log(a), yy * mp.log(mm), z, mp.loggamma(yy + 1))
            bounds = [(v, terms[0] - terms[1] + terms[2] + terms[3], 1e-15 * max(map(abs, terms))),
                      (g, 1 / a - yy / mm, 1e-15 * max(1 / a, yy / mm)),
                      (h, yy / mm**2, 1e-15 * yy / mm**2)]
        for got, true, bound in bounds:
            if abs(true) >= 1e-290:  # below that, float64 underflows
                assert abs(got - true) <= bound, (alpha, yi, mi, got, true)


def _zip_score(y, alpha, mu):
    # the derivative of the total constant-mu NLL, term for term as mle_init takes it
    n_pos = int(np.count_nonzero(y))
    ez = math.exp(-mu / alpha)
    return ((y.size - n_pos) * ez / ((1.0 - alpha) + alpha * ez) + n_pos / alpha
            - float(np.sum(y)) / mu)


def _zip_rows(mu, n, seed):
    return db.generate_synthetic("zip", n, seed, lambda X: {"mu": mu, "alpha": 0.5}).response


@pytest.mark.parametrize("alpha, y, root", [
    (0.5, _zip_rows(2.0, 400, 5), "interior"),
    (0.5, _zip_rows(0.012, 500, 3), "interior"),
    (1.0, _zip_rows(2.0, 400, 5), "mean"),
    (0.5, np.zeros(50), "floor"),
    (1e-7, np.array([0.0, 1.0, 1.0]), "floor"),
    (0.3, 1.0 + np.arange(40) % 7, "no-zeros"),
], ids=["mean-2", "low-mean", "alpha-1", "all-zeros", "rising-at-floor", "no-zeros"])
def test_zip_mle_init_is_the_exact_constant_fit(alpha, y, root):
    ds = db.Dataset(np.zeros((y.size, 1)), y)
    loss = db.zip_nll(alpha)
    (mu_hat,) = loss.mle_init(ds)
    (dom,) = loss.default_domains(ds)
    assert dom.lo <= mu_hat <= dom.hi
    if root == "interior":
        assert 0 < np.count_nonzero(y) < y.size
        assert _zip_score(y, alpha, np.nextafter(mu_hat, 0)) < 0 <= _zip_score(
            y, alpha, np.nextafter(mu_hat, np.inf))
    elif root == "mean":
        assert mu_hat == float(np.sum(y)) / y.size
    elif root == "floor":
        assert mu_hat == dom.lo
    else:
        target = alpha * float(np.sum(y)) / np.count_nonzero(y)
        assert abs(mu_hat - target) <= np.spacing(target)
    # no nearby constant scores a lower total NLL
    near = dom.clip(mu_hat * np.array([0.999, 1.0, 1.001]))
    total = [float(np.sum(loss.value((m,), y))) for m in near]
    assert total[1] <= min(total)


# ---------------------------------------------------------------------------
# negative binomial

def test_negbin_value_frozen_oracle():
    loss = db.negbin_nll()
    v = float(loss.value((1.5, 2.0), 3.0, 1.0, 1.0))
    assert v == pytest.approx(1.9787639739263916, rel=1e-12)


def test_negbin_beta_stationary_point():
    loss = db.negbin_nll()
    # d/d(beta) vanishes where adjustment*beta = y / (exposure*gamma)
    assert float(loss.grad(0, (1.5, 2.0), 3.0, 1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)
    for y, gam, e, adj in [(1.0, 1.0, 1.0, 1.0), (4.0, 2.0, 0.5, 1.0),
                           (6.0, 1.5, 2.0, 0.8)]:
        beta_star = y / (e * gam * adj)
        g = float(loss.grad(0, (beta_star, gam), y, e, adj))
        assert g == pytest.approx(0.0, abs=1e-10)


def test_negbin_exposure_scales_shape():
    loss = db.negbin_nll()
    v = float(loss.value((1.0, 1.0), 0.0, 2.0, 1.0))
    assert v == pytest.approx(2.0 * math.log(2.0), rel=1e-12)


def test_negbin_rejects_bad_inputs():
    loss = db.negbin_nll()
    with pytest.raises(ValidationError):
        loss.value((1.0, 1.0), 1.5)
    with pytest.raises(ValidationError):
        loss.value((-1.0, 1.0), 1.0)
    with pytest.raises(ValidationError):
        loss.value((1.0, -1.0), 1.0)


def test_negbin_mle_init_inside_domain():
    ds = db.generate_synthetic(
        "negbin", 2000, 9, lambda X: {"beta": 1.5, "gamma": 2.0},
        exposure_choices=[0.5, 1.0, 2.0])
    loss = db.negbin_nll()
    beta0, gamma0 = loss.mle_init(ds)
    dom_b, dom_g = loss.default_domains(ds)
    assert dom_b.lo <= beta0 <= dom_b.hi
    assert dom_g.lo <= gamma0 <= dom_g.hi
    # product should roughly match the per-unit mean
    w = ds.exposure * ds.adjustment
    assert beta0 * gamma0 == pytest.approx(float(np.sum(ds.response) / np.sum(w)),
                                           rel=1e-9)


def test_negbin_underdispersed_init_clamps_to_floor():
    ds = db.Dataset(np.zeros((4, 1)), [1.0, 1.0, 1.0, 1.0])
    loss = db.negbin_nll()
    beta0, gamma0 = loss.mle_init(ds)
    assert beta0 == loss.default_domains(ds)[0].lo


def test_negbin_init_on_all_zero_counts_is_both_floors():
    ds = db.Dataset(np.zeros((4, 1)), np.zeros(4), exposure=[0.5, 1.0, 2.0, 1.0])
    loss = db.negbin_nll()
    assert loss.mle_init(ds) == tuple(d.lo for d in loss.default_domains(ds))


def _old_trigamma_hess(theta, y, e):
    """The gamma hessian as two scipy trigamma calls, before the count sum."""
    r = np.asarray(e) * np.asarray(theta[1])
    return np.asarray(e) ** 2 * (polygamma(1, r) - polygamma(1, np.asarray(y) + r))


def test_negbin_kernels_match_mpmath_at_the_edges():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    k = losses._DIRECT_TERMS
    # counts inside the direct sum, at its end, and past it into scipy's trigamma
    ys = [0.0, 1.0, 2.0, 5.0, k - 1.0, k, k + 1.0, 200.0, 1000.0]
    r, y = (a.ravel() for a in np.meshgrid(np.geomspace(1e-4, 1e4, 81), ys))
    loss = db.negbin_nll()
    hess = loss.hess(1, (1.0, r), y)
    # beta = 1e-300 leaves the digamma difference alone in the gradient
    grad = loss.grad(1, (1e-300, r), y)
    value = loss.value((1.0, r), y)

    zero = y == 0
    assert np.all(hess[zero] == 0.0)
    assert np.all(grad[zero] == np.log1p(1e-300))
    assert np.all(value[zero] == r[zero] * np.log(2.0))
    for ri, yi, h, g, v in zip(r[~zero], y[~zero], hess[~zero], grad[~zero], value[~zero]):
        rr = mp.mpf(float(ri))
        true_h = mp.psi(1, rr) - mp.psi(1, rr + yi)
        assert abs((h - true_h) / true_h) <= 1e-12, (ri, yi)
        true_v = (mp.loggamma(rr) + mp.loggamma(yi + 1) - mp.loggamma(rr + yi)
                  + (rr + yi) * mp.log(2))
        assert abs((v - true_v) / true_v) <= 1e-12, (ri, yi)
        # scipy's digamma at r and r + y: when r >> y the difference loses
        # digits to cancellation, up to a few ulps of the larger term
        true_g = mp.psi(0, rr) - mp.psi(0, rr + yi)
        ulp = np.spacing(max(abs(digamma(ri)), abs(digamma(ri + yi))))
        assert abs(g - true_g) <= 1e-12 * abs(true_g) + 4 * ulp, (ri, yi)


def test_negbin_gamma_hessian_keeps_the_shape_contract():
    loss = db.negbin_nll()
    h = loss.hess(1, (1.5, 2.0), 3.0, 1.5, 0.8)
    assert isinstance(h, float)
    assert h == pytest.approx(float(_old_trigamma_hess((1.5, 2.0), 3.0, 1.5)), rel=1e-12)
    ys = np.array([0.0, 3.0, 70.0])
    gams = np.array([0.5, 2.0, 9.0])
    for theta, y, e in [((1.0, 2.0), ys, 1.0), ((1.0, gams), 3.0, 1.0),
                        ((1.0, gams), 3.0, np.array([[0.5], [2.0]])),
                        ((1.0, gams[:, None]), ys, 1.0)]:
        h = loss.hess(1, theta, y, e)
        old = _old_trigamma_hess(theta, y, e)
        assert isinstance(h, np.ndarray) and h.shape == old.shape
        np.testing.assert_allclose(h, old, rtol=1e-12, atol=0)


def test_negbin_gamma_hessian_matches_two_trigamma_calls():
    # the finite-difference grid's ranges, drawn from a seed of their own
    rng = np.random.default_rng(7)
    n = 2000
    theta = (np.exp(rng.uniform(np.log(0.05), np.log(50.0), n)),
             np.exp(rng.uniform(np.log(0.05), np.log(50.0), n)))
    y = rng.integers(0, 11, n).astype(float)
    e, adj = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
    h = db.negbin_nll().hess(1, theta, y, e, adj)
    np.testing.assert_allclose(h, _old_trigamma_hess(theta, y, e), rtol=1e-12, atol=0)


def test_negbin_tail_goes_through_the_module_polygamma(monkeypatch):
    # the benchmark's tracer times the large-count trigamma calls by wrapping this global
    calls = []
    original = losses.polygamma

    def counting(n, x):
        calls.append(np.size(x))
        return original(n, x)

    monkeypatch.setattr(losses, "polygamma", counting)
    loss = db.negbin_nll()
    k = losses._DIRECT_TERMS
    loss.hess(1, (1.0, 2.0), np.array([0.0, 1.0, k]))
    assert calls == []
    h = loss.hess(1, (1.0, 2.0), np.array([0.0, 1.0, k + 1.0, 500.0]))
    assert calls and all(c == 2 for c in calls)
    monkeypatch.undo()
    np.testing.assert_allclose(h, _old_trigamma_hess((1.0, 2.0), [0.0, 1.0, k + 1.0, 500.0], 1.0),
                               rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# finite-difference agreement, all losses

def _fd_cases():
    n = 200
    gamma_theta = (np.exp(RNG.uniform(np.log(1e-2), np.log(1e2), n)),)
    zip_theta = (np.exp(RNG.uniform(np.log(1e-2), np.log(1e2), n)),)
    nb_theta = (np.exp(RNG.uniform(np.log(0.05), np.log(50.0), n)),
                np.exp(RNG.uniform(np.log(0.05), np.log(50.0), n)))
    ones = np.ones(n)
    return [
        (db.squared_error(), (RNG.uniform(-100, 100, n),),
         RNG.uniform(-100, 100, n), ones, ones),
        (db.gamma_nll(5.0), gamma_theta, RNG.uniform(0.05, 50.0, n), ones, ones),
        (db.gamma_nll(0.7), gamma_theta, RNG.uniform(0.05, 50.0, n), ones, ones),
        (db.zip_nll(0.5), zip_theta, RNG.integers(0, 9, n).astype(float), ones, ones),
        (db.zip_nll(1.0), zip_theta, RNG.integers(0, 9, n).astype(float), ones, ones),
        (db.negbin_nll(), nb_theta, RNG.integers(0, 11, n).astype(float),
         RNG.uniform(0.5, 2.0, n), RNG.uniform(0.5, 2.0, n)),
        (db.double_well(), (RNG.uniform(-2.8, 2.8, n),),
         RNG.uniform(0, 1, n), ones, ones),
    ]


@pytest.mark.parametrize("case", _fd_cases(),
                         ids=lambda c: f"{c[0].name}-{sorted(c[0].nuisance.items())}")
def test_grad_hess_match_finite_differences(case):
    loss, theta, y, expo, adj = case
    for j in range(loss.n_params):
        step = 1e-5 * np.maximum(1.0, np.abs(theta[j]))

        def shift(ds_):
            shifted = list(theta)
            shifted[j] = theta[j] + ds_
            return shifted

        grad = np.asarray(loss.grad(j, theta, y, expo, adj))
        fd_grad = (np.asarray(loss.value(shift(step), y, expo, adj))
                   - np.asarray(loss.value(shift(-step), y, expo, adj))) / (2 * step)
        assert np.all(np.abs(grad - fd_grad) <= 1e-5 * (1.0 + np.abs(grad)))

        hess = np.asarray(loss.hess(j, theta, y, expo, adj))
        fd_hess = (np.asarray(loss.grad(j, shift(step), y, expo, adj))
                   - np.asarray(loss.grad(j, shift(-step), y, expo, adj))) / (2 * step)
        assert np.all(np.abs(hess - fd_hess) <= 1e-5 * (1.0 + np.abs(hess)))


# ---------------------------------------------------------------------------
# argument checks, every loss and method

# loss, its positivity per parameter, a valid theta and response, a response
# outside the support (None where every real number is in it)
_ARG_CASES = [
    (db.squared_error(), (False,), (1.0,), 2.0, None),
    (db.gamma_nll(5.0), (True,), (1.0,), 2.0, 0.0),
    (db.zip_nll(0.5), (True,), (1.0,), 2.0, 2.5),
    (db.negbin_nll(), (True, True), (1.0, 1.0), 2.0, -1.0),
    (db.double_well(), (False,), (1.0,), 2.0, None),
]


def _call(loss, method, theta, y, j=0):
    if method == "value":
        return loss.value(theta, y)
    return getattr(loss, method)(j, theta, y)


@pytest.mark.parametrize("method", ["value", "grad", "hess"])
@pytest.mark.parametrize("case", _ARG_CASES, ids=lambda c: c[0].name)
def test_every_method_checks_its_arguments(case, method):
    loss, positive, theta, y, outside = case
    assert loss.must_be_positive == positive
    assert np.all(np.isfinite(_call(loss, method, theta, y)))
    with pytest.raises(ValidationError, match=rf"expects {loss.n_params} parameter"):
        _call(loss, method, theta + (1.0,), y)
    if method != "value":
        for j in (-1, loss.n_params):
            with pytest.raises(ValidationError, match="out of range"):
                _call(loss, method, theta, y, j)
    for j, name in enumerate(loss.param_names):
        if positive[j]:
            for bad in (0.0, -1.0):
                shifted = list(theta)
                shifted[j] = np.array([1.0, bad])
                with pytest.raises(ValidationError,
                                   match=rf"{loss.name} parameter '{name}' must be positive"):
                    _call(loss, method, shifted, y, j)
    if outside is not None:
        with pytest.raises(ValidationError, match=f"{loss.name} requires"):
            _call(loss, method, theta, np.array([y, outside]))


@pytest.mark.parametrize("case", _ARG_CASES, ids=lambda c: c[0].name)
def test_validate_response_returns_the_float64_response(case):
    y = [1, 2, 3]
    checked = case[0].validate_response(y)
    assert checked.dtype == np.float64
    np.testing.assert_array_equal(checked, y)


# ---------------------------------------------------------------------------
# ParameterDomain and the Loss interface

def test_parameter_domain_contains_its_closed_interval():
    dom = db.ParameterDomain(0.0, 1.0)
    assert dom.contains(0.5) and dom.contains([0.0, 0.25, 1.0])
    assert not dom.contains([0.5, 1.5]) and not dom.contains(-1e-300)
    assert not dom.contains(np.nan)


def test_a_loss_that_fills_in_nothing_raises_not_implemented():
    class Bare(db.Loss):
        name = "bare"
        param_names = ("theta",)

    loss, ds = Bare(), db.Dataset([[0.0]], [1.0])
    for method in (lambda: loss.value((0.0,), 1.0), lambda: loss.grad(0, (0.0,), 1.0),
                   lambda: loss.hess(0, (0.0,), 1.0), lambda: loss.mle_init(ds),
                   lambda: loss.default_domains(ds)):
        with pytest.raises(NotImplementedError):
            method()


# ---------------------------------------------------------------------------
# registry

def test_registry_round_trip():
    for name, nuisance in [("squared_error", {}), ("gamma", {"alpha": 5.0}),
                           ("zip", {"alpha": 0.5}), ("negbin", {}),
                           ("double_well", {})]:
        loss = db.make_loss(name, nuisance)
        assert loss.name == name
        assert loss.nuisance == nuisance


def test_registry_errors():
    with pytest.raises(ValidationError):
        db.make_loss("tweedie")
    with pytest.raises(ValidationError):
        db.make_loss("gamma")  # missing alpha
    with pytest.raises(ValidationError):
        db.make_loss("negbin", {"alpha": 1.0})  # unknown nuisance


# ---------------------------------------------------------------------------
# admissibility screening

def test_admissibility_squared_error_passes():
    report = db.check_admissibility(db.squared_error(), [0.1, 4.0, 100.0], 500)
    assert report.passed
    assert all(s.classification == "single-minimum" for s in report.slices)


def test_admissibility_gamma_passes_despite_nonconvexity():
    for alpha in (0.5, 5.0, 50.0):
        report = db.check_admissibility(db.gamma_nll(alpha), [0.1, 4.0, 100.0], 512)
        assert report.passed, report.describe()
        assert all(s.classification == "single-minimum" for s in report.slices)


def test_admissibility_zip_zero_slice_is_monotone():
    report = db.check_admissibility(db.zip_nll(0.5), [0.0], 512)
    assert report.passed
    assert report.slices[0].classification == "strictly-monotonic"


def test_admissibility_zip_positive_counts():
    for alpha in (0.2, 0.5, 1.0):
        report = db.check_admissibility(db.zip_nll(alpha), [0.0, 1.0, 3.0, 12.0], 512)
        assert report.passed, report.describe()


def test_admissibility_negbin_slices():
    report = db.check_admissibility(db.negbin_nll(), [0.0, 1.0, 2.0, 7.0], 512)
    assert report.passed, report.describe()


def test_admissibility_double_well_fails_naming_both_minima():
    report = db.check_admissibility(db.double_well(), [1.0], 512)
    assert not report.passed
    failed = [s for s in report.slices if s.classification == "fail"]
    assert failed
    locs = sorted(failed[0].minima_locations)
    assert len(locs) == 2
    assert locs[0] == pytest.approx(-1.0, abs=0.05)
    assert locs[1] == pytest.approx(1.0, abs=0.05)


def test_admissibility_fails_a_slice_with_no_minimum_that_is_not_monotone():
    class Cap(db.squared_error):
        name = "cap"

        def value(self, theta, y, exposure=1.0, adjustment=1.0):
            th, _ = self._args(theta, y)
            return -th * th

        def grad(self, j, theta, y, exposure=1.0, adjustment=1.0):
            th, _ = self._args(theta, y, j)
            return -2.0 * th

        def default_domains(self, ds=None):
            return (db.ParameterDomain(-3.0, 3.0),)

    report = db.check_admissibility(Cap(), [1.0], 512)
    assert not report.passed
    assert report.describe() == "y=1 param=theta: fail\ncap: FAIL"


def test_admissibility_over_generated_samples():
    gamma_ds = db.generate_synthetic("gamma", 12, 31,
                                     lambda X: {"mu": 4.0, "alpha": 5.0})
    zip_ds = db.generate_synthetic("zip", 12, 32,
                                   lambda X: {"mu": 2.0, "alpha": 0.5})
    nb_ds = db.generate_synthetic("negbin", 12, 33,
                                  lambda X: {"beta": 1.5, "gamma": 2.0})
    cases = [
        (db.squared_error(), gamma_ds.response),
        (db.gamma_nll(5.0), gamma_ds.response),
        (db.zip_nll(0.5), zip_ds.response),
        (db.negbin_nll(), nb_ds.response),
    ]
    for loss, ys in cases:
        report = db.check_admissibility(loss, ys, 512)
        assert report.passed, report.describe()


def test_admissibility_rejects_small_grid():
    with pytest.raises(ValidationError):
        db.check_admissibility(db.squared_error(), [1.0], 50)
