import math
import pathlib
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pairpois as pp
from pairpois import cli, estimation
from conftest import pair_gradients, per_t_scores
from pairpois.estimation import _bhhh_inverse, _minimize_bfgs, _weighted_per_t
from pairpois.model import PairwiseEvaluator

W1 = pp.make_weights(1, "rect")
RULE20 = pp.gauss_hermite(20)


# ---------------------------------------------------------------------------
# helpers and defaults


@pytest.mark.parametrize("n,expected", [(500, 26), (100, 20), (30, 14), (1000, 30)])
def test_default_hac_lags(n, expected):
    assert pp.default_hac_lags(n) == expected


def test_poisson_irls_intercept_only_closed_form():
    y = np.array([0, 3, 1, 2, 5, 1, 0, 2])
    beta, _, converged = pp.poisson_irls(np.ones((8, 1)), y)
    assert converged
    assert abs(beta[0] - math.log(y.mean())) < 1e-10


def test_poisson_irls_rank_deficient():
    X = np.column_stack([np.ones(20), np.ones(20)])
    with pytest.raises(ValueError):
        pp.poisson_irls(X, np.ones(20, dtype=int))


# ---------------------------------------------------------------------------
# moment initialization


def test_moment_init_pure_poisson_keeps_small_tau2():
    hits = 0
    for r in range(200):
        rng = np.random.default_rng((777, r))
        series = pp.CountSeries(y=rng.poisson(1.5, size=1000), X=np.ones((1000, 1)))
        hits += pp.moment_init(series).tau2 <= 0.05
    assert hits >= 180  # probability >= 0.9


def test_moment_init_recovers_intercept_on_scenario5():
    hits = 0
    for r in range(200):
        series = pp.simulate_scenario(5, 500, seed=31337, replicate=r)
        hits += abs(pp.moment_init(series).beta[0] - 0.1501) <= 0.3
    assert hits >= 180  # probability >= 0.9


def test_moment_init_constant_series_hits_floor():
    series = pp.CountSeries(y=np.full(100, 3), X=np.ones((100, 1)))
    start = pp.moment_init(series)
    assert abs(start.tau2 - math.log1p(0.05)) < 1e-12
    assert abs(start.phi) < 1e-12


def test_moment_init_needs_enough_data():
    series = pp.CountSeries(y=np.arange(10), X=np.ones((10, 1)))
    with pytest.raises(ValueError):
        pp.moment_init(series)


# ---------------------------------------------------------------------------
# sensitivity and variability matrices


def test_sensitivity_symmetric_psd():
    series = pp.simulate_scenario(5, 300, seed=4)
    h = pp.sensitivity_H(series, pp.SCENARIOS[5].params.to_working(), W1, RULE20)
    assert_allclose(h, h.T, rtol=0, atol=1e-10)
    assert np.linalg.eigvalsh(h).min() >= -1e-12


def test_sensitivity_single_pair_degenerate():
    series = pp.CountSeries(y=np.array([2, 4]), X=np.ones((2, 1)))
    working = pp.SCENARIOS[5].params.to_working()
    h = pp.sensitivity_H(series, working, W1, RULE20)
    ev = PairwiseEvaluator(series, W1, RULE20)
    g = per_t_scores(ev, W1.w, working)[2 - W1.m_d - 1]  # w_1 = 1
    assert_allclose(h, np.outer(g, g) / 2.0, rtol=0, atol=1e-12)


def test_sensitivity_matches_numerical_hessian():
    # statistical agreement at the data-generating parameters
    series = pp.simulate_scenario(4, 2000, seed=55)
    working = pp.SCENARIOS[4].params.to_working()
    h = pp.sensitivity_H(series, working, W1, RULE20)
    ev = PairwiseEvaluator(series, W1, RULE20)
    vec = working.as_vector()
    step = 1e-5
    hess = np.zeros((3, 3))
    for j in range(3):
        up, dn = vec.copy(), vec.copy()
        up[j] += step
        dn[j] -= step
        _, gp = ev.loglik_and_score(pp.WorkingParams.from_vector(up, 1))
        _, gm = ev.loglik_and_score(pp.WorkingParams.from_vector(dn, 1))
        hess[:, j] = (gp - gm) / (2 * step)
    hess = 0.5 * (hess + hess.T)
    rel = np.linalg.norm(h - (-hess / series.n)) / np.linalg.norm(h)
    assert rel < 0.15


def test_variability_default_window_and_k0():
    series = pp.simulate_scenario(5, 500, seed=12)
    working = pp.SCENARIOS[5].params.to_working()
    j_default = pp.variability_J(series, working, W1, RULE20)
    j_explicit = pp.variability_J(series, working, W1, RULE20, r=26)
    assert_allclose(j_default, j_explicit, rtol=0, atol=0)

    ev = PairwiseEvaluator(series, W1, RULE20)
    psi = per_t_scores(ev, W1.w, working)
    j0 = pp.variability_J(series, working, W1, RULE20, r=0)
    assert_allclose(j0, psi.T @ psi / series.n, rtol=0, atol=1e-12)
    j1 = pp.variability_J(series, working, W1, RULE20, r=1)
    assert_allclose(j1, j0, rtol=0, atol=0)
    with pytest.raises(ValueError):
        pp.variability_J(series, working, W1, RULE20, r=-1)


def test_variability_overlap_identity_iid():
    # With independent observations, consecutive per-time scores still
    # share one observation, so the long-run variance doubles the
    # additive (beta, log sigma2) blocks while the correlation score is
    # unshared: J ~ diag(2, 2, 1) H.
    params = pp.Params(beta=[0.1501], sigma2=0.5109, phi=0.0)
    series = pp.simulate_series(
        pp.SimConfig(params=params, X=np.ones((5000, 1)), n_rep=1, seed=99)
    )
    working = params.to_working()
    h = pp.sensitivity_H(series, working, W1, RULE20)
    j = pp.variability_J(series, working, W1, RULE20)
    target = np.diag([2.0, 2.0, 1.0]) @ h
    assert np.linalg.norm(j - target) / np.linalg.norm(target) < 0.15
    assert_allclose(j, j.T, rtol=0, atol=1e-10)
    assert np.linalg.eigvalsh(j).min() >= -1e-8


def test_variability_window_longer_than_series():
    # lags at or past the number of per-time rows have no pairs and drop out
    series = pp.CountSeries(y=np.array([2, 4, 1, 3, 0, 2]), X=np.ones((6, 1)))
    working = pp.SCENARIOS[5].params.to_working()
    psi = per_t_scores(PairwiseEvaluator(series, W1, RULE20), W1.w, working)
    assert psi.shape[0] == 5
    r = 50
    expected = psi.T @ psi
    for k in range(1, psi.shape[0]):
        gamma = psi[:-k].T @ psi[k:]
        expected += (1.0 - k / r) * (gamma + gamma.T)
    j = pp.variability_J(series, working, W1, RULE20, r=r)
    assert_allclose(j, expected / series.n, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# robust standard errors and CLIC


def test_robust_se_reduces_to_inverse_information():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    h = a @ a.T + 3 * np.eye(3)
    working = pp.WorkingParams(beta=[0.2], log_sigma2=math.log(0.4), z_phi=math.atanh(0.3))
    se = estimation._sandwich_se(h, np.linalg.solve(h, h), 100, working)
    avar = np.linalg.inv(h) / 100
    assert abs(se[0] - math.sqrt(avar[0, 0])) < 1e-12
    sigma2 = 0.4
    assert abs(se[1] - sigma2 * math.sqrt(avar[1, 1])) < 1e-12
    phi = 0.3
    assert abs(se[2] - (1 - phi**2) * math.sqrt(avar[2, 2])) < 1e-12
    tau2 = sigma2 / (1 - phi**2)
    d = np.array([0.0, tau2, 2 * phi * tau2])
    assert abs(se[3] - math.sqrt(d @ avar @ d)) < 1e-12


def test_robust_se_singular_sensitivity_raises():
    h = np.zeros((3, 3))
    h[0, 0] = 1.0
    with pytest.raises(pp.SingularMatrixError) as info:
        estimation._check_invertible(h, "sensitivity")
    assert info.value.cond is None or info.value.cond > 1e13


def nan_start_fit(restriction):
    # a start so wide that the score is not finite there
    series = pp.simulate_scenario(5, 500, 3)
    moments = pp.moment_init(series)
    weights = pp.make_weights(3, "trap")
    if restriction is None:
        init = pp.Params(beta=moments.beta, sigma2=1e5, phi=moments.phi)
        return pp.fit(series, weights, init=init)
    init = pp.Params(beta=moments.beta, sigma2=1e4, phi=moments.phi)
    return pp.fit_restricted(series, weights, restriction=restriction, init=init)


@pytest.mark.parametrize("restriction", [None, pp.PHI_ZERO], ids=["fit", "fit_phi_zero"])
def test_non_finite_start_raises_located_failure(restriction):
    with pytest.raises(pp.NumericalFailure, match="not finite at the start") as info:
        nan_start_fit(restriction)
    message = str(info.value)
    assert "beta[0] = 0.18797, log(sigma2) = " in message
    assert message.endswith("score not finite in beta[0], log(sigma2)" +
                            (", atanh(phi)" if restriction is None else ""))


@pytest.mark.parametrize(
    "compute",
    [
        lambda: estimation._check_invertible(np.full((3, 3), np.nan), "sensitivity"),
    ],
    ids=["robust_se"],
)
def test_non_finite_sensitivity_raises_typed_error(compute):
    with pytest.raises(pp.SingularMatrixError, match="non-finite") as info:
        compute()
    assert info.value.cond == math.inf


@pytest.mark.parametrize("restriction", [pp.PHI_ZERO, pp.INDEPENDENCE])
def test_robust_se_reproduces_restricted_fit_se(restriction):
    series = pp.simulate_scenario(5, 300, seed=16)
    fit = pp.fit_restricted(series, W1, quad_order=10, restriction=restriction)
    h_inv_j = np.linalg.solve(fit.H_hat, fit.J_hat)
    se = estimation._sandwich_se(fit.H_hat, h_inv_j, series.n, fit.working_hat)
    assert np.array_equal(se, fit.se, equal_nan=True)
    assert np.isnan(se).sum() == (1 if restriction == pp.PHI_ZERO else 3)


def test_delta_method_consistent_with_reparametrized_fit():
    # refit with (beta, log tau2, z_phi) as the free parameters and
    # compare the tau2 standard error computed in that parametrization
    series = pp.simulate_scenario(5, 500, seed=21)
    fit = pp.fit(series, W1, quad_order=20)
    se_tau2 = fit.se[3]

    ev = PairwiseEvaluator(series, W1, RULE20)

    def to_working(x):
        # log sigma2 = log tau2 + log(1 - phi^2)
        phi = math.tanh(x[2])
        return pp.WorkingParams(beta=x[:1], log_sigma2=x[1] + math.log1p(-phi * phi), z_phi=x[2])

    def jac(x):
        # d(beta, ls, z)/d(beta, lt, z)
        phi = math.tanh(x[2])
        out = np.eye(3)
        out[1, 2] = -2.0 * phi
        return out

    def neg(x):
        value, score = ev.loglik_and_score(to_working(x))
        return -value, -(jac(x).T @ score), None

    p_hat = fit.params_hat
    x0 = np.array([p_hat.beta[0], math.log(p_hat.tau2), math.atanh(p_hat.phi)])
    result = _minimize_bfgs(neg, x0)
    assert result.converged
    working_new = to_working(result.x)
    _, pairs = pair_gradients(ev, working_new)
    a = jac(result.x)
    pairs_new = [grads @ a for grads in pairs]
    h = sum(w * (g.T @ g) for w, g in zip(W1.w, pairs_new)) / series.n
    psi = sum(w * g for w, g in zip(W1.w, pairs_new))
    j = pp.variability_J(series, working_new, W1, RULE20, r=26)  # J in old coords
    j = a.T @ j @ a
    avar = np.linalg.inv(h) @ j @ np.linalg.inv(h) / series.n
    tau2_new = working_new.to_params().tau2
    se_tau2_reparam = tau2_new * math.sqrt(avar[1, 1])
    assert abs(se_tau2 - se_tau2_reparam) <= 0.05 * se_tau2


# ---------------------------------------------------------------------------
# full fits


def test_fit_recovers_phi_on_scenario5(scenario5_batch):
    phis = np.array([f.params_hat.phi for f in scenario5_batch])
    rate = np.mean(np.abs(phis - 0.5) <= 0.15)
    assert rate >= 0.80
    assert all(f.converged for f in scenario5_batch)


def test_minimize_bfgs_rejects_non_finite_score():
    # inside the sanity box, but the latent variance is so large that e^v
    # overflows in grid cells of negligible weight: the value is finite,
    # and the score moments come out infinite (weights floored at e^-700)
    # or NaN (0 * inf, weights that underflowed)
    series = pp.simulate_scenario(1, 500, 7, 0)
    ev = PairwiseEvaluator(series, pp.make_weights(3, "trap"), RULE20)
    x = np.array([1.0, 6.0, 3.9])
    value, score = ev.loglik_and_score(pp.WorkingParams.from_vector(x, 1))
    assert np.isfinite(value) and not np.all(np.isfinite(score))
    trials = []

    def neg(v):
        trials.append(v.copy())
        value, score = ev.loglik_and_score(pp.WorkingParams.from_vector(v, 1))
        return -value, -score, None

    # from x0 the first trial is the unit step onto x, and every trial
    # value lies far below the start's: only the scores reject the steps
    x0 = x.copy()
    x0[2] -= 0.5
    g0 = np.array([0.0, 0.0, -0.5])
    result = _minimize_bfgs(neg, x0, h_inv0=np.eye(3), start=(1e6, g0, "start"))
    assert np.array_equal(trials[0], x)
    assert_allclose(trials[1], x0 - 0.5 * g0, rtol=0, atol=0)
    assert not result.converged and result.iterations == 1
    assert np.array_equal(result.x, x0) and result.f == 1e6 and result.aux == "start"


@pytest.mark.parametrize(
    "error", [pp.NumericalFailure("non-finite"), OverflowError("exp"), ValueError("box")]
)
def test_minimize_bfgs_rejects_failed_trial(error):
    trials = []

    def quadratic(x):
        trials.append(x.copy())
        if len(trials) == 1:
            raise error
        return 0.5 * float(x @ x), x.copy(), len(trials)

    x0 = np.array([1.0, -2.0])
    result = _minimize_bfgs(quadratic, x0, start=(2.5, x0.copy(), 0))
    # the unit step raised, so the line search halved it instead of raising
    assert_allclose(trials[0], 0.0, rtol=0, atol=0)
    assert_allclose(trials[1], 0.5 * x0, rtol=0, atol=0)
    assert result.converged
    assert result.aux == len(trials)
    assert_allclose(result.x, 0.0, rtol=0, atol=1e-8)


def test_bhhh_inverse_rejects_non_finite_curvature():
    grads = np.array([[1.0, 0.5], [0.25, 2.0]])
    inv = _bhhh_inverse([1.0], grads[None], 2)
    assert_allclose(inv, np.linalg.inv(grads.T @ grads), rtol=1e-12, atol=0)
    grads[0, 1] = np.inf
    assert _bhhh_inverse([1.0], grads[None], 2) is None


def test_fit_deterministic():
    series = pp.simulate_scenario(5, 300, seed=6)
    a = pp.fit(series, W1, quad_order=20)
    b = pp.fit(series, W1, quad_order=20)
    assert np.array_equal(a.params_hat.beta, b.params_hat.beta)
    assert a.params_hat.sigma2 == b.params_hat.sigma2
    assert a.params_hat.phi == b.params_hat.phi
    assert a.loglik == b.loglik
    assert np.array_equal(a.J_hat, b.J_hat)
    assert np.array_equal(a.se, b.se)


def test_fit_scale_equivariance():
    rng = np.random.default_rng(1)
    X = np.column_stack([np.ones(400), rng.normal(size=400)])
    params = pp.Params(beta=[0.3, 0.2], sigma2=0.3, phi=0.4)
    series = pp.simulate_series(pp.SimConfig(params=params, X=X, n_rep=1, seed=3))
    base = pp.fit(series, W1, quad_order=20)

    X_scaled = X.copy()
    X_scaled[:, 1] *= 10.0
    scaled = pp.fit(pp.CountSeries(y=series.y, X=X_scaled), W1, quad_order=20)
    assert abs(scaled.params_hat.beta[1] * 10.0 - base.params_hat.beta[1]) < 1e-4


def test_fit_godambe_consistency():
    series = pp.simulate_scenario(5, 400, seed=9)
    fit = pp.fit(series, W1, quad_order=20)
    avar = np.linalg.inv(fit.H_hat) @ fit.J_hat @ np.linalg.inv(fit.H_hat) / series.n
    prod = fit.godambe @ (avar * series.n)
    assert np.max(np.abs(prod - np.eye(3))) < 1e-6


def test_fit_score_small_at_optimum():
    series = pp.simulate_scenario(5, 500, seed=14)
    fit = pp.fit(series, W1, quad_order=20)
    score = PairwiseEvaluator(series, W1, RULE20).loglik_and_score(fit.working_hat)[1]
    assert np.max(np.abs(score)) <= 1e-4 * max(1.0, abs(fit.loglik))


def test_fit_respects_explicit_init_and_hac_override():
    series = pp.simulate_scenario(5, 300, seed=16)
    init = pp.Params(beta=[0.2], sigma2=0.3, phi=0.2)
    fit = pp.fit(series, W1, quad_order=10, init=init, hac_lags=5)
    assert fit.hac_lags == 5
    assert fit.converged


@pytest.mark.parametrize("restriction", [None, pp.PHI_ZERO, pp.INDEPENDENCE])
def test_negative_hac_window_rejected_before_optimizer(monkeypatch, restriction):
    def optimizer_ran(*args, **kwargs):
        raise AssertionError("the optimizer ran")

    monkeypatch.setattr(estimation, "_minimize_bfgs", optimizer_ran)
    series = pp.simulate_scenario(5, 300, seed=16)
    with pytest.raises(ValueError, match="hac_lags must be >= 0, got -3"):
        if restriction is None:
            pp.fit(series, W1, quad_order=10, hac_lags=-3)
        else:
            pp.fit_restricted(series, W1, quad_order=10, restriction=restriction, hac_lags=-3)


def test_fit_non_convergence_flagged_with_matrices():
    series = pp.simulate_scenario(5, 300, seed=17)
    fit = pp.fit(series, W1, quad_order=10, max_iter=1)
    assert not fit.converged
    assert fit.iterations == 1
    assert fit.H_hat.shape == (3, 3)
    assert np.all(np.isfinite(fit.se))


def greek_series():
    """The Greek series as ``pairpois fit --trend --harmonics --holdout-months 12`` sees it."""
    data = cli.read_count_csv(str(pathlib.Path(pp.__file__).parent / "data" / "greece_imd.csv"))
    n_train = data.n - 12
    spec = cli.ModelSpec(trend=True, harmonics=True, d=5, scheme="trap", quad_order=20)
    X, _ = cli.build_design(spec, data.months[:n_train], n_train, {})
    return pp.CountSeries(y=data.counts[:n_train], X=X)


def test_bhhh_start_greek_fit_needs_few_evaluations(monkeypatch):
    calls = []
    real = PairwiseEvaluator.evaluate

    def counted(self, working):
        calls.append(1)
        return real(self, working)

    monkeypatch.setattr(PairwiseEvaluator, "evaluate", counted)
    fit = pp.fit(greek_series(), pp.make_weights(5, "trap"), quad_order=20)
    assert fit.converged
    assert len(calls) <= 16  # 44 from an identity start
    assert abs(fit.loglik - -963.25694647) <= 1e-6 * 963.25694647


def test_minimize_bfgs_exact_inverse_hessian_takes_one_unit_step():
    a = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
    c = np.array([0.3, -0.7, 1.1])
    points = []

    def quadratic(x):
        points.append(x.copy())
        d = x - c
        return 0.5 * float(d @ a @ d), a @ d, None

    x0 = np.zeros(3)
    result = _minimize_bfgs(quadratic, x0, max_iter=1, h_inv0=np.linalg.inv(a))
    # the line search accepts the full Newton step at its first probe
    assert result.iterations == 1 and len(points) == 2
    assert_allclose(result.x, c, rtol=0, atol=1e-14)
    assert np.max(np.abs(result.g)) <= 1e-13

    points.clear()
    result = _minimize_bfgs(quadratic, x0, h_inv0=np.linalg.inv(a))
    assert result.converged
    assert_allclose(result.x, c, rtol=0, atol=1e-14)
    seeded = len(points)
    points.clear()
    _minimize_bfgs(quadratic, x0)
    assert len(points) > seeded


def test_bhhh_start_point_is_evaluated_once(monkeypatch):
    # the start pass gives the loglik, the score and the per-pair scores;
    # BFGS takes its value and gradient from there instead of again
    series = greek_series()
    x0 = pp.moment_init(series).to_working().as_vector()
    points = []
    real = PairwiseEvaluator.evaluate

    def recorded(self, working):
        points.append(working.as_vector())
        return real(self, working)

    monkeypatch.setattr(PairwiseEvaluator, "evaluate", recorded)
    fit = pp.fit(series, pp.make_weights(5, "trap"), quad_order=20)
    assert fit.converged
    assert sum(np.array_equal(x, x0) for x in points) == 1


def count_passes(monkeypatch):
    """Record every kernel pass, and the number run when BFGS starts and
    when it returns."""
    passes, at_bfgs = [], []
    real_evaluate = PairwiseEvaluator.evaluate
    real_bfgs = estimation._minimize_bfgs

    def recorded(self, working):
        passes.append(working.as_vector())
        return real_evaluate(self, working)

    def bfgs(*args, **kwargs):
        at_bfgs.append(len(passes))
        out = real_bfgs(*args, **kwargs)
        at_bfgs.append(len(passes))
        return out

    monkeypatch.setattr(PairwiseEvaluator, "evaluate", recorded)
    monkeypatch.setattr(estimation, "_minimize_bfgs", bfgs)
    return passes, at_bfgs


def reject_new_points(monkeypatch, kept):
    """Let the first ``kept`` passes run, and make every later pass at a
    point not evaluated before fail as a pair-density underflow does, so
    the line search rejects every trial point from then on and runs out."""
    seen = []
    real_evaluate = PairwiseEvaluator.evaluate

    def failing(self, working):
        x = working.as_vector()
        if len(seen) >= kept and not any(np.array_equal(x, s) for s in seen):
            raise pp.NumericalFailure("trial point rejected")
        seen.append(x)
        return real_evaluate(self, working)

    monkeypatch.setattr(PairwiseEvaluator, "evaluate", failing)


def assert_is_explicit_pass_result(fit, series, weights):
    """The fit's loglik and sandwich, bit for bit, from one explicit
    ``evaluate`` pass at its estimate."""
    k = fit.H_hat.shape[0]
    n = series.n
    ev = PairwiseEvaluator(series, weights, pp.gauss_hermite(fit.quad_order))
    loglik, pairs = pair_gradients(ev, fit.working_hat)
    pairs = pairs[..., :k]
    h = estimation._sensitivity_from_pairs(weights.w, pairs, n)
    psi = _weighted_per_t(weights.w, pairs)
    j = estimation._variability_from_psi(psi, n, fit.hac_lags)
    godambe = h @ np.linalg.solve(j, h)
    assert fit.loglik == loglik
    assert np.array_equal(fit.H_hat, h)
    assert np.array_equal(fit.J_hat, j)
    assert np.array_equal(fit.godambe, 0.5 * (godambe + godambe.T))
    h_inv_j = np.linalg.solve(h, j)
    se = estimation._sandwich_se(h, h_inv_j, n, fit.working_hat)
    assert np.array_equal(fit.se, se, equal_nan=True)
    # CLIC = -2 loglik + 2 trace(H^-1 J), which is -2 loglik + 2 dim when J = H
    assert fit.clic == -2.0 * loglik + 2.0 * float(np.trace(h_inv_j))


@pytest.mark.parametrize("case", ["greek", "study", "exhausted_line_search"])
def test_fit_runs_no_pass_after_bfgs(monkeypatch, case):
    # one start pass, then one per BFGS evaluation; the loglik and the
    # sandwich come from the pass BFGS accepted last, which is the last
    # pass run unless the line search ran out after rejected trial points
    if case == "greek":
        series, weights = greek_series(), pp.make_weights(5, "trap")
    elif case == "study":
        series, weights = pp.simulate_scenario(5, 500, 1, 3), pp.make_weights(3, "trap")
    else:  # a boundary fit whose line search runs out after four passes
        series, weights = pp.simulate_scenario(9, 500, 504), pp.make_weights(3, "trap")
        reject_new_points(monkeypatch, kept=4)
    passes, at_bfgs = count_passes(monkeypatch)
    fit = pp.fit(series, weights, quad_order=20)
    assert at_bfgs[0] == 1
    assert len(passes) == at_bfgs[1] > 1
    if case == "exhausted_line_search":
        assert not fit.converged and fit.iterations < estimation.DEFAULT_MAX_ITER
        assert not np.array_equal(passes[-1], fit.working_hat.as_vector())
    else:
        assert fit.converged
        assert np.array_equal(passes[-1], fit.working_hat.as_vector())
    assert any(np.array_equal(x, fit.working_hat.as_vector()) for x in passes)
    assert_is_explicit_pass_result(fit, series, weights)


def test_public_sandwich_matrices_are_bit_equal_to_fit():
    # sensitivity_H and variability_J (default r) reduce a pass at the
    # estimate the same way the fit reduces its own
    cases = [(greek_series(), pp.make_weights(5, "trap")),
             (pp.simulate_scenario(5, 500, 1, 3), pp.make_weights(3, "trap"))]
    for series, weights in cases:
        fit = pp.fit(series, weights, quad_order=20)
        rule = pp.gauss_hermite(fit.quad_order)
        assert np.array_equal(pp.sensitivity_H(series, fit.working_hat, weights, rule), fit.H_hat)
        assert np.array_equal(pp.variability_J(series, fit.working_hat, weights, rule), fit.J_hat)


@pytest.mark.parametrize(
    "sigma2,phi,name", [(0.01, 0.9999, "atanh(phi)"), (1e-7, None, "log(sigma2)")]
)
def test_start_outside_sanity_box_is_rejected(sigma2, phi, name):
    # the fit must raise there, not let BFGS start at a point it would
    # reject and report convergence after 0 iterations
    series = pp.simulate_scenario(5, 500, 3)
    weights = pp.make_weights(3, "trap")
    moments = pp.moment_init(series)
    init = pp.Params(beta=moments.beta, sigma2=sigma2, phi=moments.phi if phi is None else phi)
    box = rf"start {re.escape(name)} = .* outside the working sanity box"
    with pytest.raises(ValueError, match=box):
        pp.fit(series, weights, init=init)


def test_minimize_bfgs_never_converges_at_non_finite_objective():
    calls = []

    def infinite(x):
        calls.append(1)
        return math.inf, np.zeros(2), None

    result = _minimize_bfgs(infinite, np.ones(2))
    assert not result.converged and result.iterations == 0 and result.f == math.inf
    assert len(calls) == 1
    assert_allclose(result.x, 1.0, rtol=0, atol=0)
    result = _minimize_bfgs(infinite, np.ones(2), start=(math.inf, np.zeros(2), None))
    assert not result.converged and len(calls) == 1


def constant_series_start_scores(count, lags, pairs):
    """Start scores shaped as a constant series gives them, one score per
    lag repeated over its pairs: all zero for ``count`` 0, so the outer
    product is not positive definite; otherwise three independent lag
    scores 1e-7 apart from (1, 0, 0), so it is positive definite but
    numerically singular (condition number about 1e15)."""
    lag_scores = np.array([[1.0, 0.0, 1e-7], [1.0, 1e-7, 0.0], [1.0, 0.0, 0.0]])[:lags]
    return np.repeat(lag_scores[:, None, :], pairs, axis=1) * (count != 0)


@pytest.mark.parametrize("count", [0, 3])
def test_constant_series_raises_typed_error_with_bhhh_start(count):
    # all zeros: the start-point outer product is not positive definite and
    # BFGS starts from the identity; otherwise it can be positive definite
    # but numerically singular, and its inverse is still a start.  Whether
    # the outer product of a constant series of threes comes out positive
    # definite depends on rounding (its least eigenvalue is about 1e-18 of
    # the largest), so the start branch is checked on constructed scores.
    # Either way the fit ends in the typed sensitivity failure, not in a
    # LinAlgError from the start matrix.
    series = pp.CountSeries(y=np.full(120, count), X=np.ones((120, 1)))
    weights = pp.make_weights(2, "trap")
    start_pairs = constant_series_start_scores(count, len(weights.w), series.n - weights.m_d)
    assert (_bhhh_inverse(weights.w, start_pairs, series.n) is None) == (count == 0)
    with pytest.raises(pp.SingularMatrixError):
        pp.fit(series, weights, quad_order=10)
    with pytest.raises(pp.SingularMatrixError):
        pp.fit_restricted(series, weights, quad_order=10, restriction=pp.PHI_ZERO)


def test_fit_series_too_short():
    series = pp.CountSeries(y=np.array([1, 2]), X=np.ones((2, 1)))
    with pytest.raises(ValueError):
        pp.fit(series, pp.make_weights(2, "rect"), quad_order=5)


# ---------------------------------------------------------------------------
# restricted fits


@pytest.mark.parametrize("case", ["greek", "study"])
@pytest.mark.parametrize("restriction", [pp.PHI_ZERO, pp.INDEPENDENCE])
def test_restricted_fit_is_one_explicit_pass(restriction, case):
    # a restricted fit's loglik, H, J, Godambe matrix, SEs and CLIC come
    # from one pass at its estimate, as a full fit's do
    if case == "greek":
        series, weights = greek_series(), pp.make_weights(5, "trap")
    else:
        series, weights = pp.simulate_scenario(5, 500, 1, 3), pp.make_weights(3, "trap")
    fit = pp.fit_restricted(series, weights, quad_order=20, restriction=restriction)
    assert_is_explicit_pass_result(fit, series, weights)


def test_independence_restriction_matches_irls():
    series = pp.simulate_scenario(5, 400, seed=20)
    fit = pp.fit_restricted(series, W1, restriction=pp.INDEPENDENCE)
    beta, _, _ = pp.poisson_irls(series.X, series.y)
    assert abs(fit.params_hat.beta[0] - beta[0]) < 1e-4
    assert fit.params_hat.sigma2 == 0.0
    assert fit.params_hat.phi == 0.0
    assert fit.params_hat.tau2 == 0.0
    assert np.all(np.isnan(fit.se[1:]))
    assert np.isfinite(fit.clic)


def test_independence_restriction_rejects_invalid_node_count():
    series = pp.simulate_scenario(5, 100, seed=1)
    with pytest.raises(ValueError, match="order"):
        pp.fit_restricted(series, W1, quad_order=0, restriction=pp.INDEPENDENCE)


def test_phi_zero_restriction_structure():
    series = pp.simulate_scenario(5, 400, seed=20)
    fit = pp.fit_restricted(series, W1, quad_order=20, restriction=pp.PHI_ZERO)
    assert fit.converged
    assert fit.params_hat.phi == 0.0
    assert fit.params_hat.sigma2 > 0
    assert fit.H_hat.shape == (2, 2)
    # tau2 equals sigma2 when phi is fixed at zero
    assert abs(fit.params_hat.tau2 - fit.params_hat.sigma2) < 1e-15
    assert np.isnan(fit.se[2])
    assert abs(fit.se[1] - fit.se[3]) < 1e-15


def test_phi_zero_non_convergence_flagged_with_matrices():
    series = pp.simulate_scenario(5, 300, seed=17)
    fit = pp.fit_restricted(series, W1, quad_order=10, restriction=pp.PHI_ZERO, max_iter=1)
    assert not fit.converged
    assert fit.iterations == 1
    assert fit.H_hat.shape == (2, 2)
    assert np.all(np.isfinite(fit.se[:2]))


def test_phi_zero_respects_explicit_init_and_hac_override():
    series = pp.simulate_scenario(5, 300, seed=16)
    base = pp.fit_restricted(series, W1, quad_order=10, restriction=pp.PHI_ZERO)
    # restarting at the optimum needs no step, where the moment start needs several
    restart = pp.fit_restricted(
        series, W1, quad_order=10, restriction=pp.PHI_ZERO, init=base.params_hat, hac_lags=5
    )
    assert base.converged and base.iterations > 0
    assert restart.converged and restart.iterations == 0
    assert_allclose(restart.working_hat.as_vector(), base.working_hat.as_vector(), atol=1e-12)
    assert (base.hac_lags, restart.hac_lags) == (pp.default_hac_lags(300), 5)
    assert not np.allclose(restart.J_hat, base.J_hat)


def test_restriction_nesting():
    series = pp.simulate_scenario(5, 400, seed=20)
    full = pp.fit(series, W1, quad_order=20)
    phi0 = pp.fit_restricted(series, W1, quad_order=20, restriction=pp.PHI_ZERO)
    indep = pp.fit_restricted(series, W1, restriction=pp.INDEPENDENCE)
    assert full.loglik >= phi0.loglik - 1e-8
    assert phi0.loglik >= indep.loglik - 1e-8


def test_unknown_restriction_rejected():
    series = pp.simulate_scenario(5, 100, seed=1)
    with pytest.raises(ValueError):
        pp.fit_restricted(series, W1, restriction="no_such_model")


def test_clic_prefers_latent_model_on_latent_data():
    wins = 0
    for r in range(10):
        series = pp.simulate_scenario(5, 500, seed=5150, replicate=r)
        full = pp.fit(series, W1, quad_order=20)
        indep = pp.fit_restricted(series, W1, restriction=pp.INDEPENDENCE)
        wins += full.clic < indep.clic
    assert wins >= 8


def test_phi_zero_worse_on_strongly_autocorrelated_data():
    wins = 0
    for r in range(10):
        series = pp.simulate_scenario(3, 500, seed=616, replicate=r)
        full = pp.fit(series, W1, quad_order=20)
        phi0 = pp.fit_restricted(series, W1, quad_order=20, restriction=pp.PHI_ZERO)
        wins += full.clic < phi0.clic
    assert wins >= 8
