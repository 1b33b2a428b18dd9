import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pairpois as pp
from pairpois.estimation import _minimize_bfgs, _safe_negative
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
    g = pp.per_t_score(series, 2, working, W1, RULE20)  # w_1 = 1
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
    psi = ev.per_t_scores(working)
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


# ---------------------------------------------------------------------------
# robust standard errors and CLIC


def test_robust_se_reduces_to_inverse_information():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    h = a @ a.T + 3 * np.eye(3)
    working = pp.WorkingParams(beta=[0.2], log_sigma2=math.log(0.4), z_phi=math.atanh(0.3))
    se = pp.robust_se(h, h, 100, working)
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
    working = pp.WorkingParams(beta=[0.0], log_sigma2=0.0, z_phi=0.0)
    with pytest.raises(pp.SingularMatrixError) as info:
        pp.robust_se(h, np.eye(3), 50, working)
    assert info.value.cond is None or info.value.cond > 1e13


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
        return -value, -(jac(x).T @ score)

    p_hat = fit.params_hat
    x0 = np.array([p_hat.beta[0], math.log(p_hat.tau2), math.atanh(p_hat.phi)])
    x_new, _, _, _, converged = _minimize_bfgs(neg, x0)
    assert converged
    working_new = to_working(x_new)
    _, pairs = ev.pair_gradients(working_new)
    a = jac(x_new)
    pairs_new = [(lag, w, grads @ a) for lag, w, grads in pairs]
    h = sum(w * (g.T @ g) for _, w, g in pairs_new) / series.n
    psi = sum(w * g for _, w, g in pairs_new)
    j = pp.variability_J(series, working_new, W1, RULE20, r=26)  # J in old coords
    j = a.T @ j @ a
    avar = np.linalg.inv(h) @ j @ np.linalg.inv(h) / series.n
    tau2_new = working_new.to_params().tau2
    se_tau2_reparam = tau2_new * math.sqrt(avar[1, 1])
    assert abs(se_tau2 - se_tau2_reparam) <= 0.05 * se_tau2


def test_clic_reduces_to_aic_form():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4))
    h = a @ a.T + 4 * np.eye(4)
    from pairpois.estimation import _clic_value

    assert abs(_clic_value(-120.0, h, h) - (240.0 + 2 * 4)) < 1e-10


def test_clic_requires_convergence():
    series = pp.simulate_scenario(5, 200, seed=3)
    fit = pp.fit(series, W1, quad_order=10, max_iter=1)
    assert not fit.converged
    with pytest.raises(pp.NotConvergedError):
        pp.clic(fit)


# ---------------------------------------------------------------------------
# full fits


def test_fit_recovers_phi_on_scenario5(scenario5_batch):
    phis = np.array([f.params_hat.phi for f in scenario5_batch])
    rate = np.mean(np.abs(phis - 0.5) <= 0.15)
    assert rate >= 0.80
    assert all(f.converged for f in scenario5_batch)


def test_safe_negative_rejects_non_finite_score():
    # inside the sanity box, but the latent variance is so large that e^v
    # overflows in grid cells whose weight underflowed: the value is finite
    # and the score moments come out as 0 * inf
    series = pp.simulate_scenario(1, 500, 7, 0)
    ev = PairwiseEvaluator(series, pp.make_weights(3, "trap"), RULE20)
    x = np.array([1.0, 6.0, 3.9])
    value, score = ev.loglik_and_score(pp.WorkingParams.from_vector(x, 1))
    assert np.isfinite(value) and not np.all(np.isfinite(score))
    neg = _safe_negative(
        lambda v: ev.loglik_and_score(pp.WorkingParams.from_vector(v, 1)), 3,
        ls_index=1, z_index=2,
    )
    f, g = neg(x)
    assert f == math.inf
    assert_allclose(g, 0.0, rtol=0, atol=0)


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
    score = pp.pairwise_score(series, fit.working_hat, W1, RULE20)
    assert np.max(np.abs(score)) <= 1e-4 * max(1.0, abs(fit.loglik))


def test_fit_respects_explicit_init_and_hac_override():
    series = pp.simulate_scenario(5, 300, seed=16)
    init = pp.Params(beta=[0.2], sigma2=0.3, phi=0.2)
    fit = pp.fit(series, W1, quad_order=10, init=init, hac_lags=5)
    assert fit.hac_lags == 5
    assert fit.converged


def test_fit_non_convergence_flagged_with_matrices():
    series = pp.simulate_scenario(5, 300, seed=17)
    fit = pp.fit(series, W1, quad_order=10, max_iter=1)
    assert not fit.converged
    assert fit.iterations == 1
    assert fit.H_hat.shape == (3, 3)
    assert np.all(np.isfinite(fit.se))


def test_fit_series_too_short():
    series = pp.CountSeries(y=np.array([1, 2]), X=np.ones((2, 1)))
    with pytest.raises(ValueError):
        pp.fit(series, pp.make_weights(2, "rect"), quad_order=5)


# ---------------------------------------------------------------------------
# restricted fits


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
