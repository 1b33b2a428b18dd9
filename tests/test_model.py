import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracle
import pairpois as pp
from pairpois.model import PairwiseEvaluator

ONE = np.array([1.0])


# ---------------------------------------------------------------------------
# weights


def test_rectangular_weights():
    w = pp.make_weights(2, "rect")
    assert_allclose(w.w, [0.5, 0.5], rtol=0, atol=0)
    assert w.m_d == 2
    assert w.scheme == "rectangular"


def test_trapezoidal_d1_single_weight():
    w = pp.make_weights(1, "trap")
    assert_allclose(w.w, [1.0])
    assert w.m_d == 2


def test_trapezoidal_d2_values():
    # unnormalized (1, 1, 0.5) over lags 1..3
    w = pp.make_weights(2, "trapezoidal")
    assert_allclose(w.w, [0.4, 0.4, 0.2], atol=1e-15)
    assert w.m_d == 4


def test_trapezoidal_d10_shape():
    w = pp.make_weights(10, "trap")
    assert w.w.shape == (19,)
    assert np.all(w.w > 0)
    # plateau over the first d-1 lags, then linear decay
    assert_allclose(w.w[:9], w.w[0])
    decay = np.diff(w.w[9:])
    assert np.all(decay < 0)
    assert_allclose(decay, decay[0], atol=1e-15)


@pytest.mark.parametrize("d", range(1, 13))
@pytest.mark.parametrize("scheme", ["rect", "trap"])
def test_weights_normalized(d, scheme):
    w = pp.make_weights(d, scheme)
    assert abs(w.w.sum() - 1.0) < 1e-12
    assert len(w.w) == (d if w.scheme == "rectangular" else 2 * d - 1)


@pytest.mark.parametrize("bad_d", [0, -1, 1.5])
def test_weights_invalid_order(bad_d):
    with pytest.raises(ValueError):
        pp.make_weights(bad_d)


def test_weights_invalid_scheme():
    with pytest.raises(ValueError):
        pp.make_weights(2, "triangular")


# ---------------------------------------------------------------------------
# parameter containers


def test_tau2_identity():
    p = pp.Params(beta=[0.1], sigma2=0.6190**2, phi=-0.5)
    assert abs(p.tau2 - 0.6190**2 / 0.75) < 1e-15


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(beta=[0.0], sigma2=-0.1, phi=0.0),
        dict(beta=[0.0], sigma2=1.0, phi=1.0),
        dict(beta=[0.0], sigma2=1.0, phi=-1.2),
        dict(beta=[np.nan], sigma2=1.0, phi=0.0),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        pp.Params(**kwargs)


def test_working_round_trip():
    p = pp.Params(beta=[0.3, -1.2], sigma2=0.37, phi=0.83)
    back = p.to_working().to_params()
    assert_allclose(back.beta, p.beta, atol=1e-12)
    assert abs(back.sigma2 - p.sigma2) < 1e-12
    assert abs(back.phi - p.phi) < 1e-12

    w = pp.WorkingParams(beta=[0.5], log_sigma2=-1.0, z_phi=0.4)
    vec = w.as_vector()
    again = pp.WorkingParams.from_vector(vec, 1)
    assert_allclose(again.as_vector(), vec, atol=0)


def test_degenerate_sigma2_round_trip():
    p = pp.Params(beta=[0.0], sigma2=0.0, phi=0.0)
    w = p.to_working()
    assert w.log_sigma2 == -math.inf
    assert w.to_params().sigma2 == 0.0


def test_count_series_validation():
    with pytest.raises(ValueError):
        pp.CountSeries(y=np.array([1, -2]), X=np.ones((2, 1)))
    with pytest.raises(ValueError):
        pp.CountSeries(y=np.array([1.5, 2.0]), X=np.ones((2, 1)))
    with pytest.raises(ValueError):
        pp.CountSeries(y=np.array([1, 2, 3]), X=np.zeros((3, 2)))  # rank deficient
    series = pp.CountSeries(y=np.array([1, 2]), X=np.ones((2, 1)))


# ---------------------------------------------------------------------------
# marginal moments


def test_marginal_mean_examples():
    s1 = pp.SCENARIOS[1].params
    mean, _ = pp.marginal_moments(ONE @ s1.beta, s1.tau2)
    assert abs(mean - math.exp(-0.6130 + s1.tau2 / 2)) < 1e-12
    assert abs(mean - 1.500) < 1e-3

    s4 = pp.SCENARIOS[4].params
    assert abs(pp.marginal_moments(ONE @ s4.beta, s4.tau2)[0] - 1.500) < 1e-3

    flat = pp.Params(beta=[0.0], sigma2=1e-14, phi=0.0)
    assert abs(pp.marginal_moments(ONE @ flat.beta, flat.tau2)[0] - 1.0) < 1e-10


def test_marginal_var_examples():
    s1 = pp.SCENARIOS[1].params
    m, var = pp.marginal_moments(ONE @ s1.beta, s1.tau2)
    expected = m + m * m * (math.exp(s1.tau2) - 1.0)
    assert abs(var - expected) < 1e-9
    assert abs(expected - 16.5) < 0.01

    flat = pp.Params(beta=[0.4], sigma2=1e-14, phi=0.0)
    m, var = pp.marginal_moments(ONE @ flat.beta, flat.tau2)
    assert abs(var - m) < 1e-10


def test_overdispersion_property():
    rng = np.random.default_rng(5)
    for _ in range(25):
        p = pp.Params(
            beta=[rng.uniform(-1, 2)],
            sigma2=rng.uniform(0.01, 2.0),
            phi=rng.uniform(-0.95, 0.95),
        )
        mean, var = pp.marginal_moments(ONE @ p.beta, p.tau2)
        assert var >= mean


def test_marginal_moments_of_array_are_per_element():
    p = pp.Params(beta=[0.2, -0.7], sigma2=0.3, phi=0.5)
    X = np.column_stack([np.ones(6), np.linspace(-1.0, 2.0, 6)])
    eta = X @ p.beta
    mean, var = pp.marginal_moments(eta, p.tau2)
    assert mean.shape == var.shape == (6,)
    for i, e in enumerate(eta):
        assert (mean[i], var[i]) == pp.marginal_moments(e, p.tau2)


def lag1_autocorrelation(p):
    """Marginal lag-1 autocorrelation m^2 expm1(phi tau2) / v of counts
    of an intercept-only model."""
    m, v = pp.marginal_moments(ONE @ p.beta, p.tau2)
    return m * m * math.expm1(p.phi * p.tau2) / v


def test_autocorrelation_against_long_simulation():
    # Monte Carlo oracle: lag-1 sample autocorrelation of a long series
    p2 = pp.SCENARIOS[2].params
    X = np.ones((1_000_000, 1))
    y = pp.simulate_series(pp.SimConfig(params=p2, X=X, n_rep=1, seed=2024)).y.astype(float)
    r_hat = np.corrcoef(y[:-1], y[1:])[0, 1]
    assert abs(r_hat - lag1_autocorrelation(p2)) < 0.01

    p3 = pp.SCENARIOS[3].params
    X = np.ones((4_000_000, 1))
    y = pp.simulate_series(pp.SimConfig(params=p3, X=X, n_rep=1, seed=2024)).y.astype(float)
    r_hat = np.corrcoef(y[:-1], y[1:])[0, 1]
    assert abs(r_hat - lag1_autocorrelation(p3)) < 0.01


@pytest.mark.parametrize("sid,target", [(1, 10.0), (4, 1.0), (7, 0.1)])
def test_dispersion_index_benchmark_rows(sid, target):
    value = pp.dispersion_index(ONE, pp.SCENARIOS[sid].params)
    assert abs(value - target) < 1e-3 * target


def test_dispersion_index_of_design_matrix_is_per_row():
    p = pp.Params(beta=[0.2, -0.7], sigma2=0.3, phi=0.5)
    X = np.column_stack([np.ones(6), np.linspace(-1.0, 2.0, 6)])
    got = pp.dispersion_index(X, p)
    assert got.shape == (6,)
    assert_allclose(got, [pp.dispersion_index(x, p) for x in X], rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# pair densities


def test_log_factorial_matches_gammaln():
    from scipy.special import gammaln

    from pairpois.model import _log_factorial

    y = np.arange(20_001)
    want = gammaln(y + 1.0)
    scale = np.where(want == 0.0, 1.0, np.abs(want))
    assert np.all(np.abs(_log_factorial(y) - want) <= 1e-15 * scale)
    # with log-mean 0 the pmf is -1 - log(y!), so no cancellation hides the error
    assert np.all(np.abs(pp.poisson_log_pmf(y, 0.0) - (-1.0 - want)) <= 1e-15 * (1.0 + want))
    assert _log_factorial(np.array([[3, 0], [3, 5]])).shape == (2, 2)


def test_pair_density_degenerate_latent():
    p = pp.Params(beta=[0.1501], sigma2=1e-12, phi=0.5)
    got = pp.pair_log_density(2, 3, ONE, ONE, 1, p, pp.gauss_hermite(20))
    want = float(pp.poisson_log_pmf(2, 0.1501) + pp.poisson_log_pmf(3, 0.1501))
    assert abs(got - want) < 1e-6


def test_pair_density_factorizes_at_phi_zero():
    p = pp.Params(beta=[0.2], sigma2=0.4, phi=0.0)
    rule = pp.gauss_hermite(20)
    scale = math.sqrt(2 * p.tau2)

    def marginal(y):
        vals = pp.poisson_log_pmf(y, 0.2 + scale * rule.nodes)
        return math.log(float(np.sum(rule.weights / math.sqrt(math.pi) * np.exp(vals))))

    got = pp.pair_log_density(4, 1, ONE, ONE, 3, p, rule)
    assert abs(got - (marginal(4) + marginal(1))) < 1e-10


def test_pair_density_exchange_symmetry_exact():
    p = pp.SCENARIOS[5].params
    rule = pp.gauss_hermite(17)
    for y1, y2, lag in [(2, 7, 1), (0, 4, 2), (5, 5, 3), (9, 1, 1)]:
        a = pp.pair_log_density(y1, y2, ONE, ONE, lag, p, rule)
        b = pp.pair_log_density(y2, y1, ONE, ONE, lag, p, rule)
        assert a == b


def test_pair_density_matches_monte_carlo():
    # 1e7-draw Monte Carlo oracle for one representative pair
    p = pp.Params(beta=[0.1501], sigma2=0.6190**2, phi=0.5)
    got = math.exp(pp.pair_log_density(2, 3, ONE, ONE, 1, p, pp.gauss_hermite(40)))
    mc, se = oracle.mc_pair_density(2, 3, ONE, ONE, 1, p, 10_000_000, seed=7)
    assert abs(got - mc) <= 3 * se


def test_pair_density_total_mass():
    # Verified decomposition: at Y = ceil(mean + 10 sd) = 19 the exact
    # probability outside the box is 1.79e-4 (pure tail truncation), and
    # the quadrature reproduces the box mass to ~1e-8 (node doubling
    # leaves it unchanged), so the mass bound is 2e-4 rather than the
    # nominal 1e-4.
    p = pp.SCENARIOS[4].params
    mean, var = pp.marginal_moments(ONE @ p.beta, p.tau2)
    top = math.ceil(mean + 10 * math.sqrt(var))
    assert top == 19

    def box_mass(order):
        rule = pp.gauss_hermite(order)
        return sum(
            math.exp(pp.pair_log_density(y1, y2, ONE, ONE, 1, p, rule))
            for y1 in range(top + 1)
            for y2 in range(top + 1)
        )

    mass20 = box_mass(20)
    assert mass20 >= 1.0 - 2e-4
    assert abs(mass20 - box_mass(40)) < 1e-8


def test_pair_density_invalid_arguments():
    p = pp.SCENARIOS[4].params
    rule = pp.gauss_hermite(5)
    with pytest.raises(ValueError):
        pp.pair_log_density(1, 1, ONE, ONE, 0, p, rule)
    with pytest.raises(ValueError):
        pp.pair_log_density(-1, 1, ONE, ONE, 1, p, rule)


def test_pair_density_underflow_reported():
    # a linear predictor of 800 overflows exp() at every node
    p = pp.Params(beta=[800.0], sigma2=0.1, phi=0.2)
    with pytest.raises(pp.NumericalFailure):
        pp.pair_log_density(1, 1, ONE, ONE, 1, p, pp.gauss_hermite(5))


def test_pairwise_loglik_underflow_carries_position():
    series = pp.CountSeries(y=np.array([1, 2, 0, 1]), X=np.ones((4, 1)))
    p = pp.Params(beta=[800.0], sigma2=0.1, phi=0.2)
    with pytest.raises(pp.NumericalFailure) as info:
        pp.pairwise_loglik(series, p, pp.make_weights(1, "rect"), pp.gauss_hermite(5))
    assert info.value.lag == 1
    assert info.value.time_index in range(2, 5)


# beta whose X beta overflows to -inf where z = 2, at 0-based time 22
OVERFLOW_BETA = [0.2, -1e308]


@pytest.mark.parametrize("z_phi", [0.3, 0.0], ids=["phi!=0", "phi=0"])
def test_overflowing_linear_predictor_raises_located_failure(z_phi):
    # the overflow of X beta must reach the located NumericalFailure, not
    # escape as a RuntimeWarning (an error under this suite's filters)
    n = 40
    z = np.zeros(n)
    z[22] = 2.0
    series = pp.CountSeries(y=np.arange(n) % 4, X=np.column_stack([np.ones(n), z]))
    ev = pp.PairwiseEvaluator(series, pp.make_weights(2, "trap"), pp.gauss_hermite(5))
    working = pp.WorkingParams(beta=OVERFLOW_BETA, log_sigma2=math.log(0.1), z_phi=z_phi)
    with pytest.raises(pp.NumericalFailure) as info:
        ev.loglik_and_score(working)
    assert (info.value.time_index, info.value.lag) == (23, 1)


def test_pair_density_of_overflowing_linear_predictor_raises():
    p = pp.Params(beta=OVERFLOW_BETA, sigma2=0.1, phi=0.3)
    with pytest.raises(pp.NumericalFailure):
        pp.pair_log_density(0, 2, [1.0, 2.0], [1.0, 0.0], 1, p, pp.gauss_hermite(5))


# ---------------------------------------------------------------------------
# pairwise likelihood and score


def small_series(n=60, sid=4, seed=11):
    return pp.simulate_scenario(sid, n, seed=seed)


def test_pairwise_loglik_single_outer_term():
    w = pp.make_weights(2, "rect")  # m_d = 2
    series = pp.CountSeries(y=np.array([3, 1, 2]), X=np.ones((3, 1)))
    p = pp.SCENARIOS[4].params
    rule = pp.gauss_hermite(20)
    got = pp.pairwise_loglik(series, p, w, rule)
    want = 0.5 * pp.pair_log_density(1, 2, ONE, ONE, 1, p, rule) + 0.5 * pp.pair_log_density(
        3, 2, ONE, ONE, 2, p, rule
    )
    assert abs(got - want) < 1e-12


def test_pairwise_loglik_d1_is_consecutive_pairs():
    w = pp.make_weights(1, "rect")
    series = small_series(n=40)
    p = pp.SCENARIOS[4].params
    rule = pp.gauss_hermite(15)
    got = pp.pairwise_loglik(series, p, w, rule)
    want = sum(
        pp.pair_log_density(series.y[t - 1], series.y[t], ONE, ONE, 1, p, rule)
        for t in range(1, series.n)
    )
    assert abs(got - want) < 1e-10


def test_pairwise_loglik_matches_direct_pair_sum():
    w = pp.make_weights(2, "trap")
    series = small_series(n=50)
    p = pp.SCENARIOS[4].params
    rule = pp.gauss_hermite(12)
    got = pp.pairwise_loglik(series, p, w, rule)
    want = 0.0
    for lag, w_lag in zip(w.lags, w.w):
        for t in range(w.m_d, series.n):
            want += w_lag * pp.pair_log_density(
                series.y[t - lag], series.y[t], series.X[t - lag], series.X[t], lag, p, rule
            )
    assert abs(got - want) < 1e-10


def test_pairwise_loglik_deterministic():
    w = pp.make_weights(3, "trap")
    series = small_series(n=120, sid=5)
    p = pp.SCENARIOS[5].params
    rule = pp.gauss_hermite(20)
    assert pp.pairwise_loglik(series, p, w, rule) == pp.pairwise_loglik(series, p, w, rule)


def test_pairwise_loglik_degenerate_params():
    w = pp.make_weights(1, "rect")
    series = small_series(n=30)
    p0 = pp.Params(beta=[0.3], sigma2=0.0, phi=0.0)
    lp = pp.poisson_log_pmf(series.y, 0.3)
    want = float(np.sum(lp[:-1] + lp[1:]))
    assert abs(pp.pairwise_loglik(series, p0, w, pp.gauss_hermite(5)) - want) < 1e-10


def _covariate_series(n=80, seed=5):
    """A short series with an intercept and two periodic indicators, so
    some pairs share a covariate row and some do not."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    X = np.column_stack([np.ones(n), t % 3 == 0, t % 4 == 0]).astype(float)
    y = rng.poisson(np.exp(0.4 + 0.5 * X[:, 1] - 0.3 * X[:, 2]))
    return pp.CountSeries(y=y, X=X)


@pytest.mark.parametrize("z_phi", [0.0, 0.4])
def test_evaluator_integrates_independence_point(z_phi):
    # log sigma2 = -inf is tau2 = 0: the rule integrates the point mass
    series = _covariate_series()
    w = pp.make_weights(2, "trap")
    beta = np.array([0.35, 0.6, -0.2])
    ev = PairwiseEvaluator(series, w, pp.gauss_hermite(20))
    working = pp.WorkingParams(beta=beta, log_sigma2=-math.inf, z_phi=z_phi)
    loglik, pairs = ev.pair_gradients(working)

    eta = series.X @ beta
    lp = pp.poisson_log_pmf(series.y, eta)
    resid = series.y - np.exp(eta)
    outer = np.arange(w.m_d, series.n)
    want = sum(w_lag * float(np.sum(lp[outer - lag] + lp[outer]))
               for lag, w_lag in zip(w.lags, w.w))
    assert abs(loglik - want) <= 1e-12 * abs(want)
    assert pairs.shape == (w.lags.shape[0], series.n - w.m_d, 5)
    for lag, grads in zip(w.lags, pairs):
        i1 = outer - lag
        beta_scores = resid[i1, None] * series.X[i1] + resid[outer, None] * series.X[outer]
        assert np.array_equal(grads[:, :3], beta_scores)
        assert np.all(grads[:, 3:] == 0.0)


@pytest.mark.parametrize(
    "log_sigma2,z_phi",
    [(-math.inf, 0.0), (-math.inf, 0.4), (math.log(0.3), 0.4)],
    ids=["tau2=0-z_phi=0", "tau2=0-z_phi=0.4", "sigma2=0.3-z_phi=0.4"],
)
def test_evaluator_loglik_is_bit_equal_to_fit_path(log_sigma2, z_phi):
    # one kernel mode: the loglik-only call sums exactly as the score passes do
    series = _covariate_series()
    ev = PairwiseEvaluator(series, pp.make_weights(2, "trap"), pp.gauss_hermite(20))
    working = pp.WorkingParams(beta=[0.35, 0.6, -0.2], log_sigma2=log_sigma2, z_phi=z_phi)
    value = ev.loglik(working)
    assert value == ev.loglik_and_score(working)[0]
    assert value == ev.pair_gradients(working)[0]


def test_pairwise_score_at_zero_latent_variance_is_glm_score():
    series = small_series(n=50)
    w = pp.make_weights(1, "rect")
    working = pp.WorkingParams(beta=[0.25], log_sigma2=-math.inf, z_phi=0.0)
    score = PairwiseEvaluator(series, w, pp.gauss_hermite(20)).loglik_and_score(working)[1]
    resid = series.y - math.exp(0.25)
    want = float(np.sum(resid[:-1] + resid[1:]))
    assert abs(score[0] - want) <= 1e-12 * max(1.0, abs(want))
    assert score[1] == 0.0 and score[2] == 0.0


def test_node_count_monotonicity():
    # approximation improves with nodes on strongly dispersed data
    series = pp.simulate_scenario(1, 500, seed=77)
    p = pp.SCENARIOS[1].params
    w = pp.make_weights(1, "rect")
    ll = {q: pp.pairwise_loglik(series, p, w, pp.gauss_hermite(q)) for q in (5, 20, 40)}
    assert abs(ll[20] - ll[40]) <= abs(ll[5] - ll[40])


def test_series_too_short_rejected():
    w = pp.make_weights(3, "trap")  # m_d = 6
    series = pp.CountSeries(y=np.arange(6), X=np.ones((6, 1)))
    with pytest.raises(ValueError):
        pp.pairwise_loglik(series, pp.SCENARIOS[4].params, w, pp.gauss_hermite(5))


def test_score_matches_finite_differences():
    series = small_series(n=60)
    w = pp.make_weights(2, "trap")
    rule = pp.gauss_hermite(20)
    ev = PairwiseEvaluator(series, w, rule)
    rng = np.random.default_rng(3)
    h0 = float(np.finfo(float).eps) ** (1.0 / 3.0)
    for _ in range(6):
        vec = np.array(
            [
                rng.uniform(-0.3, 0.6),
                rng.uniform(math.log(0.1), math.log(1.0)),
                rng.uniform(-1.0, 1.0),
            ]
        )
        _, grad = ev.loglik_and_score(pp.WorkingParams.from_vector(vec, 1))
        for j in range(3):
            h = h0 * max(1.0, abs(vec[j]))
            up, dn = vec.copy(), vec.copy()
            up[j] += h
            dn[j] -= h
            fd = (
                ev.loglik(pp.WorkingParams.from_vector(up, 1))
                - ev.loglik(pp.WorkingParams.from_vector(dn, 1))
            ) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_score_directional_derivatives():
    series = small_series(n=80, sid=5)
    w = pp.make_weights(1, "rect")
    rule = pp.gauss_hermite(20)
    ev = PairwiseEvaluator(series, w, rule)
    x = pp.SCENARIOS[5].params.to_working().as_vector()
    _, grad = ev.loglik_and_score(pp.WorkingParams.from_vector(x, 1))
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(20):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        fd = (
            ev.loglik(pp.WorkingParams.from_vector(x + h * v, 1))
            - ev.loglik(pp.WorkingParams.from_vector(x - h * v, 1))
        ) / (2 * h)
        assert abs(float(grad @ v) - fd) <= 1e-5 * max(1.0, abs(fd))


def test_score_glm_limit():
    # with the latent variance collapsed the coefficient score reduces to
    # the independence-regression score over the paired index multiset
    series = small_series(n=50)
    w = pp.make_weights(1, "rect")
    working = pp.WorkingParams(beta=[0.25], log_sigma2=math.log(1e-12), z_phi=math.atanh(0.8))
    score = PairwiseEvaluator(series, w, pp.gauss_hermite(20)).loglik_and_score(working)[1]
    y = series.y.astype(float)
    resid = y - math.exp(0.25)
    want = float(np.sum(resid[:-1] + resid[1:]))
    assert abs(score[0] - want) < 1e-4 * max(1.0, abs(want))


def test_per_t_scores_sum_to_score():
    series = small_series(n=70, sid=5)
    w = pp.make_weights(2, "trap")
    rule = pp.gauss_hermite(10)
    working = pp.SCENARIOS[5].params.to_working()
    ev = PairwiseEvaluator(series, w, rule)
    total = ev.loglik_and_score(working)[1]
    psi = ev.per_t_scores(working)
    summed = sum(psi[t - w.m_d - 1] for t in range(w.m_d + 1, series.n + 1))
    assert_allclose(summed, total, rtol=0, atol=1e-10)


def test_per_t_score_depends_only_on_its_pair_at_d1():
    w = pp.make_weights(1, "rect")
    rule = pp.gauss_hermite(10)
    working = pp.SCENARIOS[4].params.to_working()
    y1 = np.array([2, 5, 1, 0, 3, 2])
    y2 = np.array([9, 5, 1, 7, 3, 0])  # same (y_2, y_3) pair at t = 3
    s1 = pp.CountSeries(y=y1, X=np.ones((6, 1)))
    s2 = pp.CountSeries(y=y2, X=np.ones((6, 1)))
    a = PairwiseEvaluator(s1, w, rule).per_t_scores(working)[3 - w.m_d - 1]
    b = PairwiseEvaluator(s2, w, rule).per_t_scores(working)[3 - w.m_d - 1]
    assert_allclose(a, b, rtol=0, atol=0)
