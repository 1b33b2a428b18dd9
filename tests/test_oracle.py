import math

import numpy as np
import pytest

import oracle
import pairpois as pp

ONE = np.array([1.0])


def series_of(counts):
    counts = np.asarray(counts)
    return pp.CountSeries(y=counts, X=np.ones((counts.shape[0], 1)))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        oracle.GridSpec(lo=1.0, hi=-1.0, m=400)
    with pytest.raises(ValueError):
        oracle.GridSpec(lo=-1.0, hi=1.0, m=100)
    params = pp.SCENARIOS[4].params
    grid = oracle.GridSpec.for_params(params)
    assert grid.lo == -8.0 * math.sqrt(params.tau2)
    assert grid.m == 400


def test_filter_single_observation_matches_quadrature():
    params = pp.SCENARIOS[4].params
    rule = pp.gauss_hermite(40)
    scale = math.sqrt(2.0 * params.tau2)
    for y in (0, 1, 3, 7):
        vals = pp.poisson_log_pmf(y, params.beta[0] + scale * rule.nodes)
        want = math.log(float(np.sum(rule.weights / math.sqrt(math.pi) * np.exp(vals))))
        got = oracle.full_loglik_filter(series_of([y]), params, oracle.GridSpec.for_params(params))
        assert abs(got - want) < 1e-6


def test_filter_degenerate_latent_matches_glm():
    params = pp.Params(beta=[0.3], sigma2=1e-12, phi=0.3)
    counts = [1, 2, 0, 1, 3]
    got = oracle.full_loglik_filter(series_of(counts), params, oracle.GridSpec.for_params(params))
    want = float(np.sum(pp.poisson_log_pmf(np.asarray(counts), 0.3)))
    assert abs(got - want) < 1e-5


def test_filter_two_observations_match_pair_density():
    params = pp.SCENARIOS[4].params
    got = oracle.full_loglik_filter(series_of([1, 3]), params, oracle.GridSpec.for_params(params))
    want = pp.pair_log_density(1, 3, ONE, ONE, 1, params, pp.gauss_hermite(40))
    assert abs(math.exp(got) - math.exp(want)) < 1e-5 * math.exp(want)


def test_filter_grid_refinement_stable():
    params = pp.SCENARIOS[4].params
    series = series_of([1, 3, 0, 2, 1, 4])
    a = oracle.full_loglik_filter(series, params, oracle.GridSpec.for_params(params, m=400))
    b = oracle.full_loglik_filter(series, params, oracle.GridSpec.for_params(params, m=800))
    assert abs(a - b) < 1e-5


def test_filter_matches_path_monte_carlo():
    params = pp.SCENARIOS[4].params
    series = series_of([1, 3, 0, 2, 1, 4])
    got = math.exp(oracle.full_loglik_filter(series, params, oracle.GridSpec.for_params(params)))
    mc, se = oracle.mc_full_likelihood(series, params, 2_000_000, seed=5)
    assert abs(got - mc) <= 3 * se


def test_filter_guards():
    params = pp.SCENARIOS[4].params
    grid = oracle.GridSpec.for_params(params)
    with pytest.raises(ValueError):
        oracle.full_loglik_filter(series_of(np.ones(60, dtype=int)), params, grid)
    strong = pp.SCENARIOS[3].params  # phi = 0.9
    with pytest.raises(ValueError):
        oracle.full_loglik_filter(series_of([1, 2]), strong, oracle.GridSpec.for_params(strong))
    with pytest.raises(ValueError):
        # grid not covering +-8 stationary standard deviations
        oracle.full_loglik_filter(series_of([1, 2]), params, oracle.GridSpec(lo=-1.0, hi=1.0, m=400))


def test_filter_reports_mass_drift_on_bad_grid():
    # a grid that technically covers +-8 tau but is far too coarse for
    # the transition kernel loses predictive mass
    params = pp.SCENARIOS[4].params
    tau = math.sqrt(params.tau2)
    grid = oracle.GridSpec(lo=-1000.0 * tau, hi=1000.0 * tau, m=200)
    with pytest.raises(pp.NumericalFailure):
        oracle.full_loglik_filter(series_of([1, 3, 0, 2]), params, grid)


def test_mc_pair_density_independent_case_factorizes():
    params = pp.Params(beta=[0.2], sigma2=0.4, phi=0.0)
    est, se = oracle.mc_pair_density(2, 1, ONE, ONE, 1, params, 400_000, seed=3)

    def marginal_mc(y, seed):
        rng = np.random.default_rng(seed)
        u = math.sqrt(params.tau2) * rng.standard_normal(400_000)
        vals = np.exp(pp.poisson_log_pmf(y, 0.2 + u))
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(400_000))

    m2, s2 = marginal_mc(2, 10)
    m1, s1 = marginal_mc(1, 11)
    prod = m2 * m1
    prod_se = abs(prod) * math.sqrt((s2 / m2) ** 2 + (s1 / m1) ** 2)
    assert abs(est - prod) <= 3 * math.sqrt(se**2 + prod_se**2)


def test_mc_pair_density_degenerate_limit():
    params = pp.Params(beta=[0.1501], sigma2=1e-14, phi=0.5)
    est, se = oracle.mc_pair_density(2, 3, ONE, ONE, 1, params, 200_000, seed=1)
    want = math.exp(float(pp.poisson_log_pmf(2, 0.1501) + pp.poisson_log_pmf(3, 0.1501)))
    assert abs(est - want) < 1e-6
    assert se < 1e-7


def test_mc_pair_density_guards():
    params = pp.SCENARIOS[4].params
    with pytest.raises(ValueError):
        oracle.mc_pair_density(1, 1, ONE, ONE, 1, params, 10_000, seed=1)
    with pytest.raises(ValueError):
        oracle.mc_pair_density(1, 1, ONE, ONE, 0, params, 200_000, seed=1)


def test_mc_full_likelihood_guards():
    params = pp.SCENARIOS[4].params
    series = series_of(np.ones(20, dtype=int))
    with pytest.raises(ValueError):
        oracle.mc_full_likelihood(series, params, 1_000_000, seed=1)
