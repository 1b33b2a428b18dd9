import dataclasses
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

import pairpois as pp

ONE = np.array([1.0])


def test_degenerate_model_is_iid_poisson():
    params = pp.Params(beta=[math.log(3.0)], sigma2=0.0, phi=0.0)
    X = np.ones((100_000, 1))
    series = pp.simulate_series(pp.SimConfig(params=params, X=X, n_rep=1, seed=0))
    assert abs(series.y.mean() - 3.0) <= 3 * math.sqrt(3.0 / 100_000)


@pytest.mark.parametrize("phi", [0.56, -0.93, 0.0, 0.999])
@pytest.mark.parametrize("n_paths,horizon", [(1, 500), (2_000, 216), (3, 1)])
def test_latent_paths_bit_identical_to_lfilter(phi, n_paths, horizon):
    from scipy.signal import lfilter

    params = pp.Params(beta=ONE, sigma2=0.7, phi=phi)
    u = pp.latent_paths(params, horizon, n_paths, np.random.default_rng(5))
    z = np.random.default_rng(5).standard_normal((n_paths, horizon))
    e = z * math.sqrt(params.sigma2)
    e[:, 0] = z[:, 0] * math.sqrt(params.tau2)
    want = lfilter([1.0], [1.0, -phi], e, axis=1)
    assert u.shape == want.shape and u.flags.c_contiguous
    assert u.tobytes() == want.tobytes()


def test_import_leaves_scipy_signal_and_stats_unloaded():
    code = (
        "import sys, pairpois; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))"
    )
    src = pathlib.Path(pp.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "[]"


def test_import_loads_no_scipy_module():
    code = (
        "import sys, pairpois; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = pathlib.Path(pp.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "[]"


def test_moment_checks_against_theory():
    params = pp.SCENARIOS[2].params
    X = np.ones((1_000_000, 1))
    series = pp.simulate_series(pp.SimConfig(params=params, X=X, n_rep=1, seed=2024))
    y = series.y.astype(float)
    m = pp.marginal_mean(ONE, params)
    v = pp.marginal_var(ONE, params)
    assert abs(y.mean() - m) <= 0.01 * m
    assert abs(y.var(ddof=1) - v) <= 0.03 * v


def test_reproducible_and_replicates_keyed_by_index():
    params = pp.SCENARIOS[5].params
    X = np.ones((200, 1))
    config = pp.SimConfig(params=params, X=X, n_rep=3, seed=42)
    runs_a = [s.y for s in pp.simulate_replicates(config)]
    runs_b = [s.y for s in pp.simulate_replicates(config)]
    for a, b in zip(runs_a, runs_b):
        assert np.array_equal(a, b)
    # replicate 0 equals the single-series draw for the same seed
    single = pp.simulate_series(pp.SimConfig(params=params, X=X, n_rep=1, seed=42))
    assert np.array_equal(single.y, runs_a[0])
    # distinct replicates draw from distinct streams
    assert not np.array_equal(runs_a[0], runs_a[1])


def test_latent_paths_stationary_variance():
    params = pp.SCENARIOS[2].params
    rng = np.random.default_rng(7)
    u = pp.latent_paths(params, 50, 100_000, rng)
    var_by_t = u.var(axis=0, ddof=1)
    assert np.all(np.abs(var_by_t - params.tau2) <= 0.03 * params.tau2)


def test_latent_paths_autocorrelation():
    params = pp.SCENARIOS[3].params
    rng = np.random.default_rng(11)
    u = pp.latent_paths(params, 30, 200_000, rng)
    corr = np.corrcoef(u[:, 20], u[:, 21])[0, 1]
    assert abs(corr - params.phi) < 0.01


def fitted_scenario5(n=400, seed=20):
    series = pp.simulate_scenario(5, n, seed=seed)
    return pp.fit(series, pp.make_weights(1, "rect"), quad_order=20), series


def test_predict_point_converges_to_marginal_mean():
    fit, series = fitted_scenario5()
    band = pp.predict(fit, None, n_sim=100_000, seed=5, X_insample=series.X[:10])
    m = pp.marginal_mean(ONE, fit.params_hat)
    assert np.all(np.abs(band.point - m) <= 0.01 * m + 3 * math.sqrt(pp.marginal_var(ONE, fit.params_hat) / 100_000))


def test_predict_band_invariants_and_monotone_levels():
    fit, series = fitted_scenario5()
    band = pp.predict(fit, None, n_sim=20_000, seed=5, X_insample=series.X[:24])
    assert np.all(band.upper95 >= band.point)
    assert np.all(band.point >= 0)
    q90, q95, q99 = band.quantile(0.90), band.quantile(0.95), band.quantile(0.99)
    assert np.all(q90 <= q95) and np.all(q95 <= q99)
    assert_allclose(band.quantile(0.95), band.upper95, rtol=0, atol=0)


def test_predict_degenerate_fit_gives_poisson_quantile():
    rng = np.random.default_rng(123)
    series = pp.CountSeries(y=rng.poisson(3.0, size=400), X=np.ones((400, 1)))
    fit = pp.fit_restricted(series, pp.make_weights(1, "rect"), restriction=pp.INDEPENDENCE)
    band = pp.predict(fit, None, n_sim=100_000, seed=9, X_insample=series.X[:5])
    mu = math.exp(fit.params_hat.beta[0])
    expected = float(stats.poisson.ppf(0.95, mu))
    assert_allclose(band.upper95, expected, rtol=0, atol=0)


def test_predict_refuses_non_converged_fit():
    fit, series = fitted_scenario5()
    broken = dataclasses.replace(fit, converged=False)
    with pytest.raises(pp.NotConvergedError):
        pp.predict(broken, None, n_sim=100, seed=1, X_insample=series.X[:5])


def test_predict_single_simulation_smoke():
    fit, series = fitted_scenario5()
    band = pp.predict(fit, None, n_sim=1, seed=2, X_insample=series.X[:6])
    # one simulated path: the band degenerates onto it
    assert_allclose(band.point, band.upper95, rtol=0, atol=0)
    assert np.all(band.point == band.point.astype(int))


def test_predict_future_rows_appended():
    fit, series = fitted_scenario5()
    band = pp.predict(fit, series.X[:4], n_sim=2_000, seed=3, X_insample=series.X[:8])
    assert band.point.shape == (12,)


def test_predict_deterministic():
    fit, series = fitted_scenario5()
    a = pp.predict(fit, None, n_sim=5_000, seed=11, X_insample=series.X[:12])
    b = pp.predict(fit, None, n_sim=5_000, seed=11, X_insample=series.X[:12])
    assert np.array_equal(a.point, b.point)
    assert np.array_equal(a.upper95, b.upper95)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        pp.SimConfig(params=pp.SCENARIOS[5].params, X=np.ones((10, 1)), n_rep=0, seed=1)


@pytest.mark.parametrize("horizon", [0, -2])
def test_latent_paths_rejects_empty_horizon(horizon):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"horizon must be >= 1, got {horizon}"):
        pp.latent_paths(pp.SCENARIOS[5].params, horizon, 3, rng)
