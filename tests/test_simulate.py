import dataclasses
import math
import os
import pathlib
import subprocess
import types
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

import pairpois as pp
from pairpois import simulate

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
    runs_a = [s.y for s in simulate.simulate_replicates(config)]
    runs_b = [s.y for s in simulate.simulate_replicates(config)]
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


def test_predict_rejects_no_draws():
    fit, series = fitted_scenario5()
    with pytest.raises(ValueError, match="n_sim must be >= 1"):
        pp.predict(fit, None, n_sim=0, seed=1, X_insample=series.X[:3])


@pytest.mark.parametrize("level", [0.0, 1.0])
def test_band_quantile_rejects_closed_levels(level):
    band = pp.PredictionBand(point=np.array([1.0]), n_sim=4, _cum_counts=np.array([[1, 4]]))
    assert band.upper95.tolist() == [1.0]
    with pytest.raises(ValueError, match=r"level must be in \(0, 1\)"):
        band.quantile(level)


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


@pytest.mark.parametrize("restricted", [False, True], ids=["full", "independence"])
def test_predict_rejects_empty_horizon(restricted):
    series = pp.simulate_scenario(5, 400, seed=20)
    weights = pp.make_weights(1, "rect")
    if restricted:
        fit = pp.fit_restricted(series, weights, restriction=pp.INDEPENDENCE)
    else:
        fit = pp.fit(series, weights, quad_order=20)
    with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
        pp.predict(fit, np.empty((0, 1)))


# The per-month law.  For the scenarios the reference is the 100-node
# Gauss-Hermite mixture of Poisson pmfs in z = u / tau.  At exp(eta) =
# 2000 that rule cannot resolve Poisson kernels of width 1 / (tau sqrt(k))
# in z (its cdf is off by about 4e-3 there), so the reference integrates
# the dual form P(Y <= k) = E[Phi((log G - eta) / tau)], G ~ Gamma(k + 1),
# with the 100-node rule centred on the gamma law.
HIGH_COUNT = (math.log(2000.0), pp.SCENARIOS[8].tau2)


def _law_pmf(eta, tau2, n_counts):
    from pairpois.simulate import _count_pmf

    return _count_pmf(np.arange(n_counts), eta, tau2)


def _mixture_cdf(eta, tau2, k):
    x, w = np.polynomial.hermite.hermgauss(100)
    rates = np.exp(eta + math.sqrt(2.0 * tau2) * x)
    return stats.poisson.cdf(np.asarray(k)[:, None], rates) @ w / math.sqrt(math.pi)


def _dual_cdf(eta, tau2, k):
    x, w = np.polynomial.hermite.hermgauss(100)
    shape = np.asarray(k, dtype=float)[:, None] + 1.0
    g = shape + np.sqrt(2.0 * shape) * x
    dens = stats.gamma.pdf(g, shape) * np.sqrt(2.0 * shape) * np.exp(x * x)
    return (dens * stats.norm.cdf((np.log(np.abs(g)) - eta) / math.sqrt(tau2))) @ w


def _quantile(cdf_at, q):
    below, at = cdf_at([q - 1, q]) if q > 0 else (0.0, cdf_at([q])[0])
    return below < 0.95 <= at


@pytest.mark.parametrize(
    "eta,tau2,reference",
    [(pp.SCENARIOS[s].beta, pp.SCENARIOS[s].tau2, _mixture_cdf) for s in (1, 3, 5, 8)]
    + [(*HIGH_COUNT, _dual_cdf)],
    ids=["scenario1", "scenario3", "scenario5", "scenario8", "high_count"],
)
def test_count_pmf_is_the_marginal_law(eta, tau2, reference):
    # counts up to exp(eta + 8 tau) hold all but about 1e-15 of the mass
    n_counts = int(math.exp(eta + 8.0 * math.sqrt(tau2))) + 64
    pmf = _law_pmf(eta, tau2, n_counts)
    assert np.all(pmf >= 0)
    assert abs(pmf.sum() - 1.0) <= 1e-12
    q95 = int(np.argmax(np.cumsum(pmf) >= 0.95))
    assert _quantile(lambda k: reference(eta, tau2, k), q95)


@pytest.mark.parametrize("eta", [math.log(0.54), -10.0], ids=["scenario1", "rare"])
def test_count_pmf_wide_latent_law(eta):
    # at tau2 = 8 the integrand of a small count keeps the normal's own
    # tails, 8 in z either side of its mode; the reference is a trapezoid
    # rule in z with 1M points
    from pairpois.simulate import _count_pmf

    tau2, n_counts = 8.0, 5000
    z = np.arange(-500_000, 500_001) * 4e-5
    weight = 4e-5 * stats.norm.pdf(z)
    rate = np.exp(eta + math.sqrt(tau2) * z)
    pmf = _count_pmf(np.arange(n_counts), eta, tau2)
    tail = float(stats.poisson.sf(n_counts - 1, rate) @ weight)
    assert abs(pmf.sum() + tail - 1.0) <= 1e-12
    for k in range(4):
        assert abs(pmf[k] - float(stats.poisson.pmf(k, rate) @ weight)) <= 1e-13


def _force(monkeypatch, way):
    # "blocks" draws every law by blocks of counts, "direct" every law by
    # latent values and Poisson counts
    if way == "blocks":
        monkeypatch.setattr(simulate, "_PMF_DRAWS", 0.0)
        monkeypatch.setattr(simulate, "_MULTINOMIAL_DRAWS", 0.0)
    else:
        monkeypatch.setattr(simulate, "_PMF_DRAWS", math.inf)


@pytest.mark.parametrize("way", ["blocks", "direct"])
def test_predict_high_count_design_matches_law(monkeypatch, way):
    _force(monkeypatch, way)
    eta, tau2 = HIGH_COUNT
    fit = types.SimpleNamespace(
        converged=True, params_hat=pp.Params(beta=[eta], sigma2=tau2, phi=0.0)
    )
    n_sim = 10_000
    band = pp.predict(fit, np.ones((3, 1)), n_sim=n_sim, seed=4)
    assert np.all(np.isfinite(band.point)) and np.all(np.isfinite(band.upper95))
    params = fit.params_hat
    mean, var = pp.marginal_mean(ONE, params), pp.marginal_var(ONE, params)
    assert np.all(np.abs(band.point - mean) <= 4 * math.sqrt(var / n_sim))
    tol = 4 * math.sqrt(0.95 * 0.05 / n_sim)
    for q in band.upper95.astype(int):
        below, at = _dual_cdf(eta, tau2, [q - 1, q])
        assert below <= 0.95 + tol and at >= 0.95 - tol


def test_draw_histograms_follow_the_law_across_blocks():
    # D=10 at exp(eta) = 2.4: about 1% of the mass lies beyond the first
    # block of counts, and draws reach several blocks further
    from pairpois.simulate import _count_pmf, _draw_histograms

    eta, tau2, n_sim = math.log(2.4), pp.SCENARIOS[1].tau2, 200_000
    hist = _draw_histograms(np.array([eta]), tau2, n_sim, np.random.default_rng(8))[0]
    assert hist.sum() == n_sim
    expected = n_sim * _count_pmf(np.arange(hist.shape[0]), eta, tau2)
    cells = int(np.argmax(expected < 10))  # pool the tail from there on
    observed = np.append(hist[:cells], hist[cells:].sum())
    expected = np.append(expected[:cells], n_sim - expected[:cells].sum())
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    df = cells
    assert chi2 <= df + 6 * math.sqrt(2 * df)


def test_draw_histograms_keep_draws_beyond_last_block(monkeypatch):
    # with a large tail bound each month ends while much of its law lies
    # beyond the block; those draws land on the block's top count
    monkeypatch.setattr(simulate, "_TAIL", 0.5)
    _force(monkeypatch, "blocks")
    eta = np.log([2.4, 2.4, 30.0])
    hist = simulate._draw_histograms(eta, pp.SCENARIOS[1].tau2, 5_000, np.random.default_rng(2))
    assert np.all(hist.sum(axis=1) == 5_000)
    top = simulate._BLOCK - 1
    assert hist.shape[1] == simulate._BLOCK and np.all(hist[:, top] > 0.005 * 5_000)


@pytest.mark.parametrize("mean,tau2", [(2000.0, 0.511), (2000.0, 0.02), (20.0, 0.6)])
def test_predict_trend_design_work_is_bounded(monkeypatch, mean, tau2):
    # 216 months with a trend: each month has its own law.  The rule
    # evaluates at most _CHUNK_CELLS cells at once (set low here so that
    # calls are split), and all its counts together cost no more than the
    # n_sim draws per month they replace, at 10 draws per count.
    monkeypatch.setattr(simulate, "_CHUNK_CELLS", 1 << 14)
    calls = []
    rule_sum = simulate._rule_sum

    def recorded(kf, eta, tau2, nodes, step):
        calls.append((kf.size, kf.size * nodes.size))
        return rule_sum(kf, eta, tau2, nodes, step)

    monkeypatch.setattr(simulate, "_rule_sum", recorded)
    horizon, n_sim = 216, 10_000
    X = np.column_stack([np.ones(horizon), np.linspace(-1.0, 1.0, horizon)])
    params = pp.Params(beta=[math.log(mean), 0.5], sigma2=tau2, phi=0.0)
    band = pp.predict(types.SimpleNamespace(converged=True, params_hat=params), None,
                      n_sim=n_sim, seed=6, X_insample=X)
    assert all(cells <= 1 << 14 for _, cells in calls)
    assert sum(counts for counts, _ in calls) * 10 <= horizon * n_sim
    mean_t = np.array([pp.marginal_mean(x, params) for x in X])
    sd_t = np.sqrt([pp.marginal_var(x, params) for x in X])
    assert np.all(np.abs(band.point - mean_t) <= 5 * sd_t / math.sqrt(n_sim))
