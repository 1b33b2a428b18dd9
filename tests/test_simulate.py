import dataclasses
import json
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
    m, v = pp.marginal_moments(ONE @ params.beta, params.tau2)
    assert abs(y.mean() - m) <= 0.01 * m
    assert abs(y.var(ddof=1) - v) <= 0.03 * v


def test_reproducible_and_replicates_keyed_by_index():
    # a scenario replicate's stream is keyed by (seed, scenario, replicate),
    # so drawing the replicates in any order, or one at a time, gives the
    # same series
    runs_a = [pp.simulate_scenario(5, 200, 42, replicate=r).y for r in range(3)]
    runs_b = [pp.simulate_scenario(5, 200, 42, replicate=r).y for r in (2, 1, 0)][::-1]
    for a, b in zip(runs_a, runs_b):
        assert np.array_equal(a, b)
    # replicate 0 equals the default draw for the same seed
    assert np.array_equal(pp.simulate_scenario(5, 200, 42).y, runs_a[0])
    # distinct replicates draw from distinct streams
    assert not np.array_equal(runs_a[0], runs_a[1])
    # simulate_series is reproducible and draws the stream keyed by (seed, 0)
    params, X = pp.SCENARIOS[5].params, np.ones((200, 1))
    config = pp.SimConfig(params=params, X=X, n_rep=3, seed=42)
    single = pp.simulate_series(config)
    assert np.array_equal(single.y, pp.simulate_series(config).y)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(42, 0)))
    assert np.array_equal(single.y, simulate._simulate_counts(params, X, rng))


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
    m, v = pp.marginal_moments(ONE @ fit.params_hat.beta, fit.params_hat.tau2)
    assert np.all(np.abs(band.point - m) <= 0.01 * m + 3 * math.sqrt(v / 100_000))


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


@pytest.mark.parametrize("level", [0.0, 1.0])
def test_band_quantile_rejects_closed_levels(level):
    # Poisson(0.1): P(Y = 0) = 0.905, P(Y <= 1) = 0.995
    band = pp.PredictionBand(eta=np.array([math.log(0.1)]), tau2=0.0)
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
    # the band is exact: n_sim and seed are ignored
    c = pp.predict(fit, None, n_sim=7, seed=12, X_insample=series.X[:12])
    assert a.point.tobytes() == c.point.tobytes()
    assert a.upper95.tobytes() == c.upper95.tobytes()


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
HIGH_COUNT = (math.log(2000.0), pp.SCENARIOS[8].params.tau2)


def _law_pmf(eta, tau2, n_counts):
    from oracle import _count_pmf

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
    [(pp.SCENARIOS[s].beta, pp.SCENARIOS[s].params.tau2, _mixture_cdf) for s in (1, 3, 5, 8)]
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
    from oracle import _count_pmf

    tau2, n_counts = 8.0, 5000
    z = np.arange(-500_000, 500_001) * 4e-5
    weight = 4e-5 * stats.norm.pdf(z)
    rate = np.exp(eta + math.sqrt(tau2) * z)
    pmf = _count_pmf(np.arange(n_counts), eta, tau2)
    tail = float(stats.poisson.sf(n_counts - 1, rate) @ weight)
    assert abs(pmf.sum() + tail - 1.0) <= 1e-12
    for k in range(4):
        assert abs(pmf[k] - float(stats.poisson.pmf(k, rate) @ weight)) <= 1e-13


@pytest.mark.parametrize(
    "eta,tau2",
    [(pp.SCENARIOS[s].beta, pp.SCENARIOS[s].params.tau2) for s in (1, 5)] + [HIGH_COUNT, (-10.0, 8.0)],
    ids=["scenario1", "scenario5", "high_count", "rare_wide"],
)
def test_lognormal_cdf_is_the_count_pmf_cumsum(eta, tau2):
    # every count below the cdf's 1 - 1e-9 point; at small counts this
    # holds only with the cap on the rule's step (scenario 1 is off by
    # 8.9e-9 at k = 0 without it) and with the reach of 36 / (k + 1)
    # below the log-gamma mode (rare_wide)
    n_counts = min(int(math.exp(eta + 8.0 * math.sqrt(tau2))) + 64, 20_000)
    want = np.cumsum(_law_pmf(eta, tau2, n_counts))
    k = np.flatnonzero(want < 1.0 - 1e-9)
    got = simulate._lognormal_cdf(k.astype(float), np.full(k.size, float(eta)), math.sqrt(tau2))
    assert np.max(np.abs(got - want[k])) <= 5e-13


def test_erfc_matches_math_erfc_on_the_cdf_band():
    # _lognormal_cdf evaluates erfc on |x| < 9 / sqrt(2), about 6.36
    reference = np.frompyfunc(math.erfc, 1, 1)
    for x in np.linspace(-6.4, 6.4, 2_000_000).reshape(4, -1):
        assert np.max(np.abs(simulate._erfc(x) - reference(x).astype(float))) <= 1e-15


# Exact bands.  Each law is (design, params, months checked); the band's
# quantiles are compared with the inversion of the _count_pmf cumsum, or
# with scipy's Poisson quantile at tau2 = 0.
def _trend(mean, slope, tau2, horizon=216):
    X = np.column_stack([np.ones(horizon), np.linspace(-1.0, 1.0, horizon)])
    return X, pp.Params(beta=[math.log(mean), slope], sigma2=tau2, phi=0.0)


def _scenario_law(sid):
    return lambda tmp_path: (np.ones((3, 1)), pp.SCENARIOS[sid].params, slice(None))


def _trend_law(mean, slope, tau2, months=slice(None)):
    return lambda tmp_path: (*_trend(mean, slope, tau2), months)


def _bundled_law(country, *fit_args):
    # the acceptance-criterion-9 fit of a bundled series, over its 216 months
    def law(tmp_path):
        from pairpois import cli

        data = pathlib.Path(pp.__file__).parent / "data" / f"{country}_imd.csv"
        report_path = tmp_path / "fit.json"
        rc = cli.main(["fit", str(data), "--output", str(report_path),
                       "--holdout-months", "12", *fit_args])
        assert rc == 0
        report = json.loads(report_path.read_text())
        result, spec = cli._result_from_report(report)
        X, _ = cli.build_design(spec, cli.read_count_csv(str(data)).months, report["n_train"])
        return X, result.params_hat, slice(None)

    return law


EXACT_LAWS = {
    **{f"scenario{sid}": _scenario_law(sid) for sid in (1, 3, 5, 8)},
    "greece": _bundled_law("greece", "-d", "1", "--weights", "trap", "--nodes", "10",
                           "--trend", "--harmonics"),
    "italy": _bundled_law("italy", "-d", "2", "--weights", "trap", "--nodes", "10",
                          "--harmonics", "--level-shift", "2005-03"),
    "high_count": lambda tmp_path: (
        np.ones((3, 1)), pp.Params(beta=[HIGH_COUNT[0]], sigma2=HIGH_COUNT[1], phi=0.0),
        slice(None)),
    # the reference costs a rule evaluation per count, so at counts in the
    # thousands three months stand for the 216
    "trend2000_tau2_0.02": _trend_law(2000.0, 0.5, 0.02, [0, 107, 215]),
    "trend2000_tau2_0.511": _trend_law(2000.0, 0.5, 0.511, [0, 107, 215]),
    "tau2_floor": _trend_law(15.0, 1.5, math.exp(-pp.estimation.LOG_SIGMA2_BOUND)),
    "independence": _trend_law(30.0, 4.0, 0.0),
}
LEVELS = (0.90, 0.95, 0.99)


def _pmf_quantiles(eta, tau2):
    from oracle import _count_pmf

    rate = np.exp(eta - 8.0 * math.sqrt(tau2))
    # below `low` lie u < -8 tau and counts 8.5 sd below their mean, less
    # than 1e-15 of the mass; by Cantelli's inequality P(Y > high) < 0.01
    low = np.floor(np.maximum(rate - 8.5 * np.sqrt(rate), 0.0))
    mean = np.exp(eta + 0.5 * tau2)
    high = np.ceil(mean + 10.0 * np.sqrt(mean + mean * mean * math.expm1(tau2)))
    k = low[:, None] + np.arange(int(np.max(high - low)) + 1)
    cdf = np.cumsum(_count_pmf(k, eta[:, None], tau2), axis=1)
    return [low + np.sum(cdf < level, axis=1) for level in LEVELS]


@pytest.mark.parametrize("law", EXACT_LAWS.values(), ids=EXACT_LAWS.keys())
def test_band_is_the_exact_law(tmp_path, law):
    X, params, months = law(tmp_path)
    fit = types.SimpleNamespace(converged=True, params_hat=params)
    band = pp.predict(fit, None, X_insample=X)
    assert_allclose(band.point, [pp.marginal_moments(x @ params.beta, params.tau2)[0] for x in X], rtol=1e-12, atol=0)
    got = [band.quantile(0.90)[months], band.upper95[months], band.quantile(0.99)[months]]
    eta = X[months] @ params.beta
    if params.tau2 == 0.0:
        want = [stats.poisson.ppf(level, np.exp(eta)) for level in LEVELS]
    else:
        want = _pmf_quantiles(eta, params.tau2)
    for level, g, w in zip(LEVELS, got, want):
        assert np.array_equal(g, w), level


@pytest.mark.parametrize("way", ["blocks", "direct"])
def test_predict_high_count_design_matches_law(monkeypatch, way):
    # three months near exp(eta) = 2000, each its own law.  "blocks"
    # evaluates the rule one law at a time, "direct" each cdf call at once;
    # both give the exact law.
    eta, tau2 = HIGH_COUNT
    X = np.column_stack([np.ones(3), [-1.0, 0.0, 1.0]])
    params = pp.Params(beta=[eta, 0.1], sigma2=tau2, phi=0.0)
    calls, erfc_calls = [], []
    if way == "blocks":
        monkeypatch.setattr(simulate, "_CHUNK_CELLS", 1)
        cdf, erfc = simulate._lognormal_cdf, simulate._erfc
        monkeypatch.setattr(simulate, "_lognormal_cdf",
                            lambda k, e, tau: (calls.append(k.size), cdf(k, e, tau))[1])
        monkeypatch.setattr(simulate, "_erfc", lambda x: (erfc_calls.append(x.size), erfc(x))[1])
    band = pp.predict(types.SimpleNamespace(converged=True, params_hat=params), X)
    if way == "blocks":
        assert len(erfc_calls) == sum(calls) > len(calls)
    assert np.all(np.isfinite(band.point)) and np.all(np.isfinite(band.upper95))
    assert_allclose(band.point, [pp.marginal_moments(x @ params.beta, params.tau2)[0] for x in X], rtol=1e-12, atol=0)
    eta_t = X @ params.beta
    for e, q in zip(eta_t, band.upper95.astype(int)):
        assert _quantile(lambda k: _dual_cdf(e, tau2, k), q)
    for level, w in zip(LEVELS, _pmf_quantiles(eta_t, tau2)):
        assert np.array_equal(band.quantile(level), w), level


@pytest.mark.parametrize("mean,tau2", [(2000.0, 0.511), (2000.0, 0.02), (20.0, 0.6)])
def test_predict_trend_design_work_is_bounded(monkeypatch, mean, tau2):
    # 216 months with a trend: each month has its own law.  Each cdf call
    # halves every month's Cantelli bracket, and the rule evaluates at most
    # _CHUNK_CELLS cells at once (set low here so that calls are split),
    # which leaves the band as it is.
    X, params = _trend(mean, 0.5, tau2)
    fit = types.SimpleNamespace(converged=True, params_hat=params)
    whole = pp.predict(fit, None, X_insample=X)
    monkeypatch.setattr(simulate, "_CHUNK_CELLS", 1 << 12)
    calls, erfc_cells = [], []
    cdf, erfc = simulate._lognormal_cdf, simulate._erfc

    def recorded_cdf(k, eta, tau):
        calls.append(k.size)
        return cdf(k, eta, tau)

    def recorded_erfc(x):
        erfc_cells.append(x.size)
        return erfc(x)

    monkeypatch.setattr(simulate, "_lognormal_cdf", recorded_cdf)
    monkeypatch.setattr(simulate, "_erfc", recorded_erfc)
    split = pp.predict(fit, None, X_insample=X)
    assert split.upper95.tobytes() == whole.upper95.tobytes()
    assert max(erfc_cells) <= 1 << 12 and len(erfc_cells) > len(calls)
    sd = max(math.sqrt(pp.marginal_moments(x @ params.beta, params.tau2)[1]) for x in X)
    bracket = sd * (math.sqrt(19.0) + math.sqrt(1.0 / 19.0)) + 3.0
    assert len(calls) <= math.ceil(math.log2(bracket)) and max(calls) <= X.shape[0]
