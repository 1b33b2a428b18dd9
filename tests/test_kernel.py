"""The fused pair-density kernel against the broadcast reference it replaced.

``BroadcastEvaluator`` keeps the earlier kernel: every lag block
materialises the full (pairs, q, q) log-density grid with broadcasting and
reduces it with einsum.  The fused kernel reorders the same sums (two
matrix products and a per-pair constant added after the log-sum-exp), so
the two agree to rounding: the tolerances below were fixed from float64
before the fused kernel was written.

``float_key_blocks`` keeps the earlier pair grouping, ``np.unique`` over
the float rows (y1, y2, X1, X2) of each lag; the rank grouping must give
the same blocks exactly.
"""
import math
import pathlib

import numpy as np
import pytest
from scipy.special import gammaln

import pairpois as pp
from pairpois import cli, model
from pairpois.errors import NumericalFailure
from pairpois.model import PairwiseEvaluator
from pairpois.quadrature import MAX_ORDER

LOGLIK_RTOL = 1e-12
SCORE_ATOL = 1e-9  # times max(1, sup-norm of the reference)

_LOG_PI = math.log(math.pi)


def _grid_pieces(rule, tau2, rho):
    """Latent values at the tensor nodes: u over j, v over (j, k)."""
    x = rule.nodes
    c = math.sqrt(2.0 * tau2)
    s = math.sqrt(1.0 - rho * rho)
    u = c * x
    v = c * (rho * x[:, None] + s * x[None, :])
    logw = np.log(rule.weights)
    logw2 = logw[:, None] + logw[None, :] - _LOG_PI
    return u, v, logw2


class BroadcastEvaluator(PairwiseEvaluator):
    """The pair grouping of :class:`PairwiseEvaluator` with the earlier
    broadcast kernel (one (pairs, q, q) array per intermediate)."""

    def __init__(self, series, weights, rule):
        super().__init__(series, weights, rule)
        self._lgam = gammaln(series.y + 1.0)

    def _block_terms(self, block, eta, u, v, logw2, lag, tau2, phi):
        """Log density and working-scale gradient pieces for the distinct
        pairs of one lag block."""
        y = self.series.y
        X = self.series.X
        i1, i2 = block["i1"], block["i2"]
        y1 = y[i1]
        y2 = y[i2]
        eta1 = eta[i1]
        eta2 = eta[i2]

        with np.errstate(over="ignore"):
            exp_u = np.exp(u)
            exp_v = np.exp(v)
            exp_eta1 = np.exp(eta1)
            exp_eta2 = np.exp(eta2)
            exp_a = exp_eta1[:, None] * exp_u[None, :]
            exp_b = exp_eta2[:, None, None] * exp_v[None, :, :]
            lp1 = y1[:, None] * (eta1[:, None] + u[None, :]) - exp_a - self._lgam[i1][:, None]
            term = (
                logw2[None, :, :]
                + lp1[:, :, None]
                + (y2 * eta2 - self._lgam[i2])[:, None, None]
                + y2[:, None, None] * v[None, :, :]
                - exp_b
            )
            m = term.max(axis=(1, 2))
            bad = ~np.isfinite(m)
            if np.any(bad):
                pos = int(np.nonzero(block["inverse"] == int(np.nonzero(bad)[0][0]))[0][0])
                raise NumericalFailure(
                    f"pair density underflowed at t = {self.m_d + 1 + pos}, lag {lag}",
                    time_index=self.m_d + 1 + pos,
                    lag=lag,
                )
            ew = np.exp(term - m[:, None, None])
            total = ew.sum(axis=(1, 2))
            logp = m + np.log(total)

        pi = ew / total[:, None, None]
        pj = pi.sum(axis=2)
        r1 = y1 - np.einsum("uj,uj->u", pj, exp_a)
        r2 = y2 - np.einsum("ujk,ujk->u", pi, exp_b)
        s1 = np.einsum("uj,uj,j->u", pj, y1[:, None] - exp_a, u)
        resid2 = pi * (y2[:, None, None] - exp_b)
        s2 = np.einsum("ujk,jk->u", resid2, v)
        g_ls = 0.5 * (s1 + s2)

        rho = phi**lag
        s_rho = math.sqrt(1.0 - rho * rho)
        x = self.rule.nodes
        c = math.sqrt(2.0 * tau2)
        drho_dz = lag * phi ** (lag - 1) * (1.0 - phi * phi)
        dv_drho = c * (x[:, None] - (rho / s_rho) * x[None, :])
        g_z = phi * (s1 + s2) + drho_dz * np.einsum("ujk,jk->u", resid2, dv_drho)

        grads = np.empty((i1.shape[0], self.dim))
        grads[:, : self.n_coef] = r1[:, None] * X[i1] + r2[:, None] * X[i2]
        grads[:, self.n_coef] = g_ls
        grads[:, self.n_coef + 1] = g_z
        return logp, grads

    def _evaluate(self, working):
        params = working.to_params()
        tau2 = params.tau2
        if not tau2 > 0:
            raise ValueError("working parameters must have sigma2 > 0")
        phi = params.phi
        eta = self.series.X @ params.beta

        loglik = 0.0
        score = np.zeros(self.dim)
        block_grads = []
        for block in self._blocks:
            lag = block["lag"]
            rho = phi**lag
            u, v, logw2 = _grid_pieces(self.rule, tau2, rho)
            logp, grads = self._block_terms(block, eta, u, v, logw2, lag, tau2, phi)
            loglik += block["w"] * float(block["counts"] @ logp)
            score += block["w"] * (block["counts"] @ grads)
            block_grads.append((lag, block["w"], grads))
        return loglik, score, block_grads


def greek_series():
    data = cli.read_count_csv(str(pathlib.Path(pp.__file__).parent / "data" / "greece_imd.csv"))
    n_train = data.n - 12
    spec = cli.ModelSpec(trend=True, harmonics=True, d=5, scheme="trap", quad_order=20)
    X, _ = cli.build_design(spec, data.months[:n_train], n_train, {})
    return pp.CountSeries(y=data.counts[:n_train], X=X)


def trial_points(start: pp.Params):
    """The start itself and two points away from it, one with a larger
    latent variance and strong positive phi, one with negative phi."""
    w = start.to_working()
    return [
        w,
        pp.WorkingParams(beta=w.beta + 0.05, log_sigma2=w.log_sigma2 + 1.0, z_phi=1.2),
        pp.WorkingParams(beta=w.beta - 0.05, log_sigma2=w.log_sigma2 - 0.5, z_phi=-0.6),
    ]


def assert_kernels_agree(series, weights, q, points):
    rule = pp.gauss_hermite(q)
    fused = PairwiseEvaluator(series, weights, rule)
    ref = BroadcastEvaluator(series, weights, rule)
    for working in points:
        ll_ref, score_ref = ref.loglik_and_score(working)
        assert abs(fused.loglik(working) - ll_ref) <= LOGLIK_RTOL * abs(ll_ref)
        ll, score = fused.loglik_and_score(working)
        assert abs(ll - ll_ref) <= LOGLIK_RTOL * abs(ll_ref)
        tol = SCORE_ATOL * max(1.0, float(np.max(np.abs(score_ref))))
        assert np.max(np.abs(score - score_ref)) <= tol
        psi_ref = ref.per_t_scores(working)
        tol = SCORE_ATOL * max(1.0, float(np.max(np.abs(psi_ref))))
        assert np.max(np.abs(fused.per_t_scores(working) - psi_ref)) <= tol


@pytest.mark.parametrize("q", [5, 20, 40])
@pytest.mark.parametrize("sid", [1, 5, 8])
def test_fused_kernel_matches_broadcast_on_scenarios(sid, q):
    series = pp.simulate_scenario(sid, 500, seed=2024)
    points = trial_points(pp.SCENARIOS[sid].params)
    assert_kernels_agree(series, pp.make_weights(3, "trap"), q, points)


def test_fused_kernel_matches_broadcast_on_greek_design():
    series = greek_series()
    points = trial_points(pp.moment_init(series))
    assert_kernels_agree(series, pp.make_weights(5, "trap"), 20, points)


def failure_location(spike):
    """Drive the linear predictor to 800 at 0-based time ``spike`` and
    return the (time_index, lag) both kernels report; exp() overflows
    there at every node for the pairs that contain that time."""
    n = 40
    z = np.zeros(n)
    z[spike] = 1.0
    series = pp.CountSeries(y=np.arange(n) % 4, X=np.column_stack([np.ones(n), z]))
    working = pp.WorkingParams(beta=[0.2, 800.0], log_sigma2=math.log(0.1), z_phi=0.3)
    rule = pp.gauss_hermite(5)
    weights = pp.make_weights(2, "trap")
    assert [len(group["blocks"]) for group in PairwiseEvaluator(series, weights, rule)._groups] == [3]
    errors = []
    for cls in (PairwiseEvaluator, BroadcastEvaluator):
        with pytest.raises(NumericalFailure) as info:
            cls(series, weights, rule).loglik_and_score(working)
        errors.append((info.value.time_index, info.value.lag))
    assert errors[0] == errors[1]
    return errors[0]


def test_fused_kernel_failure_location_matches_broadcast():
    # one covariate spike at t = 23, so the first lag block fails
    assert failure_location(22) == (23, 1)


def test_fused_kernel_failure_in_later_block_of_group_matches_broadcast():
    # the spike at t = 3 lies before the window m_d = 4, so only the
    # pairs of lags 2 and 3 reach it: the failing pairs lie in the second
    # and third blocks of the one group, and the earliest block is named
    assert failure_location(2) == (5, 2)


def assert_bitwise_equal(a, b):
    if isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_bitwise_equal(x, y)
        return
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize(
    "make,weights,q,several",
    [
        (lambda: pp.simulate_scenario(5, 500, seed=2024), pp.make_weights(3, "trap"), 20, True),
        (greek_series, pp.make_weights(5, "trap"), 20, False),
        (greek_series, pp.make_weights(5, "trap"), 10, True),
    ],
    ids=["constant_x", "greek", "greek_q10"],
)
def test_grouping_of_lag_blocks_changes_no_bit(make, weights, q, several, monkeypatch):
    # the same evaluator with every lag block in a kernel call of its own
    series = make()
    rule = pp.gauss_hermite(q)
    grouped = PairwiseEvaluator(series, weights, rule)
    monkeypatch.setattr(model, "_GROUP_CELLS", 1)
    alone = PairwiseEvaluator(series, weights, rule)
    assert len(alone._groups) == len(alone._blocks)
    assert (len(grouped._groups) < len(grouped._blocks)) == several
    for working in trial_points(pp.moment_init(series)):
        for method in ("loglik", "loglik_and_score", "pair_gradients", "per_t_scores"):
            assert_bitwise_equal(getattr(grouped, method)(working), getattr(alone, method)(working))


# ---------------------------------------------------------------------------
# exponent floor


def shifted_exponents(ev, working):
    """Each lag block's integrand exponents less their row maxima, as a
    (pairs, q, q) array, built by broadcasting as ``BroadcastEvaluator``
    builds them."""
    params = working.to_params()
    eta = ev.series.X @ params.beta
    y = ev.series.y.astype(float)
    out = []
    for block in ev._blocks:
        i1, i2 = block["i1"], block["i2"]
        u, v, logw2 = _grid_pieces(ev.rule, params.tau2, params.phi ** block["lag"])
        a = eta[i1][:, None] + u[None, :]
        b = eta[i2][:, None, None] + v[None, :, :]
        term = (
            logw2[None, :, :]
            + (y[i1][:, None] * a - np.exp(a))[:, :, None]
            + y[i2][:, None, None] * b
            - np.exp(b)
        )
        out.append(term - term.max(axis=(1, 2))[:, None, None])
    return out


def test_exp_floor_changes_no_bit(monkeypatch):
    # scenario 3 (D = 10): a fifth or more of the cells lie below the floor
    # at the start and at the point with the larger latent variance
    series = pp.simulate_scenario(3, 500, seed=2024)
    ev = PairwiseEvaluator(series, pp.make_weights(3, "trap"), pp.gauss_hermite(20))
    t = int(np.argmax(series.y[1:])) + 1  # the lag-1 pair with the largest later count
    pair = (int(series.y[t - 1]), int(series.y[t]), series.X[t - 1], series.X[t], 1)
    points = trial_points(pp.moment_init(series))

    def results():
        return [
            [getattr(ev, method)(working) for method in
             ("loglik", "loglik_and_score", "pair_gradients", "per_t_scores")]
            + [pp.pair_log_density(*pair, working.to_params(), ev.rule)]
            for working in points
        ]

    floored = results()
    for working, values in zip(points, floored):
        assert np.all(np.isfinite(values[1][1]))
    assert any(
        min(float(e.min()) for e in shifted_exponents(ev, working)) < model._EXP_FLOOR
        for working in points
    )
    monkeypatch.setattr(model, "_EXP_FLOOR", -math.inf)  # the floor never runs
    assert_bitwise_equal(floored, results())


def test_exp_floor_is_not_reached_on_greek_design_at_start():
    series = greek_series()
    ev = PairwiseEvaluator(series, pp.make_weights(5, "trap"), pp.gauss_hermite(20))
    exponents = shifted_exponents(ev, pp.moment_init(series).to_working())
    assert min(float(e.min()) for e in exponents) >= model._EXP_FLOOR


def test_log_weights_have_decreasing_slopes_in_the_nodes():
    for q in range(1, MAX_ORDER + 1):
        rule = pp.gauss_hermite(q)
        slopes = np.diff(np.log(rule.weights)) / np.diff(rule.nodes)
        assert np.all(np.diff(slopes) < 0), q


def test_row_minimum_of_exponents_sits_at_a_grid_corner():
    # one D = 10 pass, at the trial point with the larger latent variance
    series = pp.simulate_scenario(3, 500, seed=2024)
    ev = PairwiseEvaluator(series, pp.make_weights(3, "trap"), pp.gauss_hermite(20))
    for e in shifted_exponents(ev, trial_points(pp.moment_init(series))[1]):
        corners = e[:, [0, -1]][:, :, [0, -1]]
        assert np.array_equal(e.min(axis=(1, 2)), corners.min(axis=(1, 2)))
        assert e.min() < model._EXP_FLOOR


# ---------------------------------------------------------------------------
# pair grouping


def float_key_blocks(series, weights):
    """The evaluator's pair grouping as first written: ``np.unique`` over
    the float rows (y1, y2, X1, X2) of each lag."""
    y = series.y
    X = series.X
    outer = np.arange(weights.m_d, series.n)
    blocks = []
    for lag in weights.lags:
        idx2 = outer
        idx1 = outer - lag
        same_x = np.all(X[idx1] == X[idx2], axis=1)
        swap = same_x & (y[idx1] > y[idx2])
        a1 = np.where(swap, idx2, idx1)
        a2 = np.where(swap, idx1, idx2)
        key = np.column_stack([y[a1], y[a2], X[a1], X[a2]])
        _, rep, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
        blocks.append(
            {
                "i1": a1[rep],
                "i2": a2[rep],
                "inverse": inverse,
                "counts": np.bincount(inverse, minlength=rep.shape[0]).astype(float),
            }
        )
    return blocks


def assert_grouping_matches_float_key(series, weights):
    ev = PairwiseEvaluator(series, weights, pp.gauss_hermite(5))
    ref = float_key_blocks(series, weights)
    assert len(ev._blocks) == len(ref)
    for block, want in zip(ev._blocks, ref):
        for name in ("i1", "i2", "inverse", "counts"):
            assert np.array_equal(block[name], want[name]), name


def tied_counts_series(n=240):
    """Few distinct counts, each seen at several covariate rows."""
    t = np.arange(n)
    X = np.column_stack([np.ones(n), t % 3 == 0, (t % 5) / 4.0]).astype(float)
    return pp.CountSeries(y=(t * 7) % 4, X=X)


def signed_zero_series(n=120):
    """A covariate that is -0.0 at even and 0.0 at odd times, 1.0 every
    seventh: -0.0 and 0.0 rows are equal and must share pairs."""
    t = np.arange(n)
    z = np.where(t % 2 == 0, -0.0, 0.0)
    z[t % 7 == 0] = 1.0
    return pp.CountSeries(y=t % 3, X=np.column_stack([np.ones(n), z]))


@pytest.mark.parametrize(
    "make,weights",
    [
        (greek_series, pp.make_weights(5, "trap")),
        (tied_counts_series, pp.make_weights(3, "trap")),
        (signed_zero_series, pp.make_weights(2, "rect")),
        (lambda: pp.simulate_scenario(5, 500, seed=2024), pp.make_weights(3, "trap")),
    ],
    ids=["greek", "tied_counts", "signed_zero", "constant_x"],
)
def test_rank_grouping_matches_float_key(make, weights):
    assert_grouping_matches_float_key(make(), weights)


def test_rank_grouping_of_long_series_matches_float_key():
    # distinct counts and distinct covariate rows: a single int64 key
    # (ry1 * ny + ry2) * nX^2 + rX1 * nX + rX2 would overflow here
    n = 60_000
    assert n**4 > np.iinfo(np.int64).max
    rng = np.random.default_rng(3)
    X = np.column_stack([np.ones(n), np.arange(n) / n])
    series = pp.CountSeries(y=rng.permutation(n), X=X)
    assert_grouping_matches_float_key(series, pp.make_weights(2, "trap"))
