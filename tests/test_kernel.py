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
import copy
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, xlogy

import pairpois as pp
from conftest import pair_gradients, per_t_scores
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


def lag_block(ev, slot):
    """The distinct pairs of lag slot ``slot`` of the evaluator: their
    time points, each pair's row within the block, and their counts."""
    rows = slice(ev._first[slot], ev._first[slot + 1])
    return {
        "i1": ev._i1[rows],
        "i2": ev._i2[rows],
        "inverse": ev._pair_rows[slot] - rows.start,
        "counts": ev._counts[rows],
    }


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

    def evaluate(self, working):
        params = working.to_params()
        tau2 = params.tau2
        if not tau2 > 0:
            raise ValueError("working parameters must have sigma2 > 0")
        phi = params.phi
        eta = self.series.X @ params.beta

        loglik = 0.0
        score = np.zeros(self.dim)
        block_grads = []
        for slot, (lag, w_lag) in enumerate(zip(self._lags, self._w)):
            block = lag_block(self, slot)
            rho = phi**lag
            u, v, logw2 = _grid_pieces(self.rule, tau2, rho)
            logp, grads = self._block_terms(block, eta, u, v, logw2, lag, tau2, phi)
            loglik += w_lag * float(block["counts"] @ logp)
            score += w_lag * (block["counts"] @ grads)
            block_grads.append(grads)
        return loglik, score, np.concatenate(block_grads)


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


def pass_views(ev, w, working):
    """One pass of ``ev`` at ``working`` through each of its views: the
    loglik, the loglik and score, the per-pair scores, and the per-time
    scores under the lag weights ``w``."""
    return [ev.loglik(working), ev.loglik_and_score(working), pair_gradients(ev, working),
            per_t_scores(ev, w, working)]


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
        psi_ref = per_t_scores(ref, weights.w, working)
        tol = SCORE_ATOL * max(1.0, float(np.max(np.abs(psi_ref))))
        assert np.max(np.abs(per_t_scores(fused, weights.w, working) - psi_ref)) <= tol


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


def spike_series(spike, n=40):
    """A covariate that is 1 at 0-based time ``spike`` and 0 elsewhere;
    with coefficient 800 the linear predictor reaches 800 there and exp()
    overflows at every node for the pairs that contain that time."""
    z = np.zeros(n)
    z[spike] = 1.0
    return pp.CountSeries(y=np.arange(n) % 4, X=np.column_stack([np.ones(n), z]))


def failure_location(spike):
    """The (time_index, lag) both kernels report on ``spike_series``."""
    series = spike_series(spike)
    working = pp.WorkingParams(beta=[0.2, 800.0], log_sigma2=math.log(0.1), z_phi=0.3)
    q = 5
    rule = pp.gauss_hermite(q)
    weights = pp.make_weights(2, "trap")
    ev = PairwiseEvaluator(series, weights, rule)
    assert [s.stop - s.start for s in model._cell_groups(ev._first, q * q)] == [3]
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


@pytest.mark.parametrize("z_phi", [0.3, 0.0], ids=["phi!=0", "phi=0"])
def test_failure_in_a_later_kernel_call_matches_broadcast(z_phi):
    # 396 distinct pairs per lag at 40 nodes: every lag block is a group
    # of its own in the tensor kernel.  The spike at t = 3 lies before the
    # window m_d = 4, so only lags 2 and 3 reach it, in the second and third
    # groups.
    n, spike, q = 400, 2, 40
    z = np.zeros(n)
    z[spike] = 1.0
    X = np.column_stack([np.ones(n), np.arange(n) / n, z])
    y = np.random.default_rng(7).poisson(3.0, n)
    series = pp.CountSeries(y=y, X=X)
    weights = pp.make_weights(2, "trap")
    rule = pp.gauss_hermite(q)
    ev = PairwiseEvaluator(series, weights, rule)
    groups = model._cell_groups(ev._first, q * q)
    assert len(groups) >= 2
    failing = np.flatnonzero((ev._i1 == spike) | (ev._i2 == spike))
    assert failing.size and failing.min() >= ev._first[groups[0].stop]
    working = pp.WorkingParams(beta=[0.2, 0.1, 800.0], log_sigma2=math.log(0.1), z_phi=z_phi)
    errors = []
    for evaluator in (ev, BroadcastEvaluator(series, weights, rule)):
        with pytest.raises(NumericalFailure) as info:
            evaluator.loglik_and_score(working)
        errors.append((info.value.time_index, info.value.lag))
    assert errors[0] == errors[1] == (5, 2)


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
    # the same passes with every lag block in a group of its own; an
    # evaluator reads the grouping once, when its first tensor pass builds
    # its workspace, so the comparison runs on a second evaluator built
    # after the budget is patched
    series = make()
    rule = pp.gauss_hermite(q)
    ev = PairwiseEvaluator(series, weights, rule)
    points = trial_points(pp.moment_init(series))
    grouped = [pass_views(ev, weights.w, working) for working in points]
    grouped_groups = model._cell_groups(ev._first, q * q)
    assert [len(blocks) for _, blocks in ev._work.groups] == [
        g.stop - g.start for g in grouped_groups
    ]
    monkeypatch.setattr(model, "_GROUP_CELLS", 1)
    assert len(model._cell_groups(ev._first, q * q)) == len(ev._first) - 1
    assert (len(grouped_groups) < len(ev._first) - 1) == several
    single = PairwiseEvaluator(series, weights, rule)
    for working, want in zip(points, grouped):
        assert_bitwise_equal(want, pass_views(single, weights.w, working))
    assert [len(blocks) for _, blocks in single._work.groups] == [1] * (len(ev._first) - 1)


def test_evaluate_makes_one_tensor_kernel_call_per_pass(monkeypatch):
    # the Greek d=5 trap design at 20 nodes: nine lag blocks of about 190
    # distinct pairs, each a group of its own, all in one kernel call
    series = greek_series()
    q = 20
    ev = PairwiseEvaluator(series, pp.make_weights(5, "trap"), pp.gauss_hermite(q))
    assert len(model._cell_groups(ev._first, q * q)) == 9
    calls = []
    fused = model._fused_pairs
    monkeypatch.setattr(model, "_fused_pairs", lambda *a: (calls.append(1), fused(*a))[1])
    for working in trial_points(pp.moment_init(series)):
        del calls[:]
        ev.evaluate(working)
        assert len(calls) == 1


@pytest.mark.parametrize(
    "first,q2",
    [
        ([0, 1], 400),
        ([0, 40, 80, 120, 160, 200], 400),
        ([0, 10, 400, 410, 420, 900, 905], 400),
        ([0, 300, 310, 320, 330], 400),
        ([0, 396, 792, 1188], 1600),
        ([0, 5, 10, 15], 1 << 20),
    ],
)
def test_cell_groups_cover_every_block_in_order_within_the_budget(first, q2):
    groups = model._cell_groups(first, q2)
    blocks = [j for g in groups for j in range(g.start, g.stop)]
    assert blocks == list(range(len(first) - 1))  # every block once, in order, none split
    for g in groups:
        assert g.start < g.stop and g.step is None
        if g.stop - g.start > 1:
            assert (first[g.stop] - first[g.start]) * q2 <= model._GROUP_CELLS
        block_cells = [(first[j + 1] - first[j]) * q2 for j in range(g.start, g.stop)]
        if max(block_cells) > model._GROUP_CELLS:
            assert g.stop - g.start == 1  # a block over the budget runs alone


# ---------------------------------------------------------------------------
# product rule at phi = 0

# z_phi = 1e-300 gives phi != 0, so the tensor kernel runs, on the grid of
# rho = 0: rho = 1e-300 at lag 1 and 0 beyond moves no node
TENSOR_Z_PHI = 1e-300
PRODUCT_RTOL = 1e-13  # relative to the largest entry of the tensor result


def assert_close_to_tensor(got, want):
    if isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_close_to_tensor(a, b)
        return
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= PRODUCT_RTOL * np.max(np.abs(want))


@pytest.mark.parametrize("latent", ["tau2>0", "tau2=0"])
@pytest.mark.parametrize(
    "make,weights",
    [
        (lambda: pp.simulate_scenario(5, 500, seed=2024), pp.make_weights(3, "trap")),
        (greek_series, pp.make_weights(5, "trap")),
    ],
    ids=["constant_x", "greek"],
)
def test_product_rule_at_phi_zero_matches_tensor_kernel(make, weights, latent, monkeypatch):
    series = make()
    ev = PairwiseEvaluator(series, weights, pp.gauss_hermite(20))
    start = pp.moment_init(series).to_working()
    sigma2s = [start.log_sigma2, start.log_sigma2 + 1.0] if latent == "tau2>0" else [-math.inf]
    tensor_calls = []
    fused = model._fused_pairs
    monkeypatch.setattr(model, "_fused_pairs", lambda *a: (tensor_calls.append(1), fused(*a))[1])
    for log_sigma2 in sigma2s:
        for z_phi in (0.0, TENSOR_Z_PHI):
            del tensor_calls[:]
            working = pp.WorkingParams(beta=start.beta, log_sigma2=log_sigma2, z_phi=z_phi)
            got = pass_views(ev, weights.w, working)
            assert bool(tensor_calls) == (z_phi != 0.0)
            if z_phi == 0.0:
                product = got
        assert_close_to_tensor(product, got)


@pytest.mark.parametrize("log_sigma2", [math.log(0.1), -math.inf], ids=["tau2>0", "tau2=0"])
@pytest.mark.parametrize("spike", [22, 2], ids=["first_block", "later_block"])
def test_product_rule_failure_location_matches_tensor_kernel(spike, log_sigma2):
    ev = PairwiseEvaluator(spike_series(spike), pp.make_weights(2, "trap"), pp.gauss_hermite(5))
    errors = []
    for z_phi in (0.0, TENSOR_Z_PHI):
        working = pp.WorkingParams(beta=[0.2, 800.0], log_sigma2=log_sigma2, z_phi=z_phi)
        with pytest.raises(NumericalFailure) as info:
            ev.loglik_and_score(working)
        errors.append((info.value.time_index, info.value.lag))
    assert errors[0] == errors[1] == {22: (23, 1), 2: (5, 2)}[spike]


# ---------------------------------------------------------------------------
# closed-form shift


def peak(y):
    """sup over a of y a - e^a: y log y - y, and 0 at y = 0."""
    return xlogy(y, y) - y


def kernel_shifts(ev, working):
    """Each lag block's integrand exponents (with the per-pair y1 eta1 +
    y2 eta2 in, as ``BroadcastEvaluator`` builds them by broadcasting),
    less the shift the tensor kernel takes: the closed-form bound
    max log w_j w_k / pi + peak(y1) + peak(y2), or the row's grid maximum
    where the exponentials shifted by the bound sum to at most
    ``model._MIN_TOTAL``.  Returns the (pairs, q, q) shifted exponents and
    the mask of the rows that take their grid maximum, per block."""
    params = working.to_params()
    eta = ev.series.X @ params.beta
    y = ev.series.y.astype(float)
    out = []
    for slot, lag in enumerate(ev._lags):
        block = lag_block(ev, slot)
        i1, i2 = block["i1"], block["i2"]
        u, v, logw2 = _grid_pieces(ev.rule, params.tau2, params.phi**lag)
        a = eta[i1][:, None] + u[None, :]
        b = eta[i2][:, None, None] + v[None, :, :]
        term = (
            logw2[None, :, :]
            + (y[i1][:, None] * a - np.exp(a))[:, :, None]
            + y[i2][:, None, None] * b
            - np.exp(b)
        )
        shift = logw2.max() + peak(y[i1]) + peak(y[i2])
        rerun = ~(np.exp(term - shift[:, None, None]).sum(axis=(1, 2)) > model._MIN_TOTAL)
        shift[rerun] = term[rerun].max(axis=(1, 2))
        out.append((term - shift[:, None, None], rerun))
    return out


def shifted_exponents(ev, working):
    """Each lag block's integrand exponents less the kernel's shift, as a
    (pairs, q, q) array (:func:`kernel_shifts`)."""
    return [e for e, _ in kernel_shifts(ev, working)]


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from([1, 2, 5, 20, 40]),
    y1=st.integers(0, 2000),
    y2=st.integers(0, 2000),
    eta1=st.floats(-30.0, 30.0),
    eta2=st.floats(-30.0, 30.0),
    c=st.floats(0.0, 4.0),
    rho=st.floats(-0.999, 0.999),
)
def test_closed_form_shift_bounds_every_grid_exponent(q, y1, y2, eta1, eta2, c, rho):
    # the kernel's exponents (the first product less its shift column)
    # against the bound it shifts by, up to rounding of their terms
    rule = pp.gauss_hermite(q)
    grid = model._pass_grid(rule, c, [rho], model._grid_slots(rule, 1))[0][0]
    y1, y2 = np.array([float(y1)]), np.array([float(y2)])
    eta1, eta2 = np.array([eta1]), np.array([eta2])
    parts = np.stack([grid[0], y1 * grid[1], -np.exp(eta1) * grid[2], y2 * grid[3],
                      -np.exp(eta2) * grid[4]])
    bound = grid[0].max() + model._log_peak(y1) + model._log_peak(y2) - y1 * eta1 - y2 * eta2
    slack = 1e-14 * (np.abs(parts).sum(axis=0) + abs(bound[0]))
    assert np.all(parts.sum(axis=0) <= bound + slack)
    # the bound itself, against the sup of each Poisson term by its formula
    assert bound == pytest.approx(grid[0].max() + peak(y1) + peak(y2) - y1 * eta1 - y2 * eta2,
                                  rel=1e-13, abs=1e-9)


def outlier_series():
    """Poisson(2) counts with an outlying 300 at 0-based time 25, after a 2."""
    n = 60
    y = np.random.default_rng(1).poisson(2.0, n)
    y[25] = 300
    assert y[24] == 2
    return pp.CountSeries(y=y, X=np.ones((n, 1)))


@pytest.mark.parametrize("log_sigma2", [-9.0, -3.0])
def test_rows_far_below_the_bound_rerun_with_their_grid_maximum(log_sigma2, monkeypatch):
    # at a tiny latent variance the bound of the pairs holding the 300
    # sits hundreds above their grid: those rows are rerun with their grid
    # maximum, within the pass's one kernel call
    series = outlier_series()
    weights = pp.make_weights(2, "trap")
    rule = pp.gauss_hermite(20)
    ev = PairwiseEvaluator(series, weights, rule)
    working = pp.WorkingParams(beta=[math.log(2.0)], log_sigma2=log_sigma2, z_phi=0.4)
    assert sum(int(rerun.sum()) for _, rerun in kernel_shifts(ev, working)) > 0
    calls = []
    fused = model._fused_pairs
    monkeypatch.setattr(model, "_fused_pairs", lambda *a: (calls.append(1), fused(*a))[1])
    assert_kernels_agree(series, weights, 20, [working])
    del calls[:]
    ev.evaluate(working)
    assert len(calls) == 1

    params = working.to_params()
    u, v, logw2 = _grid_pieces(rule, params.tau2, params.phi)
    eta = math.log(2.0)
    term = (logw2 + (2 * (eta + u) - np.exp(eta + u))[:, None] + 300 * (eta + v) - np.exp(eta + v)
            - gammaln(3.0) - gammaln(301.0))
    want = term.max() + math.log(np.exp(term - term.max()).sum())
    got = pp.pair_log_density(2, 300, [1.0], [1.0], 1, params, rule)
    assert abs(got - want) <= LOGLIK_RTOL * abs(want)
    # with no rerun those rows keep the bound's shift, and the loglik
    # leaves the broadcast reference
    ll_ref = BroadcastEvaluator(series, weights, rule).loglik(working)
    monkeypatch.setattr(model, "_MIN_TOTAL", 0.0)
    assert abs(ev.loglik(working) - ll_ref) > LOGLIK_RTOL * abs(ll_ref)


# ---------------------------------------------------------------------------
# the evaluator's workspace


def scenario5_series():
    return pp.simulate_scenario(5, 500, seed=1000000)


@pytest.mark.parametrize(
    "make,weights,rows",
    [(greek_series, pp.make_weights(5, "trap"), 194),
     (scenario5_series, pp.make_weights(3, "trap"), 208)],
    ids=["greek", "scenario5"],
)
def test_steady_state_pass_allocates_less_than_one_group_scratch(make, weights, rows):
    # the workspace is built at the first tensor pass; a later pass at
    # another point fills it and allocates only per-row arrays
    series = make()
    q = 20
    ev = PairwiseEvaluator(series, weights, pp.gauss_hermite(q))
    start, other = trial_points(pp.moment_init(series))[:2]
    assert max(ev._first[g.stop] - ev._first[g.start]
               for g in model._cell_groups(ev._first, q * q)) == rows
    ev.evaluate(start)
    tracemalloc.start()
    try:
        ev.evaluate(other)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows * q * q * 8


@pytest.mark.parametrize(
    "make,weights,a,b",
    [
        (greek_series, pp.make_weights(5, "trap"), 0, 1),
        (scenario5_series, pp.make_weights(3, "trap"), 2, 1),
        # a point whose rows rerun with their grid maximum, then one whose
        # rows do not
        (outlier_series, pp.make_weights(2, "trap"),
         pp.WorkingParams(beta=[math.log(2.0)], log_sigma2=-9.0, z_phi=0.4), 0),
    ],
    ids=["greek", "scenario5", "rerun_rows"],
)
def test_pass_results_do_not_depend_on_earlier_passes(make, weights, a, b):
    # passes A, B, A on one evaluator: both A passes equal a fresh
    # evaluator's bit for bit, and B overwrites nothing the first A returned
    series = make()
    rule = pp.gauss_hermite(20)
    points = trial_points(pp.moment_init(series))
    a, b = (points[p] if isinstance(p, int) else p for p in (a, b))
    ev = PairwiseEvaluator(series, weights, rule)
    first_a = ev.evaluate(a)
    kept = copy.deepcopy(first_a)
    ev.evaluate(b)
    second_a = ev.evaluate(a)
    fresh_a = PairwiseEvaluator(series, weights, rule).evaluate(a)
    assert_bitwise_equal(first_a, fresh_a)
    assert_bitwise_equal(second_a, fresh_a)
    assert_bitwise_equal(first_a, kept)


def test_phi_zero_pass_builds_no_workspace(monkeypatch):
    built = []
    workspace = model._TensorWorkspace
    monkeypatch.setattr(model, "_TensorWorkspace", lambda *a: (built.append(1), workspace(*a))[1])
    series = scenario5_series()
    weights = pp.make_weights(3, "trap")
    for restriction in (pp.PHI_ZERO, pp.INDEPENDENCE):
        pp.fit_restricted(series, weights, quad_order=20, restriction=restriction)
    assert built == []
    ev = PairwiseEvaluator(series, weights, pp.gauss_hermite(20))
    start = pp.moment_init(series).to_working()
    ev.evaluate(pp.WorkingParams(beta=start.beta, log_sigma2=start.log_sigma2, z_phi=0.0))
    assert ev._work is None and built == []
    ev.evaluate(start)
    ev.evaluate(pp.WorkingParams(beta=start.beta, log_sigma2=start.log_sigma2, z_phi=0.0))
    work = ev._work
    ev.evaluate(start)
    assert built == [1] and ev._work is work  # built once, at the first tensor pass


# ---------------------------------------------------------------------------
# exponent floor


def test_exp_floor_changes_no_bit(monkeypatch):
    # scenario 3 (D = 10): a fifth or more of the cells lie below the floor
    # at the start and at the point with the larger latent variance
    series = pp.simulate_scenario(3, 500, seed=2024)
    weights = pp.make_weights(3, "trap")
    ev = PairwiseEvaluator(series, weights, pp.gauss_hermite(20))
    t = int(np.argmax(series.y[1:])) + 1  # the lag-1 pair with the largest later count
    pair = (int(series.y[t - 1]), int(series.y[t]), series.X[t - 1], series.X[t], 1)
    points = trial_points(pp.moment_init(series))

    def results():
        return [
            pass_views(ev, weights.w, working)
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
    assert len(ev._first) - 1 == len(ref)
    for slot, want in enumerate(ref):
        block = lag_block(ev, slot)
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
