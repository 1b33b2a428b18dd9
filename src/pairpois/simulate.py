"""Simulation from the latent AR(1) Poisson model, and prediction bands
made of per-month draws from the fitted marginal law."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotConvergedError
from .model import CountSeries, Params, poisson_log_pmf

DEFAULT_PREDICT_SIMS = 10_000
# The trapezoid rule of _count_pmf, in units of the integrand's scale at
# its mode.  It reaches 8 sqrt(1 + tau2) on each side, so at least 8 in z
# where the modal rate is small and the integrand keeps the normal's
# curvature, and at least 14 on the left, where the curvature falls
# toward the normal's.  Chosen on the D=10 laws (scenarios 1 and 3, tau2
# = 2.04, exp(eta) = 0.54) with a step of 0.5: the pmf sums to 1 within
# 1.5e-13, and its cdf is within 2.2e-12 of an 80001-point trapezoid
# reference, about that reference's own error.  With the left end at -13
# the sum is short by 8e-13; at -12 the cdf is off by 1.5e-11, and with a
# step of 0.6 by 2e-11.  Past those laws (tau2 > 2.06) the step is 0.35,
# where 0.5 misses P(Y = 0) by up to 6e-11.  On exp(eta) from 4.5e-5 to
# 2000 and tau2 from 0 to 20 the pmf is then within 1.3e-13 of a
# 2M-point trapezoid reference.
_RULE_STEP = 0.5
_WIDE_TAU2 = 2.06
_WIDE_STEP = 0.35
# A month's draws end at the first block of counts beyond which its law
# has less mass than this.  It lies above the 1.5e-13 by which the rule
# misses the D=10 sums, so months end on this test, not on the backstop.
_TAIL = 1e-12
_BLOCK = 64  # counts per block of the histogram draw, at least
# cells of the rule, (count, node), or of the draws, (month, count) or
# (draw), held at once, at most
_CHUNK_CELLS = 1 << 20
# Costs in direct draws of a count (90 ns): of one count's probability
# (1.2 us), shared by the months of one law, and of one count of one
# month's multinomial (0.12 us); measured in predicts of 216-month designs
# on a 2-vCPU VM.  A law whose block draws would cost more than n_sim
# direct draws per month is drawn directly.
_PMF_DRAWS = 13.0
_MULTINOMIAL_DRAWS = 1.3


@dataclass(frozen=True)
class SimConfig:
    """Settings for a batch of simulated series.

    The rows of ``X`` define the horizon; replicate streams are keyed by
    (seed, replicate index), so any subset of replicates can be drawn
    independently of the others.
    """

    params: Params
    X: np.ndarray
    n_rep: int
    seed: int

    def __post_init__(self):
        if self.n_rep < 1:
            raise ValueError("n_rep must be >= 1")


@dataclass(frozen=True)
class PredictionBand:
    """Per-time predicted means and empirical upper bounds.

    ``upper95`` is ``quantile(0.95)``, the nearest-rank quantile of the
    drawn counts, so bounds are integers and exceedance checks are
    unambiguous.
    """

    point: np.ndarray
    n_sim: int
    _cum_counts: np.ndarray  # (horizon, max_count+1) cumulative table
    upper95: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "upper95", self.quantile(0.95))

    def quantile(self, level: float) -> np.ndarray:
        """Nearest-rank quantile of the drawn counts at each time."""
        if not 0.0 < level < 1.0:
            raise ValueError("level must be in (0, 1)")
        rank = math.ceil(level * self.n_sim)
        return np.argmax(self._cum_counts >= rank, axis=1).astype(float)


def _replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, replicate)))


def latent_paths(params: Params, horizon: int, n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """Draw stationary latent AR(1) paths, shape (n_paths, horizon).

    The first value is N(0, tau2); subsequent values follow
    u_t = phi * u_{t-1} + eps_t with eps_t ~ N(0, sigma2).  The
    recursion runs in place over the innovations, one time step across
    all paths at a time, and rounds exactly as the first-order IIR filter
    ``scipy.signal.lfilter([1], [1, -phi], eps, axis=1)`` does.  A
    horizon below 1 raises ``ValueError``.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    z = rng.standard_normal((n_paths, horizon))
    e = z * math.sqrt(params.sigma2)
    e[:, 0] = z[:, 0] * math.sqrt(params.tau2)
    phi = float(params.phi)
    if n_paths == 1:
        # over Python floats a single path runs about 20x faster than
        # over one-element columns; the rounding is the same
        path = e[0].tolist()
        for t in range(1, horizon):
            path[t] += phi * path[t - 1]
        return np.array([path])
    for t in range(1, horizon):
        e[:, t] += phi * e[:, t - 1]
    return e


def _simulate_counts(params: Params, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    eta = X @ params.beta
    u = latent_paths(params, X.shape[0], 1, rng)[0]
    return rng.poisson(np.exp(eta + u)).astype(np.int64)


def simulate_series(config: SimConfig) -> CountSeries:
    """Simulate one series (replicate index 0) from the model."""
    rng = _replicate_rng(config.seed, 0)
    y = _simulate_counts(config.params, config.X, rng)
    return CountSeries(y=y, X=config.X)


def simulate_replicates(config: SimConfig):
    """Yield ``config.n_rep`` independent simulated series.

    Replicate r is reproducible on its own from (seed, r); drawing the
    replicates in any order, or one at a time, gives the same series.
    """
    for r in range(config.n_rep):
        rng = _replicate_rng(config.seed, r)
        y = _simulate_counts(config.params, config.X, rng)
        yield CountSeries(y=y, X=config.X)


def _count_pmf(k, eta, tau2: float) -> np.ndarray:
    """P(Y = k) for Y | u ~ Poisson(exp(eta + u)) and u ~ N(0, tau2),
    elementwise over ``k`` and ``eta`` broadcast together.

    With u = tau z, the integrand of each count over z is log-concave.
    Its mode z_k, where the rate is lambda_k, solves z = tau (k -
    lambda_k); Newton's method finds it in a = eta + tau z, where the
    equation is increasing and convex.  The trapezoid rule (see
    ``_RULE_STEP``) is centred there with the scale (1 + tau2 (lambda_k
    + 1))^(-1/2): the integrand's width from its curvature at the mode,
    kept below 1/tau, the width in z of the factor exp(-lambda).
    Terms are summed from log space, so a rate whose exp(-lambda)
    underflows on its own keeps its exact probabilities.  At tau2 = 0 the
    rule integrates the standard normal to rounding, so the law is
    Poisson(exp(eta)).  At most ``_CHUNK_CELLS`` cells are evaluated at
    once.
    """
    k, eta = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(eta, dtype=float))
    step = _RULE_STEP if tau2 <= _WIDE_TAU2 else _WIDE_STEP
    reach = 8.0 * math.sqrt(1.0 + tau2)
    nodes = np.arange(-math.ceil(max(14.0, reach) / step), math.ceil(reach / step) + 1) * step
    kf, ef = k.ravel(), eta.ravel()
    chunk = max(1, _CHUNK_CELLS // nodes.size)
    parts = [
        _rule_sum(kf[i:i + chunk], ef[i:i + chunk], tau2, nodes, step)
        for i in range(0, kf.size, chunk)
    ]
    return np.concatenate(parts).reshape(k.shape)


def _rule_sum(kf: np.ndarray, eta: np.ndarray, tau2: float, nodes: np.ndarray,
              step: float) -> np.ndarray:
    """:func:`_count_pmf` over 1-D counts ``kf`` and levels ``eta``."""
    a = np.log(kf + 0.5)
    for _ in range(100):
        newton = (a - eta - tau2 * (kf - np.exp(a))) / (1.0 + tau2 * np.exp(a))
        a -= newton
        if np.max(np.abs(newton)) < 1e-10:
            break
    rate = np.exp(a)
    tau = math.sqrt(tau2)
    scale = 1.0 / np.sqrt(1.0 + tau2 * (rate + 1.0))
    z = (tau * (kf - rate))[:, None] + scale[:, None] * nodes
    log_terms = poisson_log_pmf(kf[:, None], eta[:, None] + tau * z) - 0.5 * z * z
    return np.exp(log_terms).sum(axis=-1) * scale * (step / math.sqrt(2.0 * math.pi))


def _draw_histograms(eta: np.ndarray, tau2: float, n_sim: int, rng) -> np.ndarray:
    """Histograms of ``n_sim`` independent draws of each month's count.

    Row t of the returned (horizon, K) table counts the draws of month t
    equal to 0, 1, ..., K - 1.  Months with equal eta share one law.

    A law whose draws spread over so many counts that the block draws
    below would cost more is drawn directly: n_sim latent values and a
    Poisson count on each, per month.  The other laws are drawn by
    blocks of counts, from each law's own lower tail (less than 1e-15 of
    the mass lies below it), ``_BLOCK`` counts wide or a quarter of the
    counts covered so far if that is more: the draws not yet placed split
    over the block's counts and "beyond it" as one multinomial,
    conditional on lying at or above the block, so the histogram has the
    law of ``n_sim`` iid draws.  A block covers at most ``_CHUNK_CELLS``
    (month, count) cells.  A month stops at the first block beyond which
    its law has less than ``_TAIL`` mass; the draws that mass would take
    land on the block's top count.
    """
    levels, level_of, months = np.unique(eta, return_inverse=True, return_counts=True)
    tau = math.sqrt(tau2)
    # below `low` lie u < -8 tau (6e-16 of the mass) and Poisson counts
    # 8.5 sd below their mean (less than exp(-36))
    rate = np.exp(levels - 8.0 * tau)
    low = np.floor(np.maximum(rate - 8.5 * np.sqrt(rate), 0.0)).astype(np.int64)
    high = np.exp(levels + 4.0 * tau)
    span = high + 4.0 * np.sqrt(high) - low
    direct = span * (_PMF_DRAWS / months + _MULTINOMIAL_DRAWS) > n_sim
    pieces = []  # (months, first count of each, histogram block)
    for t in np.flatnonzero(direct[level_of]):
        for done in range(0, n_sim, _CHUNK_CELLS):
            z = rng.standard_normal(min(_CHUNK_CELLS, n_sim - done))
            draws = np.bincount(rng.poisson(np.exp(eta[t] + tau * z)))
            pieces.append((np.array([t]), np.zeros(1, dtype=np.int64), draws[None]))
    left = np.where(direct[level_of], 0, n_sim)
    below = np.zeros(levels.shape[0])  # law mass from `low` up to `pos`, per level
    pos = low.copy()
    while left.any():
        rows = np.flatnonzero(left)
        active = np.unique(level_of[rows])
        covered = int(np.max(pos[active] - low[active]))
        width = max(_BLOCK, min(covered // 4, _CHUNK_CELLS // rows.size))
        pmf = _count_pmf(pos[active, None] + np.arange(width), levels[active, None], tau2)
        mass = pmf.sum(axis=1)
        below[active] += mass
        beyond = np.maximum(1.0 - below[active], 0.0)
        # past the median, a block of almost no mass also ends the month,
        # so rounding in the pmf's total cannot keep a month going
        last = (beyond < _TAIL) | ((mass < _TAIL) & (below[active] > 0.5))
        law = np.searchsorted(active, level_of[rows])
        probs = np.column_stack([pmf, beyond]) / (mass + beyond)[:, None]
        hist = rng.multinomial(left[rows], probs[law])
        ends = last[law]
        hist[ends, -2] += hist[ends, -1]
        left[rows] = np.where(ends, 0, hist[:, -1])
        pieces.append((rows, pos[level_of[rows]], hist[:, :-1]))
        pos[active] += width
    n_counts = max(int(np.max(first + hist.shape[1])) for _, first, hist in pieces)
    table = np.zeros((eta.shape[0], n_counts), dtype=np.int64)
    for rows, first, hist in pieces:
        table[rows[:, None], first[:, None] + np.arange(hist.shape[1])] += hist
    return table


def predict(
    fit,
    X_future: np.ndarray | None,
    n_sim: int = DEFAULT_PREDICT_SIMS,
    seed: int = 0,
    *,
    X_insample: np.ndarray | None = None,
) -> PredictionBand:
    """Per-month draws from the fitted marginal law over the in-sample +
    future horizon.

    Whatever phi is, the count of month t is marginally
    Poisson-lognormal: Poisson(exp(x_t' beta + u)) with u ~ N(0, tau2),
    unconditional on the observed counts.  For each month ``n_sim``
    independent draws are made from that law as one histogram, and the
    band reports the mean of the draws with their nearest-rank 95% upper
    bound.  Months are drawn independently of each other, which the
    per-month statistics cannot tell from draws of whole latent paths.
    The horizon is the concatenation of the ``X_insample`` rows (if
    given) and the ``X_future`` rows (if given); at least one block is
    required, and a horizon of no rows raises ``ValueError``.

    Refuses non-converged fits.
    """
    if not fit.converged:
        raise NotConvergedError(
            "prediction requires a converged fit; refit or inspect the diagnostics"
        )
    if n_sim < 1:
        raise ValueError("n_sim must be >= 1")
    params = fit.params_hat
    blocks = []
    if X_insample is not None:
        blocks.append(np.asarray(X_insample, dtype=float))
    if X_future is not None:
        blocks.append(np.asarray(X_future, dtype=float))
    if not blocks:
        raise ValueError("nothing to predict: no covariate rows given")
    X_all = np.vstack(blocks)
    if X_all.shape[0] < 1:
        raise ValueError(f"horizon must be >= 1, got {X_all.shape[0]}")

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed,)))
    counts = _draw_histograms(X_all @ params.beta, params.tau2, n_sim, rng)
    point = counts @ np.arange(counts.shape[1]) / n_sim
    # summed in place: once `point` is taken the counts are not needed, and
    # the table can be hundreds of MB at counts in the thousands
    np.cumsum(counts, axis=1, out=counts)
    return PredictionBand(point=point, n_sim=n_sim, _cum_counts=counts)
