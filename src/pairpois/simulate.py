"""Simulation from the latent AR(1) Poisson model, and prediction bands
computed exactly from each month's fitted marginal law."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotConvergedError
from .model import CountSeries, Params, marginal_moments, poisson_log_pmf

# cells evaluated at once, at most: (law, node) of the cdf rule, or
# (law, count) of a Poisson sum
_CHUNK_CELLS = 1 << 20
# The trapezoid rule of _lognormal_cdf, in s = log G, G ~ Gamma(k + 1):
# the step is _GAMMA_STEP times the narrower of the rule's two factors,
# the log-gamma density (sd 1/sqrt(k + 1)) and the normal cdf in s (scale
# tau).  At counts below 3 the step stays at most _GAMMA_STEP / 2, where
# the log-gamma density's strip of analyticity (half-width pi/2), not its
# sd, bounds the rule's error: with 1/sqrt(k + 1) alone the cdf at k = 0
# is off by 8.9e-9 at tau2 = 2.04.  With the cap, the cdf is within
# 1.5e-13 of the cumsum of the reference pmf in tests/oracle.py on the
# scenario laws (D = 10, 1 and 0.1), about the reference's own error,
# within 2e-14 at exp(eta) = 2000 (tau2 0.0645 and 0.511), and within
# 5e-15 at tau2 = 8.
_GAMMA_STEP = 0.5
# Coefficients of the rational forms of erfc in Cephes' ndtr.c, highest
# degree first: x T(x^2) / U(x^2) is erf on |x| < 1, and e^(-x^2) P(x) /
# Q(x) is erfc on 1 <= x < 8.
_ERF_T = [9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4]
_ERF_U = [1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4]
_ERFC_P = [2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2]
_ERFC_Q = [1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2]


@dataclass(frozen=True)
class SimConfig:
    """Settings for a simulated series.

    The rows of ``X`` define the horizon, and ``seed`` keys the random
    stream.  ``n_rep`` must be at least 1; :func:`simulate_series` draws
    one series whatever its value.
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
    """Per-month marginal means and upper bounds of the fitted law.

    The count of month t is Poisson(exp(eta[t] + u)) with u ~ N(0,
    tau2).  ``point`` is its mean exp(eta + tau2 / 2) and ``upper95`` is
    ``quantile(0.95)``.  Bounds are integers, so exceedance checks are
    unambiguous.
    """

    eta: np.ndarray
    tau2: float
    point: np.ndarray = field(init=False)
    upper95: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "point", marginal_moments(self.eta, self.tau2)[0])
        object.__setattr__(self, "upper95", self.quantile(0.95))

    def quantile(self, level: float) -> np.ndarray:
        """Smallest count k with P(Y_t <= k) >= ``level`` at each month."""
        if not 0.0 < level < 1.0:
            raise ValueError("level must be in (0, 1)")
        # months with equal eta share one law
        levels, law = np.unique(self.eta, return_inverse=True)
        return _quantile(levels, self.tau2, level)[law]


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
    """Simulate one series from the model, on the stream keyed by
    (seed, 0)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, 0)))
    y = _simulate_counts(config.params, config.X, rng)
    return CountSeries(y=y, X=config.X)


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc elementwise for |x| < 8, from the rational forms of
    ``_ERF_T`` .. ``_ERFC_Q`` and erfc(-x) = 2 - erfc(x).  On |x| <= 6.4,
    the band :func:`_lognormal_cdf` evaluates, it is within 4.4e-16 of
    ``math.erfc``.  Each form runs only on its own cells: erf on |x| < 1,
    the tail beyond."""
    a = np.abs(x)
    out = np.empty_like(x)
    near = a < 1.0
    x_near, far = x[near], ~near
    z = x_near * x_near
    out[near] = 1.0 - x_near * np.polyval(_ERF_T, z) / np.polyval(_ERF_U, z)
    x_far, a_far = x[far], a[far]
    tail = np.exp(-(x_far * x_far)) * np.polyval(_ERFC_P, a_far) / np.polyval(_ERFC_Q, a_far)
    out[far] = np.where(x_far < 0.0, 2.0 - tail, tail)
    return out


def _lognormal_cdf(k: np.ndarray, eta: np.ndarray, tau: float) -> np.ndarray:
    """P(Y <= k) for Y | u ~ Poisson(exp(eta + u)) and u ~ N(0, tau^2),
    tau > 0, elementwise over 1-D ``k`` and ``eta``.

    Y <= k exactly when the (k + 1)-th arrival of a unit-rate Poisson
    process comes after time exp(eta + u), so P(Y <= k) = E[Phi((log G -
    eta) / tau)] with G ~ Gamma(k + 1, 1).  The expectation is a trapezoid
    rule in s = log G (step: ``_GAMMA_STEP``), from 8.5 log-gamma sd plus
    36 / (k + 1) below the mode log(k + 1), where the density's slower
    left tail has fallen below exp(-36) of its peak, to 8.5 sd above it.
    The density weights are normalised by their own sum, so no log-gamma
    constant is needed.  Phi is computed only where |(s - eta) / tau| <
    9; beyond, it is 0 or 1 to 1e-19.  At most ``_CHUNK_CELLS`` cells are
    evaluated at once.
    """
    a = k + 1.0
    log_a = np.log(a)
    sd = 1.0 / np.sqrt(a)
    left = 8.5 * sd + 36.0 / a
    width = left + 8.5 * sd
    step = _GAMMA_STEP * np.minimum(sd, min(0.5, tau))
    n_nodes = int(np.max(np.ceil(width / step))) + 1
    t = np.linspace(0.0, 1.0, n_nodes)
    cdf = np.empty(a.shape)
    rows = max(1, _CHUNK_CELLS // n_nodes)
    for i in range(0, a.size, rows):
        c = slice(i, i + rows)
        s = (log_a[c] - left[c])[:, None] + width[c, None] * t
        weight = np.exp(a[c, None] * (s - log_a[c, None] + 1.0) - np.exp(s))
        x = (s - eta[c, None]) / tau
        phi = (x > 0.0).astype(float)
        band = np.abs(x) < 9.0
        phi[band] = 0.5 * _erfc(x[band] / -math.sqrt(2.0))
        cdf[c] = (weight * phi).sum(axis=1) / weight.sum(axis=1)
    return cdf


def _quantile(levels: np.ndarray, tau2: float, level: float) -> np.ndarray:
    """Smallest k with P(Y <= k) >= ``level`` for each law Y | u ~
    Poisson(exp(levels + u)), u ~ N(0, tau2).

    Cantelli's inequality brackets k by the law's mean and sd: P(Y <= lo)
    < level <= P(Y <= hi).  At tau2 > 0 the bracket is bisected on the
    cdf of :func:`_lognormal_cdf`.  At tau2 = 0 the law is Poisson, and
    its pmf is summed from 8.5 sd below the mean (less than exp(-36) of
    the mass lies below) up to ``hi``, over at most ``_CHUNK_CELLS``
    (law, count) cells at once.
    """
    mean, var = marginal_moments(levels, tau2)
    sd = np.sqrt(var)
    lo = np.maximum(np.floor(mean - sd * math.sqrt((1.0 - level) / level)) - 1.0, -1.0)
    hi = np.ceil(mean + sd * math.sqrt(level / (1.0 - level)))
    if tau2 == 0.0:
        low = np.floor(np.maximum(mean - 8.5 * sd, 0.0))
        counts = np.arange(int(np.max(hi - low)) + 1)
        rows = max(1, _CHUNK_CELLS // counts.size)
        for i in range(0, levels.size, rows):
            c = slice(i, i + rows)
            pmf = np.exp(poisson_log_pmf(low[c, None] + counts, levels[c, None]))
            hi[c] = low[c] + np.sum(np.cumsum(pmf, axis=1) < level, axis=1)
        return hi
    tau = math.sqrt(tau2)
    while True:
        i = np.flatnonzero(hi - lo > 1.0)
        if i.size == 0:
            return hi
        mid = np.floor(0.5 * (lo[i] + hi[i]))
        below = _lognormal_cdf(mid, levels[i], tau) < level
        lo[i] = np.where(below, mid, lo[i])
        hi[i] = np.where(below, hi[i], mid)


def predict(
    fit,
    X_future: np.ndarray | None,
    n_sim: int = 10_000,
    seed: int = 0,
    *,
    X_insample: np.ndarray | None = None,
) -> PredictionBand:
    """The fitted marginal law of each month over the in-sample + future
    horizon.

    Whatever phi is, the count of month t is marginally
    Poisson-lognormal: Poisson(exp(x_t' beta + u)) with u ~ N(0, tau2),
    unconditional on the observed counts.  The band reports that law's
    mean and its 95% quantile, both computed exactly (see
    :class:`PredictionBand`), so ``n_sim`` and ``seed`` are accepted and
    ignored.  The horizon is the concatenation of the ``X_insample`` rows
    (if given) and the ``X_future`` rows (if given); at least one block is
    required, and a horizon of no rows raises ``ValueError``.

    Refuses non-converged fits.
    """
    if not fit.converged:
        raise NotConvergedError(
            "prediction requires a converged fit; refit or inspect the diagnostics"
        )
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
    return PredictionBand(eta=X_all @ params.beta, tau2=params.tau2)
