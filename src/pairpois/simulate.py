"""Simulation from the latent AR(1) Poisson model and simulation-based
prediction bands."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotConvergedError
from .model import CountSeries, Params

DEFAULT_PREDICT_SIMS = 10_000
_CHUNK_CELLS = 4_000_000  # cells of (paths x horizon) handled per block


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
    simulated counts, so bounds are integers and exceedance checks are
    unambiguous.
    """

    point: np.ndarray
    n_sim: int
    _cum_counts: np.ndarray  # (horizon, max_count+1) cumulative table
    upper95: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "upper95", self.quantile(0.95))

    def quantile(self, level: float) -> np.ndarray:
        """Nearest-rank quantile of the simulated counts at each time."""
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


def predict(
    fit,
    X_future: np.ndarray | None,
    n_sim: int = DEFAULT_PREDICT_SIMS,
    seed: int = 0,
    *,
    X_insample: np.ndarray | None = None,
) -> PredictionBand:
    """Simulation-based predictions over the in-sample + future horizon.

    Draws ``n_sim`` independent latent paths from the fitted stationary
    model over the whole horizon (no conditioning on the observed
    counts), then Poisson counts, and reports the per-time mean together
    with the empirical 95% upper bound.  The horizon is the
    concatenation of the ``X_insample`` rows (if given) and the
    ``X_future`` rows (if given); at least one block is required.

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
    horizon = X_all.shape[0]
    eta = X_all @ params.beta

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed,)))
    chunk = max(1, min(n_sim, _CHUNK_CELLS // max(horizon, 1)))
    total = np.zeros(horizon)
    counts_table = np.zeros((horizon, 1), dtype=np.int64)
    done = 0
    while done < n_sim:
        m = min(chunk, n_sim - done)
        if params.tau2 > 0:
            u = latent_paths(params, horizon, m, rng)
        else:
            u = np.zeros((m, horizon))
        y = rng.poisson(np.exp(eta[None, :] + u))
        total += y.sum(axis=0)
        top = int(y.max()) + 1
        if top > counts_table.shape[1]:
            grown = np.zeros((horizon, top), dtype=np.int64)
            grown[:, : counts_table.shape[1]] = counts_table
            counts_table = grown
        for t in range(horizon):
            counts_table[t, :] += np.bincount(y[:, t], minlength=counts_table.shape[1])
        done += m

    return PredictionBand(
        point=total / n_sim, n_sim=n_sim, _cum_counts=np.cumsum(counts_table, axis=1)
    )
