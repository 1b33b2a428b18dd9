"""Slow reference implementations used by the test suite.

These trade speed for trustworthiness: the full likelihood comes from a
dense-grid filtering recursion (one-dimensional integrals chained over
time), pair densities from plain Monte Carlo over the latent pair, and
each month's marginal count law from a mode-centred trapezoid rule.
They exist to cross-check the production Gauss-Hermite path and the
exact prediction bands at small scale and are not meant for fitting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pairpois.errors import NumericalFailure
from pairpois.model import CountSeries, Params, poisson_log_pmf
from pairpois.simulate import _CHUNK_CELLS

MAX_FILTER_N = 50
MAX_FILTER_PHI = 0.6
_MASS_DRIFT_LIMIT = 1e-4
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


@dataclass(frozen=True)
class GridSpec:
    """Uniform latent grid for the filtering recursion.

    Bounds must cover at least +-8 stationary standard deviations, and
    at least 200 points are required.
    """

    lo: float
    hi: float
    m: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("grid bounds must satisfy lo < hi")
        if self.m < 200:
            raise ValueError("grid needs at least 200 points")

    @classmethod
    def for_params(cls, params: Params, m: int = 400, half_width: float = 8.0) -> "GridSpec":
        tau = math.sqrt(params.tau2)
        return cls(lo=-half_width * tau, hi=half_width * tau, m=m)

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.m)

    def trap_weights(self) -> np.ndarray:
        w = np.full(self.m, (self.hi - self.lo) / (self.m - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


def _normal_pdf(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def full_loglik_filter(series: CountSeries, params: Params, grid: GridSpec) -> float:
    """Full log-likelihood via the predictive-density recursion on a grid.

    Starting from the stationary prior, alternate propagating the
    filtered latent density through the AR transition kernel and
    integrating the Poisson likelihood against it; the log-likelihood is
    the sum of the log one-step predictive densities.  Trapezoid
    integration throughout.

    Guards: test scale only (n <= 50) and moderate autocorrelation
    (|phi| <= 0.6), where the non-adaptive recursion is dependable.

    Raises
    ------
    NumericalFailure
        If the predictive density's mass on the grid drifts from one by
        more than 1e-4 (grid too coarse or too narrow).
    """
    if series.n > MAX_FILTER_N:
        raise ValueError(f"filter reference is limited to n <= {MAX_FILTER_N}")
    if abs(params.phi) > MAX_FILTER_PHI:
        raise ValueError(f"filter reference is limited to |phi| <= {MAX_FILTER_PHI}")
    if not params.sigma2 > 0:
        raise ValueError("filter reference needs sigma2 > 0")
    tau = math.sqrt(params.tau2)
    if grid.lo > -8.0 * tau or grid.hi < 8.0 * tau:
        raise ValueError("grid must cover +-8 stationary standard deviations")

    u = grid.points()
    w = grid.trap_weights()
    eta = series.X @ params.beta
    # transition[a, b] = density of u_t = u[a] given u_{t-1} = u[b]
    transition = _normal_pdf(u[:, None], params.phi * u[None, :], params.sigma2)

    density = _normal_pdf(u, 0.0, params.tau2)  # latent prior at t = 1
    loglik = 0.0
    for t in range(series.n):
        if t > 0:
            density = transition @ (w * density)
            mass = float(w @ density)
            if abs(mass - 1.0) > _MASS_DRIFT_LIMIT:
                raise NumericalFailure(
                    f"predictive mass drifted to {mass:.6f} at t = {t + 1}; refine the grid",
                    time_index=t + 1,
                )
        like = np.exp(poisson_log_pmf(series.y[t], eta[t] + u))
        predictive = float(w @ (like * density))
        if not predictive > 0:
            raise NumericalFailure(
                f"one-step predictive density vanished at t = {t + 1}", time_index=t + 1
            )
        loglik += math.log(predictive)
        density = like * density / predictive
        density = density / float(w @ density)
    return loglik


def mc_pair_density(
    y1: int,
    y2: int,
    x1: np.ndarray,
    x2: np.ndarray,
    lag: int,
    params: Params,
    n_draws: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the joint pair density with its standard
    error.

    Averages the product of the two Poisson probabilities over draws of
    the latent pair from its stationary bivariate normal law.  At least
    1e5 draws are required.
    """
    if n_draws < 100_000:
        raise ValueError("use at least 1e5 draws for a trustworthy reference")
    if lag < 1:
        raise ValueError("lag must be >= 1")
    eta1 = float(np.dot(np.asarray(x1, dtype=float), params.beta))
    eta2 = float(np.dot(np.asarray(x2, dtype=float), params.beta))
    tau = math.sqrt(params.tau2)
    rho = params.phi**lag

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed,)))
    total = 0.0
    total_sq = 0.0
    left = n_draws
    chunk = 1_000_000
    while left > 0:
        m = min(chunk, left)
        z = rng.standard_normal((m, 2))
        uu = tau * z[:, 0]
        vv = tau * (rho * z[:, 0] + math.sqrt(1.0 - rho * rho) * z[:, 1])
        vals = np.exp(poisson_log_pmf(y1, eta1 + uu) + poisson_log_pmf(y2, eta2 + vv))
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        left -= m
    mean = total / n_draws
    var = max(total_sq / n_draws - mean * mean, 0.0)
    return mean, math.sqrt(var / n_draws)


def mc_full_likelihood(
    series: CountSeries, params: Params, n_draws: int, seed: int
) -> tuple[float, float]:
    """Brute-force Monte Carlo estimate of the full likelihood.

    Draws whole latent paths from the stationary AR(1) law and averages
    the product of the Poisson probabilities; returns the estimate and
    its standard error.  Only sensible for very short series.
    """
    if series.n > 12:
        raise ValueError("path Monte Carlo is only usable for very short series")
    eta = series.X @ params.beta
    tau = math.sqrt(params.tau2)
    sigma = math.sqrt(params.sigma2)
    phi = params.phi

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed,)))
    total = 0.0
    total_sq = 0.0
    left = n_draws
    chunk = max(1, 2_000_000 // series.n)
    while left > 0:
        m = min(chunk, left)
        z = rng.standard_normal((m, series.n))
        u = np.empty_like(z)
        u[:, 0] = tau * z[:, 0]
        for t in range(1, series.n):
            u[:, t] = phi * u[:, t - 1] + sigma * z[:, t]
        logw = poisson_log_pmf(series.y[None, :], eta[None, :] + u).sum(axis=1)
        vals = np.exp(logw)
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        left -= m
    mean = total / n_draws
    var = max(total_sq / n_draws - mean * mean, 0.0)
    return mean, math.sqrt(var / n_draws)


def _count_pmf(k, eta, tau2: float) -> np.ndarray:
    """P(Y = k) for Y | u ~ Poisson(exp(eta + u)) and u ~ N(0, tau2),
    elementwise over ``k`` and ``eta`` broadcast together.  The tests
    invert its cumsum as the reference for the exact bands.

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
