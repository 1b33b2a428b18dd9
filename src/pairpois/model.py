"""Latent AR(1) Poisson count model.

Counts y_t are conditionally Poisson with log-mean x_t'beta + u_t, where
u_t is an unobserved stationary Gaussian AR(1) process with innovation
variance sigma2 and autoregression phi.  This module holds the parameter
containers, the closed-form marginal moments, the Gauss-Hermite pair
densities, and the weighted pairwise log-likelihood with its analytic
score on the unconstrained (working) scale.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .quadrature import QuadRule

RECTANGULAR = "rectangular"
TRAPEZOIDAL = "trapezoidal"

_SCHEME_ALIASES = {
    "rect": RECTANGULAR,
    "rectangular": RECTANGULAR,
    "trap": TRAPEZOIDAL,
    "trapezoidal": TRAPEZOIDAL,
}


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Params:
    """Model parameters on the natural scale.

    ``beta`` are the regression coefficients on the log scale, ``sigma2``
    the latent innovation variance and ``phi`` the latent autoregression.
    The stationary latent variance ``tau2 = sigma2 / (1 - phi**2)`` is
    derived on access.  ``sigma2 == 0`` is allowed as the degenerate
    (no latent component) boundary used by the independence restriction.
    """

    beta: np.ndarray
    sigma2: float
    phi: float

    def __post_init__(self):
        beta = _readonly(np.atleast_1d(np.asarray(self.beta, dtype=float)))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sigma2", float(self.sigma2))
        object.__setattr__(self, "phi", float(self.phi))
        if beta.ndim != 1 or not np.all(np.isfinite(beta)):
            raise ValueError("beta must be a finite 1-D coefficient vector")
        if not self.sigma2 >= 0 or not np.isfinite(self.sigma2):
            raise ValueError(f"sigma2 must be non-negative, got {self.sigma2}")
        if not abs(self.phi) < 1:
            raise ValueError(f"phi must lie in (-1, 1), got {self.phi}")

    @property
    def tau2(self) -> float:
        return self.sigma2 / (1.0 - self.phi * self.phi)

    @property
    def n_coef(self) -> int:
        return self.beta.shape[0]

    def to_working(self) -> "WorkingParams":
        log_sigma2 = math.log(self.sigma2) if self.sigma2 > 0 else -math.inf
        return WorkingParams(beta=self.beta, log_sigma2=log_sigma2, z_phi=math.atanh(self.phi))


@dataclass(frozen=True)
class WorkingParams:
    """Unconstrained parametrization used by the optimizer.

    ``log_sigma2 = log(sigma2)`` and ``z_phi = atanh(phi)`` keep the
    positivity and stationarity constraints implicit; the map to
    :class:`Params` is a bijection (round trips to within 1e-12).
    """

    beta: np.ndarray
    log_sigma2: float
    z_phi: float

    def __post_init__(self):
        beta = _readonly(np.atleast_1d(np.asarray(self.beta, dtype=float)))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "log_sigma2", float(self.log_sigma2))
        object.__setattr__(self, "z_phi", float(self.z_phi))

    def to_params(self) -> Params:
        return Params(beta=self.beta, sigma2=math.exp(self.log_sigma2), phi=math.tanh(self.z_phi))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.beta, [self.log_sigma2, self.z_phi]])

    @classmethod
    def from_vector(cls, vec: np.ndarray, n_coef: int) -> "WorkingParams":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (n_coef + 2,):
            raise ValueError(f"expected vector of length {n_coef + 2}, got shape {vec.shape}")
        return cls(beta=vec[:n_coef], log_sigma2=vec[n_coef], z_phi=vec[n_coef + 1])


@dataclass(frozen=True)
class CountSeries:
    """Observed counts with their covariate matrix.

    ``y`` holds n non-negative integer counts and ``X`` the n x (p+1)
    covariate matrix whose first column is the intercept.
    """

    y: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y)
        if y.ndim != 1:
            raise ValueError("y must be 1-D")
        if not np.issubdtype(y.dtype, np.integer):
            y_int = np.asarray(y, dtype=np.int64)
            if not np.array_equal(y_int, y):
                raise ValueError("counts must be integers")
            y = y_int
        if np.any(y < 0):
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "y", _readonly(y.astype(np.int64)))

        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be an (n, p+1) matrix aligned with y")
        if not np.all(np.isfinite(X)):
            raise ValueError("X must be finite")
        if np.linalg.matrix_rank(X) < X.shape[1]:
            raise ValueError("X must have full column rank")
        object.__setattr__(self, "X", _readonly(X))

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def n_coef(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class PairWeights:
    """Normalized lag weights for the pairwise likelihood.

    ``w[i-1]`` weights pairs that are i lags apart, for i = 1..len(w).
    The window length ``m_d`` (equal to d for rectangular weights and 2d
    for trapezoidal) sets where the outer likelihood sum starts; for the
    trapezoidal scheme the zero weight at lag 2d is not stored, so
    ``len(w) == m_d - 1`` there.
    """

    d: int
    scheme: str
    w: np.ndarray
    m_d: int

    def __post_init__(self):
        object.__setattr__(self, "w", _readonly(np.asarray(self.w, dtype=float)))

    @property
    def lags(self) -> np.ndarray:
        return np.arange(1, self.w.shape[0] + 1)


def make_weights(d: int, scheme: str = RECTANGULAR) -> PairWeights:
    """Build normalized pair weights of order ``d`` for the given scheme.

    Rectangular weights are 1/d for lags 1..d.  Trapezoidal weights are
    proportional to 1 for lags below d and to (2d - i)/d for lags
    d <= i < 2d, so they stay flat and then decay linearly to zero.

    Raises
    ------
    ValueError
        If ``d < 1`` or the scheme is unknown.
    """
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"order d must be a positive integer, got {d!r}")
    d = int(d)
    key = str(scheme).lower()
    if key not in _SCHEME_ALIASES:
        raise ValueError(f"unknown weight scheme {scheme!r}")
    scheme = _SCHEME_ALIASES[key]

    if scheme == RECTANGULAR:
        w = np.full(d, 1.0 / d)
        m_d = d
    else:
        lags = np.arange(1, 2 * d)
        raw = np.where(lags < d, 1.0, (2.0 * d - lags) / d)
        w = raw / raw.sum()
        m_d = 2 * d
    return PairWeights(d=d, scheme=scheme, w=w, m_d=m_d)


# ---------------------------------------------------------------------------
# marginal moments


def marginal_mean(x: np.ndarray, params: Params) -> float:
    """Marginal mean exp(x'beta + tau2/2) of a count with covariates x."""
    return float(np.exp(np.dot(x, params.beta) + 0.5 * params.tau2))


def marginal_var(x: np.ndarray, params: Params) -> float:
    """Marginal variance m + m^2 * (exp(tau2) - 1), always >= the mean."""
    m = marginal_mean(x, params)
    return m + m * m * math.expm1(params.tau2)


def autocorrelation(lag: int, x_t: np.ndarray, x_lag: np.ndarray, params: Params) -> float:
    """Marginal autocorrelation of counts ``lag`` steps apart.

    Depends on the marginal moments at both time points, so it varies
    with the covariates even though the latent correlation phi**lag
    does not.
    """
    if lag < 1:
        raise ValueError("lag must be >= 1")
    m_t = marginal_mean(x_t, params)
    m_l = marginal_mean(x_lag, params)
    num = m_t * m_l * math.expm1(params.phi**lag * params.tau2)
    return num / math.sqrt(marginal_var(x_t, params) * marginal_var(x_lag, params))


def dispersion_index(x: np.ndarray, params: Params) -> float | np.ndarray:
    """Dispersion index E(y) * (exp(tau2) - 1).

    The conditional-variance excess relative to the mean; it governs how
    many quadrature nodes the pair densities need.  ``x`` is one
    covariate row, giving a scalar, or an (n, p+1) design matrix, giving
    the index of every row.
    """
    return np.exp(np.dot(x, params.beta) + 0.5 * params.tau2) * math.expm1(params.tau2)


def _log_factorial(y) -> np.ndarray:
    """log(y!) elementwise, as log-gamma of y + 1.

    ``math.lgamma`` runs once per distinct value; counts repeat heavily,
    so this is cheaper than a per-element call.
    """
    y = np.asarray(y, dtype=float)
    values, inverse = np.unique(y, return_inverse=True)
    table = np.array([math.lgamma(v + 1.0) for v in values.tolist()])
    return table[inverse].reshape(y.shape)


def poisson_log_pmf(y, log_mean):
    """Poisson log-pmf with the mean given on the log scale.

    Uses the log-gamma function, never factorials, so large counts are
    safe.  Overflowing means saturate to a log-pmf of -inf.
    """
    y = np.asarray(y)
    log_mean = np.asarray(log_mean, dtype=float)
    with np.errstate(over="ignore"):
        return y * log_mean - np.exp(log_mean) - _log_factorial(y)


# ---------------------------------------------------------------------------
# pair densities and the weighted pairwise likelihood

_LOG_PI = math.log(math.pi)


# Scratch budget of one kernel call, in pairs x q^2 cells.  Consecutive
# lag blocks share a call while their cells fit it, so a pass over a few
# small blocks pays the per-call cost of numpy once, not per block.
# 2^17 float64 cells are 1 MiB, half of a 2 MiB per-core L2: the exponent
# array stays in cache between the kernel's two matrix products.  A block
# larger than the budget runs alone.  Measured at 20 nodes: 2^18 merges
# the 194-pair blocks of the Greek d=5 design and slows its passes by about
# a quarter, while 2^16 splits a covariate-free pass into two calls.
_GROUP_CELLS = 1 << 17

# Floor of the kernel's shifted exponents (:func:`_fused_pairs`).  Below
# about -708 numpy's float64 exp leaves its vector path: 13-111 ns per
# element against about 1 ns (numpy 2.4.6 on a 2-vCPU Xeon VM).
_EXP_FLOOR = -700.0


def _weight_row(rule: QuadRule) -> np.ndarray:
    """Row 0 of the kernel grid, log w_j w_k - log pi at every cell
    (j, k) of the tensor rule; it depends on the rule alone."""
    logw = np.log(rule.weights)
    return (logw[:, None] + logw[None, :]).ravel() - _LOG_PI


def _pass_grid(nodes: np.ndarray, weight_row: np.ndarray, c: float, lags: int):
    """The node-side factors of the fused kernel for ``lags`` lags, with
    every row that does not depend on the latent correlation filled in.

    Cell (j, k) of the tensor Gauss-Hermite rule sits at the latent pair
    u_j = c x_j, v_jk = c (rho x_j + sqrt(1 - rho^2) x_k), with
    c = sqrt(2 tau2): the nodes mapped through the Cholesky factor of the
    latent covariance tau2 [[1, rho], [rho, 1]], so with c = 0 every cell
    sits at the origin.  With the weight row, this grid is the
    bivariate-normal rule: e^(row 0) are the probability weights
    w_j w_k / pi and rows 1 and 3 the latent points (u, v).
    A grid G (5, q^2) has rows
    [log w_j w_k - log pi, u, e^u, v, e^v], so a pair's row
    [1, y1, -e^eta1, y2, -e^eta2] times G is the log of its integrand at
    every cell, less the per-pair constant y1 eta1 + y2 eta2 - log y1! -
    log y2!.  A moment matrix M (q^2, 9) has columns
    [1, u, e^u, u e^u, v, e^v, v e^v, dv/drho, e^v dv/drho].  Both are
    always built: the kernel has one mode.  This returns ``lags`` slots
    of each, (lags, 5, q^2) and (lags, q^2, 9), one per lag block of a
    pass, with the weight row and everything of u set, which depend on
    tau2 alone; :func:`_set_lag_rows` writes the v rows of each block's
    correlation into its slot.
    """
    u = np.repeat(c * nodes, nodes.shape[0])
    grid = np.empty((lags, 5, u.shape[0]))
    moments = np.empty((lags, u.shape[0], 9))
    with np.errstate(over="ignore", invalid="ignore"):
        exp_u = np.exp(u)
        moments[:, :, :4] = np.column_stack([np.ones_like(u), u, exp_u, u * exp_u])
    grid[:, :3] = weight_row, u, exp_u
    return grid, moments


def _set_lag_rows(grids, moments, nodes: np.ndarray, c: float, rhos) -> None:
    """Write the rows of :func:`_pass_grid`'s factors that depend on the
    latent correlation: v, e^v and their moment columns, at correlation
    ``rhos[j]`` into slot j, for every lag of a pass at once."""
    lags = len(rhos)
    rho = np.array(rhos)[:, None, None]
    s = np.array([math.sqrt(1.0 - r * r) for r in rhos])[:, None, None]
    v = (c * (rho * nodes[:, None] + s * nodes[None, :])).reshape(lags, -1)
    dv = (c * (nodes[:, None] - (rho / s) * nodes[None, :])).reshape(lags, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        exp_v = np.exp(v)
        # straight into the factors, with no stacked temporary
        grids[:lags, 3] = v
        grids[:lags, 4] = exp_v
        moments[:lags, :, 4] = v
        moments[:lags, :, 5] = exp_v
        moments[:lags, :, 6] = v * exp_v
        moments[:lags, :, 7] = dv
        moments[:lags, :, 8] = dv * exp_v


def _lag_grid(rule: QuadRule, tau2: float, rho: float):
    """The grid and moment matrix of :func:`_pass_grid` at latent
    variance ``tau2`` and correlation ``rho``."""
    c = math.sqrt(2.0 * tau2)
    grid, moments = _pass_grid(rule.nodes, _weight_row(rule), c, 1)
    _set_lag_rows(grid, moments, rule.nodes, c, [rho])
    return grid[0], moments[0]


def _pair_group(y1, y2, lgam, sizes):
    """The inputs of one kernel call that no parameter changes: the
    counts ``y1``, ``y2`` as floats and the summed log-factorials
    ``lgam`` of consecutive lag blocks of ``sizes`` pairs each, the
    constant columns of the per-pair term matrix [1, y1, ., y2, .], and
    each block's row slice."""
    terms = np.zeros((y1.shape[0], 5))
    terms[:, 0] = 1.0
    terms[:, 1] = y1
    terms[:, 3] = y2
    ends = itertools.accumulate(sizes)
    slices = [slice(end - size, end) for size, end in zip(sizes, ends)]
    return {
        "y1": y1,
        "y2": y2,
        "lgam": lgam,
        "terms": terms,
        "sizes": np.array(sizes),
        "slices": slices,
    }


def _fused_pairs(group, eta1, eta2, grids, moments, out, failure):
    """Log densities (and score pieces) of the pairs of a group of lag
    blocks by two matrix products per block over one scratch array.

    ``group`` comes from :func:`_pair_group`, ``eta1``, ``eta2`` are the
    linear predictors of its pairs, and ``grids[j]``, ``moments[j]`` are
    the factors of :func:`_pass_grid` with the v rows of block j's lag
    written.  Only the two matrix products depend on the lag; each runs
    on its block's own rows, with the shapes a block alone would give.
    Everything elementwise runs once over the group.  ``out`` is a
    scratch array of at least (pairs, q^2) that first receives the
    integrand exponents and then, shifted by each row's maximum, their
    exponentials in place, so the pass allocates nothing of the grid's
    size.  ``failure(row)`` builds the exception raised when every term
    of a row underflows even in log space; the row is the group's
    first such row, so the earliest block's.

    Shifted exponents below ``_EXP_FLOOR`` = -700 are raised to it
    before the exponential, which keeps numpy's exp on its vector path
    (below about -708 it costs 10-100 times more per element).  This
    changes no bit of a finite result: a floored cell adds at most
    e^-700 times its moment to sums whose largest term, the row maximum's
    e^0 = 1, is far above that; ``np.maximum`` passes NaN on.  The
    floor runs only when some grid corner lies below it.  A cell's
    exponent is log w_j + log w_k plus one concave Poisson term in u_j and
    one in v_jk, each linear in the nodes, and the Gauss-Hermite log
    weights have decreasing slopes in the nodes, so every grid line is
    concave and each row's minimum sits at one of the four corners
    (j, k) in {0, q-1}^2.  Where the moments overflow (e^v beyond about
    1e280) a floored cell can turn a NaN score into an infinite one, or
    move a moment that large; only line-search trials far from any
    estimate reach there.

    Returns the log density of each pair and the (pairs, 4) derivatives
    of it with respect to eta1, eta2, log c and rho (c = sqrt(2 tau2)).
    The log density is read from column 0 of ``out @ moments``, the same
    normalising sum the derivatives divide by, so a loglik-only caller
    gets bit for bit the value the score pass reports.
    """
    y1, y2 = group["y1"], group["y2"]
    slices = group["slices"]
    out = out[: y1.shape[0]]
    sums = np.empty((y1.shape[0], 9))
    with np.errstate(over="ignore", invalid="ignore"):
        exp_eta1 = np.exp(eta1)
        exp_eta2 = np.exp(eta2)
        terms = group["terms"].copy()
        np.negative(exp_eta1, out=terms[:, 2])
        np.negative(exp_eta2, out=terms[:, 4])
        for rows, grid in zip(slices, grids):
            np.matmul(terms[rows], grid, out=out[rows])
        m = out.max(axis=1)
        bad = ~np.isfinite(m)
        if np.any(bad):
            raise failure(int(np.argmax(bad)))
        out -= m[:, None]
        q2 = out.shape[1]
        q = math.isqrt(q2)
        if out[:, [0, q - 1, q2 - q, q2 - 1]].min() < _EXP_FLOOR:
            np.maximum(out, _EXP_FLOOR, out=out)
        np.exp(out, out=out)
        constant = y1 * eta1 + y2 * eta2 - group["lgam"]
        for rows, moment in zip(slices, moments):
            np.matmul(out[rows], moment, out=sums[rows])
        total = sums[:, 0]
        mean = sums[:, 1:] / total[:, None]
        logp = m + np.log(total) + constant
        # moments that overflowed make a score non-finite, as the callers check
        s_u, s_eu, s_ueu, s_v, s_ev, s_vev, s_dv, s_dvev = mean.T
        derivs = np.empty((y1.shape[0], 4))
        derivs[:, 0] = y1 - exp_eta1 * s_eu
        derivs[:, 1] = y2 - exp_eta2 * s_ev
        derivs[:, 2] = (y1 * s_u - exp_eta1 * s_ueu) + (y2 * s_v - exp_eta2 * s_vev)
        derivs[:, 3] = y2 * s_dv - exp_eta2 * s_dvev
    return logp, derivs


def pair_log_density(
    y1: int,
    y2: int,
    x1: np.ndarray,
    x2: np.ndarray,
    lag: int,
    params: Params,
    rule: QuadRule,
) -> float:
    """Log joint density of two counts ``lag`` steps apart.

    The double integral over the latent pair is approximated with the
    tensor Gauss-Hermite rule mapped through the Cholesky factor of the
    latent covariance, and accumulated in log space (log-sum-exp over
    the full grid) so that large counts cannot underflow.  This is the
    kernel :class:`PairwiseEvaluator` runs, called for a group of one
    pair.  At tau2 = 0 the latent pair is a point mass at the origin,
    which the rule integrates exactly: the density is the product of two
    Poisson probabilities, up to rounding.

    When the two covariate rows are identical the arguments are ordered
    canonically first, which makes the exchange symmetry
    ``p(y1, y2) == p(y2, y1)`` hold exactly rather than only to
    quadrature accuracy.

    Raises
    ------
    NumericalFailure
        If every grid term underflows even in log space, or a mean
        e^eta overflows.
    """
    if lag < 1:
        raise ValueError("lag must be >= 1")
    if y1 < 0 or y2 < 0:
        raise ValueError("counts must be non-negative")
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)

    if np.array_equal(x1, x2) and y2 < y1:
        y1, y2 = y2, y1

    y = np.array([y1, y2], dtype=float)
    eta = np.array([np.dot(x1, params.beta), np.dot(x2, params.beta)])
    lgam = _log_factorial(y)
    grid, moments = _lag_grid(rule, params.tau2, params.phi**lag)
    logp, _ = _fused_pairs(
        _pair_group(y[:1], y[1:], lgam[:1] + lgam[1:], [1]), eta[:1], eta[1:],
        [grid], [moments], np.empty((1, grid.shape[1])),
        lambda _: NumericalFailure(
            f"pair density underflowed for counts ({y1}, {y2}) at lag {lag}", lag=lag
        ),
    )
    return float(logp[0])


def _weighted_per_t(pair_grads, n_pairs: int) -> np.ndarray:
    """Weighted per-time score terms from per-lag pair scores.

    ``pair_grads`` is a list of (lag, weight, (n_pairs, dim) scores) as
    :meth:`PairwiseEvaluator.pair_gradients` returns it; row t - m_d - 1
    of the result sums weight times the score of the pair (t - lag, t)
    over the lags, in list order, for t = m_d+1 .. n.
    """
    psi = np.zeros((n_pairs, pair_grads[0][2].shape[1]))
    for _, w_lag, grads in pair_grads:
        psi += w_lag * grads
    return psi


def _lex_groups(keys):
    """Group the rows of the key columns ``keys``, the last of which sorts
    first, as in ``np.lexsort``.

    Returns the index of each group's first row, groups in lexicographic
    order, and each row's group.  Keys compare by value, so -0.0 and 0.0
    fall in one group, and the sort is stable, so a group's first row is
    its lowest index: the groups and indices ``np.unique(..., axis=0,
    return_index=True, return_inverse=True)`` gives on the rows.
    """
    order = np.lexsort(keys)
    first = np.zeros(order.shape[0], dtype=bool)
    first[0] = True
    for key in keys:
        ranked = key[order]
        first[1:] |= ranked[1:] != ranked[:-1]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    return order[first], inverse


class PairwiseEvaluator:
    """Precomputed machinery for one (series, weights, rule) triple.

    Groups the lag-i pairs by their distinct (count, covariate) content
    so each distinct pair density is evaluated once per parameter value;
    on covariate-free data this collapses hundreds of pairs to a few
    dozen grid evaluations.  The grouping runs on integer ranks: the
    counts and the covariate rows are each ranked once, in lexicographic
    order, and each lag's pairs are grouped by a stable sort on the four
    rank columns (y1, y2, X1, X2) of their two time points
    (:func:`_lex_groups`).  Ranks keep the order of the values (-0.0 and
    0.0 share a rank), so the distinct pairs, their order and their
    first occurrences are those of ``np.unique(axis=0)`` on the float
    rows (y1, y2, X1, X2); no combined key is formed, so none can
    overflow.

    Each lag block of distinct pairs runs a fused kernel of two matrix
    products.  A (pairs, 5) matrix of per-pair terms times a (5, q^2)
    node grid gives every integrand exponent; the row maxima are
    subtracted and the exponentials taken in place; and the result times
    a (q^2, 9) matrix of node moments gives each pair's normalising sum
    and the posterior means the score needs.  The grid's log-weight row
    depends on the rule alone and is built with the evaluator; the rows
    of u = sqrt(2 tau2) x_j are built once per evaluation; only the rows
    of v, which depend on the lag through rho = phi^lag, differ per lag
    block, and each evaluation writes them for every lag at once, one
    slot per block (:func:`_pass_grid`, :func:`_set_lag_rows`).
    Shifted exponents are floored at ``_EXP_FLOOR`` = -700 before the
    exponential, where a grid corner shows that some fall below it: this
    keeps numpy's exp on its fast path at high dispersion and changes no
    bit of a finite result (:func:`_fused_pairs`).

    Consecutive lag blocks, in lag order, are packed into groups whose
    pairs x q^2 cells fit the scratch budget ``_GROUP_CELLS``, and the
    kernel runs once per group (:func:`_fused_pairs`): each block's two
    matrix products run on its own rows of the group, with its own slot
    of the pass's grids, and every elementwise step runs once over the
    group.  Blocks of a few dozen distinct pairs (covariate-free series)
    thus share one call; a block larger than the budget runs alone.  A
    group keeps its concatenated pairs, counts, log-factorials, constant
    term columns and covariate rows, so a pass rebuilds none of them.
    The only array of pairs x q^2 size is one scratch buffer, sized for
    the largest group, that each evaluation allocates once and every
    group reuses; the evaluator itself holds no mutable state, so all
    public methods are pure functions of the working parameters.  The
    loglik and score sum block by block in lag order and the per-t sums
    run in a fixed order, so results are bit-reproducible and do not
    depend on the grouping.  Every method runs the same pass,
    :meth:`_evaluate`, which returns the loglik, the score and the
    per-distinct-pair scores together; the methods differ only in what
    they return, so :meth:`loglik` is bit-equal to the loglik that
    :meth:`loglik_and_score` and :meth:`pair_gradients` (the fit path)
    report at the same point.

    ``log_sigma2 = -inf`` (tau2 = 0, the independence boundary) is a
    point like any other: every node maps to the origin and the tensor
    weights sum to one, so the kernel integrates the point mass exactly
    and gives Poisson-product densities, the coefficient scores of a
    Poisson regression, and zero scores for log sigma2 and z_phi, up to
    rounding.  A pair whose mean e^eta overflows raises a located
    :class:`NumericalFailure` there as everywhere.
    """

    def __init__(self, series: CountSeries, weights: PairWeights, rule: QuadRule):
        n = series.n
        if n <= weights.m_d:
            raise ValueError(f"series length {n} must exceed the window m_d = {weights.m_d}")
        self.series = series
        self.weights = weights
        self.rule = rule
        self.n = n
        self.m_d = weights.m_d
        self.n_pairs = n - weights.m_d
        self.n_coef = series.n_coef
        self.dim = series.n_coef + 2
        self._weight_row = _weight_row(rule)

        y = series.y
        y_first, y_rank = _lex_groups((y,))
        x_rank = _lex_groups(series.X.T[::-1])[1]  # column 0 sorts first
        lgam = _log_factorial(y[y_first])[y_rank]

        outer = np.arange(weights.m_d, n)  # 0-based positions of t = m_d+1 .. n
        self._blocks = []
        for lag, w_lag in zip(weights.lags, weights.w):
            idx2 = outer
            idx1 = outer - lag
            swap = (x_rank[idx1] == x_rank[idx2]) & (y[idx1] > y[idx2])
            a1 = np.where(swap, idx2, idx1)
            a2 = np.where(swap, idx1, idx2)
            rep, inverse = _lex_groups((x_rank[a2], x_rank[a1], y_rank[a2], y_rank[a1]))
            i1, i2 = a1[rep], a2[rep]
            self._blocks.append(
                {
                    "lag": int(lag),
                    "w": float(w_lag),
                    "i1": i1,
                    "i2": i2,
                    "y1": y[i1].astype(float),
                    "y2": y[i2].astype(float),
                    "lgam": lgam[i1] + lgam[i2],
                    "inverse": inverse,
                    "counts": np.bincount(inverse, minlength=rep.shape[0]).astype(float),
                }
            )
        q2 = self._weight_row.shape[0]
        runs, rows = [[]], 0
        for block in self._blocks:
            size = block["i1"].shape[0]
            if runs[-1] and (rows + size) * q2 > _GROUP_CELLS:
                runs.append([])
                rows = 0
            runs[-1].append(block)
            rows += size
        starts = itertools.accumulate([len(run) for run in runs[:-1]], initial=0)
        self._groups = [self._group(run, start) for run, start in zip(runs, starts)]
        self._max_rows = max(group["y1"].shape[0] for group in self._groups)

    def _group(self, blocks, start: int):
        """One kernel call's inputs for consecutive lag blocks, the first
        of which is lag block ``start`` of the evaluator."""

        def joined(key):
            return np.concatenate([block[key] for block in blocks])

        i1, i2 = joined("i1"), joined("i2")
        group = _pair_group(
            joined("y1"), joined("y2"), joined("lgam"), [block["i1"].shape[0] for block in blocks]
        )
        group.update(
            blocks=blocks,
            slots=slice(start, start + len(blocks)),
            i1=i1,
            i2=i2,
            X1=self.series.X[i1],
            X2=self.series.X[i2],
        )
        return group

    # -- core passes -------------------------------------------------------

    def _underflow(self, group, row: int) -> NumericalFailure:
        """The failure for row ``row`` of a group, the distinct pair of
        one of its blocks, located at the first time index that uses it."""
        j = next(j for j, rows in enumerate(group["slices"]) if row < rows.stop)
        block = group["blocks"][j]
        pos = int(np.nonzero(block["inverse"] == row - group["slices"][j].start)[0][0])
        lag = block["lag"]
        return NumericalFailure(
            f"pair density underflowed at t = {self.m_d + 1 + pos}, lag {lag}",
            time_index=self.m_d + 1 + pos,
            lag=lag,
        )

    def _evaluate(self, working: WorkingParams):
        """One kernel pass over every group of lag blocks.

        Returns the loglik, the score and, per lag, (lag, weight, scores)
        with one row of scores per distinct pair of the block, for
        :meth:`_expand` to spread to every pair of the series.
        """
        params = working.to_params()
        phi = params.phi
        c = math.sqrt(2.0 * params.tau2)
        nodes = self.rule.nodes
        eta = self.series.X @ params.beta
        buf = np.empty((self._max_rows, self._weight_row.shape[0]))
        lags = [block["lag"] for block in self._blocks]
        grids, moments = _pass_grid(nodes, self._weight_row, c, len(lags))
        _set_lag_rows(grids, moments, nodes, c, [phi**lag for lag in lags])
        drho_dz = np.array([lag * phi ** (lag - 1) * (1.0 - phi * phi) for lag in lags])
        n_coef = self.n_coef

        loglik = 0.0
        score = np.zeros(self.dim)
        block_grads = []
        for group in self._groups:
            slots = group["slots"]
            logp, derivs = _fused_pairs(
                group, eta[group["i1"]], eta[group["i2"]], grids[slots], moments[slots], buf,
                lambda row: self._underflow(group, row),
            )
            grads = np.empty((logp.shape[0], self.dim))
            with np.errstate(over="ignore", invalid="ignore"):  # an infinite score times 0
                grads[:, :n_coef] = derivs[:, :1] * group["X1"] + derivs[:, 1:2] * group["X2"]
                grads[:, n_coef] = 0.5 * derivs[:, 2]
                grads[:, n_coef + 1] = (
                    phi * derivs[:, 2] + drho_dz[slots].repeat(group["sizes"]) * derivs[:, 3]
                )
            for block, rows in zip(group["blocks"], group["slices"]):
                loglik += block["w"] * float(block["counts"] @ logp[rows])
                score += block["w"] * (block["counts"] @ grads[rows])
                block_grads.append((block["lag"], block["w"], grads[rows]))
        return loglik, score, block_grads

    def _expand(self, block_grads):
        """Per-lag scores of every pair from the per-distinct-pair scores
        of each block, as :meth:`_evaluate` returns them."""
        return [
            (lag, w_lag, grads[block["inverse"]])
            for block, (lag, w_lag, grads) in zip(self._blocks, block_grads)
        ]

    # -- public surface ----------------------------------------------------

    def loglik(self, working: WorkingParams) -> float:
        return self._evaluate(working)[0]

    def loglik_and_score(self, working: WorkingParams) -> tuple[float, np.ndarray]:
        """The loglik and its exact gradient in the working parameters
        (beta, log sigma2, atanh phi), differentiated through the fixed
        nodes, the Cholesky map and the log-sum-exp."""
        return self._evaluate(working)[:2]

    def pair_gradients(self, working: WorkingParams):
        """Log-likelihood plus, per lag, the (n_pairs, dim) matrix of
        per-pair score contributions (weight not applied)."""
        value, _, block_grads = self._evaluate(working)
        return value, self._expand(block_grads)

    def per_t_scores(self, working: WorkingParams) -> np.ndarray:
        """Weighted per-time score terms, one row per t = m_d+1 .. n;
        they sum to the score."""
        return _weighted_per_t(self.pair_gradients(working)[1], self.n_pairs)


def pairwise_loglik(
    series: CountSeries, params: Params, weights: PairWeights, rule: QuadRule
) -> float:
    """Weighted pairwise log-likelihood.

    Sums w_i * log p(y_{t-i}, y_t) over lags i and over t = m_d+1 .. n;
    pairs whose later member falls at or before m_d are excluded, which
    matches the indexing the variance theory assumes.  The value is that
    of :meth:`PairwiseEvaluator.loglik`, which runs the fit path's one
    grouped kernel (one call per group of consecutive lag blocks within
    the scratch budget, summed block by block in lag order), so it is
    bit-equal to the loglik a fit reports at the same point.
    ``sigma2 = 0`` (tau2 = 0) needs no special case: the
    evaluator integrates the point mass exactly, giving the weighted sum
    of Poisson-product log-likelihoods up to rounding.

    This builds a :class:`PairwiseEvaluator` for the one call.  For the
    score, the per-time scores, or repeated evaluations, build the
    evaluator once and call its methods.
    """
    return PairwiseEvaluator(series, weights, rule).loglik(params.to_working())
