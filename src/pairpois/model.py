"""Latent AR(1) Poisson count model.

Counts y_t are conditionally Poisson with log-mean x_t'beta + u_t, where
u_t is an unobserved stationary Gaussian AR(1) process with innovation
variance sigma2 and autoregression phi.  This module holds the parameter
containers, the closed-form marginal moments, the Gauss-Hermite pair
densities, and the weighted pairwise log-likelihood with its analytic
score on the unconstrained (working) scale.
"""
from __future__ import annotations

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


def _weight_row(rule: QuadRule) -> np.ndarray:
    """Row 0 of the kernel grid, log w_j w_k - log pi at every cell
    (j, k) of the tensor rule; it depends on the rule alone."""
    logw = np.log(rule.weights)
    return (logw[:, None] + logw[None, :]).ravel() - _LOG_PI


def _pass_grid(nodes: np.ndarray, weight_row: np.ndarray, c: float):
    """The node-side factors of the fused kernel, with every row that
    does not depend on the latent correlation filled in.

    Cell (j, k) of the tensor Gauss-Hermite rule sits at the latent pair
    u_j = c x_j, v_jk = c (rho x_j + sqrt(1 - rho^2) x_k), with
    c = sqrt(2 tau2): the nodes mapped through the Cholesky factor of the
    latent covariance tau2 [[1, rho], [rho, 1]], so with c = 0 every cell
    sits at the origin.  With the weight row, this grid is the
    bivariate-normal rule: e^(row 0) are the probability weights
    w_j w_k / pi and rows 1 and 3 the latent points (u, v).
    The grid G (5, q^2) has rows
    [log w_j w_k - log pi, u, e^u, v, e^v], so a pair's row
    [1, y1, -e^eta1, y2, -e^eta2] times G is the log of its integrand at
    every cell, less the per-pair constant y1 eta1 + y2 eta2 - log y1! -
    log y2!.  The moment matrix M (q^2, 9) has columns
    [1, u, e^u, u e^u, v, e^v, v e^v, dv/drho, e^v dv/drho].  Both are
    always built: the kernel has one mode.  This sets the weight row and
    everything of u, which depend on tau2 alone;
    :func:`_set_lag_rows` writes the v rows of one correlation over them.
    """
    u = np.repeat(c * nodes, nodes.shape[0])
    grid = np.empty((5, u.shape[0]))
    moments = np.empty((u.shape[0], 9))
    with np.errstate(over="ignore", invalid="ignore"):
        exp_u = np.exp(u)
        moments[:, :4] = np.column_stack([np.ones_like(u), u, exp_u, u * exp_u])
    grid[:3] = weight_row, u, exp_u
    return grid, moments


def _set_lag_rows(grid, moments, nodes: np.ndarray, c: float, rho: float) -> None:
    """Write the rows of :func:`_pass_grid`'s factors that depend on the
    latent correlation ``rho``: v, e^v and their moment columns."""
    s = math.sqrt(1.0 - rho * rho)
    v = (c * (rho * nodes[:, None] + s * nodes[None, :])).ravel()
    dv = (c * (nodes[:, None] - (rho / s) * nodes[None, :])).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        exp_v = np.exp(v)
        # column by column, with no stacked temporary: this runs per lag block
        grid[3] = v
        grid[4] = exp_v
        moments[:, 4] = v
        moments[:, 5] = exp_v
        moments[:, 6] = v * exp_v
        moments[:, 7] = dv
        moments[:, 8] = dv * exp_v


def _lag_grid(rule: QuadRule, tau2: float, rho: float):
    """The grid and moment matrix of :func:`_pass_grid` at latent
    variance ``tau2`` and correlation ``rho``."""
    c = math.sqrt(2.0 * tau2)
    grid, moments = _pass_grid(rule.nodes, _weight_row(rule), c)
    _set_lag_rows(grid, moments, rule.nodes, c, rho)
    return grid, moments


def _fused_pairs(y1, y2, eta1, eta2, lgam, grid, moments, out, failure):
    """Log densities (and score pieces) of a set of pairs by two matrix
    products over one scratch array.

    ``y1``, ``y2`` are the counts as floats, ``eta1``, ``eta2`` the linear
    predictors and ``lgam`` the summed log-factorials of each pair;
    ``grid`` and ``moments`` come from :func:`_pass_grid`.  ``out`` is a
    (pairs, q^2) scratch array that first receives the integrand exponents
    and then, shifted by each row's maximum, their exponentials in place,
    so the pass allocates nothing of the grid's size.  ``failure(row)``
    builds the exception raised when every term of a row underflows even
    in log space.

    Returns the log density of each pair and the (pairs, 4) derivatives
    of it with respect to eta1, eta2, log c and rho (c = sqrt(2 tau2)).
    The log density is read from column 0 of ``out @ moments``, the same
    normalising sum the derivatives divide by, so a loglik-only caller
    gets bit for bit the value the score pass reports.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        exp_eta1 = np.exp(eta1)
        exp_eta2 = np.exp(eta2)
        np.matmul(
            np.column_stack([np.ones_like(y1), y1, -exp_eta1, y2, -exp_eta2]), grid, out=out
        )
        m = out.max(axis=1)
        bad = ~np.isfinite(m)
        if np.any(bad):
            raise failure(int(np.argmax(bad)))
        out -= m[:, None]
        np.exp(out, out=out)
        constant = y1 * eta1 + y2 * eta2 - lgam
        sums = out @ moments
        total = sums[:, 0]
        mean = sums[:, 1:] / total[:, None]
        logp = m + np.log(total) + constant
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
    kernel :class:`PairwiseEvaluator` runs, called for one pair.  At
    tau2 = 0 the latent pair is a point mass at the origin, which the
    rule integrates exactly: the density is the product of two Poisson
    probabilities, up to rounding.

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
        y[:1], y[1:], eta[:1], eta[1:], lgam[:1] + lgam[1:], grid, moments,
        np.empty((1, grid.shape[1])),
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
    of v, which depend on the lag through rho = phi^lag, are built per
    lag block (:func:`_pass_grid`, :func:`_set_lag_rows`).  The only
    array of pairs x q^2 size is one scratch buffer, sized for the
    largest block, that each evaluation allocates once and every block
    reuses; the evaluator itself holds no mutable state, so all public
    methods are pure functions of the working parameters.  The per-t
    sums run in a fixed order, so results are bit-reproducible.  Every
    method runs the same pass, :meth:`_evaluate`, which returns the
    loglik, the score and the per-distinct-pair scores together; the
    methods differ only in what they return, so :meth:`loglik` is
    bit-equal to the loglik that :meth:`loglik_and_score` and
    :meth:`pair_gradients` (the fit path) report at the same point.

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
        self._max_block = max(block["i1"].shape[0] for block in self._blocks)

    # -- core passes -------------------------------------------------------

    def _underflow(self, block, row: int) -> NumericalFailure:
        """The failure for distinct pair ``row`` of a block, located at the
        first time index that uses it."""
        pos = int(np.nonzero(block["inverse"] == row)[0][0])
        lag = block["lag"]
        return NumericalFailure(
            f"pair density underflowed at t = {self.m_d + 1 + pos}, lag {lag}",
            time_index=self.m_d + 1 + pos,
            lag=lag,
        )

    def _block_terms(self, block, eta, buf, grid, moments, c, phi):
        """Log density and working-scale gradient pieces for the distinct
        pairs of one lag block; ``grid`` and ``moments`` are the pass's
        factors, whose v rows this writes for the block's lag."""
        X = self.series.X
        i1, i2 = block["i1"], block["i2"]
        lag = block["lag"]
        _set_lag_rows(grid, moments, self.rule.nodes, c, phi**lag)
        logp, derivs = _fused_pairs(
            block["y1"], block["y2"], eta[i1], eta[i2], block["lgam"], grid, moments,
            buf[: i1.shape[0]], lambda row: self._underflow(block, row),
        )
        drho_dz = lag * phi ** (lag - 1) * (1.0 - phi * phi)
        grads = np.empty((i1.shape[0], self.dim))
        grads[:, : self.n_coef] = derivs[:, :1] * X[i1] + derivs[:, 1:2] * X[i2]
        grads[:, self.n_coef] = 0.5 * derivs[:, 2]
        grads[:, self.n_coef + 1] = phi * derivs[:, 2] + drho_dz * derivs[:, 3]
        return logp, grads

    def _evaluate(self, working: WorkingParams):
        """One kernel pass over every lag block.

        Returns the loglik, the score and, per lag, (lag, weight, scores)
        with one row of scores per distinct pair of the block, for
        :meth:`_expand` to spread to every pair of the series.
        """
        params = working.to_params()
        phi = params.phi
        c = math.sqrt(2.0 * params.tau2)
        eta = self.series.X @ params.beta
        buf = np.empty((self._max_block, self._weight_row.shape[0]))
        grid, moments = _pass_grid(self.rule.nodes, self._weight_row, c)

        loglik = 0.0
        score = np.zeros(self.dim)
        block_grads = []
        for block in self._blocks:
            logp, grads = self._block_terms(block, eta, buf, grid, moments, c, phi)
            loglik += block["w"] * float(block["counts"] @ logp)
            score += block["w"] * (block["counts"] @ grads)
            block_grads.append((block["lag"], block["w"], grads))
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
    kernel mode, so it is bit-equal to the loglik a fit reports at the
    same point.  ``sigma2 = 0`` (tau2 = 0) needs no special case: the
    evaluator integrates the point mass exactly, giving the weighted sum
    of Poisson-product log-likelihoods up to rounding.

    This builds a :class:`PairwiseEvaluator` for the one call.  For the
    score, the per-time scores, or repeated evaluations, build the
    evaluator once and call its methods.
    """
    return PairwiseEvaluator(series, weights, rule).loglik(params.to_working())
