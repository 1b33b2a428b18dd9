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


def marginal_moments(eta, tau2: float) -> tuple:
    """Mean and variance of the Poisson-lognormal law Poisson(exp(eta +
    u)), u ~ N(0, tau2), elementwise over a scalar or array ``eta``.

    The mean is exp(eta + tau2/2) and the variance m + m^2 * (exp(tau2) -
    1), always >= the mean.
    """
    mean = np.exp(eta + 0.5 * tau2)
    return mean, mean + mean * mean * math.expm1(tau2)


def dispersion_index(x: np.ndarray, params: Params) -> float | np.ndarray:
    """Dispersion index E(y) * (exp(tau2) - 1).

    The conditional-variance excess relative to the mean; it governs how
    many quadrature nodes the pair densities need.  ``x`` is one
    covariate row, giving a scalar, or an (n, p+1) design matrix, giving
    the index of every row.
    """
    return marginal_moments(np.dot(x, params.beta), params.tau2)[0] * math.expm1(params.tau2)


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


# Scratch budget of one group of lag blocks in the tensor kernel, in
# pairs x q^2 cells (:func:`_cell_groups`).  Consecutive blocks share the
# per-group elementwise work while their cells fit it, so a pass over a few
# small blocks pays the per-call cost of numpy once, not per block.
# 2^17 float64 cells are 1 MiB, half of a 2 MiB per-core L2: the exponent
# array stays in cache between the kernel's two matrix products.  A block
# larger than the budget runs alone.  Measured at 20 nodes: 2^18 merges
# the 194-pair blocks of the Greek d=5 design and slows its passes by about
# a quarter, while 2^16 splits a covariate-free pass into two calls.
_GROUP_CELLS = 1 << 17

# Floor of the kernel's shifted exponents (:func:`_fused_pairs`).  Below
# about -708 numpy's float64 exp leaves its vector path: 13-111 ns per
# element against about 1 ns (numpy 2.4.6 on a 2-vCPU Xeon VM).  A floored
# cell weighs at most q^2 e^-100 of its row's total, which is above
# ``_MIN_TOTAL``, so flooring changes no bit.
_EXP_FLOOR = -700.0

# Least sum of a row's exponentials under the closed-form shift of
# :func:`_fused_pairs`; a row at or below it (its bound sits more than
# about 600 above its grid, e.g. an outlying count at a tiny tau2) is rerun
# with its grid maximum as the shift.
_MIN_TOTAL = math.exp(-600.0)


def _log_peak(y):
    """sup over a of y a - e^a, elementwise: y log y - y, reached at
    a = log y, and 0 (as a -> -inf) at y = 0."""
    return y * (np.log(np.maximum(y, 1.0)) - 1.0)


def _pass_grid(rule: QuadRule, c: float, rhos):
    """The node-side factors of the fused kernel, one slot per latent
    correlation in ``rhos``: slot j holds the grid and moment matrix of
    the lag block whose correlation is ``rhos[j]``.

    Cell (j, k) of the tensor Gauss-Hermite rule sits at the latent pair
    u_j = c x_j, v_jk = c (rho x_j + sqrt(1 - rho^2) x_k), with
    c = sqrt(2 tau2): the nodes mapped through the Cholesky factor of the
    latent covariance tau2 [[1, rho], [rho, 1]], so with c = 0 every cell
    sits at the origin.  The grid is the bivariate-normal rule:
    e^(row 0) are the probability weights w_j w_k / pi and rows 1 and 3
    the latent points (u, v).  A grid G (6, q^2) has rows
    [log w_j w_k - log pi, u, e^u, v, e^v, 1], so a pair's row
    [1, y1, -e^eta1, y2, -e^eta2, -S] times G is the log of its integrand
    at every cell, less the per-pair constant y1 eta1 + y2 eta2 - log y1!
    - log y2! and shifted by S: the row of ones carries the kernel's
    log-sum-exp shift into the first product.  A moment matrix M (q^2, 9)
    has columns
    [1, u, e^u, u e^u, v, e^v, v e^v, dv/drho, e^v dv/drho].  Both are
    always built: the kernel has one mode.  This returns one slot of
    each per entry of ``rhos``, (len(rhos), 6, q^2) and (len(rhos), q^2,
    9).  Row 0 depends on the rule alone and everything of u on tau2
    alone; both are computed once for all slots.  v, e^v and their moment
    columns are computed for all slots in one vectorised step.
    """
    nodes, logw = rule.nodes, np.log(rule.weights)
    lags = len(rhos)
    u = np.repeat(c * nodes, nodes.shape[0])
    grid = np.empty((lags, 6, u.shape[0]))
    moments = np.empty((lags, u.shape[0], 9))
    with np.errstate(over="ignore", invalid="ignore"):
        exp_u = np.exp(u)
        moments[:, :, :4] = np.column_stack([np.ones_like(u), u, exp_u, u * exp_u])
    grid[:, :3] = (logw[:, None] + logw[None, :]).ravel() - _LOG_PI, u, exp_u
    grid[:, 5] = 1.0
    rho = np.array(rhos)[:, None, None]
    s = np.array([math.sqrt(1.0 - r * r) for r in rhos])[:, None, None]
    v = (c * (rho * nodes[:, None] + s * nodes[None, :])).reshape(lags, -1)
    dv = (c * (nodes[:, None] - (rho / s) * nodes[None, :])).reshape(lags, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        exp_v = np.exp(v)
        # straight into the factors, with no stacked temporary
        grid[:, 3] = v
        grid[:, 4] = exp_v
        moments[:, :, 4] = v
        moments[:, :, 5] = exp_v
        moments[:, :, 6] = v * exp_v
        moments[:, :, 7] = dv
        moments[:, :, 8] = dv * exp_v
    return grid, moments


def _cell_groups(first, q2):
    """Consecutive lag blocks grouped under the scratch budget: block j
    holds rows ``first[j] .. first[j+1] - 1`` of q2 cells each, and each
    slice of blocks returned shares one exponent buffer while its cells fit
    ``_GROUP_CELLS``.  A block larger than the budget is a group alone."""
    groups, start = [], 0
    for slot in range(1, len(first) - 1):
        if (first[slot + 1] - first[start]) * q2 > _GROUP_CELLS:
            groups.append(slice(start, slot))
            start = slot
    groups.append(slice(start, len(first) - 1))
    return groups


def _fused_pairs(rule: QuadRule, c: float, rhos, first, y1, y2, lgam, eta1, eta2):
    """Log densities and score pieces of every distinct pair of a tensor
    pass, by two matrix products per lag block.

    Lag block j holds rows ``first[j] .. first[j+1] - 1`` at latent
    correlation ``rhos[j]``, and c = sqrt(2 tau2) scales the nodes.
    ``y1``, ``y2`` hold the counts of the pairs, ``lgam`` each pair's
    summed log-factorials log y1! + log y2!, and ``eta1``, ``eta2`` the
    linear predictors of the pairs.  The kernel builds the pass's grid
    (:func:`_pass_grid`), the (pairs, 6) term matrix [1, y1, -e^eta1, y2,
    -e^eta2, -S] of the first product, and one scratch array for the
    largest group of :func:`_cell_groups`.  Only the two matrix products
    depend on the lag; each runs on its block's own rows, with the shapes a
    block alone would give.  A group's shifted integrand exponents fill the
    scratch and are replaced in place by their exponentials, so the pass
    allocates nothing of the grid's size per block.  Everything per row
    (e^eta, the shift, the log densities, the derivatives) runs once over
    the pass.

    The log-sum-exp shift S of a row is a closed-form upper bound of its
    exponents, not their maximum, so no pass over the grid finds it.  A
    cell's exponent is log w_j w_k - log pi + (y1 u - e^(eta1 + u)) +
    (y2 v - e^(eta2 + v)), and sup_u (y u - e^(eta + u)) is
    y (log y - eta) - y, or 0 at y = 0 (:func:`_log_peak` less y eta), so
    S = 2 max log w - log pi plus the two peaks bounds every cell: the
    exponentials cannot overflow.  A row whose sum of exponentials is not
    above ``_MIN_TOTAL`` = e^-600 (its bound far above its grid, e.g. an
    outlying count at a tiny tau2, or a non-finite row) is rerun within
    the call with its grid maximum as the shift, as a row maximum shift
    would run it.  A row whose grid maximum is not finite (every term
    underflows even in log space, or e^eta overflows) gives a non-finite
    log density; the caller decides what that means.

    Shifted exponents below ``_EXP_FLOOR`` = -700 are raised to it
    before the exponential, which keeps numpy's exp on its vector path
    (below about -708 it costs 10-100 times more per element).  This
    changes no bit of a finite result: a floored cell adds at most
    e^-700 times its moment to sums whose total is above e^-600 (the
    grid maximum's e^0 = 1 in a rerun row), so its share is at most
    q^2 e^-100, far below rounding; ``np.maximum`` passes NaN on.  For
    the same reason the grouping of lag blocks, which decides where the
    floor runs, changes no bit.  The floor runs on a group only when some
    grid corner of its rows lies below it.  A cell's exponent is log w_j +
    log w_k plus one concave Poisson term in u_j and one in v_jk, each
    linear in the nodes, and the Gauss-Hermite log weights have decreasing
    slopes in the nodes, so every grid line is concave and each row's
    minimum sits at one of the four corners (j, k) in {0, q-1}^2.  Where
    the moments overflow (e^v beyond about 1e280) a floored cell can turn
    a NaN score into an infinite one, or move a moment that large; only
    line-search trials far from any estimate reach there.

    Returns the log density of each pair and the (pairs, 4) derivatives
    of it with respect to eta1, eta2, log c and rho.  The log density is
    S plus the log of column 0 of the second product, the same normalising
    sum the derivatives divide by, plus the per-pair constant.
    """
    grids, moments = _pass_grid(rule, c, rhos)
    q2 = grids.shape[2]
    q = math.isqrt(q2)
    groups = _cell_groups(first, q2)
    scratch = np.empty((max(first[g.stop] - first[g.start] for g in groups), q2))
    sums = np.empty((y1.shape[0], 9))
    with np.errstate(over="ignore", invalid="ignore"):
        exp_eta1 = np.exp(eta1)
        exp_eta2 = np.exp(eta2)
        # filled in place: np.column_stack costs about 10 us more per call,
        # a few percent of a covariate-free pass
        terms = np.empty((y1.shape[0], 6))
        terms[:, 0], terms[:, 1], terms[:, 3] = 1.0, y1, y2
        np.negative(exp_eta1, out=terms[:, 2])
        np.negative(exp_eta2, out=terms[:, 4])
        y_eta = y1 * eta1 + y2 * eta2
        shift = grids[0, 0].max() + _log_peak(y1) + _log_peak(y2) - y_eta
        np.negative(shift, out=terms[:, 5])
        for group in groups:
            base = first[group.start]
            out = scratch[: first[group.stop] - base]
            blocks = [(j, slice(first[j], first[j + 1])) for j in range(group.start, group.stop)]
            for j, rows in blocks:
                np.matmul(terms[rows], grids[j], out=out[rows.start - base : rows.stop - base])
            if out[:, [0, q - 1, q2 - q, q2 - 1]].min() < _EXP_FLOOR:
                np.maximum(out, _EXP_FLOOR, out=out)
            np.exp(out, out=out)
            for j, rows in blocks:
                np.matmul(out[rows.start - base : rows.stop - base], moments[j], out=sums[rows])
        # rows whose bound sits far above their grid, shifted by its maximum
        rerun = np.flatnonzero(~(sums[:, 0] > _MIN_TOTAL))
        if rerun.size:  # skipped, the bookkeeping costs about 8 us per pass
            slots = np.searchsorted(first, rerun, side="right") - 1
            for j in set(slots.tolist()):
                rows = rerun[slots == j]
                out = terms[rows, :5] @ grids[j, :5]
                shift[rows] = top = out.max(axis=1)
                sums[rows] = np.exp(np.maximum(out - top[:, None], _EXP_FLOOR)) @ moments[j]
        total = sums[:, 0]
        mean = sums[:, 1:] / total[:, None]
        logp = shift + np.log(total) + (y_eta - lgam)
        # moments that overflowed make a score non-finite, as the callers check
        s_u, s_eu, s_ueu, s_v, s_ev, s_vev, s_dv, s_dvev = mean.T
        derivs = np.empty((y1.shape[0], 4))
        derivs[:, 0] = y1 - exp_eta1 * s_eu
        derivs[:, 1] = y2 - exp_eta2 * s_ev
        derivs[:, 2] = (y1 * s_u - exp_eta1 * s_ueu) + (y2 * s_v - exp_eta2 * s_vev)
        derivs[:, 3] = y2 * s_dv - exp_eta2 * s_dvev
    return logp, derivs


def _product_pairs(rule: QuadRule, c: float, y, lgam, eta, i1, i2):
    """What :func:`_fused_pairs` returns at latent correlation 0 for the
    pairs of time points ``i1``, ``i2``.

    At rho = 0 the latent pair (u, v) has independent N(0, tau2) members,
    and the cells of :func:`_pass_grid` sit at u = c x_j, v = c x_k with
    weights w_j w_k / pi: the tensor rule is the product of the 1-D rule
    in u with itself.  A pair's log density is then the sum of its two
    members' 1-D log integrals, and each posterior mean of the fused
    kernel the product of the members' 1-D means.  This runs the 1-D rule
    once per time t, over the (n, q) exponents log w_j - log(pi)/2 +
    y_t u_j - e^(eta_t) e^(u_j), giving the log integral, its derivatives
    in eta and (the member's share) in log c, and E[u], and gathers them
    at each pair's members.  The rho derivative keeps the fused kernel's
    form E[dv/drho] d/d eta2 with dv/drho = u_j there, the first member's
    nodes.  A member whose exponents have no finite maximum gives its
    pairs a non-finite log density.
    """
    u = c * rule.nodes
    with np.errstate(over="ignore", invalid="ignore"):
        exp_u = np.exp(u)
        exp_eta = np.exp(eta)
        expo = (np.log(rule.weights) - 0.5 * _LOG_PI) + y[:, None] * u - exp_eta[:, None] * exp_u
        m = expo.max(axis=1)
        sums = np.exp(expo - m[:, None]) @ np.column_stack([np.ones_like(u), u, exp_u, u * exp_u])
        s_u, s_eu, s_ueu = (sums[:, 1:] / sums[:, :1]).T
        logp = m + np.log(sums[:, 0]) + y * eta - lgam
        d_eta, d_logc = y - exp_eta * s_eu, y * s_u - exp_eta * s_ueu
        d_eta2 = d_eta[i2]
        derivs = np.column_stack([d_eta[i1], d_eta2, d_logc[i1] + d_logc[i2], s_u[i1] * d_eta2])
        return logp[i1] + logp[i2], derivs


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
    the full grid, shifted by a closed-form bound of the integrand, or by
    its grid maximum where that bound is far above the grid) so that
    large counts cannot underflow.  This is one
    call of the tensor kernel :class:`PairwiseEvaluator` runs at
    phi != 0, for a pass of one lag block of one pair (``first = [0,
    1]``); it stays on that kernel at phi = 0 too, where the evaluator
    runs the equal product of 1-D rules instead.
    At tau2 = 0 the latent pair is a point mass at the origin,
    which the rule integrates exactly: the density is the product of two
    Poisson probabilities, up to rounding.

    When the two covariate rows are identical the arguments are ordered
    canonically first, which makes the exchange symmetry
    ``p(y1, y2) == p(y2, y1)`` hold exactly rather than only to
    quadrature accuracy.

    Raises
    ------
    NumericalFailure
        If the log density is not finite: every grid term underflows even
        in log space, or a mean e^eta overflows.
    """
    if lag < 1:
        raise ValueError("lag must be >= 1")
    if y1 < 0 or y2 < 0:
        raise ValueError("counts must be non-negative")
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)

    if np.array_equal(x1, x2) and y2 < y1:
        y1, y2 = y2, y1

    with np.errstate(over="ignore"):  # an overflowing x'beta fails below
        eta = np.array([np.dot(x1, params.beta), np.dot(x2, params.beta)])
    lgam = _log_factorial([y1, y2])
    c = math.sqrt(2.0 * params.tau2)
    logp, _ = _fused_pairs(
        rule, c, [params.phi**lag], [0, 1], np.array([y1]), np.array([y2]),
        lgam[:1] + lgam[1:], eta[:1], eta[1:],
    )
    if not np.isfinite(logp[0]):
        raise NumericalFailure(
            f"pair density underflowed for counts ({y1}, {y2}) at lag {lag}", lag=lag
        )
    return float(logp[0])


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

    The pairs (t - lag, t), t = m_d+1 .. n, of each lag are grouped by
    their (count, covariate) content, so each distinct pair density is
    evaluated once per parameter value; on covariate-free data hundreds
    of pairs collapse to a few dozen.  The distinct pairs of every lag
    are the rows of one set of arrays, in lag order: lag slot i owns rows
    ``_first[i] .. _first[i+1] - 1``, ``_counts`` holds each row's
    multiplicity, and ``_pair_rows[i, t - m_d - 1]`` is the row of the
    pair (t - lag_i, t), the one index that expands per-row results to
    every pair.  Each row keeps its time points, counts (as floats),
    covariate rows and summed log-factorials, so a pass rebuilds none of
    them; the kernel builds each row's term matrix from the counts and
    the pass's linear predictors.  The grouping sorts stably on integer ranks of the
    counts and of the covariate rows (:func:`_lex_groups`), so the
    distinct pairs, their order and first occurrences are those of
    ``np.unique(axis=0)`` on the float rows (y1, y2, X1, X2), with -0.0
    equal to 0.0, and no combined key is formed that could overflow.

    The evaluator keeps only this pair layout.  A pass at phi != 0 is
    one call of the tensor kernel (:func:`_fused_pairs`) with the rows,
    the offsets ``_first`` and each lag's latent correlation; the kernel
    owns its grid, its grouping of lag blocks, its scratch and its
    log-sum-exp shift (a closed-form bound, with the grid maximum for the
    rows it overshoots).  The loglik and score sum slot by slot in lag
    order, so results are bit-reproducible and do not depend on the
    kernel's grouping.

    :meth:`evaluate` is the one pass, and the one public entry point to
    it: it returns the loglik, the score and one (rows, dim) array of
    scores, which :meth:`pair_scores` expands to every pair.
    :meth:`loglik` and :meth:`loglik_and_score` are views of it, so
    :meth:`loglik` is bit-equal to the loglik that
    :meth:`loglik_and_score` and the fit path report at the same point.
    Every reduction of the per-pair scores (the sensitivity and
    variability matrices, the per-time scores) lives in
    :mod:`pairpois.estimation`.  The evaluator holds no mutable state.

    ``log_sigma2 = -inf`` (tau2 = 0) is a point like any other: every
    node maps to the origin and the kernel integrates the point mass
    exactly, giving Poisson-product densities and zero scores for log
    sigma2 and z_phi, up to rounding.  At phi = 0 every lag's latent
    correlation is 0 and the tensor rule is exactly the product of two
    1-D rules, so the pass runs the 1-D rule once per time point
    (:func:`_product_pairs`); its sums, per-pair scores and failure
    locations are the tensor pass's up to rounding.  The kernels return
    values only: a pair whose log density is not finite (its terms all
    underflow, or e^eta overflows) makes :meth:`evaluate` raise a
    :class:`NumericalFailure` located at the first time index that uses
    it.
    """

    def __init__(self, series: CountSeries, weights: PairWeights, rule: QuadRule):
        n = series.n
        if n <= weights.m_d:
            raise ValueError(f"series length {n} must exceed the window m_d = {weights.m_d}")
        self.series = series
        self.rule = rule
        self.m_d = weights.m_d
        self.n_coef = series.n_coef
        self.dim = series.n_coef + 2

        y = series.y
        y_first, y_rank = _lex_groups((y,))
        x_rank = _lex_groups(series.X.T[::-1])[1]  # column 0 sorts first
        lgam = _log_factorial(y[y_first])[y_rank]
        self._lgam = lgam

        outer = np.arange(weights.m_d, n)  # 0-based positions of t = m_d+1 .. n
        self._lags, self._w = weights.lags.tolist(), weights.w.tolist()
        i1, i2, pair_rows, first = [], [], [], [0]
        for lag in self._lags:
            earlier = outer - lag
            swap = (x_rank[earlier] == x_rank[outer]) & (y[earlier] > y[outer])
            a1, a2 = np.where(swap, outer, earlier), np.where(swap, earlier, outer)
            rep, inverse = _lex_groups((x_rank[a2], x_rank[a1], y_rank[a2], y_rank[a1]))
            i1.append(a1[rep])
            i2.append(a2[rep])
            pair_rows.append(first[-1] + inverse)
            first.append(first[-1] + rep.shape[0])
        self._first = first
        self._pair_rows = np.stack(pair_rows)
        self._counts = np.bincount(self._pair_rows.ravel(), minlength=first[-1]).astype(float)
        self._i1, self._i2 = np.concatenate(i1), np.concatenate(i2)
        self._X1, self._X2 = series.X[self._i1], series.X[self._i2]
        self._y1, self._y2 = y[self._i1].astype(float), y[self._i2].astype(float)
        self._pair_lgam = lgam[self._i1] + lgam[self._i2]

    # -- core passes -------------------------------------------------------

    def _underflow(self, row: int) -> NumericalFailure:
        """The failure for row ``row`` of the pass, the distinct pair of
        one lag block, located at the first time index that uses it."""
        slot = int(np.searchsorted(self._first, row, side="right")) - 1
        pos = int(np.argmax(self._pair_rows[slot] == row))
        lag = self._lags[slot]
        return NumericalFailure(
            f"pair density underflowed at t = {self.m_d + 1 + pos}, lag {lag}",
            time_index=self.m_d + 1 + pos,
            lag=lag,
        )

    def evaluate(self, working: WorkingParams) -> tuple[float, np.ndarray, np.ndarray]:
        """One kernel call over every distinct pair: the tensor kernel
        (:func:`_fused_pairs`), or the product of 1-D rules at phi = 0
        (:func:`_product_pairs`).

        Returns ``(loglik, score, grads)``: the weighted pairwise loglik,
        its exact gradient in the working parameters (beta, log sigma2,
        atanh phi), differentiated through the fixed nodes, the Cholesky
        map and the log-sum-exp, and the (distinct pairs, dim) scores of
        the pass's rows, weight not applied, which :meth:`pair_scores`
        spreads to every pair of the series.  This is the one place a
        non-finite pair log density becomes a :class:`NumericalFailure`:
        it is raised for the first such row, so the earliest lag block's,
        located by :meth:`_underflow`, before the scores are assembled.
        """
        params = working.to_params()
        phi = params.phi
        c = math.sqrt(2.0 * params.tau2)
        with np.errstate(over="ignore"):  # an overflowing X beta is raised below, located
            eta = self.series.X @ params.beta
        first = self._first
        if phi == 0.0:
            logp, derivs = _product_pairs(
                self.rule, c, self.series.y, self._lgam, eta, self._i1, self._i2
            )
        else:
            logp, derivs = _fused_pairs(
                self.rule, c, [phi**lag for lag in self._lags], first, self._y1, self._y2,
                self._pair_lgam, eta[self._i1], eta[self._i2],
            )
        bad = ~np.isfinite(logp)
        if np.any(bad):
            raise self._underflow(int(np.argmax(bad)))
        drho_dz = np.array([lag * phi ** (lag - 1) * (1.0 - phi * phi) for lag in self._lags])
        drho_dz = drho_dz.repeat(np.diff(first))
        n_coef = self.n_coef
        grads = np.empty((logp.shape[0], self.dim))
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite score times 0
            grads[:, :n_coef] = derivs[:, :1] * self._X1 + derivs[:, 1:2] * self._X2
            grads[:, n_coef] = 0.5 * derivs[:, 2]
            grads[:, n_coef + 1] = phi * derivs[:, 2] + drho_dz * derivs[:, 3]

        loglik = 0.0
        score = np.zeros(self.dim)
        for slot, w_lag in enumerate(self._w):
            rows = slice(first[slot], first[slot + 1])
            counts = self._counts[rows]
            loglik += w_lag * float(counts @ logp[rows])
            score += w_lag * (counts @ grads[rows])
        return loglik, score, grads

    def pair_scores(self, grads: np.ndarray) -> np.ndarray:
        """The (lags, n - m_d, dim) scores of every pair (t - lag, t),
        t = m_d+1 .. n, from the per-distinct-pair ``grads`` of
        :meth:`evaluate` (weight not applied): row t - m_d - 1 of slot i
        is the score of the pair (t - lag_i, t)."""
        return grads[self._pair_rows]

    def loglik(self, working: WorkingParams) -> float:
        """The loglik of :meth:`evaluate`."""
        return self.evaluate(working)[0]

    def loglik_and_score(self, working: WorkingParams) -> tuple[float, np.ndarray]:
        """The loglik and score of :meth:`evaluate`."""
        return self.evaluate(working)[:2]


def pairwise_loglik(
    series: CountSeries, params: Params, weights: PairWeights, rule: QuadRule
) -> float:
    """Weighted pairwise log-likelihood.

    Sums w_i * log p(y_{t-i}, y_t) over lags i and over t = m_d+1 .. n;
    pairs whose later member falls at or before m_d are excluded, which
    matches the indexing the variance theory assumes.  The value is that
    of :meth:`PairwiseEvaluator.loglik`, which runs the fit path's one
    kernel call per pass (summed block by block in lag order), so it is
    bit-equal to the loglik a fit reports at the same point.
    ``sigma2 = 0`` (tau2 = 0) needs no special case: the
    evaluator integrates the point mass exactly, giving the weighted sum
    of Poisson-product log-likelihoods up to rounding.  At ``phi = 0`` the
    evaluator runs the product of two 1-D rules, which is the tensor rule
    exactly there because the latent pair is uncorrelated at every lag.

    This builds a :class:`PairwiseEvaluator` for the one call.  For the
    score, the per-pair scores, or repeated evaluations, build the
    evaluator once and call :meth:`PairwiseEvaluator.evaluate`.
    """
    return PairwiseEvaluator(series, weights, rule).loglik(params.to_working())
