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
        if y.dtype.kind not in "bi":
            # text, NaN, inf and values beyond int64 would parse, warn or overflow in the cast
            if y.dtype.kind not in "fuO" or not np.all((y >= -(2**63)) & (y < 2**63)):
                raise ValueError("counts must be integers")
            y_int = y.astype(np.int64)
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


# Floor of the kernel's shifted exponents (:class:`_TensorKernel`).  Below
# about -708 numpy's float64 exp leaves its vector path: 13-111 ns per
# element against about 1 ns (numpy 2.4.6 on a 2-vCPU Xeon VM).  A floored
# cell weighs at most q^2 e^-100 of its row's total, which is above
# ``_MIN_TOTAL``, so flooring changes no bit.
_EXP_FLOOR = -700.0

# Least sum of a row's exponentials under the closed-form shift of
# :class:`_TensorKernel`; a row at or below it (its bound sits more than
# about 600 above its grid, e.g. an outlying count at a tiny tau2) is rerun
# with its grid maximum as the shift.
_MIN_TOTAL = math.exp(-600.0)


def _log_peak(y):
    """sup over a of y a - e^a, elementwise: y log y - y, reached at
    a = log y, and 0 (as a -> -inf) at y = 0."""
    return y * (np.log(np.maximum(y, 1.0)) - 1.0)


class _TensorKernel:
    """The tensor Gauss-Hermite kernel of one pair layout: its buffers,
    its grid (:meth:`grid`) and its pass (calling it).

    Lag block j holds rows ``first[j] .. first[j+1] - 1``; ``y`` holds the
    counts y1, y2 of the pairs' two members, (2, pairs), and ``lgam``
    their log-factorials, (2, pairs).  The constructor fills what the rule
    and the counts alone set, once: x_j of every cell (j, k), cell j q + k,
    in every lag slot; the (8, lags, q^2) column buffer of :meth:`grid`;
    the grid slots (lags, 6, q^2) with rows 0 and 5 and the moment slots
    (lags, q^2, 9) with column 0; the (pairs, 6) term matrix [1, y1,
    -e^eta1, y2, -e^eta2, -S] with its columns 1, y1 and y2; each row's
    summed log-factorials log y1! + log y2! and its count part
    2 max log w - log pi + peak(y1) + peak(y2) of the bound S
    (:func:`_log_peak`); the (pairs, 9) sums; one exponent scratch of the
    largest block's rows; and per block its first row and the views that
    its two matrix products and its corner check read and write.  A pass
    overwrites everything else before it reads it, so no result depends on
    an earlier pass.
    """

    def __init__(self, rule: QuadRule, first, y, lgam):
        self.nodes, self.y, self.lgam = rule.nodes, y, lgam[0] + lgam[1]
        q, lags, logw = rule.nodes.shape[0], len(first) - 1, np.log(rule.weights)
        self.xj = np.tile(np.repeat(rule.nodes, q), (lags, 1))
        self.cols = np.empty((8, lags, q * q))
        self.cells = self.cols.reshape(8, lags, q, q)
        self.grids, self.moments = np.empty((lags, 6, q * q)), np.empty((lags, q * q, 9))
        self.grids[:, 0] = (logw[:, None] + logw[None, :]).ravel() - _LOG_PI
        self.grids[:, 5] = self.moments[:, :, 0] = 1.0
        self.terms = np.empty((y.shape[1], 6))
        self.terms[:, 0], self.terms[:, 1], self.terms[:, 3] = 1.0, y[0], y[1]
        self.bound = self.grids[0, 0].max() + _log_peak(y[0]) + _log_peak(y[1])
        self.sums = np.empty((y.shape[1], 9))
        scratch = np.empty((max(np.diff(first)), q * q))
        s = max(q - 1, 1)  # cells (j, k) with j, k in {0, q-1}: the grid corners
        self.blocks = []
        for j in range(lags):
            start, stop = first[j], first[j + 1]
            exps = scratch[: stop - start]
            self.blocks.append((start, self.terms[start:stop], self.grids[j], exps,
                                exps.reshape(-1, q, q)[:, ::s, ::s], self.moments[j],
                                self.sums[start:stop]))

    def grid(self, c: float, rhos):
        """The node-side factors of the kernel, one slot per latent
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
        each per lag block, (lags, 6, q^2) and (lags, q^2, 9), C-contiguous
        per slot; ``rhos`` has one entry per lag block.

        The slots are the kernel's own, overwritten in place.  Rows 0 and 5
        and column 0 depend on the rule alone and are not touched.  Every
        slot's eight columns that depend on tau2 and rho are computed as
        rows of one (8, lags, q^2) buffer, a few whole-buffer calls in all,
        and copied into the slots by three transposing copies: numpy runs a
        call on contiguous rows at a fraction of the cost of one that writes
        a strided moment column.
        """
        xj, cols, cells, grid, moments = self.xj, self.cols, self.cells, self.grids, self.moments
        s = [math.sqrt(1.0 - r * r) for r in rhos]
        with np.errstate(over="ignore", invalid="ignore"):
            # rho x_j, s x_k and (rho / s) x_k of every slot and cell, held in the
            # rows of e^u, u e^u and e^v until those are written
            scaled = np.array([rhos, s, [r / t for r, t in zip(rhos, s)]])[:, :, None] * self.nodes
            cells[1] = scaled[0, :, :, None]
            cells[2:5:2] = scaled[1:, :, None, :]
            np.add(cols[1], cols[2], out=cols[3])
            np.subtract(xj, cols[4], out=cols[6])
            np.multiply(c, xj, out=cols[0])  # u
            np.multiply(c, cols[3:7:3], out=cols[3:7:3])  # v and dv/drho
            np.exp(cols[0:4:3], out=cols[1:5:3])
            np.multiply(cols[0:4:3], cols[1:5:3], out=cols[2:6:3])
            np.multiply(cols[6], cols[4], out=cols[7])
        grid[:, 1:3] = cols[0:2].transpose(1, 0, 2)
        grid[:, 3:5] = cols[3:5].transpose(1, 0, 2)
        moments[:, :, 1:] = cols.transpose(1, 2, 0)
        return grid, moments

    def __call__(self, c: float, rhos, eta):
        """Log densities and score pieces of every distinct pair of a tensor
        pass, by two matrix products per lag block.

        Lag block j is at latent correlation ``rhos[j]``, c = sqrt(2 tau2)
        scales the nodes, and ``eta`` holds the linear predictors eta1, eta2
        of the pairs' two members, (2, pairs).  A pass fills only what tau2
        and phi change: the grid and moment entries of u and v
        (:meth:`grid`) and the term columns -e^eta1, -e^eta2 and -S.  Only
        the two matrix products depend on the lag.  Each block runs alone on
        its own rows: its shifted integrand exponents fill the one scratch
        and are replaced in place by their exponentials, which the second
        product reads, so the pass allocates nothing of the grid's size.
        Everything per row (e^eta, the shift, the log densities, the
        derivatives) runs once over the pass, on both members at once where
        the two members' terms have one form.

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
        q^2 e^-100, far below rounding; ``np.maximum`` passes NaN on.  The
        floor runs on a block only when some grid corner of its rows lies
        below it, read through a strided view of the block's exponents.  A
        cell's exponent is log w_j + log w_k plus one concave Poisson term in
        u_j and one in v_jk, each linear in the nodes, and the Gauss-Hermite
        log weights have decreasing slopes in the nodes, so every grid line
        is concave and each row's minimum sits at one of the four corners
        (j, k) in {0, q-1}^2.  Where the moments overflow (e^v beyond about
        1e280) a floored cell can turn a NaN score into an infinite one, or
        move a moment that large; only line-search trials far from any
        estimate reach there.

        Returns the log density of each pair and the (pairs, 4) derivatives
        of it with respect to eta1, eta2, log c and rho.  The log density is
        S plus the log of column 0 of the second product, the same normalising
        sum the derivatives divide by, plus the per-pair constant.
        """
        self.grid(c, rhos)
        y, terms, sums = self.y, self.terms, self.sums
        with np.errstate(over="ignore", invalid="ignore"):
            exp_eta = np.exp(eta)
            np.negative(exp_eta.T, out=terms[:, 2:5:2])
            y_eta = y * eta
            y_eta = y_eta[0] + y_eta[1]
            shift = self.bound - y_eta
            np.negative(shift, out=terms[:, 5])
            for _, block_terms, grid, exps, corner, moment, block_sums in self.blocks:
                np.matmul(block_terms, grid, out=exps)
                if corner.min() < _EXP_FLOOR:
                    np.maximum(exps, _EXP_FLOOR, out=exps)
                np.exp(exps, out=exps)
                np.matmul(exps, moment, out=block_sums)
            # rows whose bound sits far above their grid, shifted by its maximum
            if not sums[:, 0].min() > _MIN_TOTAL:  # one reduction when no row reruns
                for start, block_terms, grid, _, _, moment, block_sums in self.blocks:
                    rows = np.flatnonzero(~(block_sums[:, 0] > _MIN_TOTAL))
                    out = block_terms[rows, :5] @ grid[:5]
                    shift[start + rows] = top = out.max(axis=1)
                    block_sums[rows] = np.exp(np.maximum(out - top[:, None], _EXP_FLOOR)) @ moment
            total = sums[:, 0]
            mean = sums[:, 1:] / total[:, None]
            logp = shift + np.log(total) + (y_eta - self.lgam)
            # moments that overflowed make a score non-finite, as the callers check;
            # E[x], E[e^x] and E[x e^x] of each member (x = u, v), member by row
            member = mean[:, :6].reshape(-1, 2, 3).transpose(2, 1, 0)
            derivs = np.empty((y.shape[1], 4))
            np.subtract(y, exp_eta * member[1], out=derivs[:, :2].T)
            d_logc = y * member[0] - exp_eta * member[2]
            np.add(d_logc[0], d_logc[1], out=derivs[:, 2])
            np.subtract(y[1] * mean[:, 6], exp_eta[1] * mean[:, 7], out=derivs[:, 3])
        return logp, derivs


def _product_pairs(rule: QuadRule, c: float, y, lgam, eta, i1, i2):
    """What a :class:`_TensorKernel` pass returns at latent correlation 0
    for the pairs of time points ``i1``, ``i2``.

    At rho = 0 the latent pair (u, v) has independent N(0, tau2) members,
    and the cells of :meth:`_TensorKernel.grid` sit at u = c x_j, v = c x_k with
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
    large counts cannot underflow.  This builds the tensor kernel
    :class:`PairwiseEvaluator` runs at phi != 0 for one lag block of one
    pair (``first = [0, 1]``) and calls it once; it stays on that kernel
    at phi = 0 too, where the evaluator runs the equal product of 1-D
    rules instead.
    At tau2 = 0 the latent pair is a point mass at the origin,
    which the rule integrates exactly: the density is the product of two
    Poisson probabilities, up to rounding.

    When the two covariate rows are identical the arguments are ordered
    canonically first, which makes the exchange symmetry
    ``p(y1, y2) == p(y2, y1)`` hold exactly rather than only to
    quadrature accuracy.

    Raises
    ------
    ValueError
        If a count or the lag is not an integer (Python or numpy, not
        ``bool``), a count is negative or the lag is below 1.
    NumericalFailure
        If the log density is not finite: every grid term underflows even
        in log space, or a mean e^eta overflows.
    """
    for name, value in (("count y1", y1), ("count y2", y2), ("lag", lag)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    y1, y2, lag = int(y1), int(y2), int(lag)
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
    y = np.array([[y1], [y2]], dtype=float)
    kernel = _TensorKernel(rule, [0, 1], y, _log_factorial(y))
    logp, _ = kernel(math.sqrt(2.0 * params.tau2), [params.phi**lag], eta[:, None])
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
    ``_first[i] .. _first[i+1] - 1``, ``_row_slot`` holds each row's lag
    slot, ``_slots`` each slot's weight, rows and row multiplicities, and
    ``_pair_rows[i, t - m_d - 1]`` is the row of the pair (t - lag_i, t),
    the one index that expands per-row results to every pair.  Each row
    keeps its two time points (``_members``, (2, rows)), and the
    covariate rows of both are taken once; the kernel builds each row's
    term matrix from the counts and the pass's linear predictors.  One
    stable sort (:func:`_lex_groups`) groups the pairs of every lag at
    once, keyed by the lag slot, which sorts first, then the counts and
    integer ranks r1, r2 of the covariate rows, and the whole layout is
    read from that one grouping.  The two ranks, each below n, form one
    key r1 n + r2 below n^2, which cannot overflow int64 for n < 3e9.  An
    equal pair of another lag never shares a row, and within each slot the
    distinct pairs, their order and first occurrences are those of
    ``np.unique(axis=0)`` on the float rows (y1, y2, X1, X2), with -0.0
    equal to 0.0.

    The evaluator keeps this pair layout and one tensor kernel
    (:class:`_TensorKernel`), built at its first pass at phi != 0, so a
    fit that runs only at phi = 0 builds none.  A pass at phi != 0 is one
    call of the kernel with each lag's latent correlation; the kernel
    fills the grid entries of the pass's tau2 and phi, runs the lag blocks
    one at a time, and takes its log-sum-exp shift (a closed-form bound,
    with the grid maximum for the rows it overshoots).  The loglik and
    score sum slot by slot in lag order, so results are bit-reproducible.

    :meth:`evaluate` is the one pass, and the one public entry point to
    it: it returns the loglik, the score and one (rows, dim) array of
    scores, which :meth:`pair_scores` expands to every pair.
    :meth:`loglik` and :meth:`loglik_and_score` are views of it, so
    :meth:`loglik` is bit-equal to the loglik that
    :meth:`loglik_and_score` and the fit path report at the same point.
    Every reduction of the per-pair scores (the sensitivity and
    variability matrices, the per-time scores) lives in
    :mod:`pairpois.estimation`.  The evaluator owns a kernel whose
    buffers each pass overwrites; no result depends on them, and every
    array a pass returns is its own.  Do not share one evaluator between
    threads.

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
        x_rank = _lex_groups(series.X.T[::-1])[1]  # column 0 sorts first
        self._lgam = _log_factorial(y)

        self._lags, self._w = weights.lags.tolist(), weights.w.tolist()
        slot, outer = np.indices((len(self._lags), n - weights.m_d)).reshape(2, -1)
        outer += weights.m_d  # 0-based positions of t = m_d+1 .. n, slot by slot
        earlier = outer - weights.lags[slot]
        swap = (x_rank[earlier] == x_rank[outer]) & (y[earlier] > y[outer])
        a1, a2 = np.where(swap, outer, earlier), np.where(swap, earlier, outer)
        rep, inverse = _lex_groups((x_rank[a1] * n + x_rank[a2], y[a2], y[a1], slot))
        self._members = np.stack([a1[rep], a2[rep]])
        self._row_slot = slot[rep]
        self._pair_rows = inverse.reshape(len(self._lags), -1)
        self._first = first = [0, *np.cumsum(np.bincount(self._row_slot)).tolist()]
        counts = np.bincount(inverse).astype(float)
        rows = [slice(first[j], first[j + 1]) for j in range(len(self._lags))]
        self._slots = [(w, r, counts[r]) for w, r in zip(self._w, rows)]
        self._X = series.X[self._members]
        self._kernel = None  # the tensor kernel, built at the first pass at phi != 0

    # -- core passes -------------------------------------------------------

    def _underflow(self, row: int) -> NumericalFailure:
        """The failure for row ``row`` of the pass, the distinct pair of
        one lag block, located at the first time index that uses it."""
        slot = int(self._row_slot[row])
        pos = int(np.argmax(self._pair_rows[slot] == row))
        lag = self._lags[slot]
        return NumericalFailure(
            f"pair density underflowed at t = {self.m_d + 1 + pos}, lag {lag}",
            time_index=self.m_d + 1 + pos,
            lag=lag,
        )

    def evaluate(self, working: WorkingParams) -> tuple[float, np.ndarray, np.ndarray]:
        """One kernel call over every distinct pair: the evaluator's
        tensor kernel (:class:`_TensorKernel`), built here at the first
        pass at phi != 0, or the product of 1-D rules at phi = 0
        (:func:`_product_pairs`), which needs no kernel buffers.  The pass
        overwrites the kernel's buffers and returns fresh arrays, so a
        caller may keep ``grads`` across passes, and the results of a point
        do not depend on the passes before it.  Each row's lag slot
        (``_row_slot``) spreads the lags' d rho / d atanh(phi) over the
        rows.

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
        members = self._members
        if phi == 0.0:
            logp, derivs = _product_pairs(self.rule, c, self.series.y, self._lgam, eta, *members)
        else:
            if self._kernel is None:
                y = self.series.y[members].astype(float)
                self._kernel = _TensorKernel(self.rule, self._first, y, self._lgam[members])
            logp, derivs = self._kernel(c, [phi**lag for lag in self._lags], eta[members])
        finite = np.isfinite(logp)
        if not finite.all():
            raise self._underflow(int(np.argmin(finite)))
        drho_dz = np.array([lag * phi ** (lag - 1) * (1.0 - phi * phi) for lag in self._lags])
        n_coef = self.n_coef
        grads = np.empty((logp.shape[0], self.dim))
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite score times 0
            np.multiply(derivs[:, :1], self._X[0], out=grads[:, :n_coef])
            grads[:, :n_coef] += derivs[:, 1:2] * self._X[1]
            np.multiply(derivs[:, 2], 0.5, out=grads[:, n_coef])
            d_rho = drho_dz[self._row_slot] * derivs[:, 3]
            np.add(phi * derivs[:, 2], d_rho, out=grads[:, n_coef + 1])

        loglik = 0.0
        score = np.zeros(self.dim)
        for w_lag, rows, counts in self._slots:
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
