"""Maximum pairwise likelihood estimation and uncertainty quantification.

Fits run a quasi-Newton (BFGS) iteration on the unconstrained working
scale using only the analytic first-order score; the sensitivity matrix
comes from weighted outer products of per-pair scores, the variability
matrix from a Bartlett-kernel HAC sum of per-time scores, and standard
errors from the inverse Godambe information with a delta-method map back
to the reporting scale.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import NotConvergedError, NumericalFailure, SingularMatrixError
from .model import (
    CountSeries,
    PairWeights,
    Params,
    PairwiseEvaluator,
    WorkingParams,
    _degenerate_pair_gradients,
    _weighted_per_t,
)
from .quadrature import QuadRule, gauss_hermite

PHI_ZERO = "phi_zero"
INDEPENDENCE = "independence"

DEFAULT_MAX_ITER = 500
DEFAULT_RELTOL = 1e-6
DEFAULT_GRAD_RTOL = 1e-7
MOMENT_TAU2_FLOOR = 0.05
MOMENT_PHI_CLAMP = 0.95
_COND_LIMIT = 1e14


@dataclass(frozen=True)
class FitResult:
    """Outcome of a maximum pairwise likelihood fit.

    ``H_hat``, ``J_hat`` and ``godambe`` live on the working
    (unconstrained) scale and cover only the free parameters of the fit.
    ``se`` is on the reporting scale, ordered (beta..., sigma2, phi,
    tau2), with NaN for parameters a restriction holds fixed.
    """

    params_hat: Params
    working_hat: WorkingParams
    loglik: float
    H_hat: np.ndarray
    J_hat: np.ndarray
    godambe: np.ndarray
    se: np.ndarray
    clic: float
    iterations: int
    converged: bool
    quad_order: int
    weights: PairWeights
    hac_lags: int
    restriction: str | None = None


def default_hac_lags(n: int) -> int:
    """Default HAC window semi-length, floor(10 * log10(n))."""
    return int(math.floor(10.0 * math.log10(n)))


def poisson_irls(X: np.ndarray, y: np.ndarray, max_iter: int = 100, tol: float = 1e-12):
    """Poisson regression by iteratively reweighted least squares.

    Returns ``(beta, n_iter, converged)``.  Raises ``ValueError`` when X
    is rank deficient.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise ValueError("X must have full column rank")
    beta = np.zeros(X.shape[1])
    beta[0] = math.log(max(y.mean(), 1e-8))
    dev_old = math.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        mu = np.exp(X @ beta)
        grad = X.T @ (y - mu)
        info = X.T @ (mu[:, None] * X)
        beta = beta + np.linalg.solve(info, grad)
        mu = np.exp(X @ beta)
        with np.errstate(divide="ignore", invalid="ignore"):
            dev = 2.0 * np.sum(np.where(y > 0, y * np.log(y / mu), 0.0) - (y - mu))
        if abs(dev_old - dev) < tol * (abs(dev) + tol):
            converged = True
            break
        dev_old = dev
    return beta, it, converged


def moment_init(series: CountSeries, tau2_floor: float = MOMENT_TAU2_FLOOR) -> Params:
    """Method-of-moments starting values.

    An independence Poisson regression estimates the marginal means
    mu_t; the latent variance comes from the overdispersion of its
    residuals, tau2 = log(1 + max(floor, sum[(y - mu)^2 - mu] / sum
    mu^2)); phi from inverting the lag-1 marginal autocovariance
    identity, clamped to +-0.95 so the starting point stays interior.
    Because the regression intercept absorbs the latent mean shift
    tau2/2, that half-variance is subtracted back out of the returned
    intercept.
    """
    if series.n < 30:
        raise ValueError("moment initialization needs n >= 30")
    beta, _, _ = poisson_irls(series.X, series.y)
    mu = np.exp(series.X @ beta)
    y = series.y.astype(float)

    ratio = float(np.sum((y - mu) ** 2 - mu) / np.sum(mu**2))
    tau2 = math.log1p(max(tau2_floor, ratio))

    resid = y - mu
    c1 = float(np.mean(resid[1:] * resid[:-1]))
    mu_bar = float(np.mean(mu))
    inner = max(c1 / (mu_bar * mu_bar), -0.999)
    phi = math.log1p(inner) / tau2
    phi = min(max(phi, -MOMENT_PHI_CLAMP), MOMENT_PHI_CLAMP)

    sigma2 = tau2 * (1.0 - phi * phi)
    beta = beta.copy()
    beta[0] -= 0.5 * tau2
    return Params(beta=beta, sigma2=sigma2, phi=phi)


# ---------------------------------------------------------------------------
# quasi-Newton driver


# Working-scale sanity box.  Outside it the model is numerically
# degenerate (phi within 7e-4 of +-1, sigma2 below 7e-6) and the
# likelihood is flat to well below the convergence tolerance, so
# bounding here changes no interior optimum; it only keeps boundary
# fits (weakly identified latent components) at a point where the
# sandwich matrices remain computable.
LOG_SIGMA2_BOUND = 12.0
Z_PHI_BOUND = 4.0


def _safe_negative(evaluate, dim, ls_index=None, z_index=None):
    """Wrap a loglik-and-score evaluation for minimization.

    Trial points the line search probes can push tanh(z_phi) onto the
    boundary or overflow exp(log_sigma2); those evaluations (and points
    outside the working sanity box) report an infinite objective so the
    step is rejected instead of raised.  So do points where the value is
    finite but the score is not: at large latent variances e^v overflows
    in grid cells whose weight underflowed, and the score moments there
    come out as 0 * inf.
    """

    def neg(x):
        if ls_index is not None and abs(x[ls_index]) > LOG_SIGMA2_BOUND:
            return math.inf, np.zeros(dim)
        if z_index is not None and abs(x[z_index]) > Z_PHI_BOUND:
            return math.inf, np.zeros(dim)
        try:
            value, score = evaluate(x)
        except (ValueError, OverflowError, NumericalFailure):
            return math.inf, np.zeros(dim)
        if not (np.isfinite(value) and np.all(np.isfinite(score))):
            return math.inf, np.zeros(dim)
        return -value, -score

    return neg


class _CachedObjective:
    """Memoizes the (value, gradient) pair at the last evaluated point so
    the Wolfe line search can query them separately without recomputing."""

    def __init__(self, value_and_grad):
        self._vg = value_and_grad
        self._x = None
        self._f = None
        self._g = None
        self.n_eval = 0

    def _ensure(self, x):
        if self._x is None or not np.array_equal(x, self._x):
            self._x = np.array(x, copy=True)
            self._f, self._g = self._vg(self._x)
            self.n_eval += 1

    def value(self, x):
        self._ensure(x)
        return self._f

    def grad(self, x):
        self._ensure(x)
        return self._g


def _minimize_bfgs(
    value_and_grad,
    x0: np.ndarray,
    reltol: float = DEFAULT_RELTOL,
    grad_rtol: float = DEFAULT_GRAD_RTOL,
    max_iter: int = DEFAULT_MAX_ITER,
    max_step: float = 5.0,
):
    """BFGS with Wolfe line search and analytic gradients only.

    Declares convergence when the relative objective improvement drops
    below ``reltol`` AND the sup-norm of the gradient falls below
    ``grad_rtol * max(1, |f|)``.  Search directions are capped at
    ``max_step`` in norm: when the likelihood flattens toward the
    sigma2 -> 0 boundary the inverse-Hessian estimate blows up along
    the flat direction, and an uncapped step would park log(sigma2)
    tens of units deep into the degenerate region.  Returns
    (x, f, g, iterations, converged).
    """
    obj = _CachedObjective(value_and_grad)
    x = np.asarray(x0, dtype=float).copy()
    f = obj.value(x)
    g = obj.grad(x)
    dim = x.shape[0]
    h_inv = np.eye(dim)

    def grad_ok(fv, gv):
        return float(np.max(np.abs(gv))) <= grad_rtol * max(1.0, abs(fv))

    if grad_ok(f, g):
        return x, f, g, 0, True

    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        direction = -h_inv @ g
        if float(g @ direction) >= 0.0:
            h_inv = np.eye(dim)
            direction = -g
        norm = float(np.linalg.norm(direction))
        if norm > max_step:
            direction *= max_step / norm

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            alpha = scipy.optimize.line_search(
                obj.value, obj.grad, x, direction, gfk=g, old_fval=f, maxiter=40
            )[0]
        if alpha is None:
            # Armijo backtracking fallback
            slope = float(g @ direction)
            alpha = 1.0
            while alpha > 1e-14:
                if obj.value(x + alpha * direction) <= f + 1e-4 * alpha * slope:
                    break
                alpha *= 0.5
            else:
                alpha = None
        if alpha is None:
            # no descent found along any computed direction: numerically
            # stationary, so the gradient criterion decides the flag
            converged = grad_ok(f, g)
            break

        x_new = x + alpha * direction
        f_new = obj.value(x_new)
        g_new = obj.grad(x_new)

        step = x_new - x
        dgrad = g_new - g
        curv = float(step @ dgrad)
        if curv > 1e-10 * float(np.linalg.norm(step) * np.linalg.norm(dgrad)):
            rho = 1.0 / curv
            v = np.eye(dim) - rho * np.outer(step, dgrad)
            h_inv = v @ h_inv @ v.T + rho * np.outer(step, step)

        rel_ok = abs(f - f_new) < reltol * (abs(f_new) + reltol)
        x, f, g = x_new, f_new, g_new
        if rel_ok and grad_ok(f, g):
            converged = True
            break
    return x, f, g, it, converged


# ---------------------------------------------------------------------------
# sandwich pieces


def _sensitivity_from_pairs(pair_grads, n: int) -> np.ndarray:
    """Weighted outer-product estimate of the sensitivity matrix.

    Each lag's weight enters once (the second-order identity holds pair
    by pair), and the sum is divided by the full series length n.
    """
    dim = pair_grads[0][2].shape[1]
    h = np.zeros((dim, dim))
    for _, w_lag, grads in pair_grads:
        h += w_lag * (grads.T @ grads)
    h /= n
    return 0.5 * (h + h.T)


def _variability_from_psi(psi: np.ndarray, n: int, r: int) -> np.ndarray:
    """Bartlett-kernel HAC estimate of the variability matrix.

    ``psi`` holds the per-time weighted scores for t = m_d+1 .. n.  The
    lag-0 term always has weight one; lag k gets 1 - |k|/r, so lags at
    |k| >= r drop out and r <= 1 reduces to the outer product at lag 0.
    """
    j = psi.T @ psi
    for k in range(1, r):
        if k >= psi.shape[0]:
            break
        gamma = psi[:-k].T @ psi[k:]
        j += (1.0 - k / r) * (gamma + gamma.T)
    j /= n
    return 0.5 * (j + j.T)


def sensitivity_H(
    series: CountSeries, working: WorkingParams, weights: PairWeights, rule: QuadRule
) -> np.ndarray:
    """Outer-product sensitivity estimate at the given working parameters.

    Symmetric and positive semidefinite by construction, and needs no
    second derivatives.
    """
    ev = PairwiseEvaluator(series, weights, rule)
    _, pairs = ev.pair_gradients(working)
    return _sensitivity_from_pairs(pairs, series.n)


def variability_J(
    series: CountSeries,
    working: WorkingParams,
    weights: PairWeights,
    rule: QuadRule,
    r: int | None = None,
) -> np.ndarray:
    """HAC variability estimate at the given working parameters.

    ``r`` defaults to floor(10 * log10(n)); pairs of time points whose
    lagged partner falls outside the evaluated range are dropped.
    """
    if r is None:
        r = default_hac_lags(series.n)
    if r < 0:
        raise ValueError("r must be >= 0")
    ev = PairwiseEvaluator(series, weights, rule)
    psi = ev.per_t_scores(working)
    return _variability_from_psi(psi, series.n, r)


def _check_invertible(h: np.ndarray, label: str) -> None:
    cond = float(np.linalg.cond(h))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularMatrixError(
            f"{label} matrix is numerically singular (condition number {cond:.3e})", cond=cond
        )


def _working_avar(h: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Sandwich asymptotic variance H^-1 J H^-1 / n on the working scale."""
    _check_invertible(h, "sensitivity")
    a = np.linalg.solve(h, j)
    avar = np.linalg.solve(h, a.T).T / n
    return 0.5 * (avar + avar.T)


def _delta_se(avar: np.ndarray, working: WorkingParams, free: str) -> np.ndarray:
    """Reporting-scale standard errors (beta..., sigma2, phi, tau2).

    ``free`` names which working coordinates the fit estimated:
    "full" (beta, log sigma2, z_phi), "beta_ls" (beta, log sigma2 with
    phi fixed at zero) or "beta" (independence).  Fixed parameters get
    NaN.
    """
    params = working.to_params()
    p1 = params.n_coef
    se_work = np.sqrt(np.clip(np.diag(avar), 0.0, None))
    se_beta = se_work[:p1]
    if free == "beta":
        return np.concatenate([se_beta, [math.nan, math.nan, math.nan]])
    sigma2 = params.sigma2
    tau2 = params.tau2
    if free == "beta_ls":
        se_sigma2 = sigma2 * se_work[p1]
        return np.concatenate([se_beta, [se_sigma2, math.nan, se_sigma2]])
    phi = params.phi
    se_sigma2 = sigma2 * se_work[p1]
    se_phi = (1.0 - phi * phi) * se_work[p1 + 1]
    d = np.zeros(avar.shape[0])
    d[p1] = tau2
    d[p1 + 1] = 2.0 * phi * tau2
    se_tau2 = math.sqrt(max(float(d @ avar @ d), 0.0))
    return np.concatenate([se_beta, [se_sigma2, se_phi, se_tau2]])


def robust_se(h: np.ndarray, j: np.ndarray, n: int, working: WorkingParams) -> np.ndarray:
    """Robust standard errors on the reporting scale (beta..., sigma2,
    phi, tau2) for an unrestricted fit.

    The working-scale variance is H^-1 J H^-1 / n; sigma2, phi and tau2
    are mapped from (log sigma2, atanh phi) by the delta method.
    """
    avar = _working_avar(h, j, n)
    return _delta_se(avar, working, "full")


def _clic_value(loglik: float, h: np.ndarray, j: np.ndarray) -> float:
    _check_invertible(h, "sensitivity")
    return -2.0 * loglik + 2.0 * float(np.trace(np.linalg.solve(h, j)))


def clic(fit: FitResult) -> float:
    """Composite likelihood information criterion of a converged fit.

    Equal to -2 * loglik + 2 * trace(H^-1 J); lower is better.  When
    J = H this reduces to the familiar -2 * loglik + 2 * #parameters.
    """
    if not fit.converged:
        raise NotConvergedError("CLIC requires a converged fit")
    return _clic_value(fit.loglik, fit.H_hat, fit.J_hat)


# ---------------------------------------------------------------------------
# fitting


def _finish_fit(
    series,
    weights,
    quad_order,
    loglik,
    pair_grads,
    working_hat,
    free,
    iterations,
    converged,
    hac_lags,
    restriction,
):
    n = series.n
    h = _sensitivity_from_pairs(pair_grads, n)
    j = _variability_from_psi(_weighted_per_t(pair_grads, n - weights.m_d), n, hac_lags)
    avar = _working_avar(h, j, n)
    godambe = h @ np.linalg.solve(j, h)
    godambe = 0.5 * (godambe + godambe.T)
    se = _delta_se(avar, working_hat, free)
    value = _clic_value(loglik, h, j)
    return FitResult(
        params_hat=working_hat.to_params(),
        working_hat=working_hat,
        loglik=loglik,
        H_hat=h,
        J_hat=j,
        godambe=godambe,
        se=se,
        clic=value,
        iterations=iterations,
        converged=converged,
        quad_order=quad_order,
        weights=weights,
        hac_lags=hac_lags,
        restriction=restriction,
    )


def fit(
    series: CountSeries,
    weights: PairWeights,
    quad_order: int = 20,
    init: Params | None = None,
    *,
    hac_lags: int | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    reltol: float = DEFAULT_RELTOL,
    grad_rtol: float = DEFAULT_GRAD_RTOL,
) -> FitResult:
    """Maximize the weighted pairwise likelihood and quantify uncertainty.

    Runs BFGS on the working scale with the analytic score, starting at
    ``init`` (method-of-moments when omitted).  Convergence requires a
    relative log-likelihood improvement below ``reltol`` together with
    the gradient criterion; fits that exhaust ``max_iter`` are returned
    flagged rather than raised, with all matrices still populated.
    """
    if series.n <= weights.m_d:
        raise ValueError(f"series length {series.n} must exceed the window m_d = {weights.m_d}")
    rule = gauss_hermite(quad_order)
    if hac_lags is None:
        hac_lags = default_hac_lags(series.n)
    ev = PairwiseEvaluator(series, weights, rule)
    if init is None:
        init = moment_init(series)
    x0 = init.to_working().as_vector()

    neg = _safe_negative(
        lambda x: ev.loglik_and_score(WorkingParams.from_vector(x, series.n_coef)),
        series.n_coef + 2,
        ls_index=series.n_coef,
        z_index=series.n_coef + 1,
    )

    x_hat, _, _, iterations, converged = _minimize_bfgs(
        neg, x0, reltol=reltol, grad_rtol=grad_rtol, max_iter=max_iter
    )
    working_hat = WorkingParams.from_vector(x_hat, series.n_coef)
    loglik, pair_grads = ev.pair_gradients(working_hat)
    return _finish_fit(
        series, weights, quad_order, loglik, pair_grads, working_hat, "full",
        iterations, converged, hac_lags, None,
    )


def fit_restricted(
    series: CountSeries,
    weights: PairWeights,
    quad_order: int = 20,
    restriction: str = PHI_ZERO,
    init: Params | None = None,
    *,
    hac_lags: int | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    reltol: float = DEFAULT_RELTOL,
    grad_rtol: float = DEFAULT_GRAD_RTOL,
) -> FitResult:
    """Fit a restricted model with the same CLIC machinery as :func:`fit`.

    ``phi_zero`` fixes phi = 0 and estimates (beta, sigma2);
    ``independence`` drops the latent component entirely (tau2 = 0), so
    the coefficients come from the plain independence Poisson regression
    and the pair densities degenerate to Poisson products.
    """
    if restriction not in (PHI_ZERO, INDEPENDENCE):
        raise ValueError(f"unknown restriction {restriction!r}")
    if series.n <= weights.m_d:
        raise ValueError(f"series length {series.n} must exceed the window m_d = {weights.m_d}")
    if hac_lags is None:
        hac_lags = default_hac_lags(series.n)

    if restriction == INDEPENDENCE:
        beta, iterations, converged = poisson_irls(series.X, series.y)
        loglik, pair_grads = _degenerate_pair_gradients(series, beta, weights)
        working_hat = WorkingParams(beta=beta, log_sigma2=-math.inf, z_phi=0.0)
        return _finish_fit(
            series, weights, quad_order, loglik, pair_grads, working_hat, "beta",
            iterations, converged, hac_lags, INDEPENDENCE,
        )

    rule = gauss_hermite(quad_order)
    ev = PairwiseEvaluator(series, weights, rule)
    if init is None:
        init = moment_init(series)
    p1 = series.n_coef
    x0 = np.concatenate([init.beta, [math.log(max(init.tau2, 1e-4))]])

    def to_full(x):
        return WorkingParams(beta=x[:p1], log_sigma2=x[p1], z_phi=0.0)

    def evaluate(x):
        value, score = ev.loglik_and_score(to_full(x))
        return value, score[: p1 + 1]

    neg = _safe_negative(evaluate, p1 + 1, ls_index=p1)

    x_hat, _, _, iterations, converged = _minimize_bfgs(
        neg, x0, reltol=reltol, grad_rtol=grad_rtol, max_iter=max_iter
    )
    working_hat = to_full(x_hat)
    loglik, pair_grads = ev.pair_gradients(working_hat)
    pair_grads = [(lag, w_lag, grads[:, : p1 + 1]) for lag, w_lag, grads in pair_grads]
    return _finish_fit(
        series, weights, quad_order, loglik, pair_grads, working_hat, "beta_ls",
        iterations, converged, hac_lags, PHI_ZERO,
    )
