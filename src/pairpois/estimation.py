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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalFailure, SingularMatrixError
from .model import CountSeries, PairWeights, Params, PairwiseEvaluator, WorkingParams
from .quadrature import QuadRule, gauss_hermite

PHI_ZERO = "phi_zero"
INDEPENDENCE = "independence"

DEFAULT_MAX_ITER = 500
# stopping rules and step cap of the BFGS and IRLS iterations
RELTOL = 1e-6
GRAD_RTOL = 1e-7
MAX_STEP = 5.0
IRLS_MAX_ITER = 100
IRLS_TOL = 1e-12
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


def poisson_irls(X: np.ndarray, y: np.ndarray):
    """Poisson regression by iteratively reweighted least squares.

    Stops when the relative deviance change falls below ``IRLS_TOL`` or
    after ``IRLS_MAX_ITER`` steps.  Returns ``(beta, n_iter,
    converged)``.  Raises ``ValueError`` when X is rank deficient.
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
    for it in range(1, IRLS_MAX_ITER + 1):
        mu = np.exp(X @ beta)
        grad = X.T @ (y - mu)
        info = X.T @ (mu[:, None] * X)
        beta = beta + np.linalg.solve(info, grad)
        mu = np.exp(X @ beta)
        with np.errstate(divide="ignore", invalid="ignore"):
            dev = 2.0 * np.sum(np.where(y > 0, y * np.log(y / mu), 0.0) - (y - mu))
        if abs(dev_old - dev) < IRLS_TOL * (abs(dev) + IRLS_TOL):
            converged = True
            break
        dev_old = dev
    return beta, it, converged


def moment_init(series: CountSeries) -> Params:
    """Method-of-moments starting values.

    An independence Poisson regression estimates the marginal means
    mu_t; the latent variance comes from the overdispersion of its
    residuals, tau2 = log(1 + max(MOMENT_TAU2_FLOOR, sum[(y - mu)^2 - mu]
    / sum mu^2)); phi from inverting the lag-1 marginal autocovariance
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
    tau2 = math.log1p(max(MOMENT_TAU2_FLOOR, ratio))

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


class BFGSResult(NamedTuple):
    """What :func:`_minimize_bfgs` returns: the point it accepted last,
    the objective, its gradient and the objective's ``aux`` there, the
    iterations run and whether it converged."""

    x: np.ndarray
    f: float
    g: np.ndarray
    aux: object
    iterations: int
    converged: bool


def _minimize_bfgs(
    value_and_grad,
    x0: np.ndarray,
    max_iter: int = DEFAULT_MAX_ITER,
    h_inv0: np.ndarray | None = None,
    start: tuple | None = None,
) -> BFGSResult:
    """BFGS with a backtracking line search and analytic gradients only.

    ``value_and_grad(x)`` returns the objective, its gradient and an
    ``aux`` value that BFGS only carries along (:func:`_fit` passes the
    kernel pass, so the pass at the estimate comes back with it);
    ``start`` is that triple at ``x0`` when the caller already has it, so
    x0 is not evaluated again.  The inverse-Hessian estimate starts at
    ``h_inv0``, the identity when omitted; :func:`_fit` passes the
    inverse of the outer-product (BHHH) curvature at ``x0``, so the
    first steps are already scaled like Newton steps.  Whenever the
    estimate stops giving a descent direction it is reset to the
    identity.

    The line search is Armijo backtracking (Nocedal & Wright 2006,
    Alg. 3.1): it tries the steps 1, 1/2, 1/4, ... down to 1e-14 and
    takes the first with f(x + a d) <= f(x) + 1e-4 a g'd, evaluating f
    and g together at each trial point.  A trial point whose evaluation
    raises ``ValueError``, ``OverflowError`` or :class:`NumericalFailure`,
    or gives a non-finite objective or gradient, is rejected like one
    without sufficient decrease: a step can push tanh(z_phi) onto the
    boundary or overflow exp(log_sigma2), and at large latent variances
    e^v overflows in grid cells whose weight underflowed, so the score
    moments there come out as 0 * inf while the value stays finite.
    Without a curvature condition the update can meet s'y <= 0, so it is
    skipped unless s'y exceeds 1e-10 |s| |y|, which keeps the estimate
    positive definite (ibid., section 6.1).  When no step gives
    sufficient decrease the point is numerically stationary and the
    gradient criterion alone decides.

    Declares convergence when the relative objective improvement drops
    below ``RELTOL`` AND the sup-norm of the gradient falls below
    ``GRAD_RTOL * max(1, |f|)``, and never at a non-finite point: a
    start whose objective or gradient is not finite returns unconverged
    at once.  Search directions are capped at ``MAX_STEP`` in norm: when
    the likelihood flattens toward the sigma2 -> 0 boundary the
    inverse-Hessian estimate blows up along the flat direction, and an
    uncapped step would park log(sigma2) tens of units deep into the
    degenerate region.  Returns a :class:`BFGSResult` at the last
    accepted point (x0 when no step was accepted).
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g, aux = value_and_grad(x) if start is None else start
    dim = x.shape[0]
    h_inv = np.eye(dim) if h_inv0 is None else np.asarray(h_inv0, dtype=float)

    def grad_ok(fv, gv):
        return float(np.max(np.abs(gv))) <= GRAD_RTOL * max(1.0, abs(fv))

    if not (math.isfinite(f) and np.all(np.isfinite(g))):
        return BFGSResult(x, f, g, aux, 0, False)
    if grad_ok(f, g):
        return BFGSResult(x, f, g, aux, 0, True)

    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        direction = -h_inv @ g
        if float(g @ direction) >= 0.0:
            h_inv = np.eye(dim)
            direction = -g
        norm = float(np.linalg.norm(direction))
        if norm > MAX_STEP:
            direction *= MAX_STEP / norm

        slope = float(g @ direction)
        alpha = 1.0
        while alpha > 1e-14:
            x_new = x + alpha * direction
            try:
                f_new, g_new, aux_new = value_and_grad(x_new)
            except (ValueError, OverflowError, NumericalFailure):
                f_new = math.inf
            finite = math.isfinite(f_new) and np.all(np.isfinite(g_new))
            if finite and f_new <= f + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            converged = grad_ok(f, g)
            break

        step = x_new - x
        dgrad = g_new - g
        curv = float(step @ dgrad)
        if curv > 1e-10 * float(np.linalg.norm(step) * np.linalg.norm(dgrad)):
            rho = 1.0 / curv
            v = np.eye(dim) - rho * np.outer(step, dgrad)
            h_inv = v @ h_inv @ v.T + rho * np.outer(step, step)

        rel_ok = abs(f - f_new) < RELTOL * (abs(f_new) + RELTOL)
        x, f, g, aux = x_new, f_new, g_new, aux_new
        if rel_ok and grad_ok(f, g):
            converged = True
            break
    return BFGSResult(x, f, g, aux, it, converged)


# ---------------------------------------------------------------------------
# sandwich pieces
#
# Every reduction of the evaluator's per-pair scores lives here.  Each
# takes them in the layout of :meth:`PairwiseEvaluator.pair_scores`,
# (lags, n - m_d, k) for k working coordinates, with the lag weights ``w``.


def _weighted_per_t(w, pairs: np.ndarray) -> np.ndarray:
    """Weighted per-time score terms from per-pair scores: row t - m_d - 1
    sums w[i] times the score of the pair (t - lag_i, t) over the lags,
    in lag order, for t = m_d+1 .. n.  The rows sum to the score."""
    psi = np.zeros_like(pairs[0])
    for w_lag, grads in zip(w, pairs):
        psi += w_lag * grads
    return psi


def _sensitivity_from_pairs(w, pairs: np.ndarray, n: int) -> np.ndarray:
    """Weighted outer-product estimate of the sensitivity matrix from the
    per-pair scores ``pairs``.

    Each lag's weight enters once (the second-order identity holds pair
    by pair), and the sum is divided by the full series length n.
    """
    h = np.zeros((pairs.shape[2], pairs.shape[2]))
    for w_lag, grads in zip(w, pairs):
        h += w_lag * (grads.T @ grads)
    h /= n
    return 0.5 * (h + h.T)


def _bhhh_inverse(w, pairs: np.ndarray, n: int) -> np.ndarray | None:
    """Inverse of the outer-product (BHHH) curvature n * H.

    By the pairwise second Bartlett identity this approximates the
    inverse Hessian of the negative pairwise log-likelihood.  Returns
    None when n * H is not finite and positive definite (a constant
    series, say), so the caller can fall back to the identity.
    """
    curv = n * _sensitivity_from_pairs(w, pairs, n)
    if not np.all(np.isfinite(curv)):
        return None
    try:
        chol_inv = np.linalg.inv(np.linalg.cholesky(curv))
    except np.linalg.LinAlgError:
        return None
    return chol_inv.T @ chol_inv


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
    pairs = ev.pair_scores(ev.evaluate(working)[2])
    return _sensitivity_from_pairs(weights.w, pairs, series.n)


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
    pairs = ev.pair_scores(ev.evaluate(working)[2])
    return _variability_from_psi(_weighted_per_t(weights.w, pairs), series.n, r)


def _check_invertible(h: np.ndarray, label: str) -> None:
    if not np.all(np.isfinite(h)):
        raise SingularMatrixError(f"{label} matrix has non-finite entries", cond=math.inf)
    cond = float(np.linalg.cond(h))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularMatrixError(
            f"{label} matrix is numerically singular (condition number {cond:.3e})", cond=cond
        )


def _sandwich_se(h: np.ndarray, h_inv_j: np.ndarray, n: int, working: WorkingParams) -> np.ndarray:
    """Robust standard errors on the reporting scale (beta..., sigma2,
    phi, tau2), from a sensitivity matrix H that :func:`_check_invertible`
    passed and the product H^-1 J.

    The working-scale variance is the sandwich H^-1 J H^-1 / n; sigma2,
    phi and tau2 are mapped from (log sigma2, atanh phi) by the delta
    method.  H and J cover the first k working coordinates of (beta,
    log sigma2, z_phi), the ones the fit estimated: k = p+1 for the
    independence fit, p+2 with phi fixed at zero (where tau2 = sigma2),
    p+3 for the full model.  Fixed parameters get NaN.
    """
    avar = np.linalg.solve(h, h_inv_j.T).T / n
    avar = 0.5 * (avar + avar.T)
    params = working.to_params()
    p1 = params.n_coef
    k = avar.shape[0]
    se_work = np.sqrt(np.clip(np.diag(avar), 0.0, None))
    se = np.full(p1 + 3, math.nan)
    se[:p1] = se_work[:p1]
    if k > p1:
        se[p1] = se[p1 + 2] = params.sigma2 * se_work[p1]
    if k > p1 + 1:
        phi, tau2 = params.phi, params.tau2
        se[p1 + 1] = (1.0 - phi * phi) * se_work[p1 + 1]
        d = np.zeros(k)
        d[p1] = tau2
        d[p1 + 1] = 2.0 * phi * tau2
        se[p1 + 2] = math.sqrt(max(float(d @ avar @ d), 0.0))
    return se


# ---------------------------------------------------------------------------
# fitting


def _fit(series, weights, quad_order, restriction, init, hac_lags, max_iter) -> FitResult:
    """The one fit driver behind :func:`fit` and :func:`fit_restricted`.

    The free working coordinates are the first k of (beta, log sigma2,
    z_phi); the rest are held fixed, z_phi at zero and log sigma2 at
    -inf (sigma2 = 0).  The full model frees all of them, ``phi_zero``
    all but z_phi, and ``independence`` beta alone, which plain Poisson
    IRLS solves.  A latent fit rejects a start whose free coordinates
    lie outside the working sanity box ``box``; the objective BFGS
    minimizes reports an infinite value at trial points outside it, so
    the line search rejects them.  A negative ``hac_lags`` or
    ``max_iter`` raises ``ValueError`` before any pass runs.  A start
    whose loglik or free score coordinates are not finite raises
    :class:`NumericalFailure`, naming the start and those coordinates,
    before BFGS runs: no step can be taken from it, and its sandwich
    would not be finite either.  Every pass is one call of the public
    :meth:`PairwiseEvaluator.evaluate`.  The objective returns the
    negative loglik and score with the pass they came from, and BFGS
    hands back the pass of the point it accepted last, which is the
    estimate.
    One pass at the start point gives the loglik, the score and the
    per-pair scores; BFGS starts there from the inverse of the
    outer-product (BHHH) curvature n * H, or from the identity when that
    matrix is not positive definite, without evaluating the start again.
    The independence fit runs one pass at its IRLS estimate: at tau2 = 0
    the rule integrates the point mass exactly, so its values are the
    Poisson-product ones up to rounding.  Every model thus takes the
    loglik and the per-pair scores at its estimate from one pass of the
    one evaluator, and no pass runs after the optimizer.  Each pass keeps
    its scores per distinct pair; only those of the start (for the
    curvature) and of the estimate are spread to every pair
    (``ev.pair_scores``) and then sliced to the k free coordinates.  H,
    J, the Godambe matrix, the standard errors and CLIC come from those
    by the reductions of this module, the same way for every model and
    for :func:`sensitivity_H` and :func:`variability_J`.  H is checked
    for singularity once, and the standard errors and CLIC share one
    solve for H^-1 J.
    """
    ev = PairwiseEvaluator(series, weights, gauss_hermite(quad_order))
    if hac_lags is None:
        hac_lags = default_hac_lags(series.n)
    if hac_lags < 0:
        raise ValueError(f"hac_lags must be >= 0, got {hac_lags}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    n, p1 = series.n, series.n_coef
    k = {INDEPENDENCE: p1, PHI_ZERO: p1 + 1}.get(restriction, p1 + 2)

    if restriction == INDEPENDENCE:
        beta, iterations, converged = poisson_irls(series.X, series.y)
        working_hat = WorkingParams(beta=beta, log_sigma2=-math.inf, z_phi=0.0)
        loglik, _, grads = ev.evaluate(working_hat)
    else:
        if init is None:
            init = moment_init(series)
        x0 = init.to_working().as_vector()[:k]
        if restriction == PHI_ZERO:
            x0[p1] = math.log(max(init.tau2, 1e-4))
        names = [f"beta[{i}]" for i in range(p1)] + ["log(sigma2)", "atanh(phi)"]
        box = [(p1, names[p1], LOG_SIGMA2_BOUND), (p1 + 1, names[p1 + 1], Z_PHI_BOUND)]
        box = box[: k - p1]
        for index, name, bound in box:
            if abs(x0[index]) > bound:
                raise ValueError(
                    f"start {name} = {x0[index]:.6g} lies outside the working sanity box "
                    f"[-{bound:g}, {bound:g}]"
                )

        def working(x):
            return WorkingParams.from_vector(np.concatenate([x, np.zeros(p1 + 2 - k)]), p1)

        def objective(x):
            if any(abs(x[index]) > bound for index, _, bound in box):
                return math.inf, None, None
            kernel_pass = ev.evaluate(working(x))
            return -kernel_pass[0], -kernel_pass[1][:k], kernel_pass

        start = objective(x0)
        bad = [name for name, g in zip(names, start[1]) if not math.isfinite(g)]
        if not math.isfinite(start[0]) or bad:
            at = ", ".join(f"{name} = {x:.6g}" for name, x in zip(names, x0))
            raise NumericalFailure(
                f"pairwise likelihood is not finite at the start ({at}): "
                f"loglik {-start[0]:.6g}, score not finite in {', '.join(bad) or 'no coordinate'}"
            )
        h_inv0 = _bhhh_inverse(weights.w, ev.pair_scores(start[2][2])[..., :k], n)
        result = _minimize_bfgs(objective, x0, max_iter=max_iter, h_inv0=h_inv0, start=start)
        working_hat = working(result.x)
        loglik, _, grads = result.aux
        iterations, converged = result.iterations, result.converged
    # slice after the gather, not before: slicing first changes the memory
    # layout of H's matrix products, and so their last bits
    pairs = ev.pair_scores(grads)[..., :k]

    h = _sensitivity_from_pairs(weights.w, pairs, n)
    j = _variability_from_psi(_weighted_per_t(weights.w, pairs), n, hac_lags)
    _check_invertible(h, "sensitivity")
    h_inv_j = np.linalg.solve(h, j)
    se = _sandwich_se(h, h_inv_j, n, working_hat)
    godambe = h @ np.linalg.solve(j, h)
    return FitResult(
        params_hat=working_hat.to_params(),
        working_hat=working_hat,
        loglik=loglik,
        H_hat=h,
        J_hat=j,
        godambe=0.5 * (godambe + godambe.T),
        se=se,
        clic=-2.0 * loglik + 2.0 * float(np.trace(h_inv_j)),
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
) -> FitResult:
    """Maximize the weighted pairwise likelihood and quantify uncertainty.

    Runs BFGS on the working scale with the analytic score, starting at
    ``init`` (method-of-moments when omitted).  The inverse-Hessian
    estimate starts at the inverse of the outer-product (BHHH) curvature
    n * H there: by the pairwise second Bartlett identity it
    approximates the Hessian, so the backtracking line search mostly
    accepts the unit step at its first trial.  A start outside the
    working sanity box (|log sigma2| or |atanh phi| above its bound),
    a negative HAC window ``hac_lags`` or a negative ``max_iter`` raises
    ``ValueError`` before the optimizer runs, and a start whose loglik
    or score is not finite raises ``NumericalFailure``.  Convergence requires a relative
    log-likelihood improvement below ``RELTOL`` together with
    the gradient criterion (sup-norm at most ``GRAD_RTOL`` times
    max(1, |loglik|)); fits that exhaust ``max_iter`` are returned
    flagged rather than raised, with all matrices still populated.
    """
    return _fit(series, weights, quad_order, None, init, hac_lags, max_iter)


def fit_restricted(
    series: CountSeries,
    weights: PairWeights,
    quad_order: int = 20,
    restriction: str = PHI_ZERO,
    init: Params | None = None,
    *,
    hac_lags: int | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FitResult:
    """Fit a restricted model with the same CLIC machinery as :func:`fit`.

    ``phi_zero`` fixes phi = 0 and estimates (beta, sigma2);
    ``independence`` drops the latent component entirely (tau2 = 0), so
    the coefficients come from the plain independence Poisson regression.
    Its loglik and sandwich come from the same quadrature evaluator as
    every fit: at tau2 = 0 the rule integrates the point mass exactly,
    so the pair densities are Poisson products up to rounding.  Hence
    ``quad_order`` must be a valid rule order for this restriction too,
    and a mean e^eta that overflows raises a located
    ``NumericalFailure``.  Both restrictions hold phi at 0, where every
    lag's latent pair is uncorrelated and the tensor rule is exactly the
    product of two 1-D rules, so their passes run the 1-D rule once per
    time point instead of over every distinct pair's q^2 cells.
    """
    if restriction not in (PHI_ZERO, INDEPENDENCE):
        raise ValueError(f"unknown restriction {restriction!r}")
    return _fit(series, weights, quad_order, restriction, init, hac_lags, max_iter)
