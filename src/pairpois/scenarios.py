"""Benchmark simulation scenarios and the replicate study harness.

Nine covariate-free parameter settings spanning dispersion indices 0.1,
1 and 10 crossed with latent autocorrelations -0.5, 0.5 and 0.9.  The
study harness simulates, fits, and summarizes recovery per parameter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import estimation
from .errors import NumericalFailure, PairpoisError
from .model import CountSeries, Params, make_weights
from .simulate import _simulate_counts

PARAM_NAMES = ("beta", "sigma2", "phi", "tau2")
# outcomes of a study replicate other than "converged"
FAILURE_REASONS = ("not_converged", "singular", "numerical")


@dataclass(frozen=True)
class ScenarioSpec:
    """One benchmark setting: intercept-only model, no covariates."""

    id: int
    dispersion: float
    beta: float
    phi: float
    sigma: float

    @property
    def sigma2(self) -> float:
        return self.sigma * self.sigma

    @property
    def tau2(self) -> float:
        return self.sigma2 / (1.0 - self.phi * self.phi)

    @property
    def params(self) -> Params:
        return Params(beta=np.array([self.beta]), sigma2=self.sigma2, phi=self.phi)

    def true_values(self) -> dict[str, float]:
        return {
            "beta": self.beta,
            "sigma2": self.sigma2,
            "phi": self.phi,
            "tau2": self.tau2,
        }


SCENARIOS: dict[int, ScenarioSpec] = {
    1: ScenarioSpec(1, 10.0, -0.6130, -0.5, 1.2360),
    2: ScenarioSpec(2, 10.0, -0.6130, 0.5, 1.2360),
    3: ScenarioSpec(3, 10.0, -0.6130, 0.9, 0.6221),
    4: ScenarioSpec(4, 1.0, 0.1501, -0.5, 0.6190),
    5: ScenarioSpec(5, 1.0, 0.1501, 0.5, 0.6190),
    6: ScenarioSpec(6, 1.0, 0.1501, 0.9, 0.3115),
    7: ScenarioSpec(7, 0.1, 0.3732, -0.5, 0.2200),
    8: ScenarioSpec(8, 0.1, 0.3732, 0.5, 0.2200),
    9: ScenarioSpec(9, 0.1, 0.3732, 0.9, 0.1107),
}


def simulate_scenario(scenario_id: int, n: int, seed: int, replicate: int = 0) -> CountSeries:
    """Simulate one replicate of a benchmark scenario.

    The stream is keyed by (seed, scenario, replicate), so a replicate
    can be regenerated without drawing its predecessors.
    """
    spec = SCENARIOS[scenario_id]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, scenario_id, replicate)))
    X = np.ones((n, 1))
    return CountSeries(y=_simulate_counts(spec.params, X, rng), X=X)


def _reporting_vector(result: estimation.FitResult) -> np.ndarray:
    p = result.params_hat
    return np.array([p.beta[0], p.sigma2, p.phi, p.tau2])


@dataclass
class StudyCell:
    """Raw replicate-level results for one (scenario, d, scheme, nodes)."""

    scenario: int
    d: int
    scheme: str
    quad_order: int
    estimates: np.ndarray  # (n_rep, 4) on the reporting scale; NaN where failed
    ses: np.ndarray  # (n_rep, 4)
    converged: np.ndarray  # (n_rep,) bool
    j_min_eigs: np.ndarray  # (n_rep,) smallest eigenvalue of J_hat
    outcomes: np.ndarray  # (n_rep,) "converged" or one of FAILURE_REASONS


def run_study_cell(
    scenario_id: int,
    n_series: int,
    n_len: int,
    d: int,
    scheme: str,
    quad_order: int,
    seed: int,
) -> StudyCell:
    """Simulate and fit ``n_series`` replicates of one configuration.

    Replicates whose fit fails in a typed way (a library error such as
    singular sensitivity or numerical failure, or a singular variability
    matrix in the Godambe solve) are recorded as NaN rows with
    converged = False; any other exception propagates.  Each replicate's
    outcome is recorded as ``"converged"``, ``"not_converged"`` (the fit
    returned flagged), ``"numerical"`` (``NumericalFailure``) or
    ``"singular"`` (any other typed failure: ``SingularMatrixError`` or
    ``LinAlgError``).  Results are deterministic functions of the seed.
    ``n_series`` below 1 raises ``ValueError``.
    """
    if n_series < 1:
        raise ValueError(f"n_series must be at least 1, got {n_series}")
    weights = make_weights(d, scheme)
    estimates = np.full((n_series, 4), np.nan)
    ses = np.full((n_series, 4), np.nan)
    converged = np.zeros(n_series, dtype=bool)
    j_eigs = np.full(n_series, np.nan)
    outcomes = np.empty(n_series, dtype=object)
    for r in range(n_series):
        series = simulate_scenario(scenario_id, n_len, seed, r)
        try:
            result = estimation.fit(series, weights, quad_order=quad_order)
        except (PairpoisError, np.linalg.LinAlgError) as err:
            outcomes[r] = "numerical" if isinstance(err, NumericalFailure) else "singular"
            continue
        estimates[r] = _reporting_vector(result)
        ses[r] = result.se
        converged[r] = result.converged
        outcomes[r] = "converged" if result.converged else "not_converged"
        j_eigs[r] = float(np.linalg.eigvalsh(result.J_hat).min())
    return StudyCell(
        scenario=scenario_id,
        d=d,
        scheme=weights.scheme,
        quad_order=quad_order,
        estimates=estimates,
        ses=ses,
        converged=converged,
        j_min_eigs=j_eigs,
        outcomes=outcomes,
    )


def summarize_cell(cell: StudyCell, n_len: int, n_series: int) -> list[dict]:
    """Per-parameter recovery summary rows for one study cell."""
    spec = SCENARIOS[cell.scenario]
    truth = spec.true_values()
    ok = cell.converged & np.all(np.isfinite(cell.estimates), axis=1)
    failed = {f"n_failed_{why}": int(np.sum(cell.outcomes == why)) for why in FAILURE_REASONS}
    rows = []
    for idx, name in enumerate(PARAM_NAMES):
        est = cell.estimates[ok, idx]
        se = cell.ses[ok, idx]
        true_val = truth[name]
        if est.size:
            rmse = float(np.sqrt(np.mean((est - true_val) ** 2)))
            bias = float(np.mean(est) - true_val)
            median_bias = float(np.median(est) - true_val)
            mc_sd = float(np.std(est, ddof=1)) if est.size > 1 else math.nan
            mean_se = float(np.mean(se))
        else:
            rmse = bias = median_bias = mc_sd = mean_se = math.nan
        rows.append(
            {
                "scenario": cell.scenario,
                "d": cell.d,
                "scheme": cell.scheme,
                "nodes": cell.quad_order,
                "n_series": n_series,
                "n_len": n_len,
                "param": name,
                "true_value": true_val,
                "rmse": rmse,
                "bias": bias,
                "median_bias": median_bias,
                "mc_sd": mc_sd,
                "mean_se": mean_se,
                "n_converged": int(ok.sum()),
                **failed,
            }
        )
    return rows


def run_scenario_study(
    scenario_ids,
    n_series: int,
    n_len: int,
    d_values,
    schemes,
    quad_orders,
    seed: int,
):
    """Full study grid; returns (summary rows, {config: StudyCell})."""
    rows = []
    cells = {}
    for sid in scenario_ids:
        if sid not in SCENARIOS:
            raise ValueError(f"unknown scenario id {sid}; valid ids are 1..9")
        for d in d_values:
            for scheme in schemes:
                for order in quad_orders:
                    cell = run_study_cell(sid, n_series, n_len, d, scheme, order, seed)
                    cells[(sid, d, cell.scheme, order)] = cell
                    rows.extend(summarize_cell(cell, n_len, n_series))
    return rows, cells
