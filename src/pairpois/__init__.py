"""Latent AR(1) Poisson count time-series models fitted by maximum
weighted pairwise likelihood, with robust (sandwich/HAC) standard
errors, CLIC model selection, and exact prediction bands from each
month's fitted marginal law."""

from .errors import (
    DataFormatError,
    NotConvergedError,
    NumericalFailure,
    PairpoisError,
    SingularMatrixError,
)
from .estimation import (
    FitResult,
    INDEPENDENCE,
    PHI_ZERO,
    default_hac_lags,
    fit,
    fit_restricted,
    moment_init,
    poisson_irls,
    sensitivity_H,
    variability_J,
)
from .model import (
    CountSeries,
    PairWeights,
    PairwiseEvaluator,
    Params,
    WorkingParams,
    dispersion_index,
    make_weights,
    marginal_moments,
    pair_log_density,
    pairwise_loglik,
    poisson_log_pmf,
)
from .quadrature import gauss_hermite
from .scenarios import SCENARIOS, run_scenario_study, simulate_scenario
from .simulate import PredictionBand, SimConfig, latent_paths, predict, simulate_series

__version__ = "0.1.0"

__all__ = [
    "CountSeries",
    "DataFormatError",
    "FitResult",
    "INDEPENDENCE",
    "NotConvergedError",
    "NumericalFailure",
    "PHI_ZERO",
    "PairWeights",
    "PairpoisError",
    "PairwiseEvaluator",
    "Params",
    "PredictionBand",
    "SCENARIOS",
    "SimConfig",
    "SingularMatrixError",
    "WorkingParams",
    "default_hac_lags",
    "dispersion_index",
    "fit",
    "fit_restricted",
    "gauss_hermite",
    "latent_paths",
    "make_weights",
    "marginal_moments",
    "moment_init",
    "pair_log_density",
    "pairwise_loglik",
    "poisson_irls",
    "poisson_log_pmf",
    "predict",
    "run_scenario_study",
    "sensitivity_H",
    "simulate_scenario",
    "simulate_series",
    "variability_J",
]
