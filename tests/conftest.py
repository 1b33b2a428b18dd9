import numpy as np
import pytest

import pairpois as pp
from pairpois import estimation

SCENARIO5_SEED = 31337


@pytest.fixture(scope="session")
def scenario5_batch():
    """200 scenario-5 replicates (n=500) fitted at d=1 rectangular,
    20 nodes; shared by the recovery/calibration tests and the
    acceptance suite."""
    weights = pp.make_weights(1, "rect")
    fits = []
    for r in range(200):
        series = pp.simulate_scenario(5, 500, seed=SCENARIO5_SEED, replicate=r)
        fits.append(pp.fit(series, weights, quad_order=20))
    return fits


def reporting_vector(result):
    p = result.params_hat
    return np.array([p.beta[0], p.sigma2, p.phi, p.tau2])


def pair_gradients(ev, working):
    """The loglik and the (lags, n - m_d, dim) per-pair scores of one
    pass of the evaluator ``ev`` at ``working``."""
    loglik, _, grads = ev.evaluate(working)
    return loglik, ev.pair_scores(grads)


def per_t_scores(ev, w, working):
    """The weighted per-time scores of one pass of ``ev`` at ``working``,
    with the lag weights ``w``; they sum to the score."""
    return estimation._weighted_per_t(w, pair_gradients(ev, working)[1])
