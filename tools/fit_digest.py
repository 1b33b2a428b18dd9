"""Print one SHA-256 per group of pairpois results.

Two source trees that print the same digests give the same numbers, bit
for bit, on every case below, so a refactor that should change no
result can be checked by running this in both trees.

Groups:
  fits        ``fit`` and both restrictions on scenarios 1-9, seeds 500
              and 501 (n = 500, 20 nodes, d = 3 trap and d = 2 rect):
              estimates, loglik, H, J, Godambe, SE, CLIC and iterations.
  evaluator   ``PairwiseEvaluator.evaluate`` and its views, the per-pair
              and weighted per-time scores, on scenarios 3, 5 and 8 at
              phi != 0, at phi = 0 and at tau2 = 0, with
              ``sensitivity_H``, ``variability_J``, ``pairwise_loglik``,
              ``pair_log_density`` at 5, 20 and 60 nodes, and the
              location of a pair-density underflow at phi != 0 and 0.
  cli         ``pairpois fit`` reports and ``predict`` band CSVs of the
              bundled Greek and Italian series (d = 5 trap, 20 nodes,
              and the README's d = 1 trap, 10 nodes), for the full model
              and both restrictions, with the data path masked.

A case that raises enters its digest as the exception's type and text.
A ``RuntimeWarning`` is an error here, as under pytest (``pyproject.toml``),
so a floating-point warning inside a case enters its digest the same way
and one outside a case stops the run.  pairpois is imported from the
``src/`` next to this file.

Run from the repository root:  python tools/fit_digest.py
"""
import contextlib
import hashlib
import io
import itertools
import json
import math
import pathlib
import sys
import tempfile
import warnings

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pairpois as pp  # noqa: E402
from pairpois import cli, estimation  # noqa: E402

N, SEEDS, Q = 500, (500, 501), 20
WEIGHTS = pp.make_weights(3, "trap")
DATA = ROOT / "src" / "pairpois" / "data"
SURVEILLANCE = {
    "greece_imd.csv": ["--trend", "--harmonics"],
    "italy_imd.csv": ["--level-shift", "2005-03", "--harmonics"],
}


def feed(h, value):
    """Add ``value`` to the hash ``h``: arrays and numbers by their float64
    bytes and shape, strings as text, sequences item by item."""
    if isinstance(value, (list, tuple)):
        h.update(f"[{len(value)}".encode())
        for item in value:
            feed(h, item)
    elif isinstance(value, (str, bytes)):
        h.update(value.encode() if isinstance(value, str) else value)
    else:
        a = np.asarray(value, dtype=float)
        h.update(repr(a.shape).encode() + a.tobytes())


def attempt(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except Exception as exc:  # the failure is part of the result
        return [type(exc).__name__, str(exc), str(getattr(exc, "time_index", None)),
                str(getattr(exc, "lag", None))]


def fit_fields(result):
    if isinstance(result, list):
        return result
    p = result.params_hat
    return [p.beta, p.sigma2, p.phi, result.working_hat.as_vector(), result.loglik,
            result.H_hat, result.J_hat, result.godambe, result.se, result.clic,
            result.iterations, float(result.converged)]


def fits(h):
    for sid in range(1, 10):
        for seed in SEEDS:
            series = pp.simulate_scenario(sid, N, seed)
            for weights in (WEIGHTS, pp.make_weights(2, "rect")):
                feed(h, fit_fields(attempt(pp.fit, series, weights, quad_order=Q)))
                for restriction in (pp.PHI_ZERO, pp.INDEPENDENCE):
                    feed(h, fit_fields(attempt(pp.fit_restricted, series, weights, quad_order=Q,
                                               restriction=restriction)))


def spike_failures(z_phi):
    """Where the pass fails when e^eta overflows at one time point."""
    n = 40
    z = np.zeros(n)
    z[22] = 1.0
    series = pp.CountSeries(y=np.arange(n) % 4, X=np.column_stack([np.ones(n), z]))
    ev = pp.PairwiseEvaluator(series, pp.make_weights(2, "trap"), pp.gauss_hermite(5))
    working = pp.WorkingParams(beta=[0.2, 800.0], log_sigma2=math.log(0.1), z_phi=z_phi)
    return attempt(ev.loglik_and_score, working)


def evaluator(h):
    rule = pp.gauss_hermite(Q)
    for sid in (3, 5, 8):
        series = pp.simulate_scenario(sid, N, SEEDS[0])
        ev = pp.PairwiseEvaluator(series, WEIGHTS, rule)
        true = pp.SCENARIOS[sid].params.to_working()
        for log_sigma2, z_phi in ((true.log_sigma2, true.z_phi), (true.log_sigma2, 0.0),
                                  (-math.inf, 0.0)):
            working = pp.WorkingParams(beta=true.beta, log_sigma2=log_sigma2, z_phi=z_phi)
            loglik, _, grads = ev.evaluate(working)
            pairs = ev.pair_scores(grads)
            feed(h, [ev.loglik(working), ev.loglik_and_score(working), loglik, pairs,
                     estimation._weighted_per_t(WEIGHTS.w, pairs)])
            params = working.to_params()
            feed(h, [pp.sensitivity_H(series, working, WEIGHTS, rule),
                     pp.variability_J(series, working, WEIGHTS, rule),
                     pp.pairwise_loglik(series, params, WEIGHTS, rule)])
            for q in (5, 20, 60):
                for t in range(WEIGHTS.m_d, N, 37):
                    for lag in (1, 3):
                        feed(h, attempt(pp.pair_log_density, int(series.y[t - lag]),
                                        int(series.y[t]), series.X[t - lag], series.X[t], lag,
                                        params, pp.gauss_hermite(q)))
    for z_phi in (0.3, 0.0):
        feed(h, spike_failures(z_phi))


def run_cli(argv, masks):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    text = out.getvalue()
    for path, name in masks:
        text = text.replace(path, name)
    return [str(code), text]


def cli_outputs(h):
    with tempfile.TemporaryDirectory() as tmp:
        for name, flags in SURVEILLANCE.items():
            data = str(DATA / name)
            masks = [(data, "<data>"), (tmp, "<tmp>")]
            for restriction, (d, q) in itertools.product(("none", "phi0", "indep"),
                                                         (("5", "20"), ("1", "10"))):
                report, band = f"{tmp}/fit.json", f"{tmp}/band.csv"
                feed(h, run_cli(["fit", data, "--output", report, "-d", d, "--weights", "trap",
                                 "--nodes", q, "--holdout-months", "12",
                                 "--restriction", restriction, *flags], masks))
                with open(report) as handle:
                    content = json.load(handle)
                content["data_path"] = "<data>"
                feed(h, json.dumps(content, sort_keys=True))
                feed(h, run_cli(["predict", report, "--output", band, "--horizon-months", "12",
                                 "--data", data], masks))
                feed(h, pathlib.Path(band).read_bytes())


def main():
    warnings.simplefilter("error", RuntimeWarning)
    for name, group in (("fits", fits), ("evaluator", evaluator), ("cli", cli_outputs)):
        h = hashlib.sha256()
        group(h)
        print(f"{h.hexdigest()}  {name}", flush=True)


if __name__ == "__main__":
    main()
