"""Regenerate the bundled example CSVs.

The shipped Greece/Italy monthly invasive meningococcal disease files
are synthetic stand-ins: the real ECDC Surveillance Atlas extract used
in published analyses of these series is not redistributable from this
environment, so we simulate from latent AR(1) Poisson models calibrated
to the published fits (seasonal Greek model with a linear trend; Italian
model with a level shift before March 2005).  Seeds are searched so the
12 out-of-sample months of 2016 reproduce the published exceedance
pattern (Greece: April and December only; Italy: none) with at least
one count of margin, making the bundled prediction demos stable.

Run from the repository root:  python tools/make_bundled_data.py
"""
import csv
import pathlib

import numpy as np

import pairpois as pp
from pairpois.cli import ModelSpec, build_design, ordinal_to_month, month_to_ordinal

OUT_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "pairpois" / "data"

N_TRAIN = 204  # 1999-01 .. 2015-12
N_TOTAL = 216  # .. 2016-12
START = month_to_ordinal("1999-01")
MONTHS = [ordinal_to_month(START + k) for k in range(N_TOTAL)]

GREECE = {
    "file": "greece_imd.csv",
    "spec": ModelSpec(trend=True, harmonics=True, d=1, scheme="trap", quad_order=10),
    "beta": np.array([2.79, -1.67, 0.46, 0.28]),
    "phi": 0.52,
    "tau2": 0.07,
    "exceed_months": {"2016-04", "2016-12"},
}

# beta follows build_design column order: intercept, sin, cos, level shift
ITALY = {
    "file": "italy_imd.csv",
    "spec": ModelSpec(harmonics=True, level_shift="2005-03", d=2, scheme="trap", quad_order=10),
    "beta": np.array([2.54, 0.47, 0.26, 0.38]),
    "phi": 0.70,
    "tau2": 0.04,
    "exceed_months": set(),
}


def candidate_series(cfg, X, seed):
    params = pp.Params(
        beta=cfg["beta"], sigma2=cfg["tau2"] * (1.0 - cfg["phi"] ** 2), phi=cfg["phi"]
    )
    return pp.simulate_series(pp.SimConfig(params=params, X=X, n_rep=1, seed=seed))


def exceedance_pattern_ok(cfg, series, X_all):
    """Fit on the training window, predict 2016, check the target flags
    hold with one count of margin so they are stable to small changes in
    the fit."""
    spec = cfg["spec"]
    weights = pp.make_weights(spec.d, spec.scheme)
    train = pp.CountSeries(y=series.y[:N_TRAIN], X=X_all[:N_TRAIN])
    try:
        result = pp.fit(train, weights, quad_order=spec.quad_order)
    except pp.PairpoisError:
        return False
    if not result.converged:
        return False
    if abs(result.params_hat.phi - cfg["phi"]) > 0.3:
        return False
    if not 0.25 * cfg["tau2"] < result.params_hat.tau2 < 4.0 * cfg["tau2"]:
        return False
    band = pp.predict(result, None, X_insample=X_all)
    for k in range(N_TRAIN, N_TOTAL):
        month = MONTHS[k]
        obs = int(series.y[k])
        ub = band.upper95[k]
        if month in cfg["exceed_months"]:
            if not obs >= ub + 2:
                return False
        else:
            if not obs <= ub - 1:
                return False
    return True


def search(cfg, max_tries=20000):
    X_all, _ = build_design(cfg["spec"], MONTHS, N_TRAIN)
    params = pp.Params(
        beta=cfg["beta"], sigma2=cfg["tau2"] * (1.0 - cfg["phi"] ** 2), phi=cfg["phi"]
    )
    # cheap prefilter: the exact marginal 95% bounds under the true parameters
    true_ub = pp.PredictionBand(eta=X_all @ params.beta, tau2=params.tau2).upper95

    for seed in range(max_tries):
        series = candidate_series(cfg, X_all, seed)
        ok = True
        for k in range(N_TRAIN, N_TOTAL):
            obs = int(series.y[k])
            if MONTHS[k] in cfg["exceed_months"]:
                ok = obs >= true_ub[k] + 1
            else:
                ok = obs <= true_ub[k]
            if not ok:
                break
        if not ok:
            continue
        if exceedance_pattern_ok(cfg, series, X_all):
            print(f"{cfg['file']}: seed {seed}")
            return series
    raise RuntimeError(f"no seed found for {cfg['file']} in {max_tries} tries")


def write_csv(path, series):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "count"])
        for month, value in zip(MONTHS, series.y):
            writer.writerow([month, int(value)])


def main():
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for cfg in (GREECE, ITALY):
        series = search(cfg)
        write_csv(OUT_DIR / cfg["file"], series)
        print(f"wrote {OUT_DIR / cfg['file']}")


if __name__ == "__main__":
    main()
