"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed, runs passes of
jobs through public pairpois entry points, checks every output,
and, for the traced run, probes each package layer (cli, estimation,
model, quadrature, simulate, scenarios) on its own inputs.  pairpois sees
only the generated inputs; the seed never reaches it except as the seed
argument a user would pass (``predict --seed``, the study harness seed).

surveillance
    The README analyst session through ``pairpois.cli.main`` in-process,
    as one pass:
    Greece (trend + harmonics) and Italy (level shift + harmonics), each
    at d=5 trapezoidal, 20 nodes, 12 holdout months; per series the full
    fit, the phi0 and indep restrictions, then a 10k-path predict.
    Covariates change every month, so pairs barely deduplicate (about
    1.7k distinct pairs per evaluation, 194 in each of 9 lags).  The
    only workload whose jobs run through ``cli`` and ``simulate``.  The
    seed is the predict seed.
study
    ``scenarios.run_study_cell`` on scenarios 3, 5 and 8 (dispersion
    10, 1 and 0.1), n_len 500, d=3 trapezoidal, 20 nodes.  No
    covariates, so 2470 pairs collapse to a few hundred distinct ones
    and a fit is bound by per-fit fixed cost.  The seed fixes
    STUDY_REPLICATES replicates of each scenario; pass k fits replicate k
    of each.  Every pass runs once, then the first STUDY_TIMED passes run
    in a cycle, so that each of their fits is timed many times.  About
    one scenario 8 replicate in seven does not converge, some only at the
    500-iteration limit after several seconds.  The harness reports that
    as a result, so such a replicate is not a failed job: it counts
    against ``ok_frac``, is timed once and is never dropped or re-seeded.
large_covariate
    Two n=2000 series simulated by ``simulate_series``, each with an
    intercept, trend, seasonal pair and two N(0,1) covariates, fitted by
    ``pp.fit`` at d=3 trapezoidal, 20 nodes.  About 10k distinct pairs,
    1994 in each of 5 lags, and the kernel is nearly the whole fit.  Not
    in BENCHMARK.json: with 7-13 s fits a run times two of them, and its
    time metrics spread more between runs than the bounds allow.  Run it
    by hand with ``--workload large_covariate``.

The kernel's working set is measured, not assumed: ``model.lag_bytes_max``
is the peak of numpy allocations during one loglik-and-score call, which
the largest lag block sets because each block frees its arrays before the
next; about five arrays of (lag pairs) x nodes^2 doubles are live at
once.  At seed 1 it is 3.3 MB on ``surveillance`` and 34 MB on
``large_covariate``, both beyond a 2 MiB per-core L2, and 0.5-0.9 MB on
``study``, whose fits are bound by fixed cost rather than by the kernel.
So no workload is a kernel-bound control that stays inside L2.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.special import pdtr

import pairpois as pp
from pairpois import cli, scenarios
from tracing import Tracer

Q = 20  # quadrature nodes of every timed job
Q_REF = 60  # reference rule of the accuracy pass
N_SIM = 10_000  # prediction paths
HORIZON = 12  # months predicted past the training window
DEFAULT_SEED = 1
FIT_KINDS = ("fit", "phi0", "indep")  # job kinds counted as fits
BAND_LEVEL = 0.95
MC_SIGMAS = 5.0  # Monte Carlo tolerance of the band checks, in standard errors
UNTRACED = Tracer(False)
PAIR_SAMPLES = 1000  # pairs drawn for the accuracy pass
PAIR_STREAM = 4409  # keeps the pair draws apart from the input streams


@dataclass
class Job:
    """One timed call into pairpois and what its checks need."""

    id: str
    kind: str
    wall: float
    failure: str | None = None  # raised, exit_<code>, not_converged, check
    value: object = None
    info: dict = field(default_factory=dict)
    converged: bool = True  # False: the fit reported that it did not converge


def run_job(tr, jid: str, kind: str, call) -> Job:
    """Time ``call()`` as one job; an exception is recorded, not raised."""
    with tr.span("job", "bench", job=jid):
        t0 = time.perf_counter()
        try:
            value, failure, error = call(), None, ""
        except Exception as exc:  # the job boundary: record and go on
            value, failure, error = None, "raised", f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    job = Job(jid, kind, wall, failure, value)
    if error:
        job.info["error"] = error
    return job


def fail(job: Job, messages: list[str], text: str) -> None:
    job.failure = "check"
    messages.append(f"{job.id}: {text}")


def distinct_pairs_per_lag(series: pp.CountSeries, weights: pp.PairWeights) -> list[int]:
    """Distinct pair densities per lag under the ``PairwiseEvaluator``
    dedup rule: pairs with equal covariate rows are put in canonical count
    order, then pairs with equal (counts, covariates) share one density."""
    y, X = series.y, series.X
    outer = np.arange(weights.m_d, series.n)
    out = []
    for lag in weights.lags:
        i1, i2 = outer - lag, outer
        swap = np.all(X[i1] == X[i2], axis=1) & (y[i1] > y[i2])
        a1, a2 = np.where(swap, i2, i1), np.where(swap, i1, i2)
        key = np.column_stack([y[a1], y[a2], X[a1], X[a2]])
        out.append(int(np.unique(key, axis=0).shape[0]))
    return out


def read_json(path: Path):
    """A job's JSON output, or None when the job left none."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def finite_positive(values) -> bool:
    arr = np.asarray(values, dtype=float)
    return bool(np.all(np.isfinite(arr)) and np.all(arr > 0))


def cli_call(argv: list[str]) -> int:
    """``pairpois <argv>`` in-process, its console output discarded."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad usage this way
        return exc.code if isinstance(exc.code, int) else 1


def cli_failure(code: int) -> str | None:
    if code == cli.EXIT_OK:
        return None
    if code == cli.EXIT_NOT_CONVERGED:
        return "not_converged"
    return f"exit_{code}"


def write_count_csv(path: Path, series: pp.CountSeries, covariates: dict | None = None,
                    start: str = "2000-01") -> None:
    names = list(covariates or {})
    first = cli.month_to_ordinal(start)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "count", *names])
        for t, count in enumerate(series.y):
            row = [cli.ordinal_to_month(first + t), int(count)]
            writer.writerow(row + [repr(float(covariates[n][t])) for n in names])


class Workload:
    """Shared machinery; subclasses define inputs, passes and checks."""

    name = ""
    d = 3
    scheme = "trap"
    n_passes = 1  # distinct passes; each runs once, then the first n_timed repeat
    n_timed = 1

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.weights = pp.make_weights(self.d, self.scheme)

    # -- interface ---------------------------------------------------------

    def warm(self) -> list[float]:
        """The cold warm-up pass: pass 0 run once, untimed.  Besides lazy
        set-up it brings the allocator to the state repeated passes keep
        (a one-shot CLI fit of the Greek series takes about twice as long
        as the same fit after a predict has run).  Returns numbers that a
        fresh process must reproduce."""
        return self.fingerprint(self.run_pass(0, self.prepare(0), UNTRACED))

    def fingerprint(self, jobs: list[Job]) -> list[float]:
        raise NotImplementedError

    def prepare(self, k: int):
        """Inputs of pass k (0 <= k < n_passes), built outside the timed
        region; the same k always gives the same inputs."""
        return None

    def run_pass(self, k: int, inputs, tr, skip=frozenset()) -> list[Job]:
        """The jobs of pass k.  ``skip`` holds ids of jobs that did not
        converge on an earlier run of the pass; a workload whose fits may
        legitimately fail to converge leaves them out rather than time
        them again."""
        raise NotImplementedError

    def check(self, jobs: list[Job]) -> list[str]:
        """Output checks of one pass; marks failing jobs."""
        return []

    def check_run(self, jobs: list[Job]) -> list[str]:
        """Checks over every job of the run (recovery)."""
        return []

    def fits(self, jobs: list[Job], messages: list[str]) -> list[tuple]:
        """(series, estimate, loglik the fit reported) of each distinct
        successful fit with a latent component."""
        raise NotImplementedError

    def probe(self, tr, jobs: list[Job], inputs) -> dict:
        """Per-layer probes on this workload's inputs (traced run only)."""
        raise NotImplementedError

    # -- shared pieces -----------------------------------------------------

    def loglik_errors(self, fits: list[tuple]) -> list[tuple[float, float]]:
        """(|reported loglik - loglik at the same estimate with Q_REF
        nodes|, weighted pair count) per fit.  The reported loglik is the
        one the fit's own evaluator computed, so a change to how fits
        evaluate the likelihood shows here."""
        ref = pp.gauss_hermite(Q_REF)
        pairs = float(np.sum(self.weights.w))
        out = []
        for series, params, reported in fits:
            reference = pp.pairwise_loglik(series, params, self.weights, ref)
            out.append((abs(reported - reference), pairs * (series.n - self.weights.m_d)))
        return out

    def pair_errors(self, fits: list[tuple]) -> list[float]:
        """Cross-check of the quadrature alone: |log p with Q nodes - log p
        with Q_REF nodes| of ``pair_log_density`` for PAIR_SAMPLES pairs
        drawn from the fits' pairs, at each fit's estimate."""
        per_fit = max(1, math.ceil(PAIR_SAMPLES / max(len(fits), 1)))
        rng = np.random.default_rng([PAIR_STREAM, self.seed])
        rule, ref = pp.gauss_hermite(Q), pp.gauss_hermite(Q_REF)
        out = []
        for series, params, _ in fits:
            ts = rng.integers(self.weights.m_d, series.n, size=per_fit)
            lags = rng.choice(self.weights.lags, size=per_fit)
            for t, lag in zip(ts.tolist(), lags.tolist()):
                args = (int(series.y[t - lag]), int(series.y[t]), series.X[t - lag], series.X[t],
                        lag, params)
                out.append(abs(pp.pair_log_density(*args, rule) - pp.pair_log_density(*args, ref)))
        return out

    def probe_model(self, tr, series, result, reps: int = 3) -> dict:
        """Evaluator build, objective calls and sandwich at the estimate,
        plus the computed work counts of one evaluation."""
        rule = pp.gauss_hermite(Q)
        ev = tr.call("model.PairwiseEvaluator", pp.PairwiseEvaluator, series, self.weights, rule)
        working = result.working_hat
        for _ in range(reps):
            tr.call("model.loglik", ev.loglik, working)
        score_s = []
        for _ in range(reps):
            t0 = time.perf_counter()
            tr.call("model.loglik_and_score", ev.loglik_and_score, working)
            score_s.append(time.perf_counter() - t0)
        tracemalloc.start()  # after the timed calls: tracing slows allocation
        ev.loglik_and_score(working)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        with tr.span("sandwich", "bench"):
            tr.call("estimation.sensitivity_H", pp.sensitivity_H, series, working, self.weights, rule)
            tr.call("estimation.variability_J", pp.variability_J, series, working, self.weights, rule)
        pairs = distinct_pairs_per_lag(series, self.weights)
        cells = sum(pairs) * Q * Q
        return {
            "n": series.n,
            "m_d": self.weights.m_d,
            "lags": len(pairs),
            "nodes": Q,
            "pairs_per_lag": pairs,
            "distinct_pairs": sum(pairs),
            "cells": cells,
            "lag_bytes_max": peak,  # measured: every array live at once in the largest lag
            "lag_array_bytes": max(pairs) * Q * Q * 8,  # computed: one pairs x nodes^2 array
            "ns_per_cell": statistics.median(score_s) / cells * 1e9,
        }

    def probe_predict(self, tr, result, X_all: np.ndarray) -> dict:
        tr.call("simulate.predict", pp.predict, result, None, n_sim=N_SIM, seed=self.seed,
                X_insample=X_all)
        rng = np.random.default_rng(self.seed)
        tr.call("simulate.latent_paths", pp.latent_paths, result.params_hat, X_all.shape[0],
                N_SIM, rng)
        return {"horizon": X_all.shape[0], "n_sim": N_SIM}

    def probe_scenarios(self, tr, n: int) -> None:
        """The scenarios layer at this workload's length and weights."""
        tr.call("scenarios.simulate_scenario", pp.simulate_scenario, 5, n, self.seed)
        tr.call("scenarios.run_study_cell", scenarios.run_study_cell, 5, 1, n, self.d,
                self.scheme, Q, self.seed)

    def probe_cli_fit(self, tr, messages, argv, series, result, fit_wall) -> float:
        """CLI fit of ``series`` saved as CSV; returns the CLI wall time
        minus the library fit's, and checks both fits agree."""
        out = argv[argv.index("--output") + 1]
        t0 = time.perf_counter()
        code = tr.call("cli.main", cli_call, argv)
        wall = time.perf_counter() - t0
        with open(out) as handle:
            report = json.load(handle)
        if code not in (cli.EXIT_OK, cli.EXIT_NOT_CONVERGED) or not math.isclose(
            report["loglik"], result.loglik, rel_tol=1e-9
        ):
            messages.append(f"{self.name}: CLI fit (exit {code}) disagrees with pp.fit "
                            f"on the same input")
        return wall - fit_wall


# ---------------------------------------------------------------------------
# surveillance


@dataclass(frozen=True)
class SurvSeries:
    name: str
    file: str
    flags: tuple[str, ...]
    spec: cli.ModelSpec
    exceed_2016: frozenset  # months flagged at the default seed (data README)


SURV_SPEC = dict(d=5, scheme="trapezoidal", quad_order=Q)
SURV_SERIES = (
    SurvSeries("greece", "greece_imd.csv", ("--trend", "--harmonics"),
               cli.ModelSpec(trend=True, harmonics=True, **SURV_SPEC),
               frozenset({"2016-04", "2016-12"})),
    SurvSeries("italy", "italy_imd.csv", ("--level-shift", "2005-03", "--harmonics"),
               cli.ModelSpec(level_shift="2005-03", harmonics=True, **SURV_SPEC),
               frozenset()),
)
SURV_FIT_FLAGS = ("-d", "5", "--weights", "trap", "--nodes", str(Q),
                  "--holdout-months", str(HORIZON))
SURV_RESTRICTIONS = (("fit", ()), ("phi0", ("--restriction", "phi0")),
                     ("indep", ("--restriction", "indep")))
# free parameters of each fit kind: beta always, then sigma2, phi, tau2
SURV_FREE = {"fit": ("sigma2", "phi", "tau2"), "phi0": ("sigma2", "tau2"), "indep": ()}


class Surveillance(Workload):
    name = "surveillance"
    d = 5

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        data_dir = Path(pp.__file__).resolve().parent / "data"
        self.csv = {}
        for s in SURV_SERIES:
            self.csv[s.name] = workdir / s.file
            shutil.copyfile(data_dir / s.file, self.csv[s.name])

    def load(self, s: SurvSeries, tr):
        """Training series and the full-horizon design, as the CLI builds them."""
        data = tr.call("cli.read_count_csv", cli.read_count_csv, str(self.csv[s.name]))
        n_train = data.n - HORIZON
        X, _ = tr.call("cli.build_design", cli.build_design, s.spec, data.months[:n_train], n_train)
        X_all, _ = cli.build_design(s.spec, data.months, n_train)
        return pp.CountSeries(y=data.counts[:n_train], X=X), X_all

    def fingerprint(self, jobs):
        values = []
        for job in jobs:
            if job.kind in FIT_KINDS:
                report = read_json(self.out(job.info["series"], job.kind))
                values.append(math.nan if report is None else report["loglik"])
        return values

    def out(self, s: SurvSeries, kind: str) -> Path:
        return self.workdir / (f"{s.name}_band.csv" if kind == "predict" else f"{s.name}_{kind}.json")

    def run_pass(self, k, inputs, tr, skip=frozenset()):
        for s in SURV_SERIES:  # every pass writes its outputs afresh
            for kind in (*FIT_KINDS, "predict"):
                self.out(s, kind).unlink(missing_ok=True)
        jobs = []
        for s in SURV_SERIES:
            data = str(self.csv[s.name])
            for kind, extra in SURV_RESTRICTIONS:
                argv = ["fit", data, "--output", str(self.out(s, kind)), *s.flags,
                        *SURV_FIT_FLAGS, *extra]
                jobs.append(self.cli_job(tr, f"p{k}/{s.name}/{kind}", kind, argv, s))
            argv = ["predict", str(self.out(s, "fit")), "--output", str(self.out(s, "predict")),
                    "--horizon-months", str(HORIZON), "--n-sim", str(N_SIM),
                    "--seed", str(self.seed), "--data", data]
            jobs.append(self.cli_job(tr, f"p{k}/{s.name}/predict", "predict", argv, s))
        return jobs

    def cli_job(self, tr, jid, kind, argv, s):
        job = run_job(tr, jid, kind, lambda: tr.call("cli.main", cli_call, argv))
        if job.failure is None:
            job.failure = cli_failure(job.value)
        job.info["series"] = s
        return job

    def check(self, jobs):
        messages = []
        reports = {}
        for job in jobs:
            s = job.info["series"]
            if job.kind in FIT_KINDS:
                report = read_json(self.out(s, job.kind))
                job.info["report"] = report
                if job.failure is None:
                    if report is None:
                        fail(job, messages, "exit code 0 but no readable fit report")
                    else:
                        self.check_report(job, report, messages)
                if job.kind == "fit" and report is not None:
                    reports[s.name] = report
            elif job.failure is None:
                self.check_band(job, reports.get(s.name), messages)
        return messages

    def check_report(self, job, report, messages):
        se = report["se"]
        values = list(se["beta"]) + [se[p] for p in SURV_FREE[job.kind]]
        if not report["converged"]:
            fail(job, messages, "report says not converged with exit code 0")
        elif any(v is None for v in values) or not finite_positive(values):
            fail(job, messages, f"non-finite standard errors {values}")
        elif not math.isfinite(report["loglik"]):
            fail(job, messages, "non-finite loglik")

    def check_band(self, job, report, messages):
        """Band layout, exceedance flags, and agreement of the simulated
        mean and 95% bound with the fitted marginal law at every month."""
        s = job.info["series"]
        if report is None:
            fail(job, messages, "no fit report to predict from")
            return
        try:
            with open(self.out(s, "predict"), newline="") as handle:
                rows = list(csv.DictReader(handle))
        except OSError:
            fail(job, messages, "exit code 0 but no band CSV")
            return
        n_rows = report["n_train"] + HORIZON
        if len(rows) != n_rows:
            fail(job, messages, f"band has {len(rows)} rows, expected {n_rows}")
            return
        data = cli.read_count_csv(str(self.csv[s.name]))
        months = [r["date"] for r in rows]
        if months != data.months[:n_rows]:
            fail(job, messages, "band months do not match the data")
            return
        point = np.array([float(r["point"]) for r in rows])
        upper = np.array([float(r["upper95"]) for r in rows])
        observed = data.counts[:n_rows]
        flags = [r["exceeds"] for r in rows]
        expected_flags = ["true" if o > u else "false" for o, u in zip(observed, upper)]
        if [int(r["observed"]) for r in rows] != observed.tolist() or flags != expected_flags:
            fail(job, messages, "observed counts or exceedance flags are wrong")
            return

        est = report["estimates"]
        X_all, _ = cli.build_design(s.spec, data.months[:n_rows], report["n_train"])
        eta = X_all @ np.asarray(est["beta"])
        tau2 = est["tau2"]
        mean = np.exp(eta + 0.5 * tau2)
        sd = np.sqrt((mean + mean * mean * math.expm1(tau2)) / N_SIM)
        if np.any(np.abs(point - mean) > MC_SIGMAS * sd):
            fail(job, messages, "simulated means disagree with the fitted marginal mean")
            return
        x, w = hermgauss(Q_REF)
        rates = np.exp(eta[:, None] + math.sqrt(2.0 * tau2) * x[None, :])

        def cdf(k):
            return pdtr(k[:, None], rates) @ w / math.sqrt(math.pi)

        tol = MC_SIGMAS * math.sqrt(BAND_LEVEL * (1 - BAND_LEVEL) / N_SIM)
        low_ok = cdf(upper) >= BAND_LEVEL - tol
        high_ok = (upper == 0) | (cdf(upper - 1) <= BAND_LEVEL + tol)
        if not (np.all(low_ok) and np.all(high_ok)):
            fail(job, messages, "upper95 is not the 95% quantile of the fitted law")
            return
        if self.seed == DEFAULT_SEED:
            flagged = {m for m, f in zip(months, flags) if m.startswith("2016") and f == "true"}
            if flagged != s.exceed_2016:
                fail(job, messages, f"2016 exceedances {sorted(flagged)}, "
                                    f"expected {sorted(s.exceed_2016)}")

    def fits(self, jobs, messages):
        out, seen = [], set()
        for job in jobs:
            if job.kind not in ("fit", "phi0") or job.failure is not None:
                continue
            s, report = job.info["series"], job.info["report"]
            if (s.name, job.kind) in seen:
                continue
            seen.add((s.name, job.kind))
            est = report["estimates"]
            params = pp.Params(beta=np.asarray(est["beta"]), sigma2=est["sigma2"], phi=est["phi"])
            out.append((self.load(s, UNTRACED)[0], params, report["loglik"]))
        return out

    def probe(self, tr, jobs, inputs):
        extra = {"messages": [], "iterations": [], "models": [], "cli_overhead": [],
                 "predict": []}
        for s in SURV_SERIES:
            with tr.span("job", "bench", job=f"probe/{s.name}"):
                series, X_all = self.load(s, tr)
                tr.call("estimation.moment_init", pp.moment_init, series)
                t0 = time.perf_counter()
                result = tr.call("estimation.fit", pp.fit, series, self.weights, quad_order=Q)
                fit_wall = time.perf_counter() - t0
                tr.call("estimation.fit_restricted", pp.fit_restricted, series, self.weights,
                        quad_order=Q, restriction=pp.PHI_ZERO)
                extra["iterations"].append(result.iterations)
                extra["models"].append(self.probe_model(tr, series, result))
                extra["predict"].append(self.probe_predict(tr, result, X_all))
                cli_fit = next(j for j in jobs if j.info["series"] is s and j.kind == "fit")
                if cli_fit.failure is not None or not math.isclose(
                    cli_fit.info["report"]["loglik"], result.loglik, rel_tol=1e-9
                ):
                    extra["messages"].append(f"{s.name}: CLI fit failed or disagrees with pp.fit")
                extra["cli_overhead"].append(cli_fit.wall - fit_wall)
        with tr.span("job", "bench", job="probe/scenarios"):
            self.probe_scenarios(tr, series.n)
        return extra


# ---------------------------------------------------------------------------
# study

STUDY_IDS = (3, 5, 8)
STUDY_PARAMS = ("beta", "sigma2", "phi", "tau2")
STUDY_REPLICATES = 24  # replicates per scenario, one per pass (6 when tiny)
STUDY_TIMED = 16  # passes that repeat for the times (3 when tiny)
RECOVERY_MIN_FITS = 8  # fewer converged fits of a scenario: recovery unchecked
RECOVERY_SDS = 1.5  # allowed |median - truth| in robust SDs of the estimates


class Study(Workload):
    name = "study"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.n_len = 500  # a pass is already small; tiny runs just run fewer
        self.n_passes = 6 if tiny else STUDY_REPLICATES
        self.n_timed = 3 if tiny else STUDY_TIMED

    def rep_seed(self, k: int) -> int:
        """Harness seed of the replicates of pass k."""
        return self.seed * 1_000_000 + k

    def fingerprint(self, jobs):
        return [float(np.nan_to_num(j.value.estimates[0][0])) for j in jobs if j.value is not None]

    def run_pass(self, k, inputs, tr, skip=frozenset()):
        jobs = []
        seed = self.rep_seed(k)
        for sid in STUDY_IDS:
            jid = f"p{k}/s{sid}"
            if jid in skip:
                continue
            job = run_job(tr, jid, "fit", lambda: tr.call(
                "scenarios.run_study_cell", scenarios.run_study_cell,
                sid, 1, self.n_len, self.d, self.scheme, Q, seed))
            job.info.update(scenario=sid, seed=seed)
            if job.failure is None:
                cell = job.value
                if not np.all(np.isfinite(cell.estimates[0])):
                    job.failure = "raised"  # the harness records a raised fit as NaN
                else:
                    job.converged = bool(cell.converged[0])
            jobs.append(job)
        return jobs

    def check(self, jobs):
        """Every fit's estimates are consistent; a converged fit also has
        finite positive standard errors."""
        messages = []
        for job in jobs:
            if job.failure is not None:
                continue
            beta, sigma2, phi, tau2 = job.value.estimates[0]
            if job.converged and not finite_positive(job.value.ses[0]):
                fail(job, messages, f"non-finite standard errors {job.value.ses[0]}")
            elif not (sigma2 > 0 and abs(phi) < 1
                      and math.isclose(tau2, sigma2 / (1 - phi * phi), rel_tol=1e-9)):
                fail(job, messages, f"inconsistent estimates {job.value.estimates[0]}")
        return messages

    def check_run(self, jobs):
        """Recovery: per scenario, the median estimate of each parameter
        lies within RECOVERY_SDS robust SDs of the generating value."""
        messages = []
        for sid in STUDY_IDS:
            est = np.array([j.value.estimates[0] for j in jobs
                            if j.failure is None and j.converged and j.info["scenario"] == sid])
            if est.shape[0] < RECOVERY_MIN_FITS:
                continue
            truth = scenarios.SCENARIOS[sid].true_values()
            for idx, name in enumerate(STUDY_PARAMS):
                med = float(np.median(est[:, idx]))
                spread = 1.4826 * float(np.median(np.abs(est[:, idx] - med)))
                if abs(med - truth[name]) > RECOVERY_SDS * spread:
                    messages.append(
                        f"study: scenario {sid} {name} median {med:.4f} vs true "
                        f"{truth[name]:.4f} (robust sd {spread:.4f}, {est.shape[0]} fits)")
        return messages

    def fits(self, jobs, messages):
        """The harness keeps estimates, not the loglik, so the converged
        fits are repeated with the ``pp.fit`` call the harness makes, and
        must give its estimates."""
        out = []
        for job in jobs:
            if job.failure is not None or not job.converged:
                continue
            series = pp.simulate_scenario(job.info["scenario"], self.n_len, job.info["seed"])
            result = pp.fit(series, self.weights, quad_order=Q)
            p = result.params_hat
            if not np.array_equal([p.beta[0], p.sigma2, p.phi, p.tau2], job.value.estimates[0]):
                messages.append(f"{job.id}: pp.fit on the replicate gives other estimates "
                                f"than the study harness")
            out.append((series, p, result.loglik))
        return out

    def probe(self, tr, jobs, inputs):
        extra = {"messages": [], "iterations": [], "models": [], "cli_overhead": [],
                 "predict": []}
        spec = cli.ModelSpec(d=self.d, scheme="trapezoidal", quad_order=Q)
        for sid in STUDY_IDS:
            with tr.span("job", "bench", job=f"probe/s{sid}"):
                series = tr.call("scenarios.simulate_scenario", pp.simulate_scenario, sid,
                                 self.n_len, self.rep_seed(0))
                path = self.workdir / f"study_s{sid}.csv"
                write_count_csv(path, series)
                data = tr.call("cli.read_count_csv", cli.read_count_csv, str(path))
                tr.call("cli.build_design", cli.build_design, spec, data.months, data.n)
                tr.call("estimation.moment_init", pp.moment_init, series)
                t0 = time.perf_counter()
                result = tr.call("estimation.fit", pp.fit, series, self.weights, quad_order=Q)
                fit_wall = time.perf_counter() - t0
                tr.call("estimation.fit_restricted", pp.fit_restricted, series, self.weights,
                        quad_order=Q, restriction=pp.PHI_ZERO)
                extra["iterations"].append(result.iterations)
                extra["models"].append(self.probe_model(tr, series, result))
                argv = ["fit", str(path), "--output", str(self.workdir / f"study_s{sid}.json"),
                        "-d", str(self.d), "--weights", self.scheme, "--nodes", str(Q)]
                extra["cli_overhead"].append(
                    self.probe_cli_fit(tr, extra["messages"], argv, series, result, fit_wall))
                if result.converged:
                    X_all = np.ones((self.n_len + HORIZON, 1))
                    extra["predict"].append(self.probe_predict(tr, result, X_all))
        return extra


# ---------------------------------------------------------------------------
# large_covariate

LARGE_BETA = np.array([1.0, -0.5, 0.3, 0.2, 0.2, -0.1])  # 1, trend, sin, cos, x1, x2
LARGE_TAU2 = 0.3
LARGE_PHI = 0.5
LARGE_PARAMS = pp.Params(beta=LARGE_BETA, sigma2=LARGE_TAU2 * (1 - LARGE_PHI**2), phi=LARGE_PHI)
RECOVERY_SES = 6.0  # allowed |estimate - truth| in the fit's own standard errors
COVARIATE_STREAM = 7919  # keeps the covariate draws apart from the simulation stream
WARM_MAX_ITER = 3


class LargeCovariate(Workload):
    name = "large_covariate"
    n_passes = n_timed = 2

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.n = 300 if tiny else 2000

    def prepare(self, k):
        """Series k and its design over the n months plus the horizon; the
        design is the one ``pairpois fit --trend --harmonics --covariates
        x1,x2`` builds."""
        rows = self.n + HORIZON
        t = np.arange(1, rows + 1, dtype=float)
        rng = np.random.default_rng([COVARIATE_STREAM, self.seed, k])
        z = rng.standard_normal((2, rows))
        X_all = np.column_stack([np.ones(rows), t / self.n, np.sin(2.0 * math.pi * t / 12),
                                 np.cos(2.0 * math.pi * t / 12), z[0], z[1]])
        config = pp.SimConfig(params=LARGE_PARAMS, X=X_all[: self.n], n_rep=1,
                              seed=self.seed * 1000 + k)
        return pp.simulate_series(config), X_all

    def warm(self):
        """Pass 0 with its fit capped at WARM_MAX_ITER iterations: a full
        fit would make three fresh-process set-ups cost half a minute, and
        at this size the allocator effect is within the fit's noise."""
        series, _ = self.prepare(0)
        return [pp.fit(series, self.weights, quad_order=Q, max_iter=WARM_MAX_ITER).loglik]

    def run_pass(self, k, inputs, tr, skip=frozenset()):
        series, _ = inputs
        job = run_job(tr, f"p{k}/fit", "fit", lambda: tr.call(
            "estimation.fit", pp.fit, series, self.weights, quad_order=Q))
        if job.failure is None and not job.value.converged:
            job.failure = "not_converged"
        job.info["series"] = series
        return [job]

    def check(self, jobs):
        messages = []
        p1 = LARGE_BETA.shape[0]
        truth = np.concatenate([LARGE_BETA, [LARGE_PARAMS.sigma2, LARGE_PHI, LARGE_TAU2]])
        for job in jobs:
            if job.failure is not None:
                continue
            result = job.value
            p = result.params_hat
            est = np.concatenate([p.beta, [p.sigma2, p.phi, p.tau2]])
            if not finite_positive(result.se):
                fail(job, messages, f"non-finite standard errors {result.se}")
                continue
            z = np.abs(est - truth) / result.se
            if np.any(z > RECOVERY_SES):
                worst = int(np.argmax(z))
                name = f"beta[{worst}]" if worst < p1 else ("sigma2", "phi", "tau2")[worst - p1]
                fail(job, messages, f"{name} = {est[worst]:.4f} is {z[worst]:.1f} SEs "
                                    f"from the true {truth[worst]:.4f}")
        return messages

    def fits(self, jobs, messages):
        out, seen = [], set()
        for job in jobs:
            if job.failure is None and job.id not in seen:
                seen.add(job.id)
                out.append((job.info["series"], job.value.params_hat, job.value.loglik))
        return out

    def probe(self, tr, jobs, inputs):
        extra = {"messages": [], "iterations": [], "models": [], "cli_overhead": [],
                 "predict": []}
        series, X_all = inputs
        job = jobs[0]
        with tr.span("job", "bench", job="probe/series0"):
            tr.call("estimation.moment_init", pp.moment_init, series)
            path = self.workdir / "large.csv"
            covariates = {"x1": X_all[: self.n, 4], "x2": X_all[: self.n, 5]}
            write_count_csv(path, series, covariates, start="1850-01")
            data = tr.call("cli.read_count_csv", cli.read_count_csv, str(path))
            spec = cli.ModelSpec(trend=True, harmonics=True, covariates=("x1", "x2"), d=self.d,
                                 scheme="trapezoidal", quad_order=Q)
            X, _ = tr.call("cli.build_design", cli.build_design, spec, data.months, data.n,
                           data.covariates)
            if not np.array_equal(X, series.X):
                extra["messages"].append("large_covariate: CLI design differs from the input")
            if job.failure is None:
                result = job.value
                tr.call("estimation.fit_restricted", pp.fit_restricted, series, self.weights,
                        quad_order=Q, restriction=pp.PHI_ZERO)
                extra["iterations"].append(result.iterations)
                extra["models"].append(self.probe_model(tr, series, result))
                argv = ["fit", str(path), "--output", str(self.workdir / "large.json"),
                        "--trend", "--harmonics", "--covariates", "x1,x2",
                        "-d", str(self.d), "--weights", self.scheme, "--nodes", str(Q)]
                extra["cli_overhead"].append(self.probe_cli_fit(
                    tr, extra["messages"], argv, series, result, tr.durations("estimation.fit")[0]))
                extra["predict"].append(self.probe_predict(tr, result, X_all))
        with tr.span("job", "bench", job="probe/scenarios"):
            self.probe_scenarios(tr, self.n)
        return extra


WORKLOADS = {w.name: w for w in (Surveillance, Study, LargeCovariate)}
