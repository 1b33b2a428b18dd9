"""pairpois benchmark: one command that runs a workload, checks its
outputs and prints every metric by name with its unit.

    python3 perfbench/run.py --workload surveillance --seed 1 --seconds 15 --trace 0

Run from the root of a pairpois source tree; pairpois is imported from
``src/``.  One closed-loop client in one thread, with the BLAS and
OpenMP thread pools pinned to one thread.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: set-up
time (the median of several fresh-process set-ups), then every pass of
the workload once and its timed passes in a cycle for ``--seconds``,
then the accuracy pass and the output checks, all outside the timed
regions.
``--trace 1`` reports the per-layer metrics instead: one untraced and one
traced pass of the same jobs, layer probes around the calls the
benchmark makes into each pairpois module, and the tracing overhead.
Spans, their self times and an environment stamp are written to
``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)  # before numpy loads its BLAS

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 3  # fresh-process set-ups per run; setup_s is their median
RULE_PROBES = 5
TAIL_BEYOND = 10  # samples above the fit_s_tail value
WORKLOAD_NAMES = ("surveillance", "study", "large_covariate")


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the inputs (smoke testing only)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def median(values):
    values = list(values)
    if not values:
        raise BenchError("a metric has no samples")
    return statistics.median(values)


def tail(samples):
    """The highest sample with at least TAIL_BEYOND samples above it, and
    its percentile; the maximum when there are too few samples."""
    xs = sorted(samples)
    if not xs:
        raise BenchError("no converged fit to time")
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[-TAIL_BEYOND - 1], 100.0 * (len(xs) - TAIL_BEYOND) / len(xs)


def env_stamp(args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the stamp is best-effort; never fail a run over it
        blas = "unknown"
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "caches": caches,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def setup_probe(args, workdir: Path) -> tuple[float, list[float]]:
    """One fresh interpreter: import, inputs, cold warm-up.  Returns its
    wall time and the fingerprint it printed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", "--workdir", str(workdir)]
    if args.tiny:
        cmd.append("--tiny")
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def accuracy(wl, jobs, messages) -> list[tuple[float, float]]:
    """The accuracy pass, after timing: each distinct successful fit's
    reported loglik against a Q_REF-node loglik at the same estimate, as
    (absolute error, weighted pair count).  Prints the pair-level
    quadrature cross-check beside it."""
    fits = wl.fits(jobs, messages)
    if not fits:
        raise BenchError("no successful fit for the accuracy pass")
    errors = wl.loglik_errors(fits)
    p90 = statistics.quantiles(wl.pair_errors(fits), n=10)[-1]
    print(f"accuracy pass over {len(fits)} fits: per-pair |loglik error| "
          + ", ".join(f"{e / n:.3e}" for e, n in errors)
          + f"; cross-check: 90th percentile |log p error| of single pairs {p90:.3e}")
    return errors


def end_to_end(runs, n_timed, setup_walls, loglik_errors) -> dict:
    """Jobs with the same id are the same work; each counts at its best
    run.  On a shared 2-vCPU Xeon virtual machine one fixed objective
    evaluation swings between 1.3 and 2.5 ms in phases lasting seconds,
    and the best of runs seconds apart is what repeats.  Times come from
    the passes below ``n_timed``, which repeat; ``ok_frac`` from every
    pass."""
    from workloads import FIT_KINDS

    best, passes = {}, {}
    for key, jobs in runs:
        passes.setdefault(key, jobs)
        for j in jobs:
            best[j.id] = min(best.get(j.id, math.inf), j.wall)
    fits = [j for jobs in passes.values() for j in jobs if j.kind in FIT_KINDS]
    ok = [j for j in fits if j.failure is None and j.converged]
    timed = [jobs for key, jobs in passes.items() if key < n_timed]
    pass_walls = [sum(best[j.id] for j in jobs) for jobs in timed]
    fit_walls = [best[j.id] for jobs in timed for j in jobs
                 if j.kind == "fit" and j.failure is None and j.converged]
    session = median(pass_walls)
    tail_value, tail_pct = tail(fit_walls)
    # digits of agreement per fit; with two fits the median is their mean
    # digits, which one badly resolved series sways less than the mean error
    digits = median(-math.log10(max(err / pairs, 1e-16)) for err, pairs in loglik_errors)
    times_run = Counter(j.id for _, jobs in runs for j in jobs)
    repeats = [times_run[j.id] for jobs in timed for j in jobs]
    print(f"passes run: {len(runs)}, distinct: {len(passes)}, timed: {len(timed)}; each timed "
          f"job run {min(repeats)} to {max(repeats)} times; converged timed full fits: "
          f"{len(fit_walls)}; fit_s_tail is p{tail_pct:.1f}")
    return {
        "setup_s": median(setup_walls),
        "session_s": session,
        "fit_s": median(fit_walls),
        "fit_s_tail": tail_value,
        "fits_per_s": sum(j.kind in FIT_KINDS for jobs in timed for j in jobs) / len(timed) / session,
        "ok_frac": len(ok) / len(fits),
        "loglik_digits": digits,
    }


def per_layer(tr, extra, loglik_errors, untraced_s, traced_s) -> dict:
    def med(name):
        return median(tr.durations(name))

    models = extra["models"]
    if not models:
        raise BenchError("no fit to probe the model layer with")
    score_s = med("model.loglik_and_score")
    fit_s = med("estimation.fit")
    predicts = tr.durations("simulate.predict")
    draws = [p["n_sim"] * p["horizon"] / dt for p, dt in zip(extra["predict"], predicts)]
    cells = median(m["cells"] for m in models)
    return {
        "cli.read_csv_s": med("cli.read_count_csv"),
        "cli.design_s": med("cli.build_design"),
        "cli.overhead_s": median(extra["cli_overhead"]),
        "estimation.init_s": med("estimation.moment_init"),
        "estimation.sandwich_s": med("sandwich"),
        "estimation.fit_s": fit_s,
        "estimation.restricted_s": med("estimation.fit_restricted"),
        "estimation.iterations": median(extra["iterations"]),
        "estimation.eval_equiv": fit_s / score_s,
        "model.build_s": med("model.PairwiseEvaluator"),
        "model.loglik_s": med("model.loglik"),
        "model.score_s": score_s,
        "model.distinct_pairs": median(m["distinct_pairs"] for m in models),
        "model.cells_per_eval": cells,
        "model.bytes_per_eval": 8 * cells,
        "model.lag_bytes_max": median(m["lag_bytes_max"] for m in models),
        "model.ns_per_cell": median(m["ns_per_cell"] for m in models),
        "quadrature.rule_s": med("quadrature.gauss_hermite"),
        "quadrature.loglik_err": max(err for err, _ in loglik_errors),
        "simulate.predict_s": median(predicts),
        "simulate.paths_s": med("simulate.latent_paths"),
        "simulate.draws_per_s": median(draws),
        "scenarios.simulate_s": med("scenarios.simulate_scenario"),
        "scenarios.cell_s": med("scenarios.run_study_cell"),
        "bench.trace_overhead_s": traced_s - untraced_s,
    }


def measure(args, wl, workdir):
    """Untraced run: set-ups, timed passes, accuracy pass, checks."""
    setups = [setup_probe(args, workdir / f"setup{i}") for i in range(SETUP_RUNS)]
    fingerprint = wl.warm()
    messages = []
    for _, fp in setups:
        if not all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(fp, fingerprint)):
            messages.append(f"set-up in a fresh process gave {fp}, in-process {fingerprint}")
    from workloads import UNTRACED

    inputs, runs, once = {}, [], set()

    def run_pass(key):
        if key not in inputs:
            inputs[key] = wl.prepare(key)
        jobs = wl.run_pass(key, inputs[key], UNTRACED, skip=once)
        once.update(j.id for j in jobs if not j.converged)
        messages.extend(wl.check(jobs))
        runs.append((key, jobs))

    for key in range(wl.n_passes):
        run_pass(key)
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        run_pass(len(runs) % wl.n_timed)
    distinct = [j for _, jobs in runs[: wl.n_passes] for j in jobs]
    messages += wl.check_run(distinct)
    metrics = end_to_end(runs, wl.n_timed, [w for w, _ in setups],
                         accuracy(wl, distinct, messages))
    executed = [j for _, jobs in runs for j in jobs]
    walls = {}
    for j in executed:
        walls.setdefault(j.id, []).append(j.wall)
    return metrics, executed, messages, {"setup_walls": [w for w, _ in setups],
                                         "job_walls": walls}


def measure_traced(args, wl, workdir):
    """Traced run: an untraced and a traced pass of pass 0, layer probes."""
    import pairpois as pp
    from tracing import Tracer
    from workloads import Q, UNTRACED

    wl.warm()
    inputs = wl.prepare(0)
    t0 = time.perf_counter()
    plain = wl.run_pass(0, inputs, UNTRACED)
    untraced_s = time.perf_counter() - t0
    messages = wl.check(plain)

    tr = Tracer(True)
    with tr.span("pass", "bench", job="p0"):
        t0 = time.perf_counter()
        jobs = wl.run_pass(0, inputs, tr)
        traced_s = time.perf_counter() - t0
    messages += wl.check(jobs)
    with tr.span("job", "bench", job="probe/quadrature"):
        for _ in range(RULE_PROBES):
            pp.gauss_hermite.cache_clear()
            tr.call("quadrature.gauss_hermite", pp.gauss_hermite, Q)
    extra = wl.probe(tr, jobs, inputs)
    messages += extra["messages"]
    metrics = per_layer(tr, extra, accuracy(wl, jobs, messages), untraced_s, traced_s)

    self_pass = tr.self_by_layer("p0")
    print("self time per layer in the traced pass: "
          + ", ".join(f"{k} {v:.4f} s" for k, v in sorted(self_pass.items())))
    print(f"tracing overhead: traced pass {traced_s:.4f} s - untraced {untraced_s:.4f} s")
    for m in extra["models"]:
        print("work counts of one evaluation at the estimate (computed from array sizes; "
              "lag_bytes_max measured): "
              + json.dumps({k: m[k] for k in ("n", "m_d", "lags", "nodes", "pairs_per_lag",
                                               "distinct_pairs", "cells", "lag_array_bytes",
                                               "lag_bytes_max")}))
    details = {"spans": tr.export(), "self_s_by_layer_pass": self_pass,
               "untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
               "models": extra["models"], "iterations": extra["iterations"]}
    return metrics, plain + jobs, messages, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pairpois" / "__init__.py").is_file():
        print(f"error: no pairpois sources under {ROOT / 'src'}; run from a pairpois "
              "source tree", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.setup_probe:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, Path(args.workdir))
        print(json.dumps(wl.warm()))
        return 0

    spec = json.loads(spec_path.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        stamp = env_stamp(args)
        print("env: " + json.dumps(stamp, sort_keys=True))
        wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        run = measure_traced if args.trace else measure
        metrics, jobs, messages, details = run(args, wl, workdir)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              f"BENCHMARK.json {section}", file=sys.stderr)
        return 1
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    failures = {}
    for job in jobs:
        if job.failure is not None:
            failures[job.failure] = failures.get(job.failure, 0) + 1
            if "error" in job.info:
                print(f"job {job.id} raised: {job.info['error']}")
    attempted, failed = len(jobs), sum(failures.values())
    for message in messages:
        print(f"CHECK FAILED: {message}")
    print(f"jobs: {attempted} attempted, {failed} failed {failures}; "
          f"fail_frac = {failed / attempted:.4f}")
    print(f"output checks: {'all passed' if not messages else f'{len(messages)} failed'}")
    for name in units:
        print(f"metric {name} = {metrics[name]!r} {units[name]}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"env": stamp, "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "attempted": attempted, "failed": failed, "failures": failures,
              "check_failures": messages, **details}
    out.write_text(json.dumps(record, indent=1, default=str))
    print(f"details written to {out.relative_to(ROOT)}")

    result = {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
