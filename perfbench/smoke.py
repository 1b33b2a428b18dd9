"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. Runs every workload (those in BENCHMARK.json and ``large_covariate``,
   which is run by hand) at a tiny size, untraced and traced, and checks
   that the result line names every BENCHMARK.json metric with its unit,
   that every metric is printed by name with its unit, and that the
   output checks pass.
2. Breaks outputs on purpose (a missing fit report, a truncated band
   CSV, a flipped exceedance flag, shifted estimates, inconsistent
   estimates) and checks that the output checks catch each one.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark, where it must fail without printing a result.

Exits 0 when everything holds, 1 otherwise.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_work" / "smoke"

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result_lines() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]] + ["large_covariate"]:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            proc = run_bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", trace, "--tiny")
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what} exits 0 (stderr: {proc.stderr[-500:]})")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            units = {m["name"]: m["unit"] for m in spec[section]}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result keys")
            expect(result["correct"] is True and result["attempted"] >= 1, f"{what}: checks pass")
            expect({k: v["unit"] for k, v in result["metrics"].items()} == units,
                   f"{what}: every {section} metric with its unit")
            printed = [line for line in lines if line.startswith("metric ")]
            expect(all(any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                           for line in printed) for name, unit in units.items()),
                   f"{what}: every metric printed by name with its unit")


def check_broken_outputs() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import pairpois as pp
    import workloads as W

    work = SCRATCH / "broken"
    work.mkdir(parents=True, exist_ok=True)

    surv = W.Surveillance(W.DEFAULT_SEED, True, work)
    jobs = surv.run_pass(0, None, W.UNTRACED)

    def recheck():
        for job in jobs:
            job.failure = None
        return surv.check(jobs)

    expect(recheck() == [], "surveillance: intact outputs pass")
    report = surv.out(W.SURV_SERIES[0], "fit")
    text = report.read_text()
    report.unlink()
    expect(any("no readable fit report" in m for m in recheck()),
           "surveillance: a fit that exits 0 without a report fails")
    report.write_text(text)
    band = surv.out(W.SURV_SERIES[0], "predict")
    rows = band.read_text().splitlines()
    band.write_text("\n".join(rows[:-1]) + "\n")
    expect(any("rows" in m for m in recheck()), "surveillance: truncated band CSV fails")
    with open(band, "w", newline="") as handle:
        handle.write("\n".join(rows) + "\n")
    with open(band, newline="") as handle:
        table = list(csv.reader(handle))
    table[-1][4] = "false" if table[-1][4] == "true" else "true"
    with open(band, "w", newline="") as handle:
        csv.writer(handle).writerows(table)
    expect(any("flags" in m for m in recheck()), "surveillance: flipped exceedance flag fails")
    for row in table[1:]:
        row[1] = repr(1.5 * float(row[1]))
    table[-1][4] = "false" if table[-1][4] == "true" else "true"
    with open(band, "w", newline="") as handle:
        csv.writer(handle).writerows(table)
    expect(any("mean" in m for m in recheck()), "surveillance: inflated band means fail")

    study = W.Study(W.DEFAULT_SEED, True, work)
    jobs = [j for k in range(10) for j in study.run_pass(k, None, W.UNTRACED)]
    expect(study.check(jobs) == [] and study.check_run(jobs) == [], "study: intact outputs pass")
    again = study.run_pass(0, None, W.UNTRACED, skip={"p0/s8"})
    expect([j.id for j in again] == ["p0/s3", "p0/s5"], "study: a skipped job is not run again")
    ok = [j for j in jobs if j.failure is None]
    for job in ok:
        job.value.estimates[0][0] += 1.0
    expect(len(study.check_run(jobs)) > 0, "study: shifted intercepts fail recovery")
    ok[0].value.estimates[0][3] *= 2.0
    expect(len(study.check(jobs)) > 0, "study: inconsistent tau2 fails")

    large = W.LargeCovariate(W.DEFAULT_SEED, True, work)
    jobs = large.run_pass(0, large.prepare(0), W.UNTRACED)
    expect(large.check(jobs) == [], "large_covariate: intact outputs pass")
    result = jobs[0].value
    wrong = pp.Params(beta=-result.params_hat.beta, sigma2=result.params_hat.sigma2,
                      phi=result.params_hat.phi)
    jobs[0].value = dataclasses.replace(result, params_hat=wrong)
    expect(len(large.check(jobs)) > 0 and jobs[0].failure == "check",
           "large_covariate: sign-flipped coefficients fail recovery")


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "--workload", "study", "--seed", "1", "--seconds", "1", "--trace", "0")
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           "without pairpois sources the benchmark fails and prints no result")


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        check_bare_directory()
        check_broken_outputs()
        check_result_lines()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
