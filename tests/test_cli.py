import csv
import json
import pathlib

import numpy as np
import pytest

import pairpois as pp
from pairpois import cli

DATA_DIR = pathlib.Path(pp.__file__).parent / "data"


def write_rows(path, rows, header=("date", "count")):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def months(start, n):
    base = cli.month_to_ordinal(start)
    return [cli.ordinal_to_month(base + k) for k in range(n)]


@pytest.fixture()
def sim_csv(tmp_path):
    path = tmp_path / "sim.csv"
    rc = cli.main(
        ["simulate", "--scenario", "5", "--n", "200", "--seed", "11", "--output", str(path)]
    )
    assert rc == 0
    return str(path)


# ---------------------------------------------------------------------------
# CSV validation


@pytest.mark.parametrize(
    "rows,fragment",
    [
        ([("1999-01", 1), ("1999-03", 2)], "gap in months"),
        ([("1999-01", 1), ("1999-01", 2)], "duplicate date"),
        ([("1999-02", 1), ("1999-01", 2)], "out of order"),
        ([("1999-01", -3)], "negative count"),
        ([("1999-01", "2.5")], "not an integer"),
        ([("1999-13", 1)], "month out of range"),
        ([("199901", 1)], "expected a YYYY-MM month"),
    ],
)
def test_csv_validation_messages(tmp_path, capsys, rows, fragment):
    path = write_rows(tmp_path / "bad.csv", rows)
    rc = cli.main(["fit", path, "--output", str(tmp_path / "out.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert fragment in err
    assert "line 2" in err or "line 3" in err


def test_csv_bad_header(tmp_path, capsys):
    path = write_rows(tmp_path / "bad.csv", [("1999-01", 1)], header=("month", "cases"))
    rc = cli.main(["fit", path, "--output", str(tmp_path / "out.json")])
    assert rc == 1
    assert "header" in capsys.readouterr().err


def test_csv_non_numeric_covariate(tmp_path, capsys):
    path = write_rows(
        tmp_path / "bad.csv",
        [("1999-01", 1, "x"), ("1999-02", 2, "0.5")],
        header=("date", "count", "z"),
    )
    rc = cli.main(["fit", path, "--output", str(tmp_path / "out.json")])
    assert rc == 1
    assert "not numeric" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# weights subcommand


def test_weights_rectangular_table(capsys):
    assert cli.main(["weights", "-d", "10", "--weights", "rect"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip() and l.strip()[0].isdigit()]
    assert len(lines) == 10
    assert all(line.split()[2] == "0.100000" for line in lines)


def test_weights_trapezoidal_table(capsys):
    assert cli.main(["weights", "-d", "10", "--weights", "trap"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip() and l.strip()[0].isdigit()]
    assert len(lines) == 19  # nonzero entries only
    unnorm = [float(line.split()[1]) for line in lines]
    assert unnorm[:9] == [1.0] * 9
    assert all(a > b for a, b in zip(unnorm[9:], unnorm[10:]))
    assert "m_d = 20" in out


def test_weights_trap_d1(capsys):
    assert cli.main(["weights", "-d", "1", "--weights", "trap"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip() and l.strip()[0].isdigit()]
    assert len(lines) == 1
    assert float(lines[0].split()[2]) == 1.0


# ---------------------------------------------------------------------------
# simulate subcommand


def test_simulate_deterministic_and_parseable(tmp_path, sim_csv):
    other = tmp_path / "again.csv"
    cli.main(["simulate", "--scenario", "5", "--n", "200", "--seed", "11", "--output", str(other)])
    assert pathlib.Path(sim_csv).read_bytes() == other.read_bytes()
    parsed = cli.read_count_csv(sim_csv)
    assert parsed.n == 200
    assert parsed.months[0] == "2000-01"


def test_simulate_requires_parameters(tmp_path, capsys):
    rc = cli.main(["simulate", "--output", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "--scenario" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fit subcommand


def test_fit_intercept_only_matches_library(tmp_path, sim_csv):
    report_path = tmp_path / "report.json"
    rc = cli.main(
        ["fit", sim_csv, "--output", str(report_path), "-d", "1", "--weights", "rect",
         "--nodes", "20"]
    )
    assert rc == 0
    report = json.loads(report_path.read_text())

    parsed = cli.read_count_csv(sim_csv)
    series = pp.CountSeries(y=parsed.counts, X=np.ones((parsed.n, 1)))
    direct = pp.fit(series, pp.make_weights(1, "rect"), quad_order=20)
    assert report["estimates"]["beta"] == [direct.params_hat.beta[0]]
    assert report["estimates"]["phi"] == direct.params_hat.phi
    assert report["estimates"]["tau2"] == direct.params_hat.tau2
    assert report["loglik"] == direct.loglik
    assert report["clic"] == direct.clic
    assert report["hac_lags_used"] == pp.default_hac_lags(parsed.n)
    assert report["schema_version"] == 1
    for key in ("min", "median", "max"):
        assert key in report["dispersion_index"]


def test_fit_holdout_and_flags(tmp_path):
    report_path = tmp_path / "greek.json"
    rc = cli.main(
        ["fit", str(DATA_DIR / "greece_imd.csv"), "--output", str(report_path),
         "-d", "1", "--weights", "trap", "--nodes", "10", "--trend", "--harmonics",
         "--holdout-months", "12", "--hac-lags", "10"]
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["n_total"] == 216
    assert report["n_train"] == 204
    assert report["holdout_months"] == 12
    assert report["hac_lags_used"] == 10
    assert report["coef_names"] == ["intercept", "trend", "sin", "cos"]
    assert report["weights"]["m_d"] == 2
    assert len(report["X_train"]) == 204


def test_fit_restrictions(tmp_path, sim_csv):
    indep_path = tmp_path / "indep.json"
    rc = cli.main(
        ["fit", sim_csv, "--output", str(indep_path), "--restriction", "indep"]
    )
    assert rc == 0
    indep = json.loads(indep_path.read_text())
    assert indep["model"]["restriction"] == "independence"
    assert indep["estimates"]["sigma2"] == 0.0
    assert indep["se"]["phi"] is None

    phi0_path = tmp_path / "phi0.json"
    rc = cli.main(["fit", sim_csv, "--output", str(phi0_path), "--restriction", "phi0"])
    assert rc == 0
    phi0 = json.loads(phi0_path.read_text())
    assert phi0["estimates"]["phi"] == 0.0
    assert phi0["estimates"]["sigma2"] > 0


def test_fit_non_convergence_exit_code(tmp_path, sim_csv):
    rc = cli.main(
        ["fit", sim_csv, "--output", str(tmp_path / "r.json"), "--max-iter", "1"]
    )
    assert rc == cli.EXIT_NOT_CONVERGED


def test_fit_level_shift_outside_window(tmp_path, sim_csv, capsys):
    rc = cli.main(
        ["fit", sim_csv, "--output", str(tmp_path / "r.json"), "--level-shift", "2050-01"]
    )
    assert rc == 1
    assert "training window" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# predict subcommand


@pytest.fixture()
def greek_report(tmp_path):
    report_path = tmp_path / "greek.json"
    rc = cli.main(
        ["fit", str(DATA_DIR / "greece_imd.csv"), "--output", str(report_path),
         "-d", "1", "--weights", "trap", "--nodes", "10", "--trend", "--harmonics",
         "--holdout-months", "12"]
    )
    assert rc == 0
    return report_path


def test_predict_round_trips_estimates(greek_report):
    report = json.loads(greek_report.read_text())
    result, _ = cli._result_from_report(report)
    direct = json.loads(greek_report.read_text())["estimates"]
    assert result.params_hat.beta.tolist() == direct["beta"]
    assert result.params_hat.phi == direct["phi"]


@pytest.mark.parametrize("version", [99, None])
def test_predict_rejects_unknown_report_version(tmp_path, greek_report, capsys, version):
    report = json.loads(greek_report.read_text())
    if version is None:
        del report["schema_version"]
        fragment = "no schema_version"
    else:
        report["schema_version"] = version
        fragment = f"schema_version {version}"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    capsys.readouterr()
    rc = cli.main(["predict", str(bad), "--output", str(tmp_path / "b.csv"), "--n-sim", "10"])
    assert rc == 1
    assert fragment in capsys.readouterr().err


def test_predict_rejects_report_missing_model_key(tmp_path, greek_report, capsys):
    report = json.loads(greek_report.read_text())
    del report["model"]["quad_order"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    capsys.readouterr()
    rc = cli.main(["predict", str(bad), "--output", str(tmp_path / "b.csv"), "--n-sim", "10"])
    assert rc == 1
    assert "quad_order" in capsys.readouterr().err


def test_predict_band_columns_and_exceedance(tmp_path, greek_report):
    band_path = tmp_path / "band.csv"
    rc = cli.main(
        ["predict", str(greek_report), "--output", str(band_path),
         "--horizon-months", "12", "--n-sim", "2000", "--seed", "1",
         "--data", str(DATA_DIR / "greece_imd.csv")]
    )
    assert rc == 0
    with open(band_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert list(rows[0]) == ["date", "point", "upper95", "observed", "exceeds"]
    assert len(rows) == 216
    assert rows[0]["date"] == "1999-01"
    assert rows[-1]["date"] == "2016-12"
    for row in rows:
        assert row["observed"] != ""
        assert row["exceeds"] in ("true", "false")
        flag = int(row["observed"]) > int(row["upper95"])
        assert row["exceeds"] == ("true" if flag else "false")


def test_predict_without_observations_leaves_flags_empty(tmp_path, greek_report):
    band_path = tmp_path / "band.csv"
    rc = cli.main(
        ["predict", str(greek_report), "--output", str(band_path),
         "--horizon-months", "3", "--n-sim", "500", "--seed", "4"]
    )
    assert rc == 0
    with open(band_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert all(row["observed"] == "" and row["exceeds"] == "" for row in rows)


def test_predict_single_simulation_smoke(tmp_path, greek_report):
    band_path = tmp_path / "band1.csv"
    rc = cli.main(
        ["predict", str(greek_report), "--output", str(band_path),
         "--horizon-months", "1", "--n-sim", "1", "--seed", "5"]
    )
    assert rc == 0
    with open(band_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        assert float(row["point"]) == float(row["upper95"])


def test_predict_demands_future_covariates(tmp_path, capsys):
    n = 120
    dates = months("2000-01", n)
    rng = np.random.default_rng(3)
    z = rng.normal(size=n)
    u = pp.latent_paths(pp.Params(beta=[0.5, 0.3], sigma2=0.15, phi=0.4), n, 1, rng)[0]
    counts = rng.poisson(np.exp(0.5 + 0.3 * z + u))
    data_path = write_rows(
        tmp_path / "cov.csv",
        list(zip(dates, counts, np.round(z, 6))),
        header=("date", "count", "z"),
    )
    report_path = tmp_path / "cov.json"
    rc = cli.main(
        ["fit", data_path, "--output", str(report_path), "--covariates", "z"]
    )
    assert rc == 0

    rc = cli.main(
        ["predict", str(report_path), "--output", str(tmp_path / "b.csv"),
         "--horizon-months", "2", "--data", data_path]
    )
    assert rc == 1
    assert "future-covariates" in capsys.readouterr().err

    future_path = write_rows(
        tmp_path / "future.csv",
        [("2010-01", 0, 0.1), ("2010-02", 0, -0.2)],
        header=("date", "count", "z"),
    )
    rc = cli.main(
        ["predict", str(report_path), "--output", str(tmp_path / "b.csv"),
         "--horizon-months", "2", "--data", data_path,
         "--future-covariates", str(future_path)]
    )
    assert rc == 0


# ---------------------------------------------------------------------------
# scenarios subcommand and the benchmark registry


def test_benchmark_registry_rows():
    row3 = pp.SCENARIOS[3]
    assert (row3.beta, row3.phi, row3.sigma) == (-0.6130, 0.9, 0.6221)
    assert abs(row3.tau2 - 2.0369) < 1e-4
    row6 = pp.SCENARIOS[6]
    assert abs(row6.tau2 - 0.5107) < 1e-4
    row9 = pp.SCENARIOS[9]
    assert abs(row9.tau2 - 0.0645) < 1e-4
    for sid, spec in pp.SCENARIOS.items():
        d_t = pp.dispersion_index(np.array([1.0]), spec.params)
        assert abs(d_t - spec.dispersion) < 1e-3 * spec.dispersion


def test_scenarios_study_csv(tmp_path):
    out = tmp_path / "study.csv"
    args = ["scenarios", "--ids", "5", "--n-series", "3", "--n-len", "150",
            "--orders", "1", "--schemes", "rect", "--nodes", "10",
            "--seed", "1", "--output", str(out)]
    assert cli.main(args) == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4  # one per parameter
    assert {r["param"] for r in rows} == {"beta", "sigma2", "phi", "tau2"}
    assert all(float(r["rmse"]) >= 0 for r in rows)

    again = tmp_path / "study2.csv"
    cli.main(args[:-1] + [str(again)])
    assert out.read_bytes() == again.read_bytes()


def test_study_cell_records_typed_failures_and_propagates_others(monkeypatch):
    from pairpois import estimation, scenarios

    def raising(error):
        def fake_fit(*args, **kwargs):
            raise error
        return fake_fit

    monkeypatch.setattr(estimation, "fit", raising(TypeError("not a fit failure")))
    with pytest.raises(TypeError):
        scenarios.run_study_cell(5, 2, 100, 1, "rect", 5, 0)

    monkeypatch.setattr(estimation, "fit", raising(pp.SingularMatrixError("singular", cond=1e20)))
    cell = scenarios.run_study_cell(5, 2, 100, 1, "rect", 5, 0)
    assert np.all(np.isnan(cell.estimates)) and np.all(np.isnan(cell.ses))
    assert not cell.converged.any()


def test_beta_rmse_insensitive_to_pairwise_order():
    # recovery of the regression coefficient should not depend on how
    # many lagged pairs enter the likelihood
    truth = pp.SCENARIOS[8].beta

    def beta_rmse(d):
        cell = pp.run_scenario_study([8], 100, 500, [d], ["rect"], [20], seed=4242)[1][
            (8, d, "rectangular", 20)
        ]
        est = cell.estimates[np.all(np.isfinite(cell.estimates), axis=1), 0]
        return float(np.sqrt(np.mean((est - truth) ** 2)))

    ratio = beta_rmse(1) / beta_rmse(10)
    assert 0.9 <= ratio <= 1.1


def test_bundled_data_files_parse():
    for name in ("greece_imd.csv", "italy_imd.csv"):
        parsed = cli.read_count_csv(str(DATA_DIR / name))
        assert parsed.n == 216
        assert parsed.months[0] == "1999-01"
        assert parsed.months[-1] == "2016-12"
        assert np.all(parsed.counts >= 0)
