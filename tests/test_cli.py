import csv
import json
import math
import pathlib

import numpy as np
import pytest

import pairpois as pp
from pairpois import cli, scenarios

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


def test_months_take_ascii_digits_only(tmp_path, sim_csv, capsys):
    # \d would take full-width digits and $ a trailing newline; such a date
    # fits, and predict then matches no band month to its row by text, so
    # its exceedance goes unflagged
    for text in ("\uff12\uff10\uff11\uff16-\uff11\uff12", "2016-01\n"):
        with pytest.raises(ValueError, match="expected a YYYY-MM month"):
            cli.month_to_ordinal(text)
    lines = (DATA_DIR / "greece_imd.csv").read_text().splitlines()
    assert lines[-1] == "2016-12,10"
    lines[-1] = "\uff12\uff10\uff11\uff16-\uff11\uff12,10"
    path = tmp_path / "greece.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = cli.main(["fit", str(path), "--output", str(tmp_path / "r.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"line {len(lines)}: expected a YYYY-MM month" in err
    rc = cli.main(["fit", sim_csv, "--output", str(tmp_path / "r.json"),
                   "--level-shift", "2005-03\n"])
    assert rc == 1
    assert "expected a YYYY-MM month" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["scenarios", "--ids", "\uff15", "--n-series", "2", "--n-len", "150", "--nodes", "10"],
         "error: --ids takes comma-separated integers, got '\uff15'"),
        (["fit", "SIM_CSV", "-d", "\u0665"], "error: -d/--order takes an integer, got '\u0665'"),
        (["fit", "SIM_CSV", "--nodes", " 7 "], "error: --nodes takes an integer, got ' 7 '"),
        (["fit", "SIM_CSV", "--max-iter", "+3"], "error: --max-iter takes an integer, got '+3'"),
        (["fit", "COUNT_CSV"], "line 3: count '1_000' is not an integer"),
    ],
    ids=["ids_full_width", "order_arabic_indic", "nodes_spaces", "max_iter_plus",
         "count_underscore"],
)
def test_integers_take_ascii_digits_only(argv, message, tmp_path, sim_csv, capsys, monkeypatch):
    # int() takes other scripts' digits, "1_000", "+3" and surrounding
    # spaces; counts and integer flags take ASCII digits with an optional
    # minus sign, and anything else exits 1 with one line before any work
    from pairpois import estimation

    fits = []
    real_fit = estimation._fit
    monkeypatch.setattr(estimation, "_fit", lambda *a, **k: (fits.append(1), real_fit(*a, **k))[1])
    count_csv = write_rows(tmp_path / "counts.csv", [("1999-01", 4), ("1999-02", "1_000")])
    out = tmp_path / "out"
    argv = [{"SIM_CSV": sim_csv, "COUNT_CSV": count_csv}.get(a, a) for a in argv]
    capsys.readouterr()
    assert cli.main(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert fits == [] and not out.exists()


def test_csv_bad_header(tmp_path, capsys):
    path = write_rows(tmp_path / "bad.csv", [("1999-01", 1)], header=("month", "cases"))
    rc = cli.main(["fit", path, "--output", str(tmp_path / "out.json")])
    assert rc == 1
    assert "header" in capsys.readouterr().err


def test_csv_with_byte_order_mark(tmp_path):
    # spreadsheet programs start a UTF-8 CSV with U+FEFF
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeffdate,count\r\n1999-01,4\r\n1999-02,0\r\n".encode("utf-8"))
    data = cli.read_count_csv(str(path))
    assert data.months == ["1999-01", "1999-02"]
    assert list(data.counts) == [4, 0]
    path.write_bytes("\ufeffmonth,cases\n1999-01,4\n".encode("utf-8"))
    with pytest.raises(pp.DataFormatError,
                       match="line 1: header must start with 'date,count', got 'month,cases'"):
        cli.read_count_csv(str(path))


def test_csv_non_numeric_covariate(tmp_path, capsys):
    path = write_rows(
        tmp_path / "bad.csv",
        [("1999-01", 1, "x"), ("1999-02", 2, "0.5")],
        header=("date", "count", "z"),
    )
    rc = cli.main(["fit", path, "--output", str(tmp_path / "out.json")])
    assert rc == 1
    assert "not numeric" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_csv_non_finite_covariate_is_located(tmp_path, capsys, cell):
    path = write_rows(
        tmp_path / "bad.csv",
        [("1999-01", 1, "0.5"), ("1999-02", 2, cell)],
        header=("date", "count", "z"),
    )
    rc = cli.main(["fit", path, "--output", str(tmp_path / "out.json"), "--covariates", "z"])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"line 3: covariate 'z' value '{cell}' is not finite" in err


def test_future_covariates_non_finite_cell_is_located(tmp_path):
    path = write_rows(
        tmp_path / "future.csv",
        [("2010-01", 0, "0.1"), ("2010-02", 0, "nan")],
        header=("date", "count", "z"),
    )
    with pytest.raises(pp.DataFormatError, match="line 3: covariate 'z' value 'nan'"):
        cli.read_count_csv_covariates(path, ("z",))


def _file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _fit_argv(tmp_path, text, *flags):
    return ["fit", _file(tmp_path, "in.csv", text), "--output", str(tmp_path / "r.json"), *flags]


FIVE_ROWS = "date,count\n" + "".join(f"2000-0{m},{m}\n" for m in range(1, 6))
TWO_Z_COLUMNS = "date,count,z,z\n" + "".join(f"2000-0{m},{m},{m},{-m}\n" for m in range(1, 6))


def _not_json(tmp_path):
    path = _file(tmp_path, "data.csv", FIVE_ROWS)
    return ["predict", path, "--output", str(tmp_path / "b.csv")], 1, f"{path}: not a fit report"


# each case gives (argv, exit code, text the error line, or stdout on success, must hold)
GUARD_CASES = {
    "empty_csv": lambda tmp: (_fit_argv(tmp, ""), 1, "file is empty"),
    "field_count": lambda tmp: (
        _fit_argv(tmp, "date,count\n1999-01,1\n1999-02,2,7\n"), 1,
        "line 3: expected 2 fields, got 3"),
    "blank_lines_skipped": lambda tmp: (
        _fit_argv(tmp, "date,count\n1999-01,1\n\n , \n1999-02,x\n"), 1,
        "line 5: count 'x' is not an integer"),
    "header_only": lambda tmp: (_fit_argv(tmp, "date,count\n"), 1, "no data rows"),
    "holdout_covers_data": lambda tmp: (
        _fit_argv(tmp, FIVE_ROWS, "--holdout-months", "5"), 1,
        "holdout of 5 months leaves no training data"),
    "holdout_negative": lambda tmp: (
        _fit_argv(tmp, FIVE_ROWS, "--holdout-months", "-3"), 1,
        "holdout of -3 months must be non-negative"),
    "scenarios_no_series": lambda tmp: (
        ["scenarios", "--ids", "5", "--n-series", "0", "--output", str(tmp / "study.csv")], 1,
        "n_series must be at least 1, got 0"),
    "duplicate_covariate": lambda tmp: (
        _fit_argv(tmp, TWO_Z_COLUMNS, "--covariates", "z"), 1,
        "line 1: duplicate covariate columns ['z']"),
    "period_zero": lambda tmp: (
        _fit_argv(tmp, FIVE_ROWS, "--harmonics", "--period", "0"), 1,
        "--period must be at least 3 months, got 0"),
    "period_two": lambda tmp: (
        _fit_argv(tmp, FIVE_ROWS, "--harmonics", "--period", "2"), 1,
        "--period must be at least 3 months, got 2"),
    "absent_covariate": lambda tmp: (
        _fit_argv(tmp, FIVE_ROWS, "--covariates", "w"), 1, "covariate column 'w' not available"),
    "report_not_fit": lambda tmp: (
        ["predict", _file(tmp, "r.json", '{"kind": "study"}'), "--output", str(tmp / "b.csv")],
        1, "r.json: not a fit report"),
    "report_not_object": lambda tmp: (
        ["predict", _file(tmp, "r.json", "[1, 2]"), "--output", str(tmp / "b.csv")],
        1, "r.json: not a fit report"),
    "report_not_json": _not_json,
    "simulate_parameters": lambda tmp: (
        ["simulate", "--beta", "0.5", "--sigma2", "0.3", "--phi", "0.5", "--n", "24",
         "--output", str(tmp / "s.csv")], 0, "simulated series written"),
    "simulate_missing_phi": lambda tmp: (
        ["simulate", "--beta", "0.5", "--sigma2", "0.3", "--output", str(tmp / "s.csv")],
        1, "--beta/--sigma2/--phi"),
}


@pytest.mark.parametrize("case", GUARD_CASES.values(), ids=GUARD_CASES.keys())
def test_cli_guards(tmp_path, capsys, case):
    argv, expected_rc, fragment = case(tmp_path)
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == expected_rc
    if expected_rc == 0:
        assert captured.err == ""
        assert fragment in captured.out
    else:
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert fragment in lines[0]


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


def test_simulate_rejects_empty_horizon(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = cli.main(["simulate", "--scenario", "5", "--n", "0", "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: horizon must be >= 1, got 0")
    assert "Traceback" not in err
    assert not out.exists()


def test_simulate_negative_length_names_option(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = cli.main(["simulate", "--scenario", "5", "--n", "-4", "--output", str(out)])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: horizon must be >= 1, got -4")
    assert "--n" in lines[0]
    assert not out.exists()


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


def test_fit_rejects_negative_hac_window(tmp_path, sim_csv, capsys):
    report = tmp_path / "r.json"
    rc = cli.main(["fit", sim_csv, "--output", str(report), "--hac-lags", "-3"])
    assert rc == 1
    assert "hac_lags must be >= 0, got -3" in capsys.readouterr().err
    assert not report.exists()


def test_fit_rejects_negative_max_iter_before_any_pass(tmp_path, sim_csv, capsys, monkeypatch):
    passes = []
    real = pp.PairwiseEvaluator.evaluate
    monkeypatch.setattr(pp.PairwiseEvaluator, "evaluate",
                        lambda self, working: (passes.append(1), real(self, working))[1])
    report = tmp_path / "r.json"
    capsys.readouterr()
    rc = cli.main(["fit", sim_csv, "--output", str(report), "--max-iter", "-3"])
    assert rc == 1
    assert capsys.readouterr().err == "error: max_iter must be >= 0, got -3\n"
    assert not report.exists()
    series, weights = pp.simulate_scenario(5, 200, 11), pp.make_weights(2, "trap")
    with pytest.raises(ValueError, match="max_iter must be >= 0, got -1"):
        pp.fit(series, weights, max_iter=-1)
    for restriction in (pp.PHI_ZERO, pp.INDEPENDENCE):
        with pytest.raises(ValueError, match="max_iter must be >= 0, got -1"):
            pp.fit_restricted(series, weights, restriction=restriction, max_iter=-1)
    assert passes == []


def test_fit_level_shift_outside_window(tmp_path, sim_csv, capsys):
    rc = cli.main(
        ["fit", sim_csv, "--output", str(tmp_path / "r.json"), "--level-shift", "2050-01"]
    )
    assert rc == 1
    assert "training window" in capsys.readouterr().err


@pytest.mark.parametrize("restriction", ["none", "phi0", "indep"])
def test_fit_report_is_strict_json(tmp_path, sim_csv, restriction):
    def reject(token):
        raise AssertionError(f"non-JSON constant {token}")

    report_path = tmp_path / "r.json"
    rc = cli.main(["fit", sim_csv, "--output", str(report_path), "--restriction", restriction])
    assert rc == 0
    report = json.loads(report_path.read_text(), parse_constant=reject)
    if restriction == "indep":
        assert report["working"][-2:] == [None, 0.0]  # log sigma2 = -inf, z_phi = 0


def test_fit_report_with_non_finite_value_is_not_written(tmp_path, sim_csv, capsys, monkeypatch):
    real = cli._fit_to_report
    monkeypatch.setattr(cli, "_fit_to_report", lambda *args: {**real(*args), "clic": math.nan})
    report_path = tmp_path / "r.json"
    rc = cli.main(["fit", sim_csv, "--output", str(report_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not report_path.exists()


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


@pytest.mark.parametrize(
    "edit,fragment",
    [
        (lambda report: report.pop("n_train"), "fit report has no 'n_train'"),
        (lambda report: report["estimates"].update(sigma2="x"),
         "fit report 'estimates.sigma2' is not valid"),
        (lambda report: report["estimates"].update(phi=2.0), "phi must lie in (-1, 1)"),
        (lambda report: report.update(converged="false"), "fit report 'converged' is not valid"),
        (lambda report: report["model"].update(period="12"),
         "fit report 'model.period' is not valid"),
        (lambda report: report["model"].update(period=2), "fit report 'model.period' is not valid"),
        (lambda report: report["model"].update(trend="no"),
         "fit report 'model.trend' is not valid"),
        (lambda report: report["model"].update(covariates="ab"),
         "fit report 'model.covariates' is not valid"),
        (lambda report: report["model"].update(level_shift="2005-13"),
         "fit report 'model.level_shift' is not valid"),
        (lambda report: report["estimates"]["beta"].pop(),
         "fit report 'estimates.beta' has 3 coefficients for 4 design columns"),
        (lambda report: report.update(n_train=-5), "fit report 'n_train' is not valid"),
        (lambda report: report.update(n_train=0), "fit report 'n_train' is not valid"),
        (lambda report: report.update(n_train=True), "fit report 'n_train' is not valid"),
        (lambda report: report["estimates"].update(sigma2=True),
         "fit report 'estimates.sigma2' is not valid"),
        (lambda report: report["estimates"].update(phi=False),
         "fit report 'estimates.phi' is not valid"),
        (lambda report: report["estimates"]["beta"].__setitem__(0, False),
         "fit report 'estimates.beta' is not valid"),
    ],
    ids=["missing_n_train", "sigma2_not_a_number", "phi_out_of_range", "converged_not_boolean",
         "period_not_an_integer", "period_below_3_with_harmonics", "trend_not_boolean",
         "covariates_not_a_list", "level_shift_month_out_of_range", "beta_length_mismatch",
         "n_train_negative", "n_train_zero", "n_train_boolean", "sigma2_boolean",
         "phi_boolean", "beta_entry_boolean"],
)
def test_predict_names_report_and_key_of_bad_entry(tmp_path, greek_report, capsys, edit,
                                                   fragment):
    report = json.loads(greek_report.read_text())
    edit(report)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    capsys.readouterr()
    rc = cli.main(["predict", str(bad), "--output", str(tmp_path / "b.csv"), "--n-sim", "10"])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {bad}: {fragment}")


def test_predict_ignores_report_sections_it_does_not_use(tmp_path, greek_report):
    report = json.loads(greek_report.read_text())
    for key in ("se", "matrices", "working", "loglik", "clic", "iterations", "hac_lags_used",
                "X_train"):
        del report[key]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(report))
    bands = []
    for path in (greek_report, bare):
        band_path = tmp_path / f"{path.stem}_band.csv"
        rc = cli.main(["predict", str(path), "--output", str(band_path),
                       "--data", str(DATA_DIR / "greece_imd.csv")])
        assert rc == 0
        bands.append(band_path.read_bytes())
    assert bands[0] == bands[1]


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


def test_predict_rejects_negative_horizon(tmp_path, greek_report, capsys):
    band_path = tmp_path / "band.csv"
    capsys.readouterr()
    rc = cli.main(
        ["predict", str(greek_report), "--output", str(band_path),
         "--horizon-months", "-5", "--n-sim", "10"]
    )
    assert rc == 1
    assert "horizon of -5 months" in capsys.readouterr().err
    assert not band_path.exists()


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


def _covariate_rows(n=123):
    dates = months("2000-01", n)
    rng = np.random.default_rng(8)
    z = np.round(rng.normal(size=n), 6)
    u = pp.latent_paths(pp.Params(beta=[0.5, 0.4], sigma2=0.15, phi=0.5), n, 1, rng)[0]
    counts = rng.poisson(np.exp(0.5 + 0.4 * z + u))
    return list(zip(dates, counts, z))


def _cov_csv(tmp_path, name, rows):
    return write_rows(tmp_path / name, rows, header=("date", "count", "z"))


def _cov_fit(tmp_path, rows, *flags):
    data_path = _cov_csv(tmp_path, "train.csv", rows)
    report_path = tmp_path / "cov.json"
    rc = cli.main(["fit", data_path, "--output", str(report_path), "--covariates", "z", *flags])
    assert rc == 0
    return str(report_path), data_path


def _band(tmp_path, name, report_path, *flags):
    band_path = tmp_path / name
    rc = cli.main(["predict", report_path, "--output", str(band_path), "--n-sim", "2000",
                   "--seed", "1", *flags])
    return rc, band_path


def test_predict_takes_covariates_by_month_from_earlier_data(tmp_path):
    rows = _covariate_rows()
    report_path, aligned = _cov_fit(tmp_path, rows[3:])  # fitted from 2000-04
    longer = _cov_csv(tmp_path, "longer.csv", rows)  # three months earlier
    rc, band_aligned = _band(tmp_path, "a.csv", report_path, "--horizon-months", "0",
                             "--data", aligned)
    assert rc == 0
    rc, band_longer = _band(tmp_path, "b.csv", report_path, "--horizon-months", "0",
                            "--data", longer)
    assert rc == 0
    assert band_longer.read_bytes() == band_aligned.read_bytes()


def test_predict_names_first_month_without_covariates(tmp_path, capsys):
    rows = _covariate_rows()
    report_path, _ = _cov_fit(tmp_path, rows[3:])
    late = _cov_csv(tmp_path, "late.csv", rows[6:])  # starts 2000-07
    capsys.readouterr()
    rc, band_path = _band(tmp_path, "b.csv", report_path, "--horizon-months", "0",
                          "--data", late)
    assert rc == 1
    err = capsys.readouterr().err
    assert "month 2000-04" in err and "--data" in err and "--future-covariates" in err
    assert not band_path.exists()


def test_predict_holdout_covariates_from_data(tmp_path):
    rows = _covariate_rows()
    report_path, data_path = _cov_fit(tmp_path, rows, "--holdout-months", "3")
    rc, from_data = _band(tmp_path, "a.csv", report_path, "--horizon-months", "3",
                          "--data", data_path)
    assert rc == 0
    future = _cov_csv(tmp_path, "future.csv", rows[-3:])
    rc, from_future = _band(tmp_path, "b.csv", report_path, "--horizon-months", "3",
                            "--data", data_path, "--future-covariates", future)
    assert rc == 0
    assert from_data.read_bytes() == from_future.read_bytes()


def test_future_covariates_win_over_data(tmp_path):
    rows = _covariate_rows(6)
    data = cli.read_count_csv(_cov_csv(tmp_path, "data.csv", rows))
    future = _cov_csv(tmp_path, "future.csv",
                      [("2000-05", 0, 9.5), ("2000-06", 0, 8.5), ("2000-07", 0, 7.5)])
    covs = cli._covariates_by_month(("z",), months("2000-02", 6), data, future)
    expected = [rows[1][2], rows[2][2], rows[3][2], 9.5, 8.5, 7.5]
    assert covs["z"].tolist() == expected


def test_predict_data_without_covariate_column_names_it(tmp_path, capsys):
    rows = _covariate_rows()
    report_path, _ = _cov_fit(tmp_path, rows)
    bare = write_rows(tmp_path / "bare.csv", [(d, c) for d, c, _ in rows])
    capsys.readouterr()
    rc, _ = _band(tmp_path, "b.csv", report_path, "--horizon-months", "0", "--data", bare)
    assert rc == 1
    assert "'z'" in capsys.readouterr().err


def test_build_design_names_covariate_of_wrong_length():
    # the subcommands align covariates by month first; a library caller
    # that passes a column of another length gets told which and by how much
    spec = cli.ModelSpec(covariates=("z",))
    with pytest.raises(pp.DataFormatError) as info:
        cli.build_design(spec, months("2000-01", 7), 7, {"z": np.arange(5.0)})
    assert str(info.value) == "covariate column 'z' has 5 values for 7 design months"


def test_predict_without_covariates_never_reads_future_file(tmp_path, greek_report):
    rc, band_path = _band(tmp_path, "b.csv", str(greek_report), "--horizon-months", "2",
                          "--future-covariates", str(tmp_path / "absent.csv"))
    assert rc == 0
    assert band_path.exists()


# ---------------------------------------------------------------------------
# scenarios subcommand and the benchmark registry


def test_benchmark_registry_rows():
    row3 = pp.SCENARIOS[3]
    assert (row3.beta, row3.phi, row3.sigma) == (-0.6130, 0.9, 0.6221)
    assert abs(row3.params.tau2 - 2.0369) < 1e-4
    row6 = pp.SCENARIOS[6]
    assert abs(row6.params.tau2 - 0.5107) < 1e-4
    row9 = pp.SCENARIOS[9]
    assert abs(row9.params.tau2 - 0.0645) < 1e-4
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


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--ids", "5,99", "unknown scenario id 99"),
        ("--schemes", "rect,bogus", "unknown weight scheme 'bogus'"),
        ("--nodes", "10,0", "order must be in [1, 100], got 0"),
        ("--orders", "1,0", "order d must be a positive integer, got 0"),
        ("--orders", "1,200", "series length 150 must exceed the window m_d = 200"),
        ("--ids", "5,", "--ids takes comma-separated integers, got '5,'"),
        ("--orders", "1,,3", "--orders takes comma-separated integers, got '1,,3'"),
        ("--nodes", "20,x", "--nodes takes comma-separated integers, got '20,x'"),
    ],
    ids=["ids", "schemes", "nodes", "orders", "window", "ids_empty", "orders_empty",
         "nodes_not_int"],
)
def test_scenarios_checks_the_grid_before_the_first_fit(
    flag, value, message, tmp_path, monkeypatch, capsys
):
    from pairpois import estimation

    real_fit = estimation.fit
    fits = []
    monkeypatch.setattr(estimation, "fit", lambda *a, **k: (fits.append(1), real_fit(*a, **k))[1])
    out = tmp_path / "study.csv"
    grid = {"--ids": "5", "--orders": "1", "--schemes": "rect", "--nodes": "10", flag: value}
    argv = ["scenarios", "--n-series", "3", "--n-len", "150", "--output", str(out)]
    for name, entries in grid.items():
        argv += [name, entries]
    assert cli.main(argv) == 1
    assert fits == []
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["fit", "SIM_CSV"],
        ["predict", "REPORT"],
        ["simulate", "--scenario", "5", "--n", "50"],
        ["scenarios", "--ids", "5", "--n-series", "2", "--n-len", "150", "--nodes", "10"],
    ],
    ids=["fit", "predict", "simulate", "scenarios"],
)
@pytest.mark.parametrize("target", ["missing_dir", "a_dir"])
def test_output_is_checked_before_any_work(command, target, tmp_path, sim_csv, monkeypatch,
                                           capsys):
    from pairpois import estimation

    report = tmp_path / "report.json"
    assert cli.main(["fit", sim_csv, "--output", str(report), "--max-iter", "2"]) in (0, 3)
    calls = []

    def counted(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: (calls.append(name), real(*a, **k))[1])

    counted(estimation, "fit")
    counted(estimation, "_fit")
    counted(pp.PairwiseEvaluator, "evaluate")
    counted(cli, "predict")
    counted(cli, "simulate_series")
    output = tmp_path / "missing" / "out.csv" if target == "missing_dir" else tmp_path
    argv = [{"SIM_CSV": sim_csv, "REPORT": str(report)}.get(a, a) for a in command]
    capsys.readouterr()
    assert cli.main(argv + ["--output", str(output)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(output) in err and "Errno" not in err
    assert calls == []


def test_study_cell_records_typed_failures_and_propagates_others(monkeypatch):
    from pairpois import estimation

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


def test_study_cell_records_non_finite_start_as_numerical(monkeypatch):
    from pairpois import estimation

    real_fit = estimation.fit

    def wide_start_fit(series, weights, quad_order):
        moments = pp.moment_init(series)
        init = pp.Params(beta=moments.beta, sigma2=1e5, phi=moments.phi)
        return real_fit(series, weights, quad_order=quad_order, init=init)

    monkeypatch.setattr(estimation, "fit", wide_start_fit)
    cell = scenarios.run_study_cell(5, 1, 500, 3, "trap", 20, 3)
    assert list(cell.outcomes) == ["numerical"]
    assert not cell.converged.any()


def test_study_cell_counts_failures_by_reason(monkeypatch):
    from pairpois import estimation

    real_fit = estimation.fit
    outcomes = iter([
        pp.SingularMatrixError("singular", cond=1e20),
        np.linalg.LinAlgError("Singular matrix"),
        pp.NumericalFailure("non-finite", time_index=3, lag=1),
        "not_converged",
        pp.NumericalFailure("non-finite"),
        "converged",
    ])

    def scripted_fit(series, weights, quad_order):
        outcome = next(outcomes)
        if isinstance(outcome, Exception):
            raise outcome
        return real_fit(series, weights, quad_order=quad_order,
                        max_iter=1 if outcome == "not_converged" else 500)

    monkeypatch.setattr(estimation, "fit", scripted_fit)
    cell = scenarios.run_study_cell(5, 6, 200, 1, "rect", 10, 0)
    assert list(cell.outcomes) == ["singular", "singular", "numerical", "not_converged",
                                   "numerical", "converged"]
    assert list(cell.converged) == [False] * 5 + [True]
    rows = scenarios.summarize_cell(cell, 200, 6)
    for row in rows:
        assert row["n_converged"] == 1
        assert (row["n_failed_not_converged"], row["n_failed_singular"],
                row["n_failed_numerical"]) == (1, 2, 2)


def test_beta_rmse_insensitive_to_pairwise_order():
    # recovery of the regression coefficient should not depend on how
    # many lagged pairs enter the likelihood
    truth = pp.SCENARIOS[8].beta

    def beta_rmse(d):
        cell = scenarios.run_study_cell(8, 100, 500, d, "rect", 20, 4242)
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
