"""Command-line interface: data ingestion, fitting, prediction,
scenario replication, and weight inspection.

Reports are machine-readable (JSON for fits, CSV for predictions and
scenario studies); plotting is deliberately left to external tools.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import types
from dataclasses import dataclass, fields

import numpy as np

from . import estimation, scenarios
from .errors import DataFormatError, PairpoisError
from .model import CountSeries, Params, dispersion_index, make_weights
from .simulate import SimConfig, predict, simulate_series

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 3

# ASCII digits only, matched whole: \d would take other scripts' digits and
# $ a trailing newline, and such a month would match no CSV row by text
_MONTH_RE = re.compile(r"([0-9]{4})-([0-9]{2})")
# the one integer rule of counts and integer flags, matched whole: int()
# would also take other scripts' digits, "1_000", "+3" and surrounding
# spaces
_INTEGER_RE = re.compile(r"-?[0-9]+")
# the number rule of covariate cells, matched whole: ASCII decimals with an
# optional exponent, as repr(float) writes them, and inf, infinity or nan in
# any case (rejected as not finite); float() would also take other scripts'
# digits and "1_0"
_DECIMAL_RE = re.compile(
    r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|[-+]?(?i:inf|infinity|nan)"
)
_RESTRICTIONS = {"none": None, "phi0": estimation.PHI_ZERO, "indep": estimation.INDEPENDENCE}


# ---------------------------------------------------------------------------
# months and CSV ingestion


def month_to_ordinal(text: str) -> int:
    m = _MONTH_RE.fullmatch(text)
    if not m:
        raise ValueError(f"expected a YYYY-MM month, got {text!r}")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise ValueError(f"month out of range in {text!r}")
    return year * 12 + (month - 1)


def ordinal_to_month(o: int) -> str:
    return f"{o // 12:04d}-{o % 12 + 1:02d}"


@dataclass
class ParsedData:
    months: list[str]
    counts: np.ndarray
    covariates: dict[str, np.ndarray]

    @property
    def n(self) -> int:
        return len(self.months)


def read_count_csv(path: str) -> ParsedData:
    """Read a monthly count CSV (columns: date, count, optional covariates).

    Months must be consecutive with no gaps or duplicates; counts must
    parse as non-negative integers and covariates as finite numbers.
    Violations raise :class:`DataFormatError` naming the offending line.
    The file is read as UTF-8, with or without the byte-order mark that
    spreadsheet programs write.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if len(header) < 2 or header[0] != "date" or header[1] != "count":
            raise DataFormatError(
                f"{path}: line 1: header must start with 'date,count', got {','.join(header)!r}"
            )
        cov_names = header[2:]
        duplicates = sorted({name for name in cov_names if cov_names.count(name) > 1})
        if duplicates:
            raise DataFormatError(f"{path}: line 1: duplicate covariate columns {duplicates}")

        months: list[str] = []
        counts: list[int] = []
        cov_values: list[list[float]] = []
        prev_ord: int | None = None
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            date = row[0].strip()
            try:
                cur = month_to_ordinal(date)
            except ValueError as err:
                raise DataFormatError(f"{path}: line {lineno}: {err}") from None
            if prev_ord is not None:
                if cur == prev_ord:
                    raise DataFormatError(f"{path}: line {lineno}: duplicate date {date}")
                if cur < prev_ord:
                    raise DataFormatError(f"{path}: line {lineno}: dates out of order at {date}")
                if cur > prev_ord + 1:
                    raise DataFormatError(
                        f"{path}: line {lineno}: gap in months before {date} "
                        f"(expected {ordinal_to_month(prev_ord + 1)})"
                    )
            prev_ord = cur

            raw_count = row[1].strip()
            if not _INTEGER_RE.fullmatch(raw_count):
                raise DataFormatError(
                    f"{path}: line {lineno}: count {raw_count!r} is not an integer"
                )
            value = int(raw_count)
            if value < 0:
                raise DataFormatError(f"{path}: line {lineno}: negative count {value}")

            covs = []
            for name, cell in zip(cov_names, row[2:]):
                if not _DECIMAL_RE.fullmatch(cell.strip()):
                    raise DataFormatError(
                        f"{path}: line {lineno}: covariate {name!r} value {cell!r} is not numeric"
                    )
                covs.append(float(cell))
                if not math.isfinite(covs[-1]):
                    raise DataFormatError(
                        f"{path}: line {lineno}: covariate {name!r} value {cell!r} is not finite"
                    )

            months.append(date)
            counts.append(value)
            cov_values.append(covs)

    if not months:
        raise DataFormatError(f"{path}: no data rows")
    cov_arr = np.asarray(cov_values, dtype=float) if cov_names else np.empty((len(months), 0))
    covariates = {name: cov_arr[:, i] for i, name in enumerate(cov_names)}
    return ParsedData(months=months, counts=np.asarray(counts, dtype=np.int64), covariates=covariates)


# ---------------------------------------------------------------------------
# model specification and design matrices


@dataclass
class ModelSpec:
    """Formula terms plus fitting controls for the CLI surface."""

    trend: bool = False
    harmonics: bool = False
    period: int = 12
    level_shift: str | None = None
    covariates: tuple[str, ...] = ()
    d: int = 1
    scheme: str = "rectangular"
    quad_order: int = 20
    restriction: str | None = None
    hac_lags: int | None = None

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def build_design(
    spec: ModelSpec,
    months: list[str],
    n_train: int,
    covariates: dict[str, np.ndarray] | None = None,
) -> tuple[np.ndarray, list[str]]:
    """Design matrix over ``months`` (which may extend past training).

    Time is 1-based over the given months; the trend term is t / n_train
    with the scale frozen at the training length, so horizons extend it
    past one.  The level-shift indicator is one strictly before the
    shift month and zero from it onward.
    """
    n = len(months)
    t = np.arange(1, n + 1, dtype=float)
    cols = [np.ones(n)]
    names = ["intercept"]
    if spec.trend:
        cols.append(t / n_train)
        names.append("trend")
    if spec.harmonics:
        cols.append(np.sin(2.0 * math.pi * t / spec.period))
        cols.append(np.cos(2.0 * math.pi * t / spec.period))
        names.extend(["sin", "cos"])
    if spec.level_shift is not None:
        shift = month_to_ordinal(spec.level_shift)
        ords = np.array([month_to_ordinal(m) for m in months])
        cols.append((ords < shift).astype(float))
        names.append(f"before_{spec.level_shift}")
    for name in spec.covariates:
        if covariates is None or name not in covariates:
            raise DataFormatError(f"covariate column {name!r} not available")
        values = covariates[name]
        if values.shape[0] != n:
            raise DataFormatError(
                f"covariate column {name!r} has {values.shape[0]} values for {n} design months"
            )
        cols.append(values)
        names.append(name)
    return np.column_stack(cols), names


def _finite_or_none(values) -> list:
    return [None if (isinstance(v, float) and not math.isfinite(v)) else v for v in values]


def _fit_to_report(
    data_path: str,
    spec: ModelSpec,
    months_train: list[str],
    result: estimation.FitResult,
    coef_names: list[str],
    X_train: np.ndarray,
    dispersion: dict,
    holdout_months: int,
    n_total: int,
) -> dict:
    p = result.params_hat
    se = result.se
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "fit_report",
        "data_path": data_path,
        "n_total": n_total,
        "n_train": len(months_train),
        "holdout_months": holdout_months,
        "start_month": months_train[0],
        "model": spec.to_json(),
        "coef_names": coef_names,
        "estimates": {
            "beta": [float(b) for b in p.beta],
            "sigma2": p.sigma2,
            "phi": p.phi,
            "tau2": p.tau2,
        },
        "working": _finite_or_none([float(v) for v in result.working_hat.as_vector()]),
        "se": {
            "beta": _finite_or_none([float(s) for s in se[: p.n_coef]]),
            "sigma2": _finite_or_none([float(se[p.n_coef])])[0],
            "phi": _finite_or_none([float(se[p.n_coef + 1])])[0],
            "tau2": _finite_or_none([float(se[p.n_coef + 2])])[0],
        },
        "loglik": result.loglik,
        "clic": result.clic,
        "converged": bool(result.converged),
        "iterations": result.iterations,
        "hac_lags_used": result.hac_lags,
        "weights": {
            "d": result.weights.d,
            "scheme": result.weights.scheme,
            "m_d": result.weights.m_d,
            "values": [float(w) for w in result.weights.w],
        },
        "dispersion_index": dispersion,
        "matrices": {
            "H": result.H_hat.tolist(),
            "J": result.J_hat.tolist(),
            "godambe": result.godambe.tolist(),
        },
        "X_train": X_train.tolist(),
    }


def _print_fit_table(result: estimation.FitResult, coef_names: list[str], dispersion: dict) -> None:
    p = result.params_hat
    print(
        f"weighted pairwise likelihood fit "
        f"(d={result.weights.d}, {result.weights.scheme}, {result.quad_order} nodes)"
    )
    status = "converged" if result.converged else "NOT CONVERGED"
    print(f"{status} after {result.iterations} iterations; "
          f"loglik = {result.loglik:.4f}; CLIC = {result.clic:.4f}; "
          f"HAC lags r = {result.hac_lags}")
    if result.restriction:
        print(f"restriction: {result.restriction}")
    print()
    print(f"{'parameter':<16}{'estimate':>12}{'std. error':>12}")
    rows = list(zip(coef_names, p.beta, result.se[: p.n_coef]))
    rows += [
        ("sigma2", p.sigma2, result.se[p.n_coef]),
        ("phi", p.phi, result.se[p.n_coef + 1]),
        ("tau2", p.tau2, result.se[p.n_coef + 2]),
    ]
    for name, est, se in rows:
        se_txt = f"{se:>12.4f}" if np.isfinite(se) else f"{'--':>12}"
        print(f"{name:<16}{est:>12.4f}{se_txt}")
    print()
    print(
        "dispersion index D_t (preliminary): "
        f"min {dispersion['min']:.2f}, median {dispersion['median']:.2f}, "
        f"max {dispersion['max']:.2f}"
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_fit(args) -> int:
    data = read_count_csv(args.data)
    holdout = args.holdout_months
    if holdout < 0:
        raise DataFormatError(f"holdout of {holdout} months must be non-negative")
    if holdout >= data.n:
        raise DataFormatError(f"holdout of {holdout} months leaves no training data")
    n_train = data.n - holdout
    months_train = data.months[:n_train]

    spec = ModelSpec(
        trend=args.trend,
        harmonics=args.harmonics,
        period=args.period,
        level_shift=args.level_shift,
        covariates=tuple(args.covariates.split(",")) if args.covariates else (),
        d=args.order,
        scheme=args.weights,
        quad_order=args.nodes,
        restriction=_RESTRICTIONS[args.restriction],
        hac_lags=args.hac_lags,
    )
    if spec.harmonics and spec.period < 3:
        raise DataFormatError(f"--period must be at least 3 months, got {spec.period}")
    if spec.level_shift is not None:
        shift = month_to_ordinal(spec.level_shift)
        if not (month_to_ordinal(months_train[0]) < shift <= month_to_ordinal(months_train[-1])):
            raise DataFormatError(
                f"level-shift month {spec.level_shift} must fall inside the training window"
            )

    covs_train = {k: v[:n_train] for k, v in data.covariates.items()}
    X, coef_names = build_design(spec, months_train, n_train, covs_train)
    series = CountSeries(y=data.counts[:n_train], X=X)

    start = estimation.moment_init(series)
    d_t = dispersion_index(series.X, start)
    dispersion = {
        "min": float(d_t.min()),
        "median": float(np.median(d_t)),
        "max": float(d_t.max()),
    }

    weights = make_weights(spec.d, spec.scheme)
    result = estimation._fit(
        series, weights, spec.quad_order, spec.restriction, start, spec.hac_lags, args.max_iter
    )

    report = _fit_to_report(
        args.data, spec, months_train, result, coef_names, X, dispersion, holdout, data.n
    )
    # strict JSON: a non-finite value raises here, before the file is opened
    text = json.dumps(report, indent=2, allow_nan=False)
    with open(args.output, "w") as handle:
        handle.write(text + "\n")
    _print_fit_table(result, coef_names, dispersion)
    print(f"report written to {args.output}")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _integer(v):
    """A fit report's JSON integer, which is not a boolean."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def _number(v) -> float:
    """A fit report's JSON number, integer or real, which is not a boolean."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a number, got {v!r}")
    return float(v)


def _report_value(report: dict, key: str, convert=None):
    """The fit report's entry at ``key``, a dotted path such as
    ``"estimates.sigma2"``, passed through ``convert`` when given.

    Raises
    ------
    DataFormatError
        Naming the key, when it is missing or ``convert`` rejects its
        value.
    """
    value = report
    for part in key.split("."):
        if not isinstance(value, dict) or part not in value:
            raise DataFormatError(f"fit report has no {key!r}")
        value = value[part]
    if convert is None:
        return value
    try:
        return convert(value)
    except (KeyError, TypeError, ValueError) as err:
        detail = f"missing {err}" if isinstance(err, KeyError) else str(err)
        raise DataFormatError(f"fit report {key!r} is not valid: {detail}") from None


def _result_from_report(report: dict) -> tuple[types.SimpleNamespace, ModelSpec]:
    """What ``predict`` uses of a fit report: the fit, as its estimates
    ``params_hat`` and its ``converged`` flag, and the model the band's
    design is built from.  Every other section is left unread.

    Raises
    ------
    DataFormatError
        Naming the key, when an entry is missing or has the wrong type.
    ValueError
        When an estimate is out of range for :class:`Params`.
    """
    version = report.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        found = "no schema_version" if version is None else f"schema_version {version!r}"
        raise DataFormatError(
            f"fit report has {found}; this pairpois reads schema_version {SCHEMA_VERSION}"
        )

    def read(key, convert=None):
        return _report_value(report, key, convert)

    def boolean(v):
        if not isinstance(v, bool):
            raise TypeError(f"expected true or false, got {v!r}")
        return v

    def month_or_none(v):
        if v is not None:
            month_to_ordinal(v)
        return v

    def numbers(v):
        if not isinstance(v, list):
            raise TypeError(f"expected a list of numbers, got {v!r}")
        return np.array([_number(x) for x in v])

    def column_names(v):
        if not isinstance(v, list) or not all(isinstance(name, str) for name in v):
            raise TypeError(f"expected a list of column names, got {v!r}")
        return tuple(v)

    checks = {"trend": boolean, "harmonics": boolean, "period": _integer,
              "level_shift": month_or_none, "covariates": column_names}
    spec = ModelSpec(**{f.name: read(f"model.{f.name}", checks.get(f.name))
                        for f in fields(ModelSpec)})
    if spec.harmonics and spec.period < 3:
        raise DataFormatError(
            f"fit report 'model.period' is not valid: harmonics need at least 3 months, "
            f"got {spec.period}"
        )
    params = Params(
        beta=read("estimates.beta", numbers),
        sigma2=read("estimates.sigma2", _number),
        phi=read("estimates.phi", _number),
    )
    return types.SimpleNamespace(params_hat=params, converged=read("converged", boolean)), spec


def _training_length(v) -> int:
    """A fit report's ``n_train``: the months the fit saw, at least 1."""
    if _integer(v) < 1:
        raise ValueError(f"expected at least 1 month, got {v}")
    return v


def cmd_predict(args) -> int:
    horizon = args.horizon_months
    if horizon < 0:
        raise DataFormatError(f"horizon of {horizon} months must be non-negative")
    with open(args.report) as handle:
        try:
            report = json.load(handle)
        except json.JSONDecodeError as err:
            raise DataFormatError(f"{args.report}: not a fit report ({err})") from None
    if not isinstance(report, dict) or report.get("kind") != "fit_report":
        raise DataFormatError(f"{args.report}: not a fit report")
    try:
        result, spec = _result_from_report(report)
        n_train = _report_value(report, "n_train", _training_length)
        start_ord = _report_value(report, "start_month", month_to_ordinal)
    except (DataFormatError, ValueError) as err:  # ValueError: a value out of range
        raise DataFormatError(f"{args.report}: {err}") from None
    months_all = [ordinal_to_month(start_ord + k) for k in range(n_train + horizon)]

    data = read_count_csv_covariates(args.data, spec.covariates) if args.data else None
    observed = dict(zip(data.months, data.counts.tolist())) if data else {}
    covariates = None
    if spec.covariates:
        covariates = _covariates_by_month(
            spec.covariates, months_all, data, args.future_covariates
        )
    X_all, _ = build_design(spec, months_all, n_train, covariates)
    if result.params_hat.n_coef != X_all.shape[1]:
        raise DataFormatError(
            f"{args.report}: fit report 'estimates.beta' has {result.params_hat.n_coef} "
            f"coefficients for {X_all.shape[1]} design columns"
        )
    band = predict(result, None, X_insample=X_all)

    with open(args.output, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "point", "upper95", "observed", "exceeds"])
        for idx, month in enumerate(months_all):
            obs = observed.get(month, "")
            exceeds = ""
            if obs != "":
                exceeds = "true" if obs > band.upper95[idx] else "false"
            writer.writerow(
                [month, repr(float(band.point[idx])), int(band.upper95[idx]), obs, exceeds]
            )
    print(f"prediction band written to {args.output}")
    return EXIT_OK


def read_count_csv_covariates(path: str, names: tuple[str, ...]) -> ParsedData:
    """:func:`read_count_csv`, requiring the covariate columns ``names``."""
    data = read_count_csv(path)
    missing = [n for n in names if n not in data.covariates]
    if missing:
        raise DataFormatError(f"{path}: missing covariate columns {missing}")
    return data


def _covariates_by_month(names, months, data, future_path) -> dict[str, np.ndarray]:
    """Covariate columns ``names`` over ``months``, each row looked up by
    its month: in the ``--future-covariates`` file, else in ``data``."""
    rows = {}
    future = read_count_csv_covariates(future_path, names) if future_path else None
    for parsed in (data, future):
        if parsed is not None:
            rows.update(zip(parsed.months, np.column_stack([parsed.covariates[n] for n in names])))
    for month in months:
        if month not in rows:
            raise DataFormatError(
                f"no covariate row for month {month} in --data or --future-covariates"
            )
    table = np.array([rows[m] for m in months])
    return {name: table[:, i] for i, name in enumerate(names)}


def cmd_simulate(args) -> int:
    if args.scenario is not None:
        params = scenarios.SCENARIOS[args.scenario].params
    else:
        if args.beta is None or args.sigma2 is None or args.phi is None:
            raise DataFormatError("either --scenario or all of --beta/--sigma2/--phi are required")
        params = Params(beta=np.array([args.beta]), sigma2=args.sigma2, phi=args.phi)
    if args.n < 1:
        raise DataFormatError(f"horizon must be >= 1, got {args.n} (--n sets the series length)")
    X = np.ones((args.n, 1))
    series = simulate_series(SimConfig(params=params, X=X, n_rep=1, seed=args.seed))
    start_ord = month_to_ordinal(args.start)
    with open(args.output, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "count"])
        for k, value in enumerate(series.y):
            writer.writerow([ordinal_to_month(start_ord + k), int(value)])
    print(f"simulated series written to {args.output}")
    return EXIT_OK


def _integers(flag: str, text: str) -> list[int]:
    """The comma-separated integers of ``flag``'s value ``text``, each
    matched whole by ``_INTEGER_RE``."""
    parts = text.split(",")
    if not all(_INTEGER_RE.fullmatch(s) for s in parts):
        raise ValueError(f"{flag} takes comma-separated integers, got {text!r}")
    return [int(s) for s in parts]


def cmd_scenarios(args) -> int:
    ids = _integers("--ids", args.ids)
    d_values = _integers("--orders", args.orders)
    schemes = args.schemes.split(",")
    orders = _integers("--nodes", args.nodes)
    rows = scenarios.run_scenario_study(
        ids, args.n_series, args.n_len, d_values, schemes, orders, args.seed
    )
    fieldnames = list(rows[0].keys())
    with open(args.output, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()})
    print(f"scenario study written to {args.output}")
    return EXIT_OK


def cmd_weights(args) -> int:
    weights = make_weights(args.order, args.weights)
    # both schemes give lag 1 an unnormalised weight of one
    raw = weights.w / weights.w[0]
    print(f"order d = {weights.d}, scheme = {weights.scheme}, window m_d = {weights.m_d}")
    print(f"{'lag':>4}{'unnormalized':>14}{'normalized':>12}")
    for lag, u, w in zip(weights.lags, raw, weights.w):
        print(f"{lag:>4}{u:>14.6f}{w:>12.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _FlagError(PairpoisError):
    """A command line the parser rejects: a bad flag value or a usage
    error.  It reaches :func:`main`, which reports it in one line and exits
    1 as for any other bad value."""


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors raised as :class:`_FlagError`
    instead of printed with the usage text as exit 2; its subcommand
    parsers are of this class too.  ``--help`` still exits 0."""

    def error(self, message):
        raise _FlagError(message)


def _integer_flag(flag: str):
    """The argparse type of the integer flag ``flag``: its value matched
    whole by ``_INTEGER_RE``."""

    def parse(text: str) -> int:
        if not _INTEGER_RE.fullmatch(text):
            raise _FlagError(f"{flag} takes an integer, got {text!r}")
        return int(text)

    return parse


def _add_common_fit_flags(parser) -> None:
    parser.add_argument("-d", "--order", type=_integer_flag("-d/--order"), default=1,
                        help="pairwise likelihood order d")
    parser.add_argument(
        "--weights", choices=["rect", "trap"], default="rect", help="pair weight scheme"
    )
    parser.add_argument("--nodes", type=_integer_flag("--nodes"), default=20,
                        help="quadrature nodes per dimension")
    parser.add_argument("--hac-lags", type=_integer_flag("--hac-lags"), default=None,
                        help="HAC window semi-length r")
    parser.add_argument(
        "--restriction",
        choices=sorted(_RESTRICTIONS),
        default="none",
        help="none: full model; phi0: no autocorrelation; indep: plain Poisson regression",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pairpois",
        description="Latent AR(1) Poisson count models by maximum weighted pairwise likelihood.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to a monthly count CSV")
    p_fit.add_argument("data", help="input CSV with date,count[,covariates] columns")
    p_fit.add_argument("--output", required=True, help="path for the JSON fit report")
    _add_common_fit_flags(p_fit)
    p_fit.add_argument("--holdout-months", type=_integer_flag("--holdout-months"), default=0,
                       help="reserve the last K months for prediction checks")
    p_fit.add_argument("--trend", action="store_true",
                       help="include a linear trend t/n scaled by the training length")
    p_fit.add_argument("--harmonics", action="store_true",
                       help="include the seasonal sin/cos pair")
    p_fit.add_argument("--period", type=_integer_flag("--period"), default=12,
                       help="harmonic period in months")
    p_fit.add_argument("--level-shift", default=None, metavar="YYYY-MM",
                       help="indicator equal to 1 strictly before this month")
    p_fit.add_argument("--covariates", default=None,
                       help="comma-separated extra covariate columns from the CSV")
    p_fit.add_argument("--max-iter", type=_integer_flag("--max-iter"),
                       default=estimation.DEFAULT_MAX_ITER)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="exact prediction band from the fitted marginal law")
    p_pred.add_argument("report", help="JSON fit report from the fit subcommand")
    p_pred.add_argument("--output", required=True, help="path for the band CSV")
    p_pred.add_argument("--horizon-months", type=_integer_flag("--horizon-months"), default=12)
    p_pred.add_argument("--n-sim", type=_integer_flag("--n-sim"), default=10_000,
                        help="ignored: the band is exact")
    p_pred.add_argument("--seed", type=_integer_flag("--seed"), default=1,
                        help="ignored: the band is exact")
    p_pred.add_argument("--data", default=None,
                        help="CSV with observed counts for exceedance flags; its covariate "
                             "columns are matched to band months by date")
    p_pred.add_argument("--future-covariates", default=None,
                        help="date,count[,covariates] CSV whose covariate rows, matched by "
                             "month, win over --data; its counts are checked but not used")
    p_pred.set_defaults(func=cmd_predict)

    p_sim = sub.add_parser("simulate", help="simulate a series from the model")
    p_sim.add_argument("--output", required=True)
    p_sim.add_argument("--scenario", type=_integer_flag("--scenario"),
                       choices=sorted(scenarios.SCENARIOS), default=None)
    p_sim.add_argument("--beta", type=float, default=None, help="intercept on the log scale")
    p_sim.add_argument("--sigma2", type=float, default=None)
    p_sim.add_argument("--phi", type=float, default=None)
    p_sim.add_argument("--n", type=_integer_flag("--n"), default=500)
    p_sim.add_argument("--seed", type=_integer_flag("--seed"), default=0)
    p_sim.add_argument("--start", default="2000-01", metavar="YYYY-MM")
    p_sim.set_defaults(func=cmd_simulate)

    p_sc = sub.add_parser("scenarios", help="simulate-and-refit study over benchmark scenarios")
    p_sc.add_argument("--output", required=True, help="path for the summary CSV")
    p_sc.add_argument("--ids", default="1,2,3,4,5,6,7,8,9", help="comma-separated scenario ids")
    p_sc.add_argument("--n-series", type=_integer_flag("--n-series"), default=100)
    p_sc.add_argument("--n-len", type=_integer_flag("--n-len"), default=500)
    p_sc.add_argument("--orders", default="1", help="comma-separated pairwise orders d")
    p_sc.add_argument("--schemes", default="rect", help="comma-separated schemes (rect,trap)")
    p_sc.add_argument("--nodes", default="20", help="comma-separated node counts")
    p_sc.add_argument("--seed", type=_integer_flag("--seed"), default=0)
    p_sc.set_defaults(func=cmd_scenarios)

    p_w = sub.add_parser("weights", help="print a pair-weight table")
    p_w.add_argument("-d", "--order", type=_integer_flag("-d/--order"), required=True)
    p_w.add_argument("--weights", choices=["rect", "trap"], default="rect")
    p_w.set_defaults(func=cmd_weights)

    return parser


def _check_output(path: str) -> None:
    """Fail before any work when ``--output`` cannot be written as a file:
    its directory is missing or the path is a directory.  The command's
    final ``open`` still reports any other error."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ValueError(f"--output {path}: no directory {folder}")
    if os.path.isdir(path):
        raise ValueError(f"--output {path}: is a directory")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "output", None) is not None:
            _check_output(args.output)
        return args.func(args)
    except (PairpoisError, OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
