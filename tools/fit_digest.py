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
              bundled Greek and Italian series (d = 5 trap at 20 and at
              10 nodes, and the README's d = 1 trap, 10 nodes), for the
              full model and both restrictions, with the data path masked.

A case that raises enters its digest as the exception's type and text.
A ``RuntimeWarning`` is an error here, as under pytest (``pyproject.toml``),
so a floating-point warning inside a case enters its digest the same way
and one outside a case stops the run.  pairpois is imported from the
``src/`` next to this file.

When digests differ, the numbers show how far: ``--values PATH`` also
writes every case's numbers and text, by group and case name, as JSON,
and ``--compare A B`` reads two such files and prints, per group, the
cases that differ and the largest absolute and relative difference
(|a - b| / max(|a|, |b|)).  Text is compared number by number when its
words match, so a reformatted report shows as text, not as a number.

Run from the repository root:  python tools/fit_digest.py [--values PATH]
                               python tools/fit_digest.py --compare A B
"""
import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import pathlib
import re
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


class Group:
    """One digest group: the SHA-256 of its cases, fed in order, and each
    case's numbers and text by name."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.cases = {}

    def case(self, name, value):
        assert name not in self.cases, name
        feed(self.hash, value)
        self.cases[name] = flatten(value)


def flatten(value):
    """The numbers and text of ``value`` in feed order: numbers as floats
    (NaN and infinities kept), strings and bytes as text."""
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in flatten(item)]
    if isinstance(value, (str, bytes)):
        return [value.decode() if isinstance(value, bytes) else value]
    return np.asarray(value, dtype=float).ravel().tolist()


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
                name = f"scenario {sid} seed {seed} d={weights.d} {weights.scheme}"
                h.case(f"{name} full", fit_fields(attempt(pp.fit, series, weights, quad_order=Q)))
                for restriction in (pp.PHI_ZERO, pp.INDEPENDENCE):
                    h.case(f"{name} {restriction}",
                           fit_fields(attempt(pp.fit_restricted, series, weights, quad_order=Q,
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
            name = f"scenario {sid} log_sigma2={log_sigma2:.6g} z_phi={z_phi:.6g}"
            loglik, _, grads = ev.evaluate(working)
            pairs = ev.pair_scores(grads)
            h.case(f"{name} evaluate",
                   [ev.loglik(working), ev.loglik_and_score(working), loglik, pairs,
                    estimation._weighted_per_t(WEIGHTS.w, pairs)])
            params = working.to_params()
            h.case(f"{name} sandwich",
                   [pp.sensitivity_H(series, working, WEIGHTS, rule),
                    pp.variability_J(series, working, WEIGHTS, rule),
                    pp.pairwise_loglik(series, params, WEIGHTS, rule)])
            for q in (5, 20, 60):
                for t in range(WEIGHTS.m_d, N, 37):
                    for lag in (1, 3):
                        h.case(f"{name} pair_log_density q={q} t={t} lag={lag}",
                               attempt(pp.pair_log_density, int(series.y[t - lag]),
                                       int(series.y[t]), series.X[t - lag], series.X[t], lag,
                                       params, pp.gauss_hermite(q)))
    for z_phi in (0.3, 0.0):
        h.case(f"spike z_phi={z_phi}", spike_failures(z_phi))


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
                                                         (("5", "20"), ("1", "10"),
                                                          ("5", "10"))):
                report, band = f"{tmp}/fit.json", f"{tmp}/band.csv"
                case = f"{name} {restriction} d={d} q={q}"
                h.case(f"{case} fit output",
                       run_cli(["fit", data, "--output", report, "-d", d, "--weights", "trap",
                                "--nodes", q, "--holdout-months", "12",
                                "--restriction", restriction, *flags], masks))
                with open(report) as handle:
                    content = json.load(handle)
                content["data_path"] = "<data>"
                h.case(f"{case} report", json.dumps(content, sort_keys=True))
                h.case(f"{case} predict output",
                       run_cli(["predict", report, "--output", band, "--horizon-months", "12",
                                "--data", data], masks))
                h.case(f"{case} band", pathlib.Path(band).read_bytes())


# a number in text: the words between numbers must match for text to be
# compared number by number
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def numbers(items):
    """The numbers of one case, and its words: every float item, and every
    number written in its text."""
    values, words = [], []
    for item in items:
        if isinstance(item, str):
            words.append(_NUMBER.sub("#", item))
            values += [float(x) for x in _NUMBER.findall(item)]
        else:
            values.append(item)
    return np.array(values, dtype=float), words


def difference(a, b):
    """The largest absolute and relative difference of two cases' numbers,
    or None when their words or number counts differ.  Equal values, NaN
    included, differ by 0."""
    (x, words_a), (y, words_b) = numbers(a), numbers(b)
    if words_a != words_b or x.shape != y.shape:
        return None
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    with np.errstate(invalid="ignore"):
        gap = np.where(same, 0.0, np.abs(x - y))
        scale = np.maximum(np.abs(x), np.abs(y))
        rel = np.where(same, 0.0, gap / np.where(scale > 0, scale, 1.0))
    gap, rel = np.nan_to_num(gap, nan=math.inf), np.nan_to_num(rel, nan=math.inf)
    return float(gap.max(initial=0.0)), float(rel.max(initial=0.0))


def compare(path_a, path_b):
    """Print, per group, the cases of two ``--values`` files that differ."""
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in (path_a, path_b))
    for group in a:
        cases_a, cases_b = a[group], b.get(group, {})
        differ, top_abs, top_rel = [], 0.0, 0.0
        for name in list(cases_a) + [n for n in cases_b if n not in cases_a]:
            if cases_a.get(name) == cases_b.get(name):
                continue
            gap = None if name not in cases_a or name not in cases_b else difference(
                cases_a[name], cases_b[name])
            if gap is None:
                differ.append(f"  {name}: text or shape differs")
                continue
            if gap == (0.0, 0.0):  # NaN in the same places
                continue
            differ.append(f"  {name}: abs {gap[0]:.3g}, rel {gap[1]:.3g}")
            top_abs, top_rel = max(top_abs, gap[0]), max(top_rel, gap[1])
        total = len(set(cases_a) | set(cases_b))
        print(f"{group}: {len(differ)} of {total} cases differ; largest abs {top_abs:.3g}, "
              f"largest rel {top_rel:.3g}")
        print("\n".join(differ) or "  (none)")


def main(argv=None):
    parser = argparse.ArgumentParser(description="Digests of pairpois results.")
    parser.add_argument("--values", metavar="PATH",
                        help="also write every case's numbers and text as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="print how the cases of two --values files differ, and exit")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return
    warnings.simplefilter("error", RuntimeWarning)
    values = {}
    for name, group in (("fits", fits), ("evaluator", evaluator), ("cli", cli_outputs)):
        h = Group()
        group(h)
        values[name] = h.cases
        print(f"{h.hash.hexdigest()}  {name}", flush=True)
    if args.values:
        pathlib.Path(args.values).write_text(json.dumps(values))


if __name__ == "__main__":
    main()
