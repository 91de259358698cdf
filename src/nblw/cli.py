"""Experiment harness and command line.

Subcommands: ``synth`` (model sweeps), ``cluster`` (real or toy data
sweeps) and ``theory`` (bound reports, optionally with a density-evolution
run).  Results go to a flat CSV; every row carries its (seed, alpha, eta,
kmax, method, dataset-hash) provenance, so re-running a row's tuple
reproduces its accuracy exactly.  The walk rows call the library's
pipelines, :func:`nblw.binary.run_binary` (q = 2) and
:func:`nblw.multiclass.run_multiclass` (q > 2), and every method's labels
are scored by :func:`nblw.binary.accuracy`; ``--timings`` fills the phase
columns.

Each subcommand reads the options of its table in ``COMMANDS`` as long
flags, each converted once to the type of its table default; any other
option is an error, and so is an option that only another ``cluster
--dataset`` kind reads.  An argument ``@FILE`` stands for the
shell-quoted flags in FILE (``#`` starts a comment), and a later argument
overrides an earlier one.  Per-repetition seeds are derived from
the master seed with the package-wide seed-splitting rule (see
:func:`nblw.model.split_seed`); ``synth`` takes ``--seeds`` to pin them,
one row per seed, in place of ``--reps``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import shlex
import sys
import time

import numpy as np

from .binary import DEFAULT_KMAX, accuracy, run_binary
from .graph import center_weights
from .ingest import load_mnist_subset, read_csv_vectors, subsample_and_weight
from .label_prop import label_propagation, sparsify_knn
from .model import (
    Gaussian,
    LabeledDataset,
    ModelSpec,
    dataset_from_truth,
    gaussian_blobs,
    make_instance,
    parse_distribution,
    split_seed,
)
from .multiclass import run_multiclass
from .theory import (
    centered_weight,
    check_error_bounds,
    density_evolution,
    identity_weight,
    optimal_weight,
    theory_report,
    weight_stats,
)

CSV_HEADER = [
    "dataset", "method", "n", "q", "alpha", "eta", "kmax", "seed",
    "acc_all", "acc_unlabeled", "se",
    "phase_sample_s", "phase_iter_s", "phase_decide_s",
]

THEORY_HEADER = [
    "alpha", "eta", "k", "delta", "sigma2", "tau", "mean_w",
    "r_final", "q_final", "r_limit", "q_limit",
    "cantelli_bound", "chernoff_bound", "informative", "envelope_valid",
    "sufficient_alpha", "de_error", "de_se", "cantelli_pass", "chernoff_pass",
]


def _hash12(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _file_hash12(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:12]


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


# ---------------------------------------------------------------------------
# per-repetition pipelines
# ---------------------------------------------------------------------------


def _run(method, centered, sims, data: LabeledDataset, opts, algo_seed):
    """One repetition of one method on a centered-weight graph and its raw
    similarities; returns (acc_all, acc_unlabeled, t_iter), the two
    :func:`~nblw.binary.accuracy` scores of its labels: the raw agreement,
    or with nothing revealed the best agreement over relabellings.

    ``nblw`` is the library pipeline for ``data.q``, and t_iter times the
    whole call (walk, pool and decision, or k-means for q > 2).  ``lp`` is
    label propagation on the raw similarities (clipped at zero if the
    model produced negatives), pruned to per-node top-knn; t_iter times the
    propagation alone.
    """
    kmax, knn, rng = opts["kmax"], opts["knn"], np.random.default_rng(algo_seed)
    if method == "lp":
        sims = np.maximum(np.asarray(sims, dtype=np.float64), 0.0)
        g = centered.with_pair_weights(sims)
        if knn > 0:
            g = sparsify_knn(g, sims, k=knn)
        call = lambda: label_propagation(g, data)
    elif data.q == 2:
        call = lambda: run_binary(centered, data, kmax, rng)[0]
    else:
        call = lambda: run_multiclass(centered, data, data.q, kmax, rng).assignments
    t0 = time.perf_counter()
    est = call()
    t1 = time.perf_counter()
    return (accuracy(est, data.truth, "all", data.revealed),
            accuracy(est, data.truth, "unlabeled", data.revealed), t1 - t0)


def _row(opts, provenance, accs, se, t_sample, t_iter) -> dict:
    """One output row from its provenance (dataset .. seed), the two
    accuracies, the SE and the phase times; ``phase_decide_s`` is 0, as
    the decision is timed inside ``phase_iter_s``.  The phase columns stay
    empty without ``timings``."""
    phases = (t_sample, t_iter, 0.0) if opts["timings"] else ("", "", "")
    return dict(zip(CSV_HEADER, (*provenance, *accs, se, *phases)))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(opts) -> list[dict]:
    p_in, p_out = opts["p_in"], opts["p_out"]
    n, q, kmax, reps = opts["n"], opts["q"], opts["kmax"], opts["reps"]
    methods = _METHODS[opts["method"]]
    dataset = "synth#" + _hash12(f"n={n} q={q} pin={p_in!r} pout={p_out!r}")

    grid = [(a, e) for a in opts["alpha"] for e in opts["eta"]]
    rows = []
    for gi, (alpha, eta) in enumerate(grid):
        seeds = opts["seeds"] or split_seed(opts["seed"], len(grid) * reps)[gi * reps:(gi + 1) * reps]
        for row_seed in seeds:
            inst_seed, algo_seed = split_seed(row_seed, 2)
            spec = ModelSpec(n=n, q=q, alpha=alpha, eta=eta, p_in=p_in, p_out=p_out,
                             seed=inst_seed)
            t0 = time.perf_counter()
            graph, sims, data = make_instance(spec)
            t_sample = time.perf_counter() - t0
            centered = graph.with_pair_weights(center_weights(sims)) if sims.size else graph
            for method in methods:
                acc_all, acc_unl, t_iter = _run(method, centered, sims, data, opts, algo_seed)
                rows.append(_row(opts, (dataset, method, n, q, alpha, eta, kmax, row_seed),
                                 (acc_all, acc_unl), "", t_sample, t_iter))
    return rows


def _load_points(opts):
    """Returns (points, truth 0-based, q, dataset descriptor)."""
    kind = opts["dataset"]
    if kind == "blobs":
        centers, n, sigma = opts["blob_centers"], opts["n"], opts["blob_sigma"]
        rng = np.random.default_rng(opts["data_seed"])
        points, truth = gaussian_blobs(n, centers, sigma, rng)
        desc = f"blobs:n={n}:sigma={sigma}:centers={centers}:seed={opts['data_seed']}"
        return points, truth, len(centers), "blobs#" + _hash12(desc)
    if kind == "mnist":
        digits = opts["digits"]
        points, truth = load_mnist_subset(opts["mnist_images"], opts["mnist_labels"], digits)
        tag = f"mnist{''.join(map(str, digits))}#" + _file_hash12(opts["mnist_images"])
        return points, truth, len(digits), tag
    points, truth = read_csv_vectors(opts["path"], header=opts["header"])
    values, truth = np.unique(truth, return_inverse=True)
    return points, truth, len(values), "csv#" + _file_hash12(opts["path"])


def cmd_cluster(opts) -> list[dict]:
    points, truth, q, dataset = _load_points(opts)
    n = points.shape[0]
    kmax, reps, master = opts["kmax"], opts["reps"], opts["seed"]
    methods = _METHODS[opts["method"]]

    grid = [(a, e) for a in opts["alpha"] for e in opts["eta"]]
    rows = []
    for gi, (alpha, eta) in enumerate(grid):
        seeds = split_seed(master, len(grid) * reps)[gi * reps:(gi + 1) * reps]
        runs = {m: [] for m in methods}
        t_sample_all = []
        for row_seed in seeds:
            samp_seed, reveal_seed, algo_seed = split_seed(row_seed, 3)
            t0 = time.perf_counter()
            result = subsample_and_weight(points, alpha, opts["metric"],
                                          np.random.default_rng(samp_seed))
            t_sample_all.append(time.perf_counter() - t0)
            data = dataset_from_truth(truth, eta, np.random.default_rng(reveal_seed), q=q)
            for method in methods:
                # the subsampled graph already carries centered weights
                runs[method].append(_run(method, result.graph, result.similarities, data,
                                         opts, algo_seed))
        for method in methods:
            acc_all, acc_unl, t_it = (np.asarray(col) for col in zip(*runs[method]))
            se = float(acc_all.std(ddof=1) / np.sqrt(reps)) if reps > 1 else ""
            rows.append(_row(opts, (dataset, method, n, q, alpha, eta, kmax, master),
                             (float(acc_all.mean()), float(acc_unl.mean())), se,
                             float(np.mean(t_sample_all)), float(t_it.mean())))
    return rows


def cmd_theory(opts) -> list[dict]:
    p_in, p_out = opts["p_in"], opts["p_out"]
    eta, kmax, de_pop, alphas = opts["eta"], opts["kmax"], opts["de_pop"], opts["alpha"]
    w = _WEIGHTS[opts["weight"]](p_in, p_out)
    # word 0 seeds the density-evolution graphs, word 2 * ai + 1 alpha ai's Monte Carlo
    words = split_seed(opts["seed"], 2 * len(alphas))
    rows = []
    for ai, alpha in enumerate(alphas):
        rng = np.random.default_rng(words[2 * ai + 1])
        stats = weight_stats(p_in, p_out, w, alpha, rng=rng)
        report = theory_report(stats, eta, kmax)
        row = report.to_dict()
        row.setdefault("sufficient_alpha", "")
        row.update({"de_error": "", "de_se": "", "cantelli_pass": "", "chernoff_pass": ""})
        if de_pop > 0:
            spec = ModelSpec(n=max(int(alpha) + 1, 10**5), q=2, alpha=alpha, eta=eta,
                             p_in=p_in, p_out=p_out, seed=words[0])
            de = density_evolution(spec, w, kmax, pop=de_pop)
            bc = check_error_bounds(report, de.error, de.error_se)
            row["de_error"], row["de_se"] = de.error, de.error_se
            row["cantelli_pass"] = bc.cantelli_ok
            row["chernoff_pass"] = "" if bc.chernoff_ok is None else bc.chernoff_ok
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# option handling and entry point
# ---------------------------------------------------------------------------

# options read by both sweeps, and the similarity laws of the model; a
# default's type is the type of the option's value (a list: comma-separated)
_SWEEP = {
    "n": 10000, "alpha": [5.0], "eta": [0.1], "kmax": DEFAULT_KMAX, "reps": 1,
    "method": "nblw", "seed": 0, "out": "-", "knn": 3, "timings": False, "json": False,
}
_LAWS = {"p_in": Gaussian(0.5, 1.0), "p_out": Gaussian(-0.5, 1.0)}

# the least value of each count option; --knn 0 keeps every edge for LP
_AT_LEAST = {"reps": 1, "knn": 0, "kmax": 0}

# the options that only one --dataset kind of cluster reads
_DATASET_OPTIONS = {
    "blobs": {"n", "blob_centers", "blob_sigma", "data_seed"},
    "mnist": {"digits", "mnist_images", "mnist_labels"},
    "csv": {"path", "header"},
}

# the methods each --method runs, and the maker of each --weight from the laws
_METHODS = {"nblw": ["nblw"], "lp": ["lp"], "both": ["nblw", "lp"]}
_WEIGHTS = {"center": centered_weight, "identity": lambda p_in, p_out: identity_weight(),
            "optimal": optimal_weight}

# the options whose value is one of a few words
_CHOICES = {"method": _METHODS, "weight": _WEIGHTS, "dataset": _DATASET_OPTIONS,
            "metric": ("euclidean", "cosine")}

# name -> (command, CSV header, the options it reads with their defaults)
COMMANDS = {
    "synth": (cmd_synth, CSV_HEADER, {**_SWEEP, "q": 2, "seeds": [], **_LAWS}),
    "cluster": (cmd_cluster, CSV_HEADER, {
        **_SWEEP, "dataset": "blobs", "metric": "euclidean",
        "blob_centers": [[-3.0, 0.0], [3.0, 0.0]], "blob_sigma": 1.0, "data_seed": 0,
        "digits": [0, 1], "mnist_images": "", "mnist_labels": "", "path": "", "header": False}),
    "theory": (cmd_theory, THEORY_HEADER, {
        **{k: _SWEEP[k] for k in ("alpha", "kmax", "seed", "out", "json")}, "eta": 0.1,
        **_LAWS, "weight": "center", "de_pop": 0}),
}


def _scalar(kind, text: str):
    """``text`` as an int, or as a float that is neither nan nor infinite."""
    try:
        value = kind(text)
        if kind is int or math.isfinite(value):
            return value
    except ValueError:
        pass
    name = "int" if kind is int else "finite float"
    raise argparse.ArgumentTypeError(f"invalid {name} value: {text!r}")


def _law(text: str):
    """A similarity law from its spec, as :func:`nblw.model.parse_distribution` reads it."""
    try:
        return parse_distribution(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _centers(text: str) -> list[list[float]]:
    """Two or more points ``X:Y;X:Y`` of finite coordinates and one dimension."""
    centers = [[_scalar(float, x) for x in center.split(":")] for center in text.split(";")]
    if len(centers) < 2 or len({len(center) for center in centers}) > 1:
        raise argparse.ArgumentTypeError(f"need two or more centers of one dimension: {text!r}")
    return centers


def _reader(default):
    """The argparse type of an option with this table default.  A law
    reads a distribution spec, and a list of lists reads points.  A list
    reads comma-separated items of its first item's type; the empty list of
    ``seeds`` reads integers and may be given empty."""
    if isinstance(default, Gaussian):
        return _law
    if isinstance(default, list):
        if default and isinstance(default[0], list):
            return _centers
        item = _reader(default[0] if default else 0)
        return lambda text: [item(x) for x in text.split(",")] if text or default else []
    if isinstance(default, str):
        return str
    return lambda text: _scalar(type(default), text)


class _Parser(argparse.ArgumentParser):
    """Raises ValueError instead of printing the usage and exiting 2, so
    that a malformed command line is one ``nblw: error:`` line, exit 1.
    Reads each line of an ``@file`` argument as shell words."""

    def error(self, message):
        raise ValueError(message)

    def convert_arg_line_to_args(self, arg_line):
        try:
            return shlex.split(arg_line, comments=True)
        except ValueError as exc:
            raise ValueError(f"{exc} in argument file line {arg_line!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nblw",
        description="clustering from subsampled pairwise similarities",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, table) in COMMANDS.items():
        # no prefixes: with fewer flags, more of them would match one silently
        p = sub.add_parser(name, allow_abbrev=False)
        for key, default in table.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, bool):
                p.add_argument(flag, action="store_const", const=True)
            else:
                p.add_argument(flag, type=_reader(default), choices=_CHOICES.get(key))
    return parser


def _merge_options(args: argparse.Namespace, table: dict) -> dict:
    given = {key for key in table if getattr(args, key) is not None}
    opts = {key: getattr(args, key) if key in given else table[key] for key in table}
    if opts.get("seeds") and "reps" in given:
        raise ValueError("--seeds pins one row per seed; it cannot be combined with --reps")
    for key, least in _AT_LEAST.items():
        if opts.get(key, least) < least:
            raise ValueError(f"--{key} must be at least {least}")
    # --de-pop 0 skips density evolution, whose population needs two members
    if opts.get("de_pop", 0) < 0 or opts.get("de_pop") == 1:
        raise ValueError("--de-pop must be 0 or at least 2")
    kind = opts.get("dataset")
    if kind in _DATASET_OPTIONS:
        foreign = given & set().union(*_DATASET_OPTIONS.values()) - _DATASET_OPTIONS[kind]
        if foreign:
            flag = "--" + min(foreign).replace("_", "-")
            raise ValueError(f"cluster --dataset {kind} does not read {flag}")
    return opts


def _write_rows(rows: list[dict], header: list[str], out: str, as_json: bool):
    fh = sys.stdout if out in ("-", "") else open(out, "w", newline="")
    try:
        if as_json:
            for row in rows:
                fh.write(json.dumps(row, default=float) + "\n")
        else:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(row.get(col, "")) for col in header])
    finally:
        if fh is not sys.stdout:
            fh.close()


def main(argv=None) -> int:
    try:
        args, unread = _build_parser().parse_known_args(argv)
        if unread:
            raise ValueError(f"{args.command} does not read {unread[0].split('=')[0]}")
        command, header, table = COMMANDS[args.command]
        opts = _merge_options(args, table)
        _write_rows(command(opts), header, opts["out"], opts["json"])
    except (ValueError, OSError) as exc:
        print(f"nblw: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
