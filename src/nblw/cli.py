"""Experiment harness and command line.

Subcommands: ``synth`` (model sweeps), ``cluster`` (real or toy data
sweeps), ``theory`` (bound reports, optionally with a density-evolution
run), ``bench`` (phase timings).  Results go to a flat CSV; every row
carries its (seed, alpha, eta, kmax, method, dataset-hash) provenance, so
re-running a row's tuple reproduces its accuracy exactly.

Configuration is a flat JSON object with the same keys as the long CLI
flags; explicit flags override the config file.  Per-repetition seeds are
derived from the master seed with the package-wide seed-splitting rule
(see :func:`nblw.model.split_seed`); ``synth`` takes ``--seeds`` to pin
them, one row per seed, in place of ``--reps``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time

import numpy as np

from .binary import DEFAULT_KMAX, accuracy, decide, init_messages, power_iterate
from .graph import center_weights, pool
from .ingest import load_mnist_subset, read_csv_vectors, subsample_and_weight
from .label_prop import label_propagation, sparsify_knn
from .model import (
    LabeledDataset,
    ModelSpec,
    dataset_from_truth,
    gaussian_blobs,
    make_instance,
    parse_distribution,
    split_seed,
)
from .multiclass import match_labels, run_multiclass
from .theory import (
    CHERNOFF_TAU_THRESHOLD,
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


def _float_list(text) -> list[float]:
    return [float(x) for x in str(text).split(",") if x != ""]


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


def _accuracies(est, data: LabeledDataset) -> tuple[float, float]:
    """(acc_all, acc_unlabeled) of an assignment in the dataset's encoding.

    A multiclass assignment is aligned on the revealed nodes (legal: their
    truth is an input) and raw agreement is reported; with none revealed
    it is the permutation-maximized agreement.
    """
    if data.q == 2:
        return (accuracy(est, data.truth, "all", data.revealed),
                accuracy(est, data.truth, "unlabeled", data.revealed))
    truth, rev = data.class_indices(), data.revealed
    if not rev.any():
        acc, _ = match_labels(est, truth)
        return acc, acc
    _, perm = match_labels(est[rev], truth[rev])
    hits = np.asarray(perm)[est] == truth
    return float(np.mean(hits)), float(np.mean(hits[~rev]))


def _run_nblw(g, data: LabeledDataset, kmax: int, rng):
    """Walk on a centered-weight graph with phase timings; returns
    (acc_all, acc_unlabeled, t_iter, t_decide)."""
    if data.q == 2:
        t0 = time.perf_counter()
        state = power_iterate(g, init_messages(g, data, rng), kmax)
        t1 = time.perf_counter()
        est = decide(g, pool(g, state), data)
        t2 = time.perf_counter()
        return (*_accuracies(est, data), t1 - t0, t2 - t1)
    t0 = time.perf_counter()
    result = run_multiclass(g, data, data.q, kmax, rng)
    t1 = time.perf_counter()
    return (*_accuracies(result.assignments, data), t1 - t0, 0.0)


def _run_lp(graph, sims, data: LabeledDataset, knn: int):
    """Label propagation on the raw similarities (clipped at zero if the
    model produced negatives), pruned to per-node top-knn."""
    sims = np.maximum(np.asarray(sims, dtype=np.float64), 0.0)
    g = graph.with_pair_weights(sims)
    if knn > 0 and g.num_pairs:
        g = sparsify_knn(g, sims, k=knn)
    t0 = time.perf_counter()
    est = label_propagation(g, data)
    t1 = time.perf_counter()
    return (*_accuracies(est, data), t1 - t0, 0.0)


def _run(method, centered, sims, data: LabeledDataset, opts, algo_seed):
    """One repetition of one method on a centered-weight graph and its raw
    similarities; returns (acc_all, acc_unlabeled, t_iter, t_decide)."""
    if method == "nblw":
        return _run_nblw(centered, data, int(opts["kmax"]), np.random.default_rng(algo_seed))
    return _run_lp(centered, sims, data, int(opts["knn"]))


def _row(opts, provenance, accs, se, phases) -> dict:
    """One output row from its provenance (dataset .. seed), the two
    accuracies, the SE and the three phase times; the phase columns stay
    empty without ``timings``."""
    if not opts["timings"]:
        phases = ("", "", "")
    return dict(zip(CSV_HEADER, (*provenance, *accs, se, *phases)))


def _methods(name: str) -> list[str]:
    if name == "both":
        return ["nblw", "lp"]
    if name in ("nblw", "lp"):
        return [name]
    raise ValueError(f"unknown method {name!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(opts) -> list[dict]:
    p_in = parse_distribution(opts["p_in"])
    p_out = parse_distribution(opts["p_out"])
    n, q, kmax = int(opts["n"]), int(opts["q"]), int(opts["kmax"])
    alphas, etas = _float_list(opts["alpha"]), _float_list(opts["eta"])
    reps = int(opts["reps"])
    methods = _methods(opts["method"])
    dataset = "synth#" + _hash12(f"n={n} q={q} pin={p_in!r} pout={p_out!r}")

    grid = [(a, e) for a in alphas for e in etas]
    pinned = [int(s) for s in str(opts["seeds"]).split(",")] if opts.get("seeds") else None
    rows = []
    for gi, (alpha, eta) in enumerate(grid):
        seeds = pinned or split_seed(int(opts["seed"]), len(grid) * reps)[gi * reps:(gi + 1) * reps]
        for row_seed in seeds:
            inst_seed, algo_seed = split_seed(row_seed, 2)
            spec = ModelSpec(n=n, q=q, alpha=alpha, eta=eta, p_in=p_in, p_out=p_out,
                             seed=inst_seed)
            t0 = time.perf_counter()
            graph, sims, data = make_instance(spec)
            t_sample = time.perf_counter() - t0
            centered = graph.with_pair_weights(center_weights(sims)) if sims.size else graph
            for method in methods:
                acc_all, acc_unl, t_iter, t_decide = _run(method, centered, sims, data,
                                                          opts, algo_seed)
                rows.append(_row(opts, (dataset, method, n, q, alpha, eta, kmax, row_seed),
                                 (acc_all, acc_unl), "", (t_sample, t_iter, t_decide)))
    return rows


def _load_points(opts):
    """Returns (points, truth 0-based, q, dataset descriptor)."""
    kind = opts["dataset"]
    if kind == "blobs":
        centers = [
            [float(c) for c in grp.split(":")] for grp in str(opts["blob_centers"]).split(";")
        ]
        n, sigma = int(opts["n"]), float(opts["blob_sigma"])
        rng = np.random.default_rng(int(opts["data_seed"]))
        points, truth = gaussian_blobs(n, centers, sigma, rng)
        desc = f"blobs:n={n}:sigma={sigma}:centers={centers}:seed={opts['data_seed']}"
        return points, truth, len(centers), "blobs#" + _hash12(desc)
    if kind == "mnist":
        digits = [int(d) for d in str(opts["digits"]).split(",")]
        points, truth = load_mnist_subset(opts["mnist_images"], opts["mnist_labels"], digits)
        tag = f"mnist{''.join(map(str, digits))}#" + _file_hash12(opts["mnist_images"])
        return points, truth, len(digits), tag
    if kind == "csv":
        points, truth = read_csv_vectors(opts["path"], header=opts["header"],
                                         label_column=True)
        values, truth = np.unique(truth, return_inverse=True)
        return points, truth, len(values), "csv#" + _file_hash12(opts["path"])
    raise ValueError(f"unknown dataset {kind!r}")


def cmd_cluster(opts) -> list[dict]:
    points, truth, q, dataset = _load_points(opts)
    n = points.shape[0]
    alphas, etas = _float_list(opts["alpha"]), _float_list(opts["eta"])
    kmax, reps = int(opts["kmax"]), int(opts["reps"])
    methods = _methods(opts["method"])
    master = int(opts["seed"])

    grid = [(a, e) for a in alphas for e in etas]
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
            acc_all, acc_unl, t_it, t_dec = (np.asarray(col) for col in zip(*runs[method]))
            se = float(acc_all.std(ddof=1) / np.sqrt(reps)) if reps > 1 else ""
            rows.append(_row(opts, (dataset, method, n, q, alpha, eta, kmax, master),
                             (float(acc_all.mean()), float(acc_unl.mean())), se,
                             (float(np.mean(t_sample_all)), float(t_it.mean()),
                              float(t_dec.mean()))))
    return rows


def cmd_theory(opts) -> list[dict]:
    p_in = parse_distribution(opts["p_in"])
    p_out = parse_distribution(opts["p_out"])
    eta, kmax = float(opts["eta"]), int(opts["kmax"])
    de_pop = int(opts["de_pop"])
    weights = {"center": lambda: centered_weight(p_in, p_out), "identity": identity_weight,
               "optimal": lambda: optimal_weight(p_in, p_out)}
    if opts["weight"] not in weights:
        raise ValueError(f"unknown weight {opts['weight']!r}")
    w = weights[opts["weight"]]()
    rows = []
    for ai, alpha in enumerate(_float_list(opts["alpha"])):
        rng = np.random.default_rng(split_seed(int(opts["seed"]), 2 * (ai + 1))[-1])
        stats = weight_stats(p_in, p_out, w, alpha, rng=rng)
        report = theory_report(stats, eta, kmax)
        row = report.to_dict()
        tau = stats.tau
        row["r_limit"] = max(0.0, (tau - 1.0) / tau) if tau > 1 else 0.0
        row["q_limit"] = (2.0 / 3.0) * (tau - 1.0) if tau > CHERNOFF_TAU_THRESHOLD else 0.0
        row.setdefault("sufficient_alpha", "")
        row.update({"de_error": "", "de_se": "", "cantelli_pass": "", "chernoff_pass": ""})
        if de_pop > 0:
            spec = ModelSpec(n=max(int(alpha) + 1, 10**5), q=2, alpha=alpha, eta=eta,
                             p_in=p_in, p_out=p_out, seed=split_seed(int(opts["seed"]), 1)[0])
            de = density_evolution(spec, w, kmax, pop=de_pop)
            bc = check_error_bounds(report, de.error, de.error_se)
            row["de_error"], row["de_se"] = de.error, de.error_se
            row["cantelli_pass"] = bc.cantelli_ok
            row["chernoff_pass"] = "" if bc.chernoff_ok is None else bc.chernoff_ok
        rows.append(row)
    return rows


def cmd_bench(opts) -> list[dict]:
    opts = {**opts, "timings": True}
    return (cmd_synth if opts["dataset"] == "synth" else cmd_cluster)(opts)


# ---------------------------------------------------------------------------
# option handling and entry point
# ---------------------------------------------------------------------------

DEFAULTS = {
    "n": 10000, "q": 2, "alpha": "5", "eta": "0.1", "kmax": DEFAULT_KMAX,
    "reps": 1, "method": "nblw", "seed": 0, "seeds": "", "out": "-",
    "p_in": "gaussian:0.5:1", "p_out": "gaussian:-0.5:1",
    "dataset": "blobs", "metric": "euclidean", "knn": 3,
    "blob_centers": "-3:0;3:0", "blob_sigma": 1.0, "data_seed": 0,
    "digits": "0,1", "mnist_images": "", "mnist_labels": "",
    "path": "", "header": False,
    "weight": "center", "de_pop": 0, "timings": False, "json": False,
}


COMMANDS = {
    "synth": (cmd_synth, CSV_HEADER), "cluster": (cmd_cluster, CSV_HEADER),
    "theory": (cmd_theory, THEORY_HEADER), "bench": (cmd_bench, CSV_HEADER),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nblw",
        description="clustering from subsampled pairwise similarities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON file of option defaults")
        for key, default in DEFAULTS.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, bool):
                p.add_argument(flag, action="store_const", const=True, default=None)
            else:
                p.add_argument(flag, default=None)
    return parser


def _check_config(loaded) -> dict:
    """Validate a loaded config: known keys, JSON true/false for switches,
    a number or a string for every other key.  Numbers given for keys
    that take text are read as their text, as a flag would give them."""
    if not isinstance(loaded, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(loaded) - set(DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in loaded.items():
        switch = isinstance(DEFAULTS[key], bool)
        if switch != isinstance(value, bool) or not isinstance(value, (int, float, str)):
            kind = "true or false" if switch else "a number or a string"
            raise ValueError(f"config key {key!r} must be {kind}, got {value!r}")
    return {k: str(v) if isinstance(DEFAULTS[k], str) else v for k, v in loaded.items()}


def _merge_options(args: argparse.Namespace) -> dict:
    opts = dict(DEFAULTS)
    given = set()
    if args.config:
        with open(args.config) as fh:
            loaded = _check_config(json.load(fh))
        opts.update(loaded)
        given.update(loaded)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            opts[key] = value
            given.add(key)
    # only synth rows are seeded one by one; cluster rows average their reps
    synth = args.command == "synth" or (args.command == "bench" and opts["dataset"] == "synth")
    if opts["seeds"] and not synth:
        raise ValueError("--seeds is read only by synth and by bench --dataset synth")
    if opts["seeds"] and "reps" in given:
        raise ValueError("--seeds pins one row per seed; it cannot be combined with --reps")
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
    args = _build_parser().parse_args(argv)
    try:
        opts = _merge_options(args)
        command, header = COMMANDS[args.command]
        _write_rows(command(opts), header, opts["out"], bool(opts["json"]))
    except (ValueError, OSError) as exc:
        print(f"nblw: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
