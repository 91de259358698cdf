"""Harness behavior: schemas, determinism, provenance, scaling, errors."""

import csv
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
import warnings
from contextlib import redirect_stdout

import numpy as np
import pytest

from nblw.cli import CSV_HEADER, THEORY_HEADER, main


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_python(*args):
    """Run a fresh interpreter that imports nblw from this checkout's src."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def rows_of(text):
    reader = csv.DictReader(io.StringIO(text))
    return list(reader)


SYNTH_FAST = [
    "synth", "--n", "1500", "--alpha", "4,6,8", "--eta", "0.1,0.3",
    "--reps", "5", "--seed", "11", "--kmax", "8",
    "--p-in", "point:1", "--p-out", "point:-1",
]


DATA = pathlib.Path(__file__).resolve().parent / "data"

# stdout of these sweeps must equal the files under tests/data byte for byte;
# rewrite a file (nblw <argv> > tests/data/<name>) only for a deliberate
# change of output, and say which rows changed
GOLDEN = {
    "synth_binary_both.csv": [
        "synth", "--n", "1500", "--alpha", "6,10", "--eta", "0.1", "--reps", "2",
        "--seed", "21", "--kmax", "10", "--method", "both",
    ],
    "synth_q3_both.csv": [
        "synth", "--n", "1500", "--q", "3", "--alpha", "6,10", "--eta", "0.2",
        "--reps", "2", "--seed", "3", "--kmax", "10",
        "--p-in", "point:1", "--p-out", "point:0", "--method", "both",
    ],
    # nothing revealed: the q = 3 k-means keeps its kmeans++ restarts
    "synth_q3_eta0.csv": [
        "synth", "--n", "1500", "--q", "3", "--alpha", "10", "--eta", "0",
        "--reps", "2", "--seed", "6", "--kmax", "10",
        "--p-in", "point:1", "--p-out", "point:0",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_golden_file(name):
    code, out = run_cli(GOLDEN[name])
    assert code == 0
    assert out.encode() == (DATA / name).read_bytes()


class TestSynth:
    def test_grid_cardinality_and_schema(self):
        code, out = run_cli(SYNTH_FAST)
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 3 * 2 * 5
        assert list(rows[0].keys()) == CSV_HEADER

    def test_identical_csv_on_rerun(self):
        _, first = run_cli(SYNTH_FAST)
        _, second = run_cli(SYNTH_FAST)
        assert first == second

    def test_row_seed_reproduces_accuracy(self):
        _, out = run_cli(SYNTH_FAST)
        row = rows_of(out)[7]
        _, single = run_cli([
            "synth", "--n", "1500", "--alpha", row["alpha"], "--eta", row["eta"],
            "--kmax", "8", "--seeds", row["seed"],
            "--p-in", "point:1", "--p-out", "point:-1",
        ])
        rerun = rows_of(single)[0]
        assert rerun["acc_all"] == row["acc_all"]
        assert rerun["acc_unlabeled"] == row["acc_unlabeled"]

    def test_zero_signal_floor(self):
        code, out = run_cli([
            "synth", "--n", "2000", "--alpha", "8", "--eta", "0.1",
            "--reps", "10", "--seed", "3", "--kmax", "10",
            "--p-in", "gaussian:0:1", "--p-out", "gaussian:0:1",
        ])
        assert code == 0
        accs = [float(r["acc_unlabeled"]) for r in rows_of(out)]
        assert abs(np.mean(accs) - 0.5) < 0.05

    def test_both_methods_and_multiclass(self):
        code, out = run_cli([
            "synth", "--n", "1200", "--q", "3", "--alpha", "12", "--eta", "0.2",
            "--reps", "2", "--kmax", "8", "--method", "both",
            "--p-in", "point:1", "--p-out", "point:0",
        ])
        assert code == 0
        rows = rows_of(out)
        assert {r["method"] for r in rows} == {"nblw", "lp"}
        assert all(float(r["acc_all"]) > 0.5 for r in rows)

    @pytest.mark.parametrize("q", ["2", "3"])
    def test_all_revealed_gives_nan_unlabeled_accuracy(self, q):
        # no unlabelled node: acc_unlabeled is nan for every q and method,
        # without numpy's empty-slice warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(["synth", "--n", "300", "--alpha", "5", "--eta", "1",
                                 "--q", q, "--kmax", "5", "--method", "both"])
        assert code == 0
        rows = rows_of(out)
        assert [r["method"] for r in rows] == ["nblw", "lp"]
        assert all(r["acc_unlabeled"] == "nan" and r["acc_all"] != "nan" for r in rows)

    def test_revealed_labels_missing_a_class(self):
        # the 3 revealed nodes hold classes 0 and 1 only, while k-means
        # assigns label 2 elsewhere
        code, out = run_cli([
            "synth", "--n", "1000", "--q", "3", "--alpha", "8", "--eta", "0.003",
            "--seeds", "7814698816243647174", "--kmax", "15", "--method", "both",
        ])
        assert code == 0
        assert [r["method"] for r in rows_of(out)] == ["nblw", "lp"]


class TestCluster:
    def test_blobs_sweep_aggregates(self, tmp_path):
        out_path = tmp_path / "res.csv"
        code, _ = run_cli([
            "cluster", "--dataset", "blobs", "--n", "2000", "--alpha", "4,8",
            "--eta", "0.1", "--reps", "3", "--seed", "5", "--out", str(out_path),
        ])
        assert code == 0
        rows = rows_of(out_path.read_text())
        assert len(rows) == 2
        assert all(r["se"] != "" for r in rows)
        assert all(float(r["acc_all"]) > 0.6 for r in rows)

    def test_single_rep_no_se(self):
        code, out = run_cli([
            "cluster", "--dataset", "blobs", "--n", "1000", "--alpha", "6",
            "--eta", "0.1", "--reps", "1", "--seed", "5",
        ])
        assert code == 0
        assert rows_of(out)[0]["se"] == ""

    def test_accuracy_nondecreasing_in_alpha(self):
        """Isotonic-fit residual of the accuracy-vs-alpha curve is small."""
        code, out = run_cli([
            "cluster", "--dataset", "blobs", "--n", "10000", "--alpha", "2,4,8,16",
            "--eta", "0.1", "--reps", "3", "--seed", "7",
        ])
        assert code == 0
        acc = np.array([float(r["acc_all"]) for r in rows_of(out)])

        def pava(y):
            # pool adjacent violators for a nondecreasing fit
            blocks = [[v, 1] for v in y]
            i = 0
            while i < len(blocks) - 1:
                if blocks[i][0] > blocks[i + 1][0] + 1e-15:
                    v = (blocks[i][0] * blocks[i][1] + blocks[i + 1][0] * blocks[i + 1][1])
                    w = blocks[i][1] + blocks[i + 1][1]
                    blocks[i:i + 2] = [[v / w, w]]
                    i = max(i - 1, 0)
                else:
                    i += 1
            fit = []
            for v, w in blocks:
                fit.extend([v] * w)
            return np.asarray(fit)

        residual = np.abs(acc - pava(acc)).max()
        assert residual < 0.02

    def test_csv_dataset(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        n = 600
        X = np.concatenate([rng.normal(-2, 1, (n // 2, 2)), rng.normal(2, 1, (n // 2, 2))])
        y = np.repeat([0, 1], n // 2)
        path = tmp_path / "data.csv"
        np.savetxt(path, np.column_stack([X, y]), delimiter=",")
        code, out = run_cli([
            "cluster", "--dataset", "csv", "--path", str(path), "--alpha", "8",
            "--eta", "0.1", "--reps", "2", "--seed", "1",
        ])
        assert code == 0
        assert float(rows_of(out)[0]["acc_all"]) > 0.75
        # a label column of fractions is an error naming the file
        y = np.tile([0.2, 0.7, 1.0, 1.0], n // 4)
        np.savetxt(path, np.column_stack([X, y]), delimiter=",")
        code = main(["cluster", "--dataset", "csv", "--path", str(path), "--alpha", "8",
                     "--method", "both"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"nblw: error: {path}: label 0.2 of data row 1 is not an integer\n"

    def test_missing_dataset_fails_cleanly(self, capsys):
        code = main(["cluster", "--dataset", "csv", "--path", "/nonexistent.csv"])
        captured = capsys.readouterr()
        assert code != 0 and "error" in captured.err

    def test_mnist_branch_with_idx_fixture(self, tmp_path):
        """The IDX ingestion branch, end to end, on synthetic digit-like
        images: class 0 lights the top half, class 1 the bottom half."""
        import struct

        rng = np.random.default_rng(0)
        n_img, side = 400, 8
        labels = rng.integers(0, 2, n_img).astype(np.uint8)
        pixels = rng.integers(0, 40, (n_img, side, side)).astype(np.uint8)
        pixels[labels == 0, : side // 2, :] += 180
        pixels[labels == 1, side // 2 :, :] += 180
        with open(tmp_path / "img", "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, n_img, side, side))
            fh.write(pixels.tobytes())
        with open(tmp_path / "lab", "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, n_img))
            fh.write(labels.tobytes())
        code, out = run_cli([
            "cluster", "--dataset", "mnist",
            "--mnist-images", str(tmp_path / "img"),
            "--mnist-labels", str(tmp_path / "lab"),
            "--digits", "0,1", "--metric", "cosine",
            "--alpha", "12", "--eta", "0.1", "--reps", "3", "--seed", "2",
        ])
        assert code == 0
        row = rows_of(out)[0]
        assert row["n"] == str(n_img)
        assert float(row["acc_all"]) > 0.9

    def test_idx_faults_are_one_line_errors(self, tmp_path, capsys):
        """A truncated or corrupt gzipped file, a repeated digit, a digit
        that no label carries and a short label file each end in one error
        line, exit 1."""
        import gzip
        import struct

        labels = np.arange(20, dtype=np.uint8) % 3
        images = gzip.compress(struct.pack(">IIII", 0x00000803, 20, 4, 4)
                               + (np.arange(320) % 256).astype(np.uint8).tobytes())
        corrupt = bytearray(images)
        corrupt[10] = 0x07  # a deflate block of the reserved type
        (tmp_path / "lab").write_bytes(struct.pack(">II", 0x00000801, 20) + labels.tobytes())
        cases = [
            (images[:len(images) // 2], "0,1", "cannot decompress .*img.gz: Compressed file"),
            (bytes(corrupt), "0,1", "cannot decompress .*img.gz: .*invalid block type"),
            (images, "2,2", r"digits \(2, 2\) repeat a value"),
            (images, "0,7", "no label in .*lab is digit 7"),
        ]
        for data, digits, message in cases:
            (tmp_path / "img.gz").write_bytes(data)
            code, out = run_cli([
                "cluster", "--dataset", "mnist", "--mnist-images", str(tmp_path / "img.gz"),
                "--mnist-labels", str(tmp_path / "lab"), "--digits", digits, "--alpha", "4",
            ])
            err = capsys.readouterr().err
            assert (code, out) == (1, "")
            assert re.fullmatch(f"nblw: error: {message}.*\n", err), err
        # a short file is named, so the error tells which of the two it is
        (tmp_path / "img.gz").write_bytes(images)
        (tmp_path / "lab").write_bytes(struct.pack(">II", 0x00000801, 20) + labels[:15].tobytes())
        code, out = run_cli([
            "cluster", "--dataset", "mnist", "--mnist-images", str(tmp_path / "img.gz"),
            "--mnist-labels", str(tmp_path / "lab"), "--digits", "0,1", "--alpha", "4",
        ])
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert re.fullmatch("nblw: error: truncated IDX file .*lab: expected 20 bytes of labels\n",
                            err), err

    @pytest.mark.parametrize("method", ["nblw", "lp"])
    def test_single_label_csv_is_one_line_error(self, tmp_path, capsys, method):
        path = tmp_path / "one.csv"
        path.write_text("".join(f"{i},{i % 7},4\n" for i in range(60)))
        code, out = run_cli(["cluster", "--dataset", "csv", "--path", str(path),
                             "--alpha", "6", "--method", method])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "nblw: error: q must be at least 2, got 1\n"


class TestTheoryCmd:
    def test_point_mass_fixed_points(self):
        code, out = run_cli([
            "theory", "--alpha", "10", "--eta", "0.1", "--kmax", "50",
            "--p-in", "point:1", "--p-out", "point:-1",
        ])
        assert code == 0
        row = rows_of(out)[0]
        assert list(row.keys()) == THEORY_HEADER
        assert float(row["tau"]) == 10.0
        assert float(row["r_limit"]) == pytest.approx(0.9)
        assert float(row["q_limit"]) == pytest.approx(6.0)

    def test_subthreshold_flagged_uninformative(self):
        _, out = run_cli([
            "theory", "--alpha", "2", "--eta", "0.1",
            "--p-in", "point:1", "--p-out", "point:-1",
        ])
        row = rows_of(out)[0]
        assert float(row["tau"]) == 2.0 and row["informative"] == "0"

    def test_density_evolution_attaches_bound_checks(self):
        _, out = run_cli([
            "theory", "--alpha", "10", "--eta", "0.1", "--kmax", "8",
            "--p-in", "point:1", "--p-out", "point:-1", "--de-pop", "20000",
        ])
        row = rows_of(out)[0]
        assert row["de_error"] != "" and row["cantelli_pass"] == "1"
        assert row["chernoff_pass"] == "1"

    def test_negative_delta_is_signal_free(self):
        """With delta < 0, tau = alpha*delta^2/sigma2 stays positive, but
        both recursions run at tau = 0: no bound below 1, no fixed point."""
        _, out = run_cli([
            "theory", "--alpha", "25", "--eta", "0.3", "--kmax", "2",
            "--p-in", "gaussian:-0.5:1", "--p-out", "gaussian:0.5:1",
            "--weight", "identity", "--de-pop", "20000",
        ])
        row = rows_of(out)[0]
        assert float(row["delta"]) == -0.5 and float(row["tau"]) == 5.0
        assert float(row["r_final"]) == 0.0 and float(row["q_final"]) == 0.0
        assert float(row["r_limit"]) == 0.0 and float(row["q_limit"]) == 0.0
        assert float(row["cantelli_bound"]) == 1.0 and float(row["chernoff_bound"]) == 1.0
        assert float(row["de_error"]) > 0.9 and row["cantelli_pass"] == "1"

    def test_zero_variance_gaussian_has_no_density(self):
        """A zero-variance Gaussian is a point mass: the optimal weighting
        refuses it with one line, and no numpy warning comes before it."""
        proc = run_python("-m", "nblw.cli", "theory", "--p-in", "gaussian:0.5:0",
                          "--weight", "optimal")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "nblw: error: optimal weighting needs pointwise densities\n"

    def test_json_output(self):
        code, out = run_cli([
            "theory", "--alpha", "4", "--eta", "0.5", "--json",
            "--p-in", "point:1", "--p-out", "point:-1",
        ])
        assert code == 0
        rec = json.loads(out.splitlines()[0])
        assert rec["tau"] == 4.0


class TestTimings:
    def test_timing_columns_populated(self):
        # the whole library call is one phase, so the decision column is 0
        for q in ("2", "3"):
            code, out = run_cli([
                "synth", "--timings", "--method", "both", "--q", q, "--n", "2000",
                "--alpha", "8", "--reps", "2", "--kmax", "10",
            ])
            assert code == 0
            rows = rows_of(out)
            assert [r["method"] for r in rows] == ["nblw", "lp"] * 2
            for row in rows:
                assert float(row["phase_sample_s"]) > 0.0
                assert float(row["phase_iter_s"]) > 0.0
                assert float(row["phase_decide_s"]) == 0.0


def args_file(tmp_path, text):
    """Write an argument file (a run's config: shell-quoted flags, # comments)
    and return the argument that names it."""
    path = tmp_path / "run.args"
    path.write_text(text)
    return f"@{path}"


class TestConfigAndErrors:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = args_file(tmp_path, "--n 1000 --alpha 5 --eta 0.2 --reps 2\n"
                                  "--p-in point:1 --p-out point:-1 --kmax 5\n")
        code, out = run_cli(["synth", cfg, "--reps", "3"])
        assert code == 0
        assert len(rows_of(out)) == 3  # a later argument beats the file

    def test_unknown_config_key(self, tmp_path, capsys):
        code = main(["synth", args_file(tmp_path, "--bogus 1\n")])
        assert code == 1
        assert capsys.readouterr().err == "nblw: error: synth does not read --bogus\n"

    def test_bad_distribution_spec(self, capsys):
        code = main(["synth", "--p-in", "cauchy:0"])
        assert code != 0 and "error" in capsys.readouterr().err

    def test_bad_method(self, capsys):
        code = main(["synth", "--method", "oracle"])
        assert code != 0

    @pytest.mark.parametrize("config, key", [
        ({"n": [1]}, "'n'"),
        ({"alpha": {"a": 4}}, "'alpha'"),
        ({"seed": None}, "'seed'"),
        ({"n": True}, "'n'"),
        ({"timings": 1}, "'timings'"),
        ({"json": "yes"}, "'json'"),
    ])
    def test_wrong_config_type_is_one_line_error(self, tmp_path, capsys, config, key):
        # each value, written as JSON, is the value of its flag in an
        # argument file; key is the option name as once quoted in the error
        name = key.strip("'")
        cfg = args_file(tmp_path, f"--{name}={shlex.quote(json.dumps(config[name]))}\n")
        code = main(["synth", cfg])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"nblw: error: argument --{name}: ") and err.count("\n") == 1

    def test_rank_loss_is_one_line_error(self, capsys):
        # the sampled graph is a forest, where the operator is nilpotent
        code = main(["synth", "--n", "60", "--q", "3", "--alpha", "0.5",
                     "--eta", "0.1", "--kmax", "10"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("nblw: error:") and "lost rank" in err and err.count("\n") == 1

    def test_config_number_for_text_key(self, tmp_path, capsys):
        # read as the text "3", like the flag --p-in 3: a bad spec, not a traceback
        assert main(["synth", args_file(tmp_path, "--p-in 3\n")]) == 1
        assert capsys.readouterr().err.startswith("nblw: error: argument --p-in: cannot parse")

    def test_argument_file_equals_flags(self, tmp_path):
        flags = ["--n", "800", "--alpha", "5,8", "--eta", "0.2", "--kmax", "5",
                 "--p-in", "gaussian:0.5:1", "--p-out", "uniform:-1.5:0.5",
                 "--method", "both", "--reps", "2"]
        cfg = args_file(tmp_path, "# a two-point sweep\n--n 800 --alpha '5,8'  # grid\n"
                                  "\n--eta 0.2 --kmax 5\n--p-in \"gaussian:0.5:1\"\n"
                                  "--p-out=uniform:-1.5:0.5  # the laws\n"
                                  "--method both --reps 2\n")
        code, by_file = run_cli(["synth", cfg])
        assert code == 0
        assert by_file.encode() == run_cli(["synth", *flags])[1].encode()
        flags = ["--n", "600", "--alpha", "6", "--blob-centers=-4:0;4:0;0:4", "--method", "both"]
        cfg = args_file(tmp_path, "--n 600 --alpha 6\n--blob-centers='-4:0;4:0;0:4'\n"
                                  "--method both\n")
        code, by_file = run_cli(["cluster", cfg])
        assert code == 0
        assert by_file.encode() == run_cli(["cluster", *flags])[1].encode()

    def test_unclosed_quote_in_argument_file_is_one_line_error(self, tmp_path, capsys):
        assert main(["synth", args_file(tmp_path, "--n 300 \"unclosed\n")]) == 1
        assert capsys.readouterr().err == ("nblw: error: No closing quotation in argument "
                                           "file line '--n 300 \"unclosed'\n")

    def test_missing_argument_file_is_one_line_error(self, tmp_path, capsys):
        assert main(["synth", f"@{tmp_path / 'none.args'}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("nblw: error: ") and "none.args" in err and err.count("\n") == 1

    def test_seeds_with_reps_flag(self, capsys):
        code = main(["synth", "--n", "500", "--seeds", "5", "--reps", "3"])
        assert code == 1 and "--reps" in capsys.readouterr().err

    def test_seeds_with_reps_in_config(self, tmp_path, capsys):
        cfg = args_file(tmp_path, "--reps 3\n")
        code = main(["synth", cfg, "--n", "500", "--seeds", "5"])
        assert code == 1 and "--reps" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["cluster", "--n", "500", "--seeds", "5,6,7"],
        ["theory", "--alpha", "10", "--seeds", "5"],
    ])
    def test_seeds_rejected_where_unread(self, capsys, argv):
        code = main(argv)
        assert code == 1 and "--seeds" in capsys.readouterr().err


# the options each subcommand reads (15, 21 and 10 of 27); the other 35
# (subcommand, option) pairs are refused, 33 of which were once ignored
READS = {
    "synth": {"n", "q", "alpha", "eta", "kmax", "reps", "method", "seed", "seeds", "out",
              "p_in", "p_out", "knn", "timings", "json"},
    "cluster": {"n", "alpha", "eta", "kmax", "reps", "method", "seed", "out", "knn",
                "timings", "json", "dataset", "metric", "blob_centers", "blob_sigma",
                "data_seed", "digits", "mnist_images", "mnist_labels", "path", "header"},
    "theory": {"alpha", "eta", "kmax", "seed", "out", "json", "p_in", "p_out", "weight",
               "de_pop"},
}
SWITCHES = {"timings", "json", "header"}
# the messages other than "does not read" that the CLI prints as its one
# error line, by command line: argparse's own, then the bounds of the count
# options, then bad laws and blob centers; of a word outside an option's
# choices only the start, which argparse words alike in every release
PARSE_ERRORS = {
    "synth --n": "argument --n: expected one argument",
    "theory --alpha": "argument --alpha: expected one argument",
    "": "the following arguments are required: command",
    "synth --reps abc": "argument --reps: invalid int value: 'abc'",
    "synth --n 300.5": "argument --n: invalid int value: '300.5'",
    "synth --n [1]": "argument --n: invalid int value: '[1]'",
    "synth --n True": "argument --n: invalid int value: 'True'",
    "synth --seeds 1,x": "argument --seeds: invalid int value: 'x'",
    "synth --alpha ": "argument --alpha: invalid finite float value: ''",
    "synth --eta ": "argument --eta: invalid finite float value: ''",
    "theory --alpha nan": "argument --alpha: invalid finite float value: 'nan'",
    "theory --alpha inf": "argument --alpha: invalid finite float value: 'inf'",
    "theory --eta 0.1,0.2": "argument --eta: invalid finite float value: '0.1,0.2'",
    "cluster --blob-sigma x": "argument --blob-sigma: invalid finite float value: 'x'",
    "cluster --blob-sigma nan": "argument --blob-sigma: invalid finite float value: 'nan'",
    "synth --timings=1": "argument --timings: ignored explicit argument '1'",
    "synth --json=yes": "argument --json: ignored explicit argument 'yes'",
    "cluster --reps 0": "--reps must be at least 1",
    "synth --reps 0": "--reps must be at least 1",
    "synth --reps -1": "--reps must be at least 1",
    "cluster --knn -2": "--knn must be at least 0",
    "theory --kmax -1": "--kmax must be at least 0",
    "theory --de-pop -5": "--de-pop must be 0 or at least 2",
    "theory --de-pop 1": "--de-pop must be 0 or at least 2",
    "synth --p-in gaussian:x": "argument --p-in: cannot parse distribution spec "
                               "'gaussian:x': could not convert string to float: 'x'",
    "cluster --blob-centers 1:x": "argument --blob-centers: invalid finite float value: 'x'",
    "cluster --blob-centers 1:2;3": "argument --blob-centers: need two or more centers "
                                    "of one dimension: '1:2;3'",
    "theory --p-in gaussian:nan": "argument --p-in: cannot parse distribution spec "
                                  "'gaussian:nan': need a finite mean and a finite "
                                  "nonnegative variance",
    "theory --p-in gaussian:0:inf": "argument --p-in: cannot parse distribution spec "
                                    "'gaussian:0:inf': need a finite mean and a finite "
                                    "nonnegative variance",
    "theory --p-in point:nan": "argument --p-in: cannot parse distribution spec "
                               "'point:nan': need a finite value",
    "theory --p-in gaussian:1e300": "argument --p-in: cannot parse distribution spec "
                                    "'gaussian:1e300': need a finite second moment",
    "synth --method foo": "argument --method: invalid choice: 'foo'",
    "theory --weight foo": "argument --weight: invalid choice: 'foo'",
    "cluster --dataset foo": "argument --dataset: invalid choice: 'foo'",
    "cluster --metric foo": "argument --metric: invalid choice: 'foo'",
}
UNREAD = [(cmd, key) for cmd in READS
          for key in sorted(set().union(*READS.values()) - READS[cmd])]


class TestOptionTables:
    @pytest.mark.parametrize("command, key", UNREAD)
    def test_unread_flag_is_one_line_error(self, capsys, command, key):
        flag = "--" + key.replace("_", "-")
        code = main([command, flag] + ([] if key in SWITCHES else ["3"]))
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"nblw: error: {command} does not read {flag}\n"

    @pytest.mark.parametrize("command, key", UNREAD)
    def test_unread_config_key_is_one_line_error(self, tmp_path, capsys, command, key):
        # the same option in an argument file gives the same line as the flag
        flag = "--" + key.replace("_", "-")
        cfg = args_file(tmp_path, flag + ("" if key in SWITCHES else " 3") + "\n")
        code = main([command, cfg])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"nblw: error: {command} does not read {flag}\n"

    @pytest.mark.parametrize("command", sorted(READS))
    def test_help_lists_exactly_the_table(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == {"--help"} | {"--" + key.replace("_", "-") for key in READS[command]}

    @pytest.mark.parametrize("argv, flag", [
        (["synth", "--kmx=3"], "--kmx"),
        (["cluster", "--p", "x"], "--p"),      # a prefix of --path only
        (["theory", "--de", "5"], "--de"),     # a prefix of --de-pop only
        (["synth", "--n"], "--n"),             # a flag without its value
        (["theory", "--alpha"], "--alpha"),
        ([], "command"),                       # no subcommand
        (["cluster", "--reps", "0"], "--reps"),
        (["synth", "--reps", "0"], "--reps"),
        (["synth", "--reps", "-1"], "--reps"),
        (["cluster", "--knn", "-2"], "--knn"),
        (["theory", "--de-pop", "-5"], "--de-pop"),
        (["synth", "--reps", "abc"], "--reps"),   # values of the wrong type
        (["synth", "--n", "300.5"], "--n"),
        (["synth", "--n", "[1]"], "--n"),
        (["synth", "--n", "True"], "--n"),
        (["synth", "--seeds", "1,x"], "--seeds"),
        (["synth", "--alpha", ""], "--alpha"),  # an empty list
        (["synth", "--eta", ""], "--eta"),
        (["theory", "--alpha", "nan"], "--alpha"),
        (["theory", "--alpha", "inf"], "--alpha"),
        (["theory", "--eta", "0.1,0.2"], "--eta"),  # one number
        (["cluster", "--blob-sigma", "x"], "--blob-sigma"),
        (["cluster", "--blob-sigma", "nan"], "--blob-sigma"),
        (["synth", "--timings=1"], "--timings"),
        (["synth", "--json=yes"], "--json"),
        (["theory", "--kmax", "-1"], "--kmax"),
        (["theory", "--de-pop", "1"], "--de-pop"),
        (["synth", "--p-in", "gaussian:x"], "--p-in"),  # bad laws and centers
        (["cluster", "--blob-centers", "1:x"], "--blob-centers"),
        (["cluster", "--blob-centers", "1:2;3"], "--blob-centers"),
        (["theory", "--p-in", "gaussian:nan"], "--p-in"),
        (["theory", "--p-in", "gaussian:0:inf"], "--p-in"),
        (["theory", "--p-in", "point:nan"], "--p-in"),
        (["synth", "--method", "foo"], "--method"),  # words outside the choices
        (["theory", "--weight", "foo"], "--weight"),
        (["cluster", "--dataset", "foo"], "--dataset"),
        (["cluster", "--metric", "foo"], "--metric"),
        (["theory", "--p-in", "gaussian:1e300"], "--p-in"),  # mu^2 overflows
    ])
    def test_misspelled_flag_is_one_line_error(self, capsys, argv, flag):
        assert main(argv) == 1
        want = PARSE_ERRORS.get(" ".join(argv)) or f"{argv[0]} does not read {flag}"
        assert flag in want
        err = capsys.readouterr().err
        if "invalid choice" in want:
            assert err.startswith(f"nblw: error: {want}") and err.count("\n") == 1
        else:
            assert err == f"nblw: error: {want}\n"

    @pytest.mark.parametrize("kind, key", [
        ("blobs", "path"), ("mnist", "blob_sigma"), ("csv", "digits"),
    ])
    def test_option_of_another_dataset_kind_is_one_line_error(self, tmp_path, capsys,
                                                              kind, key):
        flag = "--" + key.replace("_", "-")
        want = f"nblw: error: cluster --dataset {kind} does not read {flag}\n"
        assert main(["cluster", "--dataset", kind, flag, "3"]) == 1
        assert capsys.readouterr().err == want
        assert main(["cluster", args_file(tmp_path, f"--dataset {kind}\n{flag} 3\n")]) == 1
        assert capsys.readouterr().err == want


class TestResourceScaling:
    def test_no_dense_allocation(self):
        """Peak memory of a synthetic run stays far below n^2 bytes."""
        from nblw import (Gaussian, ModelSpec, center_weights, make_instance,
                          run_binary)

        n = 3000
        tracemalloc.start()
        spec = ModelSpec(n=n, q=2, alpha=8.0, eta=0.1,
                         p_in=Gaussian(0.5, 1), p_out=Gaussian(-0.5, 1), seed=0)
        g, sims, data = make_instance(spec)
        g = g.with_pair_weights(center_weights(sims))
        run_binary(g, data, 10, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 0.1 * n * n * 8

    def test_iteration_time_linear_in_alpha(self):
        """Per-iteration cost grows linearly with the sampling rate."""
        from nblw import (MessageState, ModelSpec, PointMass, apply_nb,
                          make_instance)

        alphas = [4.0, 8.0, 16.0, 32.0]
        times = []
        for alpha in alphas:
            spec = ModelSpec(n=10**5, q=2, alpha=alpha, eta=0.1,
                             p_in=PointMass(1.0), p_out=PointMass(-1.0), seed=1)
            g, sims, data = make_instance(spec)
            state = MessageState(np.ones(g.num_half_edges))
            samples = []
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(5):
                    state = apply_nb(g, state)
                samples.append((time.perf_counter() - t0) / 5)
            times.append(np.median(samples))
        x = np.asarray(alphas)
        y = np.asarray(times)
        coef = np.polyfit(x, y, 1)
        fit = np.polyval(coef, x)
        r2 = 1 - ((y - fit) ** 2).sum() / ((y - y.mean()) ** 2).sum()
        assert coef[0] > 0 and r2 > 0.95

    def test_iteration_time_linear_in_n(self):
        from nblw import (MessageState, ModelSpec, PointMass, apply_nb,
                          make_instance)

        sizes = [50_000, 100_000, 200_000, 400_000]
        times = []
        for n in sizes:
            spec = ModelSpec(n=n, q=2, alpha=10.0, eta=0.1,
                             p_in=PointMass(1.0), p_out=PointMass(-1.0), seed=1)
            g, sims, data = make_instance(spec)
            state = MessageState(np.ones(g.num_half_edges))
            samples = []
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(5):
                    state = apply_nb(g, state)
                samples.append((time.perf_counter() - t0) / 5)
            times.append(np.median(samples))
        x = np.asarray(sizes, float)
        y = np.asarray(times)
        coef = np.polyfit(x, y, 1)
        fit = np.polyval(coef, x)
        r2 = 1 - ((y - fit) ** 2).sum() / ((y - y.mean()) ** 2).sum()
        assert coef[0] > 0 and r2 > 0.95


def test_import_loads_no_scipy():
    """The three functions that use scipy import it on first call, so
    importing the package or the CLI loads none of it."""
    code = ("import sys, nblw, nblw.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_import_loads_no_thread_pool():
    """density_evolution imports its thread pool on each call, so importing
    the package or the CLI loads no concurrent.futures module and starts no
    thread."""
    code = ("import sys, threading, nblw, nblw.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'), "
            "threading.active_count())")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] 1\n"
