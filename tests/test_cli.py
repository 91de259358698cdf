"""Harness behavior: schemas, determinism, provenance, scaling, errors."""

import csv
import io
import json
import time
import tracemalloc
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


def rows_of(text):
    reader = csv.DictReader(io.StringIO(text))
    return list(reader)


SYNTH_FAST = [
    "synth", "--n", "1500", "--alpha", "4,6,8", "--eta", "0.1,0.3",
    "--reps", "5", "--seed", "11", "--kmax", "8",
    "--p-in", "point:1", "--p-out", "point:-1",
]


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

    def test_csv_dataset(self, tmp_path):
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

    def test_json_output(self):
        code, out = run_cli([
            "theory", "--alpha", "4", "--eta", "0.5", "--json",
            "--p-in", "point:1", "--p-out", "point:-1",
        ])
        assert code == 0
        rec = json.loads(out.splitlines()[0])
        assert rec["tau"] == 4.0


class TestBench:
    def test_timing_columns_populated(self):
        code, out = run_cli([
            "bench", "--dataset", "synth", "--n", "2000", "--alpha", "6",
            "--reps", "2", "--kmax", "10",
        ])
        assert code == 0
        for row in rows_of(out):
            assert float(row["phase_iter_s"]) >= 0.0
            assert float(row["phase_sample_s"]) > 0.0


class TestConfigAndErrors:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 1000, "alpha": "5", "eta": "0.2", "reps": 2,
            "p_in": "point:1", "p_out": "point:-1", "kmax": 5,
        }))
        code, out = run_cli(["synth", "--config", str(cfg), "--reps", "3"])
        assert code == 0
        assert len(rows_of(out)) == 3  # flag beats config

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = main(["synth", "--config", str(cfg)])
        assert code != 0
        assert "unknown config keys" in capsys.readouterr().err

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
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main(["synth", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("nblw: error:") and key in err and err.count("\n") == 1

    def test_config_number_for_text_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 800, "alpha": 5, "eta": 0.2, "kmax": 5}))
        code, by_config = run_cli(["synth", "--config", str(cfg)])
        assert code == 0
        _, by_flags = run_cli(["synth", "--n", "800", "--alpha", "5", "--eta", "0.2",
                               "--kmax", "5"])
        assert by_config == by_flags
        # read as the text "3", like the flag --p-in 3: a bad spec, not a traceback
        cfg.write_text(json.dumps({"p_in": 3}))
        assert main(["synth", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("nblw: error: cannot parse")

    def test_seeds_with_reps_flag(self, capsys):
        code = main(["synth", "--n", "500", "--seeds", "5", "--reps", "3"])
        assert code == 1 and "--reps" in capsys.readouterr().err

    def test_seeds_with_reps_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reps": 3}))
        code = main(["synth", "--config", str(cfg), "--n", "500", "--seeds", "5"])
        assert code == 1 and "--reps" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["cluster", "--n", "500", "--seeds", "5,6,7"],
        ["theory", "--alpha", "10", "--seeds", "5"],
        ["bench", "--dataset", "blobs", "--n", "500", "--seeds", "5"],
    ])
    def test_seeds_rejected_where_unread(self, capsys, argv):
        code = main(argv)
        assert code == 1 and "--seeds" in capsys.readouterr().err

    def test_bench_synth_reads_seeds(self):
        code, out = run_cli(["bench", "--dataset", "synth", "--n", "500", "--kmax", "3",
                             "--seeds", "5,6"])
        assert code == 0
        assert [r["seed"] for r in rows_of(out)] == ["5", "6"]


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
