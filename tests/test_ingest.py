"""IDX parsing, CSV loading, kernels, bandwidth calibration, subsampling."""

import gzip
import struct
import time
import tracemalloc

import numpy as np
import pytest

from conftest import twin
from nblw import (
    calibrate_sigma,
    draw_er_pairs,
    dataset_from_truth,
    load_mnist_subset,
    read_csv_vectors,
    read_idx,
    read_idx_labels,
    run_binary,
    subsample_and_weight,
)
from nblw import ingest


def write_idx_images(path, pixels):
    count, rows, cols = pixels.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
        fh.write(pixels.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


class TestReadIdx:
    def test_pixel_roundtrip(self, tmp_path):
        pixels = np.array([[[0, 255], [128, 64]], [[1, 2], [3, 4]]], dtype=np.uint8)
        path = tmp_path / "img.idx"
        write_idx_images(path, pixels)
        count, rows, cols, out = read_idx(path)
        assert (count, rows, cols) == (2, 2, 2)
        assert np.array_equal((out * 255).round().astype(np.uint8), pixels)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_gzip_transparent(self, tmp_path):
        pixels = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        path = tmp_path / "img.idx.gz"
        payload = struct.pack(">IIII", 0x00000803, 2, 2, 2) + pixels.tobytes()
        with gzip.open(path, "wb") as fh:
            fh.write(payload)
        _, _, _, out = read_idx(path)
        assert np.array_equal((out * 255).round().astype(np.uint8), pixels)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000802, 1, 1, 1) + b"\x00")
        with pytest.raises(ValueError, match="magic"):
            read_idx(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 3)
        with pytest.raises(ValueError, match="truncated"):
            read_idx(path)

    def test_labels_roundtrip_and_magic(self, tmp_path):
        path = tmp_path / "lab.idx"
        write_idx_labels(path, [0, 1, 7])
        assert np.array_equal(read_idx_labels(path), [0, 1, 7])
        with open(path, "r+b") as fh:
            fh.write(struct.pack(">II", 0x00000803, 3))
        with pytest.raises(ValueError, match="magic"):
            read_idx_labels(path)


class TestReadCsvVectors:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1.5,2,0\n3,4.25,1\n")
        X, labels = read_csv_vectors(path)
        assert np.array_equal(X, [[1.5, 2.0], [3.0, 4.25]])
        assert np.array_equal(labels, [0, 1]) and labels.dtype == np.int64

    def test_header_and_label_column(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("a,b,label\n1,2,0\n3,4,1\n")
        X, labels = read_csv_vectors(path, header=True)
        assert np.array_equal(X, [[1, 2], [3, 4]])
        assert np.array_equal(labels, [0, 1])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_csv_vectors(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,0\n3,1\n")
        with pytest.raises(ValueError):
            read_csv_vectors(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("1,2,0\n3,oops,1\n")
        with pytest.raises(ValueError):
            read_csv_vectors(path)
        # a nan or infinite vector cell would make the calibrated bandwidth nan
        for cell in ("nan", "inf", "-inf"):
            path.write_text(f"1,2,0\n3,4,1\n5,{cell},1\n")
            with pytest.raises(ValueError, match=f"text.csv: value {cell} of data row 3 "):
                read_csv_vectors(path)

    @pytest.mark.parametrize("label", ["0.7", "-0.5", "nan", "inf"])
    def test_non_integer_label_names_the_file(self, tmp_path, label):
        path = tmp_path / "labels.csv"
        path.write_text(f"1,0\n2,{label}\n3,1.0\n4,1.0\n")
        with pytest.raises(ValueError, match=f"labels.csv: label {label} of data row 2 "):
            read_csv_vectors(path)

    def test_one_column_names_the_file(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("1\n0\n")
        with pytest.raises(ValueError, match="one.csv needs vector columns and a label"):
            read_csv_vectors(path)

    def test_large_file_parse_speed(self, tmp_path):
        path = tmp_path / "big.csv"
        rng = np.random.default_rng(0)
        arr = rng.integers(0, 256, size=(10**4, 785))
        np.savetxt(path, arr, fmt="%d", delimiter=",")
        t0 = time.perf_counter()
        X, _ = read_csv_vectors(path)
        elapsed = time.perf_counter() - t0
        assert X.shape == (10**4, 784)
        assert elapsed < 5.0


class TestPairSimilarity:
    @staticmethod
    def pair_similarity(x, y, metric, sigma2):
        """exp(-d(x, y)^2 / sigma2) for one pair, by the sampled kernel."""
        d2 = ingest._sq_distances(np.array([x, y], dtype=np.float64), np.array([[0, 1]]),
                                  metric)
        return float(np.exp(-d2[0] / sigma2))

    def test_identical_points(self):
        assert self.pair_similarity([1.0, 2.0], [1.0, 2.0], "euclidean", 3.0) == 1.0

    def test_distance_equals_bandwidth(self):
        s = self.pair_similarity([0.0], [2.0], "euclidean", sigma2=4.0)
        assert s == pytest.approx(np.exp(-1.0))

    def test_orthogonal_cosine(self):
        s = self.pair_similarity([1.0, 0.0], [0.0, 1.0], "cosine", sigma2=0.5)
        assert s == pytest.approx(np.exp(-1 / 0.5))

    def test_zero_vector_cosine_distance_one(self):
        s = self.pair_similarity([0.0, 0.0], [1.0, 0.0], "cosine", sigma2=1.0)
        assert s == pytest.approx(np.exp(-1.0))

    def test_validation(self):
        # subsample_and_weight checks the metric first: at alpha 1e-9 no
        # pair is drawn, so no distance evaluation would catch it
        pts = np.random.default_rng(6).standard_normal((500, 2))
        with pytest.raises(ValueError, match="unknown metric 'manhattan'"):
            subsample_and_weight(pts, 1e-9, "manhattan", np.random.default_rng(0))
        # a non-finite coordinate makes the bandwidth nan, and so every
        # similarity 1 and every centered weight 0
        one_nan = pts.copy()
        one_nan[7, 1] = np.nan
        for bad in (np.full((50, 3), np.inf), one_nan):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="bandwidth"):
                subsample_and_weight(bad, 5.0, "euclidean", np.random.default_rng(0))


class TestCalibrateSigma:
    def test_single_value(self):
        assert calibrate_sigma([4.0]) == 4.0

    def test_two_values(self):
        assert calibrate_sigma([1.0, 3.0]) == 2.0

    def test_empty(self):
        with pytest.raises(ValueError):
            calibrate_sigma([])

    def test_monte_carlo_population_mean(self):
        rng = np.random.default_rng(1)
        draws = rng.exponential(2.5, 10**5)
        se = draws.std(ddof=1) / np.sqrt(10**5)
        assert abs(calibrate_sigma(draws) - 2.5) <= 3 * se


class TestSubsampleAndWeight:
    def test_similarity_eval_count_matches_pairs(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((10**4, 3))
        res = subsample_and_weight(pts, 8.0, "euclidean", np.random.default_rng(0))
        expected = 8.0 * 10**4 / 2
        assert res.similarity_evals == res.graph.num_pairs
        assert abs(res.similarity_evals - expected) < 0.03 * expected

    def test_tiny_alpha_empty_graph_downstream_ok(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((10**4, 2))
        res = subsample_and_weight(pts, 1e-9, "euclidean", np.random.default_rng(0))
        assert res.graph.num_pairs == 0
        truth = rng.integers(0, 2, 10**4)
        data = dataset_from_truth(truth, 0.1, np.random.default_rng(1))
        est, pooled = run_binary(res.graph, data, 5, np.random.default_rng(2))
        assert np.all(pooled == 0.0)
        assert np.array_equal(est[data.revealed], data.truth[data.revealed])

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((2000, 2))
        a = subsample_and_weight(pts, 5.0, "cosine", np.random.default_rng(9))
        b = subsample_and_weight(pts, 5.0, "cosine", np.random.default_rng(9))
        assert np.array_equal(a.graph.pairs, b.graph.pairs)
        assert np.array_equal(a.similarities, b.similarities)

    def test_kernel_and_centered_ranges(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((3000, 4))
        res = subsample_and_weight(pts, 6.0, "euclidean", np.random.default_rng(1))
        g = res.graph  # structural invariants hold on the ingest path too
        t = twin(g)
        assert np.array_equal(t[t], np.arange(g.num_half_edges))
        assert np.array_equal(g.src[t], g.dst)
        assert np.allclose(g.weight, g.weight[t])
        assert np.all(res.similarities > 0) and np.all(res.similarities <= 1)
        w = res.graph.pair_weights()
        mean = res.similarities.mean()
        assert np.all(w > -mean - 1e-12) and np.all(w <= 1 - mean + 1e-12)
        assert abs(w.sum()) < 1e-6


class TestBlockedKernel:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_blocks_match_one_pass_bit_for_bit(self, monkeypatch, metric):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((400, 37))
        pts[3] = 0.0  # a zero vector takes the cosine fallback
        pairs = draw_er_pairs(400, 10.0, rng)
        pairs = np.concatenate([pairs, [(3, 5), (5, 3)]])
        a, b = pts[pairs[:, 0]], pts[pairs[:, 1]]
        if metric == "euclidean":
            want = ((a - b) ** 2).sum(axis=1)
        else:
            na, nb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
            ok = (na > 0) & (nb > 0)
            cos = np.zeros(pairs.shape[0])
            np.divide(np.einsum("ij,ij->i", a, b), na * nb, out=cos, where=ok)
            want = np.where(ok, 1.0 - cos, 1.0) ** 2
        monkeypatch.setattr(ingest, "_PAIR_BLOCK", 97)
        assert pairs.shape[0] > 10 * 97
        assert np.array_equal(ingest._sq_distances(pts, pairs, metric), want)

    def test_memory_independent_of_pairs_times_dim(self, monkeypatch):
        # m * d = 5M floats: the two gathered endpoint arrays alone would
        # take 80 MB; blocked, the kernel's temporaries take O(block * d)
        monkeypatch.setattr(ingest, "_PAIR_BLOCK", 256)
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((2000, 250))
        tracemalloc.start()
        try:
            res = subsample_and_weight(pts, 20.0, "euclidean", np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        m, d = res.graph.num_pairs, pts.shape[1]
        assert m > 15_000
        assert peak < 8 * 256 * d * 8 + 200 * m < m * d * 8 / 4


class TestLoadMnistSubset:
    def test_subset_with_fixture(self, tmp_path):
        rng = np.random.default_rng(7)
        pixels = rng.integers(0, 256, size=(10, 3, 3)).astype(np.uint8)
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 0, 3], dtype=np.uint8)
        write_idx_images(tmp_path / "img", pixels)
        write_idx_labels(tmp_path / "lab", labels)
        X, truth = load_mnist_subset(tmp_path / "img", tmp_path / "lab", (0, 1))
        assert X.shape == (7, 9)
        assert np.array_equal(truth, [0, 1, 0, 1, 0, 1, 0])
        keep = np.isin(labels, (0, 1))
        assert np.allclose(X, pixels[keep].reshape(-1, 9) / 255.0)

    def test_count_mismatch(self, tmp_path):
        pixels = np.zeros((3, 2, 2), dtype=np.uint8)
        write_idx_images(tmp_path / "img", pixels)
        write_idx_labels(tmp_path / "lab", [0, 1])
        with pytest.raises(ValueError, match="count"):
            load_mnist_subset(tmp_path / "img", tmp_path / "lab", (0, 1))


class TestIdxDecoder:
    """The one decoder behind read_idx, read_idx_labels and load_mnist_subset."""

    def test_gzipped_labels_roundtrip(self, tmp_path):
        path = tmp_path / "lab.idx.gz"
        path.write_bytes(gzip.compress(struct.pack(">II", 0x00000801, 4) + bytes([9, 0, 255, 3])))
        labels = read_idx_labels(path)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, [9, 0, 255, 3])

    def test_truncated_label_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">II", 0x00000801, 5) + b"\x00" * 4)
        with pytest.raises(ValueError, match="truncated IDX file: expected 5 bytes of labels"):
            read_idx_labels(path)

    def test_label_file_shorter_than_header(self, tmp_path):
        path = tmp_path / "stub.idx"
        path.write_bytes(struct.pack(">II", 0x00000801, 5)[:7])
        with pytest.raises(ValueError, match="truncated IDX file: expected 8 bytes of header"):
            read_idx_labels(path)

    def test_image_file_as_labels(self, tmp_path):
        path = tmp_path / "img.idx"
        write_idx_images(path, np.zeros((2, 2, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="bad IDX label magic 0x00000803"):
            read_idx_labels(path)

    @pytest.mark.parametrize("read, header", [
        (read_idx, struct.pack(">IIII", 0x00000803, 20, 4, 4)),
        (read_idx_labels, struct.pack(">II", 0x00000801, 320)),
    ], ids=["images", "labels"])
    def test_truncated_gzip_names_the_file(self, tmp_path, read, header):
        whole = gzip.compress(header + bytes(range(256)) + bytes(64))
        path = tmp_path / "cut.idx.gz"
        path.write_bytes(whole[:len(whole) // 2])
        with pytest.raises(ValueError, match=f"cannot decompress {path}: "):
            read(path)

    @pytest.mark.parametrize("read", [read_idx, read_idx_labels])
    def test_corrupt_gzip_names_the_file(self, tmp_path, read):
        # byte 10 opens the deflate stream; 0x07 is a final block of the
        # reserved type 3, which zlib refuses
        whole = bytearray(gzip.compress(struct.pack(">II", 0x00000801, 3) + b"\x01\x02\x03"))
        whole[10] = 0x07
        path = tmp_path / "bad.idx.gz"
        path.write_bytes(bytes(whole))
        with pytest.raises(ValueError, match=f"cannot decompress {path}: .*invalid block type"):
            read(path)


class TestMnistDigits:
    @pytest.fixture
    def idx_pair(self, tmp_path):
        rng = np.random.default_rng(11)
        pixels = rng.integers(0, 256, size=(40, 4, 5)).astype(np.uint8)
        labels = rng.permutation(np.arange(40) % 4).astype(np.uint8)
        write_idx_images(tmp_path / "img", pixels)
        write_idx_labels(tmp_path / "lab", labels)
        return tmp_path / "img", tmp_path / "lab", labels

    @pytest.mark.parametrize("digits", [(0, 1), (3, 0, 2), (2, 1, 0, 3)])
    def test_vectors_are_read_idx_pixels_widened(self, idx_pair, digits):
        images, labels_path, labels = idx_pair
        X, truth = load_mnist_subset(images, labels_path, digits)
        keep = np.isin(labels, digits)
        want = read_idx(images)[3][keep].reshape(keep.sum(), -1).astype(np.float64)
        assert X.dtype == np.float64 and X.shape == want.shape
        assert X.tobytes() == want.tobytes()
        assert truth.dtype == np.int64
        assert np.array_equal(truth, [digits.index(d) for d in labels[keep]])

    def test_repeated_digit(self, idx_pair):
        images, labels_path, _ = idx_pair
        with pytest.raises(ValueError, match=r"digits \(3, 1, 3\) repeat a value"):
            load_mnist_subset(images, labels_path, (3, 1, 3))

    @pytest.mark.parametrize("absent", [7, 300, -1])
    def test_absent_digit(self, idx_pair, absent):
        images, labels_path, _ = idx_pair
        with pytest.raises(ValueError, match=f"no label in .*lab is digit {absent}$"):
            load_mnist_subset(images, labels_path, (0, absent))
