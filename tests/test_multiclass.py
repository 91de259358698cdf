"""The multi-cluster block walk, k-means and label matching."""

import itertools
import warnings

import numpy as np
import pytest

import nblw.multiclass
from conftest import random_graph
from nblw import (
    ConvergenceWarning,
    EmptyClusterWarning,
    LabeledDataset,
    ModelSpec,
    PointMass,
    accuracy,
    build_graph,
    center_weights,
    kmeans,
    make_instance,
    match_labels,
    run_binary,
    run_multiclass,
)
from nblw.binary import _one_vs_rest
from nblw.multiclass import _kmeans_pp_centers, _lloyd, _orthonormal_walk


class TestInitMessagesClass:
    def _instance(self, eta, seed=0):
        spec = ModelSpec(n=300, q=3, alpha=6.0, eta=eta,
                         p_in=PointMass(1), p_out=PointMass(0), seed=seed)
        return make_instance(spec)

    def test_all_revealed_one_vs_rest(self):
        g, _, data = self._instance(eta=1.0)
        x = _one_vs_rest(g, data, [1], np.random.default_rng(0))[0]
        expected = np.where(data.class_indices()[g.src] == 1, 1.0, -1.0)
        assert np.array_equal(x, expected)

    def test_eta_zero_pure_rademacher(self):
        g, _, data = self._instance(eta=0.0, seed=1)
        x = _one_vs_rest(g, data, [0], np.random.default_rng(1))[0]
        assert set(np.unique(x)) <= {-1.0, 1.0}
        assert abs(x.mean()) < 3 / np.sqrt(g.num_half_edges)

    def test_deterministic(self):
        g, _, data = self._instance(eta=0.3, seed=2)
        a = _one_vs_rest(g, data, [2], np.random.default_rng(7))[0]
        b = _one_vs_rest(g, data, [2], np.random.default_rng(7))[0]
        assert np.array_equal(a, b)

    def test_class_out_of_range(self):
        g, _, data = self._instance(eta=0.3)
        with pytest.raises(ValueError, match="class index"):
            _one_vs_rest(g, data, [3], np.random.default_rng(0))


class TestRunMulticlass:
    def test_q2_agrees_with_binary(self):
        """Same seed, strong signal: the k-means split of the single
        pooled column agrees with the sign decision."""
        spec = ModelSpec(n=5000, q=2, alpha=10.0, eta=0.1,
                         p_in=PointMass(1.0), p_out=PointMass(-1.0), seed=5)
        g, sims, data = make_instance(spec)
        g = g.with_pair_weights(center_weights(sims))
        est_bin, _ = run_binary(g, data, 12, np.random.default_rng(9))
        res = run_multiclass(g, data, 2, 12, np.random.default_rng(9))
        est_multi = 1 - 2 * res.assignments  # to +-1 up to labeling
        agree = np.mean(est_multi == est_bin)
        assert max(agree, 1 - agree) >= 0.99

    def test_q3_point_mass_accuracy(self):
        spec = ModelSpec(n=10**4, q=3, alpha=20.0, eta=0.1,
                         p_in=PointMass(1.0), p_out=PointMass(-1.0), seed=11)
        g, sims, data = make_instance(spec)
        g = g.with_pair_weights(center_weights(sims))
        res = run_multiclass(g, data, 3, 15, np.random.default_rng(5))
        acc, _ = match_labels(res.assignments, data.class_indices())
        assert acc >= 0.95

    @staticmethod
    def _q4_instance(seed):
        spec = ModelSpec(n=4000, q=4, alpha=20.0, eta=0.1,
                         p_in=PointMass(1.0), p_out=PointMass(-1.0), seed=seed)
        g, sims, data = make_instance(spec)
        return g.with_pair_weights(center_weights(sims)), data

    @pytest.mark.parametrize("seed", range(5))
    def test_assignments_aligned_with_revealed_labels(self, seed):
        """The k-means clusters come back under the revealed labels' class
        indices, so the revealed nodes get their own class."""
        g, data = self._q4_instance(seed)
        res = run_multiclass(g, data, 4, 15, np.random.default_rng(seed))
        rev = data.revealed
        assert np.mean(res.assignments[rev] == data.class_indices()[rev]) >= 0.95

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_kmeans_as_accurate_as_restarts(self, seed):
        """Every class is revealed, so k-means starts from the revealed
        class means and draws nothing after the initializations.  On the
        hidden nodes it is at most 0.002 less accurate than the kmeans++
        restarts on the same embedding, relabelled on the revealed nodes."""
        g, data = self._q4_instance(seed)
        rng = np.random.default_rng(seed)
        res = run_multiclass(g, data, 4, 15, rng)
        replay = np.random.default_rng(seed)
        _one_vs_rest(g, data, range(3), replay)
        assert rng.bit_generator.state == replay.bit_generator.state

        restarts = kmeans(res.embedding, 4, np.random.default_rng(seed))
        rev, truth = data.revealed, data.class_indices()
        _, perm = match_labels(restarts[rev], truth[rev])
        restarts = np.asarray(perm)[restarts]
        hidden = ~rev
        seeded_acc = np.mean(res.assignments[hidden] == truth[hidden])
        restart_acc = np.mean(restarts[hidden] == truth[hidden])
        assert seeded_acc >= restart_acc - 0.002

    def test_unrevealed_class_keeps_restarts(self):
        """Class 2 has no revealed node, so k-means takes the kmeans++
        restarts from the rng the initializations left, and the clusters
        are relabelled on the revealed nodes; label 2 keeps its index."""
        spec = ModelSpec(n=3000, q=3, alpha=15.0, eta=0.1,
                         p_in=PointMass(1.0), p_out=PointMass(-1.0), seed=4)
        g, sims, full = make_instance(spec)
        g = g.with_pair_weights(center_weights(sims))
        truth = full.class_indices()
        data = LabeledDataset(truth=full.truth, revealed=full.revealed & (truth != 2),
                              n=full.n, q=3)
        run_rng = np.random.default_rng(8)
        res = run_multiclass(g, data, 3, 10, run_rng)

        rng = np.random.default_rng(8)
        _one_vs_rest(g, data, range(2), rng)
        labels = kmeans(res.embedding, 3, rng)
        assert run_rng.bit_generator.state == rng.bit_generator.state
        rev = data.revealed
        _, matched = match_labels(labels[rev], truth[rev])
        perm = np.arange(3)
        perm[:len(matched)] = matched
        assert np.array_equal(res.assignments, perm[labels])
        assert np.mean(res.assignments == truth) >= 0.9

    def test_q_must_match_dataset(self):
        spec = ModelSpec(n=300, q=3, alpha=6.0, eta=0.2,
                         p_in=PointMass(1.0), p_out=PointMass(-1.0), seed=0)
        g, _, data = make_instance(spec)
        with pytest.raises(ValueError, match="q=2 differs"):
            run_multiclass(g, data, 2, 3, np.random.default_rng(0))

    def test_kmax_zero_all_revealed_embedding(self):
        """With no iterations the embedding columns are the pooled
        one-vs-rest initializations."""
        from nblw import MessageState, pool

        spec = ModelSpec(n=200, q=3, alpha=6.0, eta=1.0,
                         p_in=PointMass(1.0), p_out=PointMass(-1.0), seed=13)
        g, sims, data = make_instance(spec)
        g = g.with_pair_weights(center_weights(sims))
        res = run_multiclass(g, data, 3, 0, np.random.default_rng(0))
        cls = data.class_indices()
        for c in range(2):
            init = np.where(cls[g.src] == c, 1.0, -1.0)
            assert np.allclose(res.embedding[:, c], pool(g, MessageState(init)))
        # with labels partly hidden, the block's rows are the per-class
        # initializations drawn in turn from the same rng
        spec = ModelSpec(n=600, q=4, alpha=6.0, eta=0.1,
                         p_in=PointMass(1.0), p_out=PointMass(-1.0), seed=13)
        g, sims, data = make_instance(spec)
        g = g.with_pair_weights(center_weights(sims))
        res = run_multiclass(g, data, 4, 0, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        for c in range(3):
            init = _one_vs_rest(g, data, [c], rng)[0]
            assert np.array_equal(res.embedding[:, c], pool(g, MessageState(init)))

    def test_rayleigh_ordering_with_spectral_gap(self):
        """On a model whose common mode dominates the class mode, row 0 of
        the block takes the larger quotient and row 1, orthogonal to it,
        the smaller one."""
        diffs = []
        for seed in range(20):
            spec = ModelSpec(n=3000, q=3, alpha=20.0, eta=0.1,
                             p_in=PointMass(1.0), p_out=PointMass(0.4), seed=seed)
            g, sims, data = make_instance(spec)  # uncentered weights
            res = run_multiclass(g, data, 3, 20, np.random.default_rng(seed))
            diffs.append(res.rayleigh[0] - res.rayleigh[1])
        diffs = np.asarray(diffs)
        assert (diffs > 0).sum() >= 16
        assert diffs.mean() > 3 * diffs.std(ddof=1) / np.sqrt(len(diffs))

    def test_embedding_scale_invariance(self):
        spec = ModelSpec(n=800, q=3, alpha=8.0, eta=0.2,
                         p_in=PointMass(1.0), p_out=PointMass(-1.0), seed=17)
        g, sims, data = make_instance(spec)
        g = g.with_pair_weights(center_weights(sims))
        res1 = run_multiclass(g, data, 3, 8, np.random.default_rng(3))
        g2 = g.with_pair_weights(g.pair_weights() * 50.0)
        res2 = run_multiclass(g2, data, 3, 8, np.random.default_rng(3))
        for c in range(2):
            a, b = res1.embedding[:, c], res2.embedding[:, c]
            ratio = np.linalg.norm(b) / np.linalg.norm(a)
            assert ratio > 0 and np.allclose(b, a * ratio, atol=1e-8 * np.abs(a * ratio).max())


    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_nonfinite_message_raises(self):
        # finite weights whose incoming sums overflow to inf in the first step
        g = build_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], [1e308] * 5)
        data = LabeledDataset(truth=np.array([0, 1, 2, 0]),
                              revealed=np.ones(4, bool), n=4, q=3)
        with pytest.raises(ValueError, match="non-finite"):
            run_multiclass(g, data, 3, 4, np.random.default_rng(0))

    def test_forest_loses_rank(self):
        # the operator is nilpotent on a forest: on a path, B^5 = 0
        g = build_graph(6, [(i, i + 1) for i in range(5)], np.ones(5))
        data = LabeledDataset(truth=np.array([0, 1, 2, 0, 1, 2]),
                              revealed=np.zeros(6, bool), n=6, q=3)
        with pytest.raises(ValueError, match="lost rank at iteration"):
            run_multiclass(g, data, 3, 10, np.random.default_rng(0))

    def test_absent_class_loses_rank(self):
        """Every node revealed and class 2 absent: the two one-vs-rest
        rows are exact negatives, whatever the number of steps."""
        spec = ModelSpec(n=300, q=2, alpha=6.0, eta=1.0,
                         p_in=PointMass(1.0), p_out=PointMass(-1.0), seed=0)
        g, sims, binary = make_instance(spec)
        g = g.with_pair_weights(center_weights(sims))
        data = LabeledDataset(truth=binary.class_indices(),
                              revealed=np.ones(300, bool), n=300, q=3)
        for k_max in (1, 5, 20):
            with pytest.raises(ValueError, match="lost rank at iteration 1$"):
                run_multiclass(g, data, 3, k_max, np.random.default_rng(k_max))

    def test_dependent_row_loses_rank(self):
        """Row 2 is the sum of rows 0 and 1.  Cholesky of X X^T often still
        succeeds then, with a pivot of a few sqrt(eps) of the row's norm."""
        rng = np.random.default_rng(0)
        g = random_graph(rng, 40, p=0.2)
        for _ in range(20):
            X = rng.standard_normal((3, g.num_half_edges))
            X[2] = X[0] + X[1]
            with pytest.raises(ValueError, match="lost rank at iteration 1$"):
                _orthonormal_walk(g, X, 3)


def reference_kmeans_pp_centers(points, q, rng):
    """kmeans++ seeding with whole-row distance sums."""
    n = points.shape[0]
    centers = np.empty((q, points.shape[1]))
    centers[0] = points[rng.integers(0, n)]
    closest = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, q):
        total = closest.sum()
        if total <= 0:
            centers[c:] = points[rng.integers(0, n, size=q - c)]
            break
        centers[c] = points[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def reference_lloyd(points, centers, max_iter=100, tol=1e-6):
    """Lloyd steps through the full (n, q, d) difference array and a mean
    per cluster."""
    wcss = np.inf
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        new_wcss = float(d2[np.arange(points.shape[0]), labels].sum())
        for c in range(centers.shape[0]):
            mask = labels == c
            if mask.any():
                centers[c] = points[mask].mean(axis=0)
        if wcss - new_wcss <= tol * max(new_wcss, 1e-300):
            wcss = new_wcss
            break
        wcss = new_wcss
    return labels, wcss


class TestKmeans:
    def test_bit_identical_to_reference(self):
        """Column-by-column distances and bincount means give the same
        seeds, labels, centers and WCSS as the whole-array reference, bit
        for bit, with 2 to 7 columns.  numpy sums pairwise the rows of a
        1-column cluster and the columns of 8 or more, so there the last
        bit may differ."""
        rng = np.random.default_rng(3)
        empty = 0
        for trial in range(120):
            d, q = 2 + trial % 6, int(rng.integers(2, 7))
            n = int(rng.integers(q, 400))
            pts = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d)
            seed = int(rng.integers(1 << 30))
            want = reference_kmeans_pp_centers(pts, q, np.random.default_rng(seed))
            got = _kmeans_pp_centers(pts, q, np.random.default_rng(seed))
            assert np.array_equal(got, want)
            if trial % 3 == 0:
                want[-1] = got[-1] = 1e3  # a center no point is closest to
            want_labels, want_wcss = reference_lloyd(pts, want)
            got_labels, got_wcss, _ = _lloyd(pts, got)
            empty += np.unique(want_labels).size < q
            assert np.array_equal(got_labels, want_labels)
            assert np.array_equal(got, want) and got_wcss == want_wcss
        assert empty >= 40

    def test_two_separated_groups(self):
        pts = np.concatenate([np.zeros(50), np.full(50, 10.0)])
        labels = kmeans(pts, 2, np.random.default_rng(0))
        assert len(set(labels[:50])) == 1 and len(set(labels[50:])) == 1
        assert labels[0] != labels[-1]

    def test_identical_points_reports_empty_cluster(self):
        with pytest.warns(EmptyClusterWarning):
            kmeans(np.ones(20), 2, np.random.default_rng(0))

    def test_iteration_cap_warns(self, monkeypatch):
        pts = np.concatenate([np.zeros(50), np.full(50, 10.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            settled = kmeans(pts, 2, np.random.default_rng(0))
        monkeypatch.setattr(nblw.multiclass, "_MAX_ITER", 1)
        with pytest.warns(ConvergenceWarning, match="1 Lloyd steps") as record:
            capped = kmeans(pts, 2, np.random.default_rng(0))
        assert len(record) == 1
        assert np.array_equal(capped, settled)

    def test_brute_force_wcss_oracle(self):
        """kmeans matches the best partition WCSS on >= 95/100 trials."""

        def wcss_of(points, labels, q):
            total = 0.0
            for c in range(q):
                grp = points[labels == c]
                if grp.size:
                    total += ((grp - grp.mean()) ** 2).sum()
            return total

        rng = np.random.default_rng(42)
        hits = 0
        for _ in range(100):
            n = int(rng.integers(4, 9))
            pts = rng.uniform(-1, 1, n)
            best = min(
                wcss_of(pts, np.array(assign), 2)
                for assign in itertools.product([0, 1], repeat=n)
            )
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EmptyClusterWarning)
                labels = kmeans(pts, 2, rng)
            if wcss_of(pts, labels, 2) <= best * (1 + 1e-9) + 1e-12:
                hits += 1
        assert hits >= 95

    def test_seeded_runs_from_the_given_centers(self):
        """Cluster c grows from centers[c]; neither the rng nor the centers
        change."""
        pts = np.concatenate([np.zeros((50, 2)), np.full((50, 2), 10.0)])
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        centers = np.array([[9.0, 9.0], [1.0, 1.0]])
        labels = kmeans(pts, 2, rng, centers=centers)
        assert rng.bit_generator.state == state
        assert np.array_equal(centers, [[9.0, 9.0], [1.0, 1.0]])
        assert np.array_equal(labels, np.repeat([1, 0], 50))

    def test_seeded_center_validation(self):
        pts = np.random.default_rng(0).standard_normal((30, 2))
        for bad in (np.zeros((3, 3)), np.zeros((2, 2)), np.zeros(6), np.zeros((3, 2, 1))):
            with pytest.raises(ValueError, match="shape"):
                kmeans(pts, 3, centers=bad)
        for value in (np.nan, np.inf, -np.inf):
            centers = np.zeros((3, 2))
            centers[1, 0] = value
            with pytest.raises(ValueError, match="finite"):
                kmeans(pts, 3, centers=centers)

    def test_seeded_iteration_cap_warns(self, monkeypatch):
        pts = np.concatenate([np.zeros(50), np.full(50, 10.0)])[:, None]
        monkeypatch.setattr(nblw.multiclass, "_MAX_ITER", 1)
        with pytest.warns(ConvergenceWarning, match="1 Lloyd steps") as record:
            kmeans(pts, 2, centers=[[0.0], [10.0]])
        assert len(record) == 1

    def test_equal_seed_centers_report_empty_cluster(self):
        """Both centers at the (exact) mean: every point ties and goes to
        cluster 0, and neither center moves."""
        half = np.random.default_rng(5).integers(-3, 4, (20, 2)).astype(float)
        pts = np.concatenate([half, -half])
        with pytest.warns(EmptyClusterWarning, match="1 non-empty clusters out of 2"):
            labels = kmeans(pts, 2, centers=np.zeros((2, 2)))
        assert not labels.any()

    def test_nonfinite_points_refused_before_any_draw(self):
        """Both paths raise on a NaN or infinite point, naming it, and draw
        nothing from the rng."""
        pts = np.concatenate([np.zeros((25, 2)), np.full((25, 2), 10.0)])
        for value in (np.nan, np.inf, -np.inf):
            bad = pts.copy()
            bad[7, 1] = bad[30, 0] = value
            rng = np.random.default_rng(3)
            state = rng.bit_generator.state
            with pytest.raises(ValueError, match=r"point 7 is not \(2 in all\)"):
                kmeans(bad, 2, rng)
            with pytest.raises(ValueError, match=r"point 7 is not \(2 in all\)"):
                kmeans(bad, 2, rng, centers=[[0.0, 0.0], [10.0, 10.0]])
            assert rng.bit_generator.state == state

    def test_validation(self):
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 2)), 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            kmeans(np.ones((3, 1)), 4, np.random.default_rng(0))

    def test_deterministic(self):
        rng_pts = np.random.default_rng(1)
        pts = rng_pts.standard_normal((60, 2))
        a = kmeans(pts, 3, np.random.default_rng(5))
        b = kmeans(pts, 3, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestMatchLabels:
    def test_cyclic_relabeling_recovers_full_accuracy(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 3, 1000)
        est = (truth + 1) % 3
        acc, perm = match_labels(est, truth)
        assert acc == 1.0
        assert np.asarray(perm)[(np.arange(3) + 1) % 3].tolist() == [0, 1, 2]

    def test_uniform_random_q3(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 3, 10**4)
        est = rng.integers(0, 3, 10**4)
        acc, _ = match_labels(est, truth)
        assert 1 / 3 - 0.02 < acc < 0.35

    def test_identity(self):
        truth = np.array([0, 1, 2, 1, 0])
        acc, perm = match_labels(truth, truth)
        assert acc == 1.0 and tuple(perm) == (0, 1, 2)

    def test_refuses_plus_minus_one_labels(self):
        """A -1 label would wrap onto the last confusion row and score
        1.0 where the best agreement is 2/3."""
        est = np.array([1, -1, -1, 1, 1, -1])
        truth = np.array([1, 1, -1, -1, 1, -1])
        with pytest.raises(ValueError, match="class indices"):
            match_labels(est, truth)
        with pytest.raises(ValueError, match="class indices"):
            match_labels(np.ones(6, dtype=np.int64), truth)

    def test_large_q_uses_assignment_solver(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 8, 4000)
        shuffle = rng.permutation(8)
        est = shuffle[truth]
        acc, perm = match_labels(est, truth)
        assert acc == 1.0
        assert np.array_equal(np.asarray(perm)[shuffle], np.arange(8))
