"""Deflation stack, k-means, label matching, and the multi-cluster walk."""

import itertools

import numpy as np
import pytest

from conftest import random_graph
from nblw import (
    DeflationError,
    DeflationStack,
    EmptyClusterWarning,
    LabeledDataset,
    ModelSpec,
    PointMass,
    accuracy,
    apply_deflated,
    apply_deflated_t,
    build_graph,
    center_weights,
    dense_nb_matrix,
    init_messages_class,
    kmeans,
    make_instance,
    match_labels,
    nb_multiply,
    run_binary,
    run_multiclass,
)


def dense_deflate(M, v):
    Mv = M @ v
    return M - np.outer(Mv, v @ M) / (v @ Mv)


def guarded_vector(rng, M, size, tries=500):
    """Random vector whose deflation denominator is comfortably nonzero,
    or None when the operator is too degenerate to support a stage."""
    for _ in range(tries):
        v = rng.standard_normal(size)
        denom = v @ (M @ v)
        if abs(denom) > 1e-6 * np.linalg.norm(v) * max(np.linalg.norm(M @ v), 1e-12):
            return v
    return None


class TestApplyDeflated:
    def test_depth_zero_is_base_operator(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 9)
        stack = DeflationStack(base=g)
        x = rng.standard_normal(g.num_half_edges)
        assert np.allclose(apply_deflated(stack, 0, x), nb_multiply(g, x))

    def test_dense_deflation_oracle_two_depths(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            while True:
                g = random_graph(rng, int(rng.integers(6, 11)), p=0.6)
                if 20 <= g.num_half_edges <= 100:
                    break
            B = dense_nb_matrix(g)
            stack = DeflationStack(base=g)
            v1 = guarded_vector(rng, B, g.num_half_edges)
            assert v1 is not None
            stack.push(v1)
            D1 = dense_deflate(B, v1)
            v2 = guarded_vector(rng, D1, g.num_half_edges)
            assert v2 is not None
            stack.push(v2)
            D2 = dense_deflate(D1, v2)
            x = rng.standard_normal(g.num_half_edges)
            for depth, M in ((1, D1), (2, D2)):
                got = apply_deflated(stack, depth, x)
                want = M @ x
                scale = max(1.0, np.abs(want).max())
                assert np.abs(got - want).max() <= 1e-9 * scale
                got_t = apply_deflated_t(stack, depth, x)
                want_t = M.T @ x
                assert np.abs(got_t - want_t).max() <= 1e-9 * scale

    def test_deflation_vector_maps_consistently(self):
        """Applying the deflated operator to its own deflation vector
        matches the dense formula B_c v - z (u.v)/denom."""
        rng = np.random.default_rng(2)
        g = random_graph(rng, 8, p=0.6)
        B = dense_nb_matrix(g)
        stack = DeflationStack(base=g)
        v1 = guarded_vector(rng, B, g.num_half_edges)
        assert v1 is not None
        stack.push(v1)
        got = apply_deflated(stack, 1, v1)
        want = dense_deflate(B, v1) @ v1
        assert np.allclose(got, want, atol=1e-9 * max(1, np.abs(want).max()))

    def test_degenerate_denominator_raises(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 6)
        stack = DeflationStack(base=g)
        with pytest.raises(DeflationError):
            stack.push(np.zeros(g.num_half_edges))

    def test_depth_beyond_stages(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 6)
        stack = DeflationStack(base=g)
        with pytest.raises(ValueError, match="depth"):
            apply_deflated(stack, 1, np.zeros(g.num_half_edges))


class TestInitMessagesClass:
    def _instance(self, eta, seed=0):
        spec = ModelSpec(n=300, q=3, alpha=6.0, eta=eta,
                         p_in=PointMass(1), p_out=PointMass(0), seed=seed)
        return make_instance(spec)

    def test_all_revealed_one_vs_rest(self):
        g, _, data = self._instance(eta=1.0)
        state = init_messages_class(g, data, 1, np.random.default_rng(0))
        expected = np.where(data.class_indices()[g.src] == 1, 1.0, -1.0)
        assert np.array_equal(state.values, expected)

    def test_eta_zero_pure_rademacher(self):
        g, _, data = self._instance(eta=0.0, seed=1)
        state = init_messages_class(g, data, 0, np.random.default_rng(1))
        assert set(np.unique(state.values)) <= {-1.0, 1.0}
        assert abs(state.values.mean()) < 3 / np.sqrt(g.num_half_edges)

    def test_deterministic(self):
        g, _, data = self._instance(eta=0.3, seed=2)
        a = init_messages_class(g, data, 2, np.random.default_rng(7))
        b = init_messages_class(g, data, 2, np.random.default_rng(7))
        assert np.array_equal(a.values, b.values)

    def test_class_out_of_range(self):
        g, _, data = self._instance(eta=0.3)
        with pytest.raises(ValueError, match="class index"):
            init_messages_class(g, data, 3, np.random.default_rng(0))


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

    def test_rayleigh_ordering_with_spectral_gap(self):
        """On a model whose common mode dominates the class mode, stage 1
        extracts the larger quotient and deflation leaves stage 2 the
        smaller one."""
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
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)], [1e308] * 5)
        data = LabeledDataset(truth=np.array([0, 1, 2, 0]),
                              revealed=np.ones(4, bool), n=4, q=3)
        with pytest.raises(ValueError, match="non-finite"):
            run_multiclass(g, data, 3, 4, np.random.default_rng(0))


class TestKmeans:
    def test_two_separated_groups(self):
        pts = np.concatenate([np.zeros(50), np.full(50, 10.0)])
        labels = kmeans(pts, 2, np.random.default_rng(0))
        assert len(set(labels[:50])) == 1 and len(set(labels[50:])) == 1
        assert labels[0] != labels[-1]

    def test_identical_points_reports_empty_cluster(self):
        with pytest.warns(EmptyClusterWarning):
            kmeans(np.ones(20), 2, np.random.default_rng(0))

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

    def test_large_q_uses_assignment_solver(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 8, 4000)
        shuffle = rng.permutation(8)
        est = shuffle[truth]
        acc, perm = match_labels(est, truth)
        assert acc == 1.0
        assert np.array_equal(np.asarray(perm)[shuffle], np.arange(8))
