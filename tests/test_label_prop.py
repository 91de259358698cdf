"""Nearest-neighbor pruning and the clamped harmonic propagation."""

import warnings

import numpy as np
import pytest

from nblw import (
    ConvergenceWarning,
    LabeledDataset,
    accuracy,
    build_graph,
    dataset_from_truth,
    gaussian_blobs,
    label_propagation,
    propagate_scores,
    run_binary,
    sparsify_knn,
    subsample_and_weight,
)


def ranked_similarity_graph(rng, n, alpha):
    from nblw import draw_er_pairs

    pairs = draw_er_pairs(n, alpha, rng)
    sims = rng.uniform(0.01, 1.0, pairs.shape[0])  # distinct with prob 1
    return build_graph(n, pairs, sims), sims


class TestSparsifyKnn:
    def test_low_degree_keeps_everything(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)], [0.9, 0.5, 0.1])
        pruned = sparsify_knn(g, g.pair_weights(), k=3)
        assert pruned.num_pairs == 3

    def test_star_union_semantics(self):
        """k=1 on a star: the center keeps only its best edge, but every
        leaf keeps its single edge, so the union keeps all."""
        pairs = [(0, i) for i in range(1, 6)]
        sims = [0.1, 0.2, 0.3, 0.4, 0.5]
        g = build_graph(6, pairs, sims)
        pruned = sparsify_knn(g, np.array(sims), k=1)
        assert pruned.num_pairs == 5

    def test_mutual_star_keeps_single_best(self):
        pairs = [(0, i) for i in range(1, 6)]
        sims = [0.1, 0.2, 0.3, 0.4, 0.5]
        g = build_graph(6, pairs, sims)
        pruned = sparsify_knn(g, np.array(sims), k=1, mode="mutual")
        assert pruned.num_pairs == 1
        assert {tuple(p) for p in pruned.pairs} == {(0, 5)}

    def test_ties_rank_lower_neighbor_first(self):
        pairs = [(0, 1), (0, 2), (0, 3)]
        sims = np.array([0.5, 0.5, 0.5])  # all tied
        g = build_graph(4, pairs, sims)
        pruned = sparsify_knn(g, sims, k=1, mode="mutual")
        assert {tuple(p) for p in pruned.pairs} == {(0, 1)}

    def test_rank_predicate_oracle_n100(self):
        """Every kept edge is in someone's top k; every dropped edge in
        no one's (exhaustive check)."""
        rng = np.random.default_rng(7)
        g, sims = ranked_similarity_graph(rng, 100, 8.0)
        k = 3
        pruned = sparsify_knn(g, sims, k=k)
        kept = {tuple(sorted(p)) for p in pruned.pairs}

        neighbors = {i: [] for i in range(100)}
        for (i, j), s in zip(g.pairs, sims):
            neighbors[i].append((j, s))
            neighbors[j].append((i, s))
        topk = {}
        for i, nbrs in neighbors.items():
            nbrs.sort(key=lambda t: (-t[1], t[0]))
            topk[i] = {j for j, _ in nbrs[:k]}
        for (i, j) in map(tuple, map(sorted, g.pairs)):
            expected = (j in topk[i]) or (i in topk[j])
            assert ((i, j) in kept) == expected

    def test_pruned_graph_keeps_weights(self):
        rng = np.random.default_rng(9)
        g, sims = ranked_similarity_graph(rng, 30, 4.0)
        pruned = sparsify_knn(g, sims, k=2)
        orig = {tuple(sorted(p)): w for p, w in zip(g.pairs, g.pair_weights())}
        for p, w in zip(pruned.pairs, pruned.pair_weights()):
            assert orig[tuple(sorted(p))] == w


class TestLabelPropagation:
    def test_all_revealed_identity(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)], [1.0, 1.0, 1.0])
        data = LabeledDataset(truth=np.array([1, -1, 1, -1]),
                              revealed=np.ones(4, bool), n=4, q=2)
        assert np.array_equal(label_propagation(g, data), data.truth)

    def test_path_tie_resolves_positive(self):
        g = build_graph(3, [(0, 1), (1, 2)], [1.0, 1.0])
        data = LabeledDataset(truth=np.array([1, 1, -1]),
                              revealed=np.array([True, False, True]), n=3, q=2)
        est = label_propagation(g, data)
        assert est[1] == 1  # exact 0.5/0.5 tie goes to the +1 class

    def test_requires_labels_and_nonnegative_weights(self):
        g = build_graph(3, [(0, 1), (1, 2)], [1.0, 1.0])
        data = LabeledDataset(truth=np.array([1, 1, -1]),
                              revealed=np.zeros(3, bool), n=3, q=2)
        with pytest.raises(ValueError, match="revealed"):
            label_propagation(g, data)
        g_neg = build_graph(3, [(0, 1), (1, 2)], [1.0, -1.0])
        data2 = LabeledDataset(truth=np.array([1, 1, -1]),
                               revealed=np.array([True, False, False]), n=3, q=2)
        with pytest.raises(ValueError, match="nonnegative"):
            label_propagation(g_neg, data2)

    def test_clamped_rows_never_move_and_hull(self):
        rng = np.random.default_rng(3)
        g, sims = ranked_similarity_graph(rng, 200, 6.0)
        truth = rng.integers(0, 2, 200)
        data = dataset_from_truth(truth, 0.2, rng)
        scores, _ = propagate_scores(g, data, tol=0.0, max_iter=40)
        cls = data.class_indices()
        onehot = np.zeros((200, 2))
        onehot[np.arange(200), cls] = 1.0
        assert np.array_equal(scores[data.revealed], onehot[data.revealed])
        assert scores.min() >= 0.0 and scores.max() <= 1.0 + 1e-12

    def test_isolated_unlabeled_gets_majority_class(self):
        g = build_graph(4, [(0, 1)], [1.0])
        data = LabeledDataset(truth=np.array([-1, -1, 1, -1]),
                              revealed=np.array([True, True, False, False]),
                              n=4, q=2)
        est = label_propagation(g, data)
        assert est[2] == -1  # majority of revealed labels
        assert est[3] == -1

    def test_iteration_cap_warns(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)], [1.0, 1.0, 1.0])
        data = LabeledDataset(truth=np.array([1, 1, -1, -1]),
                              revealed=np.array([True, False, False, True]),
                              n=4, q=2)
        with pytest.warns(ConvergenceWarning, match="max_iter=1"):
            capped = label_propagation(g, data, max_iter=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            converged = label_propagation(g, data)
        assert list(capped) == [1, 1, -1, -1]
        assert list(converged) == [1, 1, -1, -1]

    def test_successive_differences_shrink(self):
        rng = np.random.default_rng(5)
        g, _ = ranked_similarity_graph(rng, 500, 8.0)
        truth = rng.integers(0, 2, 500)
        data = dataset_from_truth(truth, 0.1, rng)
        _, deltas = propagate_scores(g, data, tol=1e-12, max_iter=60)
        deltas = np.asarray(deltas)
        # contraction on average: tail deltas dwarfed by early ones
        assert deltas[-1] <= deltas[2] * 0.5
        assert np.all(deltas[10:] <= deltas[2])

    def test_blobs_band_and_ordering(self):
        """On blob data LP improves with alpha, and at alpha = 4 it stays
        below the walk run from ten times fewer labels."""
        pts, truth = gaussian_blobs(4000, [[-3.0, 0.0], [3.0, 0.0]], 1.0,
                                    np.random.default_rng(0))
        lp_acc = {}
        for alpha in (2.0, 16.0):
            accs = []
            for s in range(6):
                res = subsample_and_weight(pts, alpha, "euclidean",
                                           np.random.default_rng(10 + s))
                data = dataset_from_truth(truth, 0.1, np.random.default_rng(20 + s))
                g_raw = res.graph.with_pair_weights(res.similarities)
                pruned = sparsify_knn(g_raw, res.similarities, 3)
                est = label_propagation(pruned, data)
                accs.append(accuracy(est, data.truth, "all", data.revealed))
            lp_acc[alpha] = float(np.mean(accs))
        assert lp_acc[16.0] > lp_acc[2.0]
        assert lp_acc[16.0] > 0.85

        nblw_accs = []
        lp4_accs = []
        for s in range(6):
            res = subsample_and_weight(pts, 4.0, "euclidean",
                                       np.random.default_rng(40 + s))
            d_walk = dataset_from_truth(truth, 0.01, np.random.default_rng(50 + s))
            est, _ = run_binary(res.graph, d_walk, 30, np.random.default_rng(60 + s))
            nblw_accs.append(accuracy(est, d_walk.truth, "all", d_walk.revealed))
            d_lp = dataset_from_truth(truth, 0.1, np.random.default_rng(50 + s))
            g_raw = res.graph.with_pair_weights(res.similarities)
            est_lp = label_propagation(sparsify_knn(g_raw, res.similarities, 3), d_lp)
            lp4_accs.append(accuracy(est_lp, d_lp.truth, "all", d_lp.revealed))
        assert np.mean(nblw_accs) > np.mean(lp4_accs)
