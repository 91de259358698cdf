"""Two-cluster walk: initialization, decisions, invariants, moments."""

import numpy as np
import pytest

from conftest import (
    conditional_message_moments,
    random_graph,
    restrict_to_ball,
    transfer_messages,
)
from nblw import (
    Gaussian,
    MessageState,
    ModelSpec,
    PointMass,
    accuracy,
    center_weights,
    dataset_from_truth,
    gaussian_blobs,
    init_messages,
    make_instance,
    nb_multiply,
    pool,
    power_iterate,
    run_binary,
    subsample_and_weight,
)
from nblw.binary import _one_vs_rest, align_to_labels, decide


def small_instance(seed=0, **kw):
    base = dict(n=400, q=2, alpha=8.0, eta=0.2,
                p_in=PointMass(1.0), p_out=PointMass(-1.0), seed=seed)
    base.update(kw)
    spec = ModelSpec(**base)
    g, sims, data = make_instance(spec)
    return g.with_pair_weights(center_weights(sims)), sims, data, spec


class TestInitMessages:
    def test_all_revealed_exact(self):
        g, _, data, _ = small_instance(eta=1.0)
        state = init_messages(g, data, np.random.default_rng(0))
        assert np.array_equal(state.values, data.truth[g.src].astype(float))

    def test_eta_zero_rademacher_mean(self):
        g, _, data, _ = small_instance(seed=3, eta=0.0, n=4000)
        state = init_messages(g, data, np.random.default_rng(1))
        two_m = g.num_half_edges
        assert set(np.unique(state.values)) <= {-1.0, 1.0}
        assert abs(state.values.mean()) < 3 / np.sqrt(two_m)

    def test_deterministic(self):
        g, _, data, _ = small_instance()
        a = init_messages(g, data, np.random.default_rng(5))
        b = init_messages(g, data, np.random.default_rng(5))
        assert np.array_equal(a.values, b.values)

    def test_rejects_multiclass(self):
        spec = ModelSpec(n=60, q=3, alpha=5.0, eta=0.5,
                         p_in=PointMass(1), p_out=PointMass(-1), seed=0)
        g, sims, data = make_instance(spec)
        with pytest.raises(ValueError, match="q == 2"):
            init_messages(g, data, np.random.default_rng(0))


    def test_is_class_zero_one_vs_rest(self):
        for seed in range(5):
            g, _, data, _ = small_instance(seed=seed)
            a = init_messages(g, data, np.random.default_rng(seed))
            b = _one_vs_rest(g, data, [0], np.random.default_rng(seed))[0]
            assert np.array_equal(a.values, b)
            assert a.values.dtype == b.dtype


class TestRunBinary:
    def test_zero_signal_gives_random_guess(self):
        """No similarity signal: unlabeled accuracy is a fair coin."""
        accs = []
        for seed in range(6):
            spec = ModelSpec(n=10**4, q=2, alpha=10.0, eta=0.1,
                             p_in=Gaussian(0, 1), p_out=Gaussian(0, 1), seed=seed)
            g, sims, data = make_instance(spec)
            g = g.with_pair_weights(center_weights(sims))
            est, _ = run_binary(g, data, 30, np.random.default_rng(seed))
            accs.append(accuracy(est, data.truth, "unlabeled", data.revealed))
        assert abs(np.mean(accs) - 0.5) < 0.03

    def test_strong_signal_near_perfect(self):
        spec = ModelSpec(n=10**4, q=2, alpha=10.0, eta=0.1,
                         p_in=PointMass(1.0), p_out=PointMass(-1.0), seed=1)
        g, sims, data = make_instance(spec)
        g = g.with_pair_weights(center_weights(sims))
        est, _ = run_binary(g, data, 15, np.random.default_rng(2))
        assert accuracy(est, data.truth, "all", data.revealed) >= 0.99

    def test_kmax_zero_pools_initialization(self):
        g, _, data, _ = small_instance(seed=9)
        rng_state = np.random.default_rng(4)
        est, pooled = run_binary(g, data, 0, np.random.default_rng(4))
        init = init_messages(g, data, rng_state)
        expected = pool(g, init)
        assert np.allclose(pooled, expected)
        assert np.array_equal(est, decide(g, expected, data))

    def test_deterministic(self):
        g, _, data, _ = small_instance(seed=10)
        a = run_binary(g, data, 7, np.random.default_rng(6))
        b = run_binary(g, data, 7, np.random.default_rng(6))
        assert np.array_equal(a[0], b[0]) and np.allclose(a[1], b[1])

    def test_isolated_node_policy(self):
        """Isolated revealed nodes keep their label, others get the tie."""
        from nblw import LabeledDataset, build_graph

        g = build_graph(4, [(0, 1)], [1.0])
        data = LabeledDataset(truth=np.array([1, -1, -1, 1]),
                              revealed=np.array([False, False, True, False]),
                              n=4, q=2)
        est, pooled = run_binary(g, data, 3, np.random.default_rng(0))
        assert pooled[2] == pooled[3] == 0.0
        assert est[2] == -1  # revealed isolated keeps its label
        assert est[3] == 1   # unrevealed isolated takes the tie value

        # a revealed node that pools to 0 through a zero weight is not isolated
        g = build_graph(3, [(0, 1)], [0.0])
        data = LabeledDataset(truth=np.array([-1, 1, 1]),
                              revealed=np.array([True, False, False]),
                              n=3, q=2)
        est, pooled = run_binary(g, data, 3, np.random.default_rng(0))
        assert pooled[0] == 0.0 and g.degrees()[0] == 1
        assert est[0] == 1


    def test_nan_message_raises(self):
        g, _, _, _ = small_instance()
        values = np.ones(g.num_half_edges)
        values[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            power_iterate(g, MessageState(values), 3)

    def test_decide_rejects_nan_pooled(self):
        g, _, data, _ = small_instance()
        pooled = np.ones(g.n)
        pooled[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            decide(g, pooled, data)

    def test_align_to_labels_then_isolated_rule(self):
        from nblw import LabeledDataset, build_graph

        g = build_graph(4, [(0, 1)], [1.0])
        data = LabeledDataset(truth=np.array([1, -1, 1, 1]),
                              revealed=np.array([True, False, True, False]),
                              n=4, q=2)
        pooled = np.array([-2.0, 1.0, 0.0, 0.0])  # node 0 disagrees with its label
        aligned = align_to_labels(pooled, data)
        assert np.array_equal(aligned, -pooled)
        assert align_to_labels(aligned, data) is aligned
        # ties stay +1; the revealed isolated node 2 keeps its label
        assert list(decide(g, aligned, data)) == [1, -1, 1, 1]

    @pytest.mark.parametrize("graph, walk_seed", [(0, 5), (1, 15)])
    def test_mirror_labelling_is_negated(self, graph, walk_seed):
        """Acceptance criterion 9's blobs from 1 % labels: with these walk
        seeds the pooled signs give the mirror labelling (accuracy about
        0.02); ``run_binary`` aligns them with the revealed labels."""
        pts, truth = gaussian_blobs(10**4, [[-3.0, 0.0], [3.0, 0.0]], 1.0,
                                    np.random.default_rng(99))
        g = subsample_and_weight(pts, 4.0, "euclidean",
                                 np.random.default_rng(10_000 + graph)).graph
        data = dataset_from_truth(truth, 0.01, np.random.default_rng(20_000 + graph))
        state = init_messages(g, data, np.random.default_rng(walk_seed))
        raw = pool(g, power_iterate(g, state, 30))
        assert accuracy(decide(g, raw, data), data.truth, "all", data.revealed) < 0.05
        est, pooled = run_binary(g, data, 30, np.random.default_rng(walk_seed))
        assert np.array_equal(pooled, -raw)
        assert accuracy(est, data.truth, "all", data.revealed) >= 0.95


def max_abs_walk(g, x, k):
    """k products, each divided by its max-absolute value."""
    for _ in range(k):
        x = nb_multiply(g, x)
        scale = np.abs(x).max()
        if scale > 0:
            x = x / scale
    return x


class TestPowerIterate:
    def test_ends_rescaled_with_the_raw_product(self):
        g, _, data, _ = small_instance(seed=5, p_in=Gaussian(0.5, 1), p_out=Gaussian(-0.5, 1))
        init = init_messages(g, data, np.random.default_rng(6))
        for k in (1, 7, 30, 70):
            state = power_iterate(g, init.copy(), k)
            assert np.abs(state.values).max() == 1.0
            assert (state.bound, state.unscanned, state.iteration) == (1.0, 0, k)
            raw = init.values
            for _ in range(k):
                raw = nb_multiply(g, raw)
            assert np.abs(state.unscaled() - raw).max() <= 1e-9 * np.abs(raw).max()

    def test_pooled_signs_survive_extreme_weight_scales(self):
        g, _, data, _ = small_instance(seed=8, p_in=Gaussian(0.5, 1), p_out=Gaussian(-0.5, 1))
        init = init_messages(g, data, np.random.default_rng(9))
        signs = {}
        for c in (2.0**600, 2.0**-600, 1.0):
            gc = g.with_pair_weights(g.pair_weights() * c)
            pooled = pool(gc, power_iterate(gc, init.copy(), 30))
            assert np.all(np.isfinite(pooled)) and np.abs(pooled).max() > 0
            signs[c] = np.sign(pooled)
        assert np.array_equal(signs[2.0**600], signs[1.0])
        assert np.array_equal(signs[2.0**-600], signs[1.0])

    def test_long_walk_under_a_loose_bound_does_not_underflow(self):
        """W > 1 while the walk shrinks by about 0.3 a step: the bound never
        leaves its range in 1200 steps, so only the cap on unscanned steps
        keeps the messages from underflowing to 0."""
        rng = np.random.default_rng(2)
        g = random_graph(rng, 12, p=0.3, w_low=-0.35, w_high=0.35)
        assert 1.0 < g.growth_bound and 1200 * np.log2(g.growth_bound) < 500
        x = rng.choice([-1.0, 1.0], g.num_half_edges)
        want = np.sign(pool(g, MessageState(max_abs_walk(g, x, 1200))))
        assert np.count_nonzero(want) == g.n
        state = power_iterate(g, MessageState(x, bound=1.0), 1200)
        assert np.array_equal(np.sign(pool(g, state)), want)

    def test_nan_under_a_finite_bound_raises(self):
        g, _, data, _ = small_instance()
        values = np.ones(g.num_half_edges)
        values[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            power_iterate(g, MessageState(values, bound=1.0), 3)


class TestAccuracy:
    def test_exact_match(self):
        t = np.array([1, -1, 1])
        assert accuracy(t, t) == 1.0

    def test_global_flip_convention(self):
        t = np.array([1, -1, 1, -1])
        assert accuracy(-t, t) == 1.0  # unsupervised: flip-invariant
        revealed = np.array([True, False, False, False])
        assert accuracy(-t, t, revealed=revealed) == 0.0
        # beyond two labels the best relabelling counts, not the better of
        # the agreement a and 1 - a (1/6 here, and 1/8 below)
        assert accuracy([0, 0, 1, 1, 2, 2], [1, 2, 0, 2, 0, 1]) == 0.5
        e4, t4 = [3, 3, 0, 0, 1, 2, 2, 1], [0, 0, 1, 1, 2, 2, 3, 3]
        assert accuracy(e4, t4) == accuracy(e4, t4, "unlabeled") == 0.75

    def test_random_estimate_half(self):
        rng = np.random.default_rng(8)
        t = 1 - 2 * rng.integers(0, 2, 10**4)
        e = 1 - 2 * rng.integers(0, 2, 10**4)
        revealed = np.zeros(10**4, bool)
        revealed[:100] = True
        assert abs(accuracy(e, t, revealed=revealed) - 0.5) < 0.02

    def test_scope_restriction(self):
        t = np.array([1, 1, -1, -1])
        e = np.array([1, -1, -1, -1])
        revealed = np.array([False, True, False, False])
        assert accuracy(e, t, "all", revealed) == 0.75
        assert accuracy(e, t, "unlabeled", revealed) == 1.0
        # with every node revealed the unlabeled scope is empty
        assert np.isnan(accuracy(e, t, "unlabeled", np.ones(4, dtype=bool)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.ones(3), np.ones(4))


class TestInvariants:
    def test_positive_scale_invariance(self):
        """Multiplying all weights by c > 0 changes no assignment."""
        g, sims, data, _ = small_instance(seed=12, p_in=Gaussian(0.5, 1),
                                          p_out=Gaussian(-0.5, 1))
        for c in (1e-3, 7.0, 1e4):
            gc = g.with_pair_weights(g.pair_weights() * c)
            a, _ = run_binary(g, data, 10, np.random.default_rng(3))
            b, _ = run_binary(gc, data, 10, np.random.default_rng(3))
            assert np.array_equal(a, b)

    def test_locality_radius(self):
        """A node's assignment depends only on its radius-(k+1) ball."""
        k_max = 3
        spec = ModelSpec(n=600, q=2, alpha=5.0, eta=0.2,
                         p_in=Gaussian(0.5, 1), p_out=Gaussian(-0.5, 1), seed=17)
        g, sims, data = make_instance(spec)
        g = g.with_pair_weights(center_weights(sims))
        init_full = init_messages(g, data, np.random.default_rng(19))
        state = power_iterate(g, init_full.copy(), k_max)
        est_full = decide(g, pool(g, state), data)

        rng_nodes = np.random.default_rng(23)
        for node in rng_nodes.integers(0, 600, size=10):
            sub, _ = restrict_to_ball(g, int(node), k_max)
            sub_init = MessageState(transfer_messages(g, init_full.values, sub))
            sub_state = power_iterate(sub, sub_init, k_max)
            sub_est = decide(sub, pool(sub, sub_state), data)
            assert sub_est[node] == est_full[node]

    def test_conditional_moment_tracking(self):
        """Ensemble message means follow eta * (alpha * delta)^l and the
        second moments follow the two-term quadratic recursion, l <= 4."""
        alpha, eta, delta, sigma2, l_max, reps = 15.0, 0.1, 0.5, 1.25, 4, 60
        m1 = np.empty((reps, l_max + 1))
        m2 = np.empty((reps, l_max + 1))
        for r in range(reps):
            spec = ModelSpec(n=4000, q=2, alpha=alpha, eta=eta,
                             p_in=Gaussian(0.5, 1), p_out=Gaussian(-0.5, 1),
                             seed=1000 + r)
            m1[r], m2[r] = conditional_message_moments(spec, l_max, 2000 + r)
        pred1 = eta * (alpha * delta) ** np.arange(l_max + 1)
        pred2 = np.empty(l_max + 1)
        pred2[0] = 1.0
        for l in range(l_max):
            pred2[l + 1] = alpha**2 * delta**2 * pred1[l] ** 2 + alpha * sigma2 * pred2[l]
        for l in range(1, l_max + 1):
            se1 = m1[:, l].std(ddof=1) / np.sqrt(reps)
            se2 = m2[:, l].std(ddof=1) / np.sqrt(reps)
            assert abs(m1[:, l].mean() - pred1[l]) <= 3 * se1
            assert abs(m2[:, l].mean() - pred2[l]) <= 3 * se2
