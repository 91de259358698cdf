"""Graph construction and non-backtracking operator, against dense oracles."""

import numpy as np
import pytest

from conftest import chained_unscaled, random_graph
from nblw import (
    MessageState,
    apply_nb,
    apply_nb_transpose,
    build_graph,
    center_weights,
    dense_nb_matrix,
    nb_multiply,
    nb_multiply_t,
    pool,
)


class TestBuildGraph:
    def test_smallest_graph(self):
        g = build_graph(2, [(0, 1)], [0.5])
        assert g.num_half_edges == 2
        assert g.twin[0] == 1 and g.twin[1] == 0
        assert np.allclose(g.weight, [0.5, 0.5])

    def test_path_graph_degrees(self):
        g = build_graph(3, [(0, 1), (1, 2)], [1.0, -1.0])
        assert g.num_half_edges == 4
        assert list(g.degrees()) == [1, 2, 1]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph(3, [(0, 0)], [1.0])

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            build_graph(3, [(0, 3)], [1.0])

    def test_int64_key_overflow_guard(self):
        # (n - 1) * n + (n - 1) no longer fits int64; must fail before
        # any n-sized allocation
        with pytest.raises(ValueError, match="overflow"):
            build_graph(3_037_000_500, [(0, 1)], [1.0])

    def test_nonfinite_weight(self):
        with pytest.raises(ValueError, match="finite"):
            build_graph(3, [(0, 1)], [np.nan])

    def test_duplicates_dropped_first_kept(self):
        g = build_graph(3, [(0, 1), (1, 0), (1, 2)], [0.7, 0.9, 1.0])
        assert g.duplicates_dropped == 1
        assert g.num_pairs == 2
        # first occurrence's weight survives
        e = np.flatnonzero((g.src == 0) & (g.dst == 1))[0]
        assert g.weight[e] == 0.7

    def test_twin_involution_and_weight_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 14)))
            e = np.arange(g.num_half_edges)
            assert np.array_equal(g.twin[g.twin], e)
            assert np.allclose(g.weight, g.weight[g.twin])
            assert g.node_offsets[-1] == g.num_half_edges == 2 * g.num_pairs

    def test_with_pair_weights_preserves_topology(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 8)
        new = rng.uniform(0, 1, g.num_pairs)
        g2 = g.with_pair_weights(new)
        assert np.array_equal(g.src, g2.src) and np.array_equal(g.twin, g2.twin)
        assert np.allclose(g2.pair_weights(), new)
        assert np.allclose(g2.weight, g2.weight[g2.twin])


class TestCenterWeights:
    def test_two_points(self):
        assert np.allclose(center_weights([1, 3]), [-1, 1])

    def test_constant(self):
        assert np.allclose(center_weights([5, 5, 5]), [0, 0, 0])

    def test_direct_arithmetic(self):
        assert np.allclose(center_weights([0.2, 0.4, 0.9]), [-0.3, -0.1, 0.4])

    def test_sums_to_zero(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(0, 1, 1000)
        assert abs(center_weights(s).sum()) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            center_weights([])


class TestApplyNB:
    def test_path_leaf_edges(self):
        """Leaf edges have no non-backtracking predecessor."""
        g = build_graph(3, [(0, 1), (1, 2)], [1.0, 1.0])
        out = nb_multiply(g, np.ones(4))
        expected = {(0, 1): 0.0, (1, 2): 1.0, (1, 0): 1.0, (2, 1): 0.0}
        for e in range(4):
            assert out[e] == expected[(g.src[e], g.dst[e])]

    def test_triangle_all_ones(self):
        """Each directed edge of a 3-cycle has exactly one predecessor."""
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)], [1.0, 1.0, 1.0])
        assert np.allclose(nb_multiply(g, np.ones(6)), 1.0)

    def test_matches_dense_oracle_30_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(2, 13)))
            v = rng.standard_normal(g.num_half_edges)
            dense = dense_nb_matrix(g) @ v
            state = apply_nb(g, MessageState(v.copy()))
            assert np.allclose(state.unscaled(), dense, atol=1e-12 * max(1, np.abs(dense).max()))

    def test_zero_messages_stay_zero(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng, 8)
        state = apply_nb(g, MessageState(np.zeros(g.num_half_edges)))
        assert np.all(state.values == 0) and state.log_scale == 0.0

    def test_size_mismatch(self):
        g = build_graph(2, [(0, 1)], [1.0])
        with pytest.raises(ValueError, match="half-edges"):
            apply_nb(g, MessageState(np.ones(3)))

    def test_rescale_bounds_and_log(self):
        rng = np.random.default_rng(13)
        g = random_graph(rng, 10)
        state = MessageState(rng.standard_normal(g.num_half_edges))
        raw = nb_multiply(g, state.values)
        out = apply_nb(g, state)
        assert np.abs(out.values).max() <= 1.0 + 1e-15
        assert np.allclose(out.unscaled(), raw)
        assert out.iteration == 1


    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_nonfinite_product_raises(self):
        # finite weights whose incoming sums overflow to inf
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        g = build_graph(4, pairs, [1e308] * len(pairs))
        with pytest.raises(ValueError, match="non-finite"):
            apply_nb(g, MessageState(np.ones(g.num_half_edges)))
        with pytest.raises(ValueError, match="non-finite"):
            apply_nb_transpose(g, MessageState(np.ones(g.num_half_edges)))


class TestTranspose:
    def test_adjoint_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 12)))
            u = rng.standard_normal(g.num_half_edges)
            v = rng.standard_normal(g.num_half_edges)
            lhs = np.dot(nb_multiply(g, u), v)
            rhs = np.dot(u, nb_multiply_t(g, v))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_matches_dense_transpose(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)], [0.3, -0.8, 1.2])
        rng = np.random.default_rng(19)
        v = rng.standard_normal(g.num_half_edges)
        assert np.allclose(nb_multiply_t(g, v), dense_nb_matrix(g).T @ v, atol=1e-14)

    def test_zero_vector(self):
        g = build_graph(3, [(0, 1), (1, 2)], [1.0, 2.0])
        out = apply_nb_transpose(g, MessageState(np.zeros(4)))
        assert np.all(out.values == 0)


class TestDenseOracle:
    def test_single_edge_zero_matrix(self):
        g = build_graph(2, [(0, 1)], [0.9])
        assert np.all(dense_nb_matrix(g) == 0)

    def test_triangle_rows_single_one(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)], [1.0, 1.0, 1.0])
        B = dense_nb_matrix(g)
        assert np.all(B.sum(axis=1) == 1) and np.all((B == 0) | (B == 1))

    def test_structural_brute_force_n8(self):
        """Row e is nonzero exactly at half-edges departing dst(e),
        excluding the twin."""
        rng = np.random.default_rng(23)
        g = random_graph(rng, 8)
        B = dense_nb_matrix(g)
        for e in range(g.num_half_edges):
            for f in range(g.num_half_edges):
                expected = g.weight[f] if (g.dst[f] == g.src[e] and f != g.twin[e]) else 0.0
                assert B[e, f] == expected

    def test_size_guard(self):
        rng = np.random.default_rng(29)
        g = random_graph(rng, 80, p=0.9)
        with pytest.raises(ValueError, match="too large"):
            dense_nb_matrix(g)


class TestPool:
    def test_single_edge(self):
        g = build_graph(2, [(0, 1)], [2.0])
        assert np.allclose(pool(g, MessageState(np.ones(2))), [2.0, 2.0])

    def test_isolated_node_zero(self):
        g = build_graph(3, [(0, 1)], [1.0])
        assert pool(g, MessageState(np.ones(2)))[2] == 0.0

    def test_brute_force_sum_oracle(self):
        rng = np.random.default_rng(31)
        g = random_graph(rng, 10)
        v = rng.standard_normal(g.num_half_edges)
        pooled = pool(g, MessageState(v.copy()))
        for i in range(g.n):
            total = sum(
                g.weight[e] * v[e]
                for e in range(g.num_half_edges)
                if g.dst[e] == i
            )
            assert abs(pooled[i] - total) < 1e-12


class TestInvariants:
    def test_chained_oracle_equivalence(self):
        """k rescaled applications equal dense B^k v within 1e-9 relative,
        for graphs with 2m <= 200."""
        rng = np.random.default_rng(37)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(4, 15)), p=0.5)
            assert g.num_half_edges <= 200
            B = dense_nb_matrix(g)
            v = rng.standard_normal(g.num_half_edges)
            k = int(rng.integers(1, 7))
            dense = np.linalg.matrix_power(B, k) @ v
            ours = chained_unscaled(g, v, k)
            scale = max(1.0, np.abs(dense).max())
            assert np.abs(ours - dense).max() <= 1e-9 * scale

    def test_rescale_neutrality_of_pool_signs(self):
        rng = np.random.default_rng(41)
        g = random_graph(rng, 12, p=0.5)
        v0 = rng.standard_normal(g.num_half_edges)
        a = MessageState(v0.copy())
        b = MessageState(v0.copy())
        for _ in range(6):
            a = apply_nb(g, a)
            b = MessageState(nb_multiply(g, b.values))
        assert np.array_equal(np.sign(pool(g, a)), np.sign(pool(g, b)))
