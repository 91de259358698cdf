"""Graph construction and non-backtracking operator, against dense oracles."""

import numpy as np
import pytest

from conftest import canonical_pairs, chained_unscaled, lexsort_layout, random_graph, twin
from nblw import (
    LabeledDataset,
    MessageState,
    apply_nb,
    apply_nb_transpose,
    build_graph,
    center_weights,
    dense_nb_matrix,
    draw_er_pairs,
    init_messages,
    nb_multiply,
    nb_multiply_t,
    pool,
    sparsify_knn,
)


class TestBuildGraph:
    def test_smallest_graph(self):
        g = build_graph(2, [(0, 1)], [0.5])
        assert g.num_half_edges == 2
        assert list(g.src) == [0, 1] and list(g.dst) == [1, 0]
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

    def test_refuses_non_canonical_pairs(self):
        """Only distinct (lo, hi), lo < hi, in key order are accepted: each
        fault raises, naming its rule and the first offending pair."""
        refused = [
            ([(0, 1), (2, 2)], "self-loops are not allowed: pair 1 is"),
            ([(0, 1), (2, 1)], r"pair 1, \(2, 1\), is reversed"),
            ([(0, 1), (0, 1)], r"pair 1, \(0, 1\), repeats pair 0"),
            ([(0, 1), (1, 0)], r"pair 1, \(1, 0\), is reversed"),
            ([(0, 1), (0, 2), (0, 1)], r"pair 2, \(0, 1\), is out of key order"),
            ([(0, 2), (1, 2), (0, 1)], r"pair 2, \(0, 1\), is out of key order"),
        ]
        for pairs, message in refused:
            with pytest.raises(ValueError, match=message):
                build_graph(3, pairs, np.ones(len(pairs)))
        # a sampled pair list, shuffled or with one pair flipped
        pairs = draw_er_pairs(500, 6.0, np.random.default_rng(2))
        w = np.ones(pairs.shape[0])
        with pytest.raises(ValueError, match="out of key order"):
            build_graph(500, pairs[np.random.default_rng(3).permutation(len(pairs))], w)
        flipped = pairs.copy()
        flipped[7] = flipped[7, ::-1]
        with pytest.raises(ValueError, match="pair 7, .* is reversed"):
            build_graph(500, flipped, w)
        assert build_graph(500, pairs, w).num_pairs == pairs.shape[0]
        assert build_graph(3, np.empty((0, 2), dtype=np.int64), []).num_half_edges == 0

    def test_twin_involution_and_weight_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 14)))
            e, t = np.arange(g.num_half_edges), twin(g)
            assert np.array_equal(t[t], e)
            assert np.array_equal(g.src[t], g.dst) and np.array_equal(g.dst[t], g.src)
            assert np.allclose(g.weight, g.weight[t])
            assert g.degrees().sum() == g.num_half_edges == 2 * g.num_pairs

    def test_with_pair_weights_preserves_topology(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 8)
        new = rng.uniform(0, 1, g.num_pairs)
        g2 = g.with_pair_weights(new)
        assert np.array_equal(g.src, g2.src) and np.array_equal(g.dst, g2.dst)
        assert np.allclose(g2.pair_weights(), new)
        assert np.allclose(g2.weight, g2.weight[twin(g2)])


def _pairs_with_duplicates(rng, n, m):
    """Random pairs in either orientation, with exact and reversed repeats."""
    i, j = rng.integers(0, n, m), rng.integers(0, n, m)
    pairs = np.column_stack([i, j])[i != j]
    again = pairs[rng.random(pairs.shape[0]) < 0.3]
    flip = rng.random(again.shape[0]) < 0.5
    again[flip] = again[flip, ::-1]
    pairs = np.concatenate([pairs, again])
    return pairs[rng.permutation(pairs.shape[0])]


def _layout_cases():
    """Cases in any order and orientation, with repeats; LAYOUT_CASES holds
    them in canonical form."""
    rng = np.random.default_rng(11)
    for t in range(40):
        n = int(rng.integers(2, 30))
        pairs = _pairs_with_duplicates(rng, n, int(rng.integers(1, 4 * n)))
        yield f"random-{t}", n, pairs, rng.standard_normal(pairs.shape[0])
    # only even nodes carry edges; the odd ones and the tail are isolated
    pairs = 2 * _pairs_with_duplicates(rng, 20, 60)
    yield "isolated-nodes", 60, pairs, rng.standard_normal(pairs.shape[0])
    yield "empty", 7, np.empty((0, 2), dtype=np.int64), np.empty(0)
    yield "n2", 2, [(1, 0)], [0.5]
    yield "n2-duplicate", 2, [(1, 0), (0, 1)], [0.5, -0.25]
    pairs = draw_er_pairs(20_000, 10.0, rng)
    yield "er-2e4", 20_000, pairs, rng.standard_normal(pairs.shape[0])
    pairs = draw_er_pairs(3000, 12.0, rng)
    sims = rng.random(pairs.shape[0])
    knn = sparsify_knn(build_graph(3000, pairs, sims), sims, k=3)
    yield "sparsify-knn", 3000, knn.pairs, knn.pair_weights()


LAYOUT_CASES = [(name, n, *canonical_pairs(n, pairs, weights))
                for name, n, pairs, weights in _layout_cases()]


def _csr_products(g, x):
    """B.x, B^T.x and the pooled vector computed on the (src, dst) layout
    by the CSR formulas, returned in g's half-edge order."""
    order, tw = lexsort_layout(g)
    src, dst, w, xc = g.src[order], g.dst[order], g.weight[order], x[order]
    incoming = w * xc[tw]
    fwd = np.bincount(src, weights=incoming, minlength=g.n)[src] - incoming
    back = w * (np.bincount(src, weights=xc, minlength=g.n)[dst] - xc[tw])
    out, out_t = np.empty_like(x), np.empty_like(x)
    out[order], out_t[order] = fwd, back
    return out, out_t, np.bincount(dst, weights=w * xc, minlength=g.n)


LAYOUT_IDS = [c[0] for c in LAYOUT_CASES]
LAYOUT_ARGS = [c[1:] for c in LAYOUT_CASES]
# at most 2000 input pairs: 2m <= 4000, within the dense oracle's reach
DENSE_CASES = [c for c in LAYOUT_CASES if len(c[2]) <= 2000]


class TestBuildGraphLayout:
    """Half-edge p is lo_p -> hi_p and m + p its reverse, over the distinct
    pairs (lo, hi), lo < hi, in key order lo * n + hi."""

    @pytest.mark.parametrize("n,pairs,weights", LAYOUT_ARGS, ids=LAYOUT_IDS)
    def test_pair_major_layout(self, n, pairs, weights):
        g = build_graph(n, pairs, weights)
        assert g.n == n
        want = {
            "pairs": pairs,
            "src": np.concatenate([pairs[:, 0], pairs[:, 1]]),
            "dst": np.concatenate([pairs[:, 1], pairs[:, 0]]),
            "weight": np.concatenate([weights, weights]),
        }
        for field, value in want.items():
            got = getattr(g, field)
            assert got.dtype == value.dtype, field
            assert np.array_equal(got, value), field
        assert np.array_equal(g.pair_weights(), weights)

    @pytest.mark.parametrize("n,pairs,weights", LAYOUT_ARGS, ids=LAYOUT_IDS)
    def test_matches_lexsort_reference(self, n, pairs, weights):
        """The init draws in half-edge order, which is the lexsort order of
        (direction, lo, hi): with no label revealed, its messages in that
        order are the rng's draws."""
        g = build_graph(n, pairs, weights)
        data = LabeledDataset(truth=np.ones(n, dtype=np.int64),
                              revealed=np.zeros(n, dtype=bool), n=n, q=2)
        values = init_messages(g, data, np.random.default_rng(n)).values
        draws = 1 - 2 * np.random.default_rng(n).integers(0, 2, size=g.num_half_edges)
        lo, hi = np.minimum(g.src, g.dst), np.maximum(g.src, g.dst)
        order = np.lexsort((hi, lo, g.src > g.dst))
        assert values.dtype == np.float64
        assert np.array_equal(values[order], draws)

    @pytest.mark.parametrize(
        "n,pairs,weights", [c[1:] for c in DENSE_CASES], ids=[c[0] for c in DENSE_CASES]
    )
    def test_operators_match_dense_oracle(self, n, pairs, weights):
        g = build_graph(n, pairs, weights)
        x = np.random.default_rng(n).standard_normal(g.num_half_edges)
        B = dense_nb_matrix(g)
        incidence = np.where(g.dst[None, :] == np.arange(n)[:, None], g.weight[None, :], 0.0)
        for got, want in ((nb_multiply(g, x), B @ x), (nb_multiply_t(g, x), B.T @ x),
                          (pool(g, MessageState(x)), incidence @ x)):
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n,pairs,weights", LAYOUT_ARGS, ids=LAYOUT_IDS)
    def test_key_ordered_pairs_bit_identical_to_csr(self, n, pairs, weights):
        """The pairs are stored as (lo, hi), lo < hi, in key order, so each
        node's terms are added in the CSR order."""
        g = build_graph(n, pairs, weights)
        key = g.pairs[:, 0] * np.int64(n) + g.pairs[:, 1]
        assert np.all(g.pairs[:, 0] < g.pairs[:, 1]) and np.all(np.diff(key) > 0)
        x = np.random.default_rng(5).standard_normal(g.num_half_edges)
        out, out_t, pooled = _csr_products(g, x)
        assert np.array_equal(nb_multiply(g, x), out)
        assert np.array_equal(nb_multiply_t(g, x), out_t)
        assert np.array_equal(pool(g, MessageState(x)), pooled)

    def test_cases_cover_duplicates_and_isolated_nodes(self):
        graphs = {name: build_graph(*args) for name, *args in LAYOUT_CASES}
        assert graphs["n2-duplicate"].num_pairs == 1
        assert np.any(graphs["isolated-nodes"].degrees() == 0)
        assert graphs["empty"].num_half_edges == 0


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
        g = build_graph(3, [(0, 1), (0, 2), (1, 2)], [1.0, 1.0, 1.0])
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


class TestGrowthBound:
    def test_is_largest_incoming_abs_weight_sum(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(2, 13)))
            per_node = [sum(abs(g.weight[e]) for e in range(g.num_half_edges) if g.dst[e] == i)
                        for i in range(g.n)]
            assert g.growth_bound == pytest.approx(max(per_node), rel=1e-12)
            assert np.abs(dense_nb_matrix(g)).sum(1).max() <= g.growth_bound * (1 + 1e-12)

    def test_new_weights_get_their_own_bound(self):
        rng = np.random.default_rng(47)
        g = random_graph(rng, 10)
        w = g.pair_weights()
        assert g.with_pair_weights(2 * w).growth_bound == 2 * g.growth_bound
        assert g.with_pair_weights(w).growth_bound == g.growth_bound

    def test_empty_graph(self):
        assert build_graph(3, np.empty((0, 2)), []).growth_bound == 0.0


class TestMessageState:
    def test_advance_keeps_raw_product_while_bound_allows(self):
        rng = np.random.default_rng(53)
        g = random_graph(rng, 10)
        x = rng.choice([-1.0, 1.0], g.num_half_edges)
        state = MessageState(x, bound=1.0)
        for k in range(1, 4):
            raw = nb_multiply(g, state.values)
            state = apply_nb(g, state)
            assert np.array_equal(state.values, raw)
            assert state.bound == pytest.approx(g.growth_bound ** k)
            assert (state.iteration, state.unscanned, state.log_scale) == (k, k, 0.0)

    def test_advance_rescales_when_bound_leaves_range_or_cap_is_hit(self):
        x = np.array([3.0, -4.0])
        for bound, growth in ((1.0, 2.0**501), (1.0, 2.0**-501), (np.inf, 1.0), (0.0, 1.0)):
            out = MessageState(x, bound=bound).advance(x, growth)
            assert np.array_equal(out.values, [0.75, -1.0]) and out.log_scale == np.log(4.0)
            assert (out.bound, out.unscanned, out.iteration) == (1.0, 0, 1)
        state = MessageState(x, bound=1.0)
        for k in range(1, 32):
            state = state.advance(x, 1.0)
            assert state.unscanned == k and state.log_scale == 0.0
        state = state.advance(x, 1.0)
        assert state.unscanned == 0 and state.log_scale == np.log(4.0)

    def test_copy_keeps_bound_and_count(self):
        state = MessageState(np.ones(4), 3, 0.5, 2.0, 3)
        c = state.copy()
        assert c.values is not state.values and np.array_equal(c.values, state.values)
        assert (c.iteration, c.log_scale, c.bound, c.unscanned) == (3, 0.5, 2.0, 3)

    def test_unscaled_overflow_raises(self):
        state = MessageState(np.array([1.0, -1.0, 0.0]), log_scale=800.0)
        with pytest.raises(ValueError, match="not finite"):
            state.unscaled()
        assert np.array_equal(MessageState(np.array([1.0, 0.0]), log_scale=700.0).unscaled(),
                              [np.exp(700.0), 0.0])


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
        g = build_graph(3, [(0, 1), (0, 2), (1, 2)], [1.0, 1.0, 1.0])
        B = dense_nb_matrix(g)
        assert np.all(B.sum(axis=1) == 1) and np.all((B == 0) | (B == 1))

    def test_structural_brute_force_n8(self):
        """Row e is nonzero exactly at half-edges departing dst(e),
        excluding the twin."""
        rng = np.random.default_rng(23)
        g = random_graph(rng, 8)
        B = dense_nb_matrix(g)
        t = twin(g)
        for e in range(g.num_half_edges):
            for f in range(g.num_half_edges):
                expected = g.weight[f] if (g.dst[f] == g.src[e] and f != t[e]) else 0.0
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
