"""Shared helpers: random graph generation, canonical test pairs, the
reference (src, dst) layout, dense-oracle chaining, BFS restriction for
locality checks, and ensemble moment collection."""

import numpy as np

from nblw import (
    MessageState,
    ModelSpec,
    WeightedGraph,
    apply_nb,
    build_graph,
    center_weights,
    make_instance,
)


def random_graph(rng, n, p=0.4, w_low=-1.0, w_high=1.0):
    """Erdos-Renyi test graph with uniform nonzero weights; >= 1 edge."""
    while True:
        mask = rng.random((n, n)) < p
        ii, jj = np.triu_indices(n, k=1)
        keep = mask[ii, jj]
        pairs = np.column_stack([ii[keep], jj[keep]])
        if pairs.shape[0] >= 1:
            break
    weights = rng.uniform(w_low, w_high, pairs.shape[0])
    weights[weights == 0] = 0.5
    return build_graph(n, pairs, weights)


def canonical_pairs(n, pairs, weights):
    """Test input in build_graph's canonical form: every distinct pair of
    ``pairs`` once, as (lo, hi) with lo < hi in key order lo * n + hi, with
    its first occurrence's weight."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    _, first = np.unique(lo * np.int64(n) + hi, return_index=True)
    return np.column_stack([lo[first], hi[first]]), weights[first]


def lexsort_layout(g: WeightedGraph):
    """Reference (src, dst) layout of g's half-edges: the lexsort
    permutation ``order`` and, in that order, each half-edge's reverse by
    binary search."""
    order = np.lexsort((g.dst, g.src))
    src, dst = g.src[order], g.dst[order]
    ekey = src * np.int64(g.n) + dst
    return order, np.searchsorted(ekey, dst * np.int64(g.n) + src)


def twin(g: WeightedGraph) -> np.ndarray:
    """Index of each half-edge's reverse: (e + m) mod 2m."""
    return (np.arange(g.num_half_edges) + g.num_pairs) % g.num_half_edges


def chained_unscaled(g, x, k):
    """k rescaled operator applications with the scale folded back out."""
    state = MessageState(np.asarray(x, dtype=np.float64).copy())
    for _ in range(k):
        state = apply_nb(g, state)
    return state.unscaled()


def bfs_distances(g: WeightedGraph, start: int) -> np.ndarray:
    out_edges = np.argsort(g.src, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(g.degrees())])
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[start] = 0
    frontier = [start]
    d = 0
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.dst[out_edges[offsets[u]:offsets[u + 1]]]:
                if dist[v] < 0:
                    dist[v] = d + 1
                    nxt.append(int(v))
        frontier = nxt
        d += 1
    return dist


def restrict_to_ball(g: WeightedGraph, center: int, hops: int):
    """Keep only pairs whose nearer endpoint is within ``hops`` of center.

    Every message the walk can route into ``center`` within ``hops``
    iterations lives on such a pair.
    """
    dist = bfs_distances(g, center)
    d = np.where(dist < 0, np.iinfo(np.int64).max, dist)
    keep = np.minimum(d[g.pairs[:, 0]], d[g.pairs[:, 1]]) <= hops
    sub = build_graph(g.n, g.pairs[keep], g.pair_weights()[keep])
    return sub, keep


def transfer_messages(g_from: WeightedGraph, values, g_to: WeightedGraph):
    """Carry per-half-edge values across graphs sharing (src, dst) keys."""
    key_from = g_from.src * np.int64(g_from.n) + g_from.dst
    key_to = g_to.src * np.int64(g_to.n) + g_to.dst
    order = np.argsort(key_from)
    idx = order[np.searchsorted(key_from, key_to, sorter=order)]
    assert np.array_equal(key_from[idx], key_to), "subgraph edge missing in source"
    return np.asarray(values)[idx]


def conditional_message_moments(spec: ModelSpec, l_max: int, algo_seed: int):
    """First/second moments of sign-aligned messages on one instance.

    Returns arrays (l_max+1,) of mean(truth_src * v^(l)) and
    mean(v^(l)^2) with the rescale factor folded out, l = 0..l_max.
    """
    from nblw.binary import init_messages

    g, sims, data = make_instance(spec)
    g = g.with_pair_weights(center_weights(sims))
    rng = np.random.default_rng(algo_seed)
    state = init_messages(g, data, rng)
    sign = data.truth[g.src].astype(np.float64)
    m1 = np.empty(l_max + 1)
    m2 = np.empty(l_max + 1)
    for l in range(l_max + 1):
        v = state.unscaled()
        m1[l] = float(np.mean(sign * v))
        m2[l] = float(np.mean(v**2))
        if l < l_max:
            state = apply_nb(g, state)
    return m1, m2
