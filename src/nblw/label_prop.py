"""Label propagation baseline (harmonic iteration with clamped labels).

Revealed nodes are clamped to one-hot score rows; unlabeled rows are
repeatedly replaced by the similarity-weighted average of their
neighbors' rows (Jacobi sweeps, so updates within a sweep are order
independent) until the scores stop moving.  Propagation runs on the raw
nonnegative similarities, optionally after pruning the graph to each
node's top-k most similar neighbors.
"""

from __future__ import annotations

import warnings

import numpy as np

from .graph import WeightedGraph, build_graph
from .model import LabeledDataset

__all__ = ["ConvergenceWarning", "sparsify_knn", "propagate_scores", "label_propagation"]


class ConvergenceWarning(UserWarning):
    """Label propagation reached its sweep cap before its tolerance."""


def sparsify_knn(
    g: WeightedGraph, similarities, k: int = 3, mode: str = "union"
) -> WeightedGraph:
    """Keep, per node, the edges to its k most similar neighbors.

    ``similarities`` are the raw per-pair values (ranking uses these, not
    whatever weights the graph currently carries).  With ``mode="union"``
    an edge survives if either endpoint ranks it in its own top k; with
    ``mode="mutual"`` both endpoints must.  Ties rank the lower neighbor
    index first.  Nodes of degree <= k keep all their edges (union mode).
    """
    sims = np.asarray(similarities, dtype=np.float64)
    if sims.shape != (g.num_pairs,):
        raise ValueError(f"expected {g.num_pairs} per-pair similarities")
    if mode not in ("union", "mutual"):
        raise ValueError(f"unknown mode {mode!r}")

    s_edge = sims[g.pair_id]
    # rank within each source block: sort by (src asc, sim desc, dst asc)
    order = np.lexsort((g.dst, -s_edge, g.src))
    rank = np.empty(g.num_half_edges, dtype=np.int64)
    rank[order] = np.arange(g.num_half_edges) - np.repeat(
        g.node_offsets[:-1], np.diff(g.node_offsets)
    )
    chosen = rank < k
    keep_edge = (chosen | chosen[g.twin]) if mode == "union" else (chosen & chosen[g.twin])

    keep_pair = np.zeros(g.num_pairs, dtype=bool)
    keep_pair[g.pair_id[keep_edge]] = True
    return build_graph(g.n, g.pairs[keep_pair], g.pair_weights()[keep_pair])


def propagate_scores(
    g: WeightedGraph,
    data: LabeledDataset,
    tol: float = 1e-6,
    max_iter: int = 1000,
):
    """Run the clamped harmonic iteration; returns (scores, deltas).

    ``scores`` is the final (n, q) score matrix, ``deltas`` the max
    score change of the unclamped rows after each sweep.
    """
    if not data.revealed.any():
        raise ValueError("label propagation needs at least one revealed label")
    if np.any(g.weight < 0):
        raise ValueError("label propagation needs nonnegative weights")

    q = data.q
    cls = data.class_indices()
    clamped = np.zeros((g.n, q))
    clamped[data.revealed, cls[data.revealed]] = 1.0

    denom = np.bincount(g.dst, weights=g.weight, minlength=g.n)
    reachable = denom > 0
    free = ~data.revealed & reachable

    scores = clamped.copy()
    deltas = []
    for _ in range(max_iter):
        nxt = np.empty_like(scores)
        for c in range(q):
            nxt[:, c] = np.bincount(
                g.dst, weights=g.weight * scores[g.src, c], minlength=g.n
            )
        nxt[reachable] /= denom[reachable, None]
        nxt[~free] = clamped[~free]
        delta = float(np.max(np.abs(nxt[free] - scores[free]))) if free.any() else 0.0
        deltas.append(delta)
        scores = nxt
        if delta < tol:
            break
    return scores, deltas


def label_propagation(
    g: WeightedGraph,
    data: LabeledDataset,
    tol: float = 1e-6,
    max_iter: int = 1000,
) -> np.ndarray:
    """Propagate revealed labels over nonnegative edge weights.

    Returns assignments in the dataset's encoding (+-1 for q == 2).
    Unlabeled nodes that no label reached keep an all-zero score row
    (isolated nodes, nodes whose edges all weigh zero, label-free
    components) and fall back to the most frequent revealed class;
    score ties resolve to the lowest class index, which for q == 2 is the
    +1 class (the same tie direction as the sign decision of the walk).
    Stopping at ``max_iter`` before a sweep moved the scores by less than
    ``tol`` emits a :class:`ConvergenceWarning`.
    """
    scores, deltas = propagate_scores(g, data, tol=tol, max_iter=max_iter)
    if not deltas or deltas[-1] >= tol:
        warnings.warn(f"label propagation stopped at max_iter={max_iter} before a "
                      f"sweep changed the scores by less than tol={tol:g}",
                      ConvergenceWarning, stacklevel=2)
    cls = data.class_indices()
    out_cls = scores.argmax(axis=1)
    majority = int(np.bincount(cls[data.revealed], minlength=data.q).argmax())
    out_cls[~data.revealed & (scores.max(axis=1) == 0)] = majority

    if data.q == 2:
        return (1 - 2 * out_cls).astype(np.int64)
    return out_cls.astype(np.int64)
