"""Label propagation baseline: the clamped harmonic solution.

Revealed nodes are clamped to one-hot score rows Y_L.  The free nodes
(unrevealed, with positive weighted degree) take the harmonic solution of
Zhu, Ghahramani & Lafferty (ICML 2003), L_FF X_F = W_FL Y_L, where
L = D - W is the graph Laplacian of the raw nonnegative similarities: each
free row is the similarity-weighted average of its neighbors' rows.  The
system is solved by conjugate gradients with the Jacobi preconditioner
D^-1, the q classes side by side: one contiguous row of free-node scores
per class, stepped together.  Free nodes in components without a label
have a zero right-hand side and keep all-zero rows.  The graph may first
be pruned to each node's top-k most similar neighbors.
"""

from __future__ import annotations

import warnings

import numpy as np

from .graph import WeightedGraph, build_graph
from .model import LabeledDataset

__all__ = ["ConvergenceWarning", "sparsify_knn", "propagate_scores", "label_propagation"]


class ConvergenceWarning(UserWarning):
    """An iterative solver stopped at its iteration cap before its
    tolerance: label propagation at ``max_iter``, or the Lloyd run that
    :func:`~nblw.multiclass.kmeans` keeps at its step cap."""


def sparsify_knn(g: WeightedGraph, similarities, k: int = 3) -> WeightedGraph:
    """Keep, per node, the edges to its k most similar neighbors.

    ``similarities`` are the raw per-pair values (ranking uses these, not
    whatever weights the graph currently carries).  An edge survives if
    either endpoint ranks it in its own top k, so nodes of degree <= k keep
    all their edges.  Ties rank the lower neighbor index first.
    """
    sims = np.asarray(similarities, dtype=np.float64)
    if sims.shape != (g.num_pairs,):
        raise ValueError(f"expected {g.num_pairs} per-pair similarities")

    # rank within each source's out-edges: sort by (src asc, sim desc, dst asc)
    order = np.lexsort((g.dst, -np.concatenate([sims, sims]), g.src))
    degree = g.degrees()
    rank = np.empty(g.num_half_edges, dtype=np.int64)
    rank[order] = np.arange(g.num_half_edges) - np.repeat(np.cumsum(degree) - degree, degree)
    # row 0 ranks pair p from pairs[p, 0]'s side, row 1 from pairs[p, 1]'s
    keep_pair = (rank < k).reshape(2, g.num_pairs).any(axis=0)
    return build_graph(g.n, g.pairs[keep_pair], g.pair_weights()[keep_pair])


def propagate_scores(
    g: WeightedGraph,
    data: LabeledDataset,
    tol: float = 1e-6,
    max_iter: int = 1000,
):
    """Solve the clamped harmonic system; returns (scores, deltas).

    ``scores`` is the (n, q) score matrix: one-hot rows for revealed
    nodes, the conjugate-gradient iterate for free nodes, zero rows for the
    rest.  ``deltas[i]`` is max |D^-1 r| over the free nodes and the classes
    after iteration i, r = W_FL Y_L - L_FF X_F being the residual: the
    most that one Jacobi sweep (replacing each free row by its neighbors'
    weighted average) would move a score from that iterate.  The solve
    stops once a delta is below ``tol`` or after ``max_iter`` iterations.

    The iterate, residual and directions are held class-major, one
    contiguous row of the free nodes per class, so every update runs over
    nf values at once.  The product with L_FF gathers and sums one class
    row at a time; its gather and product buffers are allocated once per
    solve, while ``bincount`` returns a fresh row each time.
    """
    if not data.revealed.any():
        raise ValueError("label propagation needs at least one revealed label")
    if np.any(g.weight < 0):
        raise ValueError("label propagation needs nonnegative weights")

    q = data.q
    cls = data.class_indices()
    scores = np.zeros((g.n, q))
    scores[data.revealed, cls[data.revealed]] = 1.0

    degree = np.bincount(g.dst, weights=g.weight, minlength=g.n)
    free = ~data.revealed & (degree > 0)
    nf = int(free.sum())
    d = degree[free]

    # right-hand side W_FL Y_L, one row per class, then the free-to-free
    # edges renumbered
    r = np.empty((q, nf))
    for c in range(q):
        r[c] = np.bincount(g.dst, weights=g.weight * scores[g.src, c], minlength=g.n)[free]
    inner = free[g.src] & free[g.dst]
    index = np.cumsum(free) - 1
    src, dst, weight = index[g.src[inner]], index[g.dst[inner]], g.weight[inner]

    x = np.zeros((q, nf))
    z = r / d
    p = z.copy()
    ap = np.empty((q, nf))
    gathered = np.empty(src.size)
    rz = np.einsum("ij,ij->i", r, z)
    deltas = []
    for _ in range(max_iter):
        # ap = L_FF p = D p - W_FF p, class row by class row
        np.multiply(p, d, out=ap)
        for c in range(q):
            # src is in range; "clip" writes to out without the bounds
            # check's intermediate copy
            np.take(p[c], src, out=gathered, mode="clip")
            gathered *= weight
            ap[c] -= np.bincount(dst, weights=gathered, minlength=nf)
        pap = np.einsum("ij,ij->i", p, ap)
        # a solved class has r = p = 0; its step and direction stay 0
        step = np.divide(rz, pap, out=np.zeros(q), where=pap > 0)[:, None]
        x += step * p
        r -= step * ap
        np.divide(r, d, out=z)
        deltas.append(float(np.abs(z).max(initial=0.0)))
        if deltas[-1] < tol:
            break
        rz_next = np.einsum("ij,ij->i", r, z)
        p *= np.divide(rz_next, rz, out=np.zeros(q), where=rz > 0)[:, None]
        p += z
        rz = rz_next
    scores[free] = x.T
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
    Stopping at ``max_iter`` while a Jacobi sweep from the last iterate
    would still move a score by ``tol`` or more (``deltas[-1] >= tol`` in
    :func:`propagate_scores`) emits a :class:`ConvergenceWarning`.
    """
    scores, deltas = propagate_scores(g, data, tol=tol, max_iter=max_iter)
    if not deltas or deltas[-1] >= tol:
        warnings.warn(f"label propagation stopped at max_iter={max_iter} before its "
                      f"Jacobi residual fell below tol={tol:g}",
                      ConvergenceWarning, stacklevel=2)
    cls = data.class_indices()
    out_cls = scores.argmax(axis=1)
    majority = int(np.bincount(cls[data.revealed], minlength=data.q).argmax())
    out_cls[~data.revealed & (scores.max(axis=1) == 0)] = majority

    if data.q == 2:
        return (1 - 2 * out_cls).astype(np.int64)
    return out_cls.astype(np.int64)
