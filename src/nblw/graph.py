"""Sparse weighted similarity graphs stored as directed half-edges.

Every sampled undirected pair (i, j) is materialized as the two directed
half-edges i->j and j->i, grouped contiguously by source node, with a
precomputed ``twin`` index mapping each half-edge to its reverse
orientation.  This layout makes one application of the non-backtracking
operator cost O(half_edges): the weighted sum of incoming messages is
accumulated once per node and the single backtracking term is subtracted
per half-edge, instead of re-scanning each neighborhood per edge.

Messages (one real value per half-edge) are carried in a
:class:`MessageState`, which also accumulates the logarithm of the
positive rescaling factors applied after each operator application.
Message magnitudes grow geometrically with the iteration count, and the
final cluster decision is a sign, so dividing by the max-absolute value
each step changes nothing downstream while keeping float64 safe.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "WeightedGraph",
    "MessageState",
    "build_graph",
    "center_weights",
    "nb_multiply",
    "nb_multiply_t",
    "apply_nb",
    "apply_nb_transpose",
    "dense_nb_matrix",
    "pool",
]


# Largest n with n * n - 1 < 2**63: the (src, dst) keys src * n + dst fit int64.
MAX_NODES = 3_037_000_499


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph in half-edge (directed arc) form.

    Attributes
    ----------
    n : int
        Number of nodes.
    src, dst : int64 arrays, shape (2m,)
        Endpoints of each half-edge, sorted lexicographically by
        (src, dst) so the out-edges of a node are contiguous.
    weight : float64 array, shape (2m,)
        Weight per half-edge; ``weight[e] == weight[twin[e]]``.
    twin : int64 array, shape (2m,)
        Index of the reverse half-edge; an involution.
    node_offsets : int64 array, shape (n + 1,)
        CSR pointers: the out-edges of node u are the half-edges in
        ``[node_offsets[u], node_offsets[u + 1])``.
    pair_id : int64 array, shape (2m,)
        Index of the undirected pair each half-edge came from, aligned
        with the (deduplicated) ``pairs`` array.
    pairs : int64 array, shape (m, 2)
        Accepted undirected pairs, in first-occurrence input order.
    duplicates_dropped : int
        Number of duplicate input pairs silently discarded at build time.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    twin: np.ndarray
    node_offsets: np.ndarray
    pair_id: np.ndarray
    pairs: np.ndarray
    duplicates_dropped: int = 0

    @property
    def num_half_edges(self) -> int:
        return self.src.shape[0]

    @property
    def num_pairs(self) -> int:
        return self.pairs.shape[0]

    def degrees(self) -> np.ndarray:
        """Out-degree (= undirected degree) per node."""
        return np.diff(self.node_offsets)

    def pair_weights(self) -> np.ndarray:
        """Weight per undirected pair, aligned with ``pairs``."""
        w = np.empty(self.num_pairs)
        w[self.pair_id] = self.weight
        return w

    def with_pair_weights(self, pair_weights) -> "WeightedGraph":
        """Same topology with new per-pair weights (O(2m), no re-sort)."""
        pw = np.asarray(pair_weights, dtype=np.float64)
        if pw.shape != (self.num_pairs,):
            raise ValueError(
                f"expected {self.num_pairs} pair weights, got {pw.shape}"
            )
        if not np.all(np.isfinite(pw)):
            raise ValueError("pair weights must be finite")
        return replace(self, weight=pw[self.pair_id])


@dataclass
class MessageState:
    """One real message per half-edge plus accumulated rescale log-factor.

    The true (unrescaled) messages are ``values * exp(log_scale)``.
    """

    values: np.ndarray
    iteration: int = 0
    log_scale: float = 0.0

    def advance(self, values: np.ndarray) -> "MessageState":
        """The next state from the raw operator product ``values``, divided
        by its max-absolute value, whose log is added to ``log_scale``.
        A NaN or infinite message raises ValueError."""
        scale = np.max(np.abs(values)) if values.size else 0.0
        if not np.isfinite(scale):
            raise ValueError(f"non-finite message after iteration {self.iteration + 1}")
        log_scale = self.log_scale
        if scale > 0.0:
            values = values / scale
            log_scale += np.log(scale)
        return MessageState(values, self.iteration + 1, log_scale)

    def unscaled(self) -> np.ndarray:
        # exp(log_scale) overflows after enough growth steps; meant for
        # moment analysis at small iteration counts, not long runs
        return self.values * np.exp(self.log_scale)

    def copy(self) -> "MessageState":
        return MessageState(self.values.copy(), self.iteration, self.log_scale)


def build_graph(n, pairs, weights) -> WeightedGraph:
    """Build a half-edge graph from undirected pairs and one weight each.

    Self-loops are rejected.  Duplicate pairs (in either orientation) are
    deduplicated keeping the first occurrence; the count of dropped pairs
    is recorded on the graph.

    Parameters
    ----------
    n : int
        Node count; endpoints must lie in [0, n).
    pairs : array-like of shape (m, 2)
    weights : array-like of shape (m,)
    """
    n = int(n)
    if n <= 0:
        raise ValueError("n must be positive")
    if n > MAX_NODES:
        raise ValueError(f"n = {n} exceeds {MAX_NODES}: int64 pair keys would overflow")
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if pairs.shape[0] != weights.shape[0]:
        raise ValueError(
            f"{pairs.shape[0]} pairs but {weights.shape[0]} weights"
        )
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ValueError("pair endpoint out of range [0, n)")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise ValueError("self-loops are not allowed")

    # Dedup on the canonical (min, max) key, keeping first occurrences in
    # input order so caller-side per-pair arrays stay aligned.
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    key = lo * np.int64(n) + hi
    _, first = np.unique(key, return_index=True)
    dropped = pairs.shape[0] - first.shape[0]
    if dropped:
        first.sort()
        pairs = pairs[first]
        weights = weights[first]
    m = pairs.shape[0]

    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    weight = np.concatenate([weights, weights])
    pair_id = np.concatenate([np.arange(m), np.arange(m)])

    order = np.lexsort((dst, src))
    src, dst, weight, pair_id = src[order], dst[order], weight[order], pair_id[order]

    # (src, dst) keys are sorted, so the twin is found by binary search.
    ekey = src * np.int64(n) + dst
    twin = np.searchsorted(ekey, dst * np.int64(n) + src)
    node_offsets = np.searchsorted(src, np.arange(n + 1))

    return WeightedGraph(
        n=n,
        src=src,
        dst=dst,
        weight=weight,
        twin=twin,
        node_offsets=node_offsets,
        pair_id=pair_id,
        pairs=pairs,
        duplicates_dropped=int(dropped),
    )


def center_weights(similarities) -> np.ndarray:
    """Subtract the empirical mean: w_i = s_i - mean(s).

    Centering removes the uninformative common mode of the similarities;
    the output sums to zero up to rounding.
    """
    s = np.asarray(similarities, dtype=np.float64)
    if s.size == 0:
        raise ValueError("cannot center an empty similarity list")
    if not np.all(np.isfinite(s)):
        raise ValueError("similarities must be finite")
    return s - s.mean()


def _check_size(g: WeightedGraph, x: np.ndarray):
    if x.shape != (g.num_half_edges,):
        raise ValueError(
            f"message vector has shape {x.shape}, graph has "
            f"{g.num_half_edges} half-edges"
        )


def nb_multiply(g: WeightedGraph, x: np.ndarray) -> np.ndarray:
    """Raw non-backtracking operator product B.x (no rescaling).

    out(i->j) = sum over l in neighbors(i) \\ {j} of w_il * x(l->i),
    computed as the full incoming sum at i minus the backtracking term.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_size(g, x)
    incoming = g.weight * x[g.twin]  # on out-edge (i->l): w_il * x(l->i)
    totals = np.bincount(g.src, weights=incoming, minlength=g.n)
    return totals[g.src] - incoming


def nb_multiply_t(g: WeightedGraph, x: np.ndarray) -> np.ndarray:
    """Raw transposed product B^T.x (no rescaling).

    out(k->l) = w_kl * sum over j in neighbors(l) \\ {k} of x(l->j).
    """
    x = np.asarray(x, dtype=np.float64)
    _check_size(g, x)
    totals = np.bincount(g.src, weights=x, minlength=g.n)
    return g.weight * (totals[g.dst] - x[g.twin])


def apply_nb(g: WeightedGraph, v: MessageState) -> MessageState:
    """One non-backtracking update of a message state, rescaled by
    :meth:`MessageState.advance`."""
    return v.advance(nb_multiply(g, v.values))


def apply_nb_transpose(g: WeightedGraph, v: MessageState) -> MessageState:
    """One update with the transposed operator; see :func:`apply_nb`."""
    return v.advance(nb_multiply_t(g, v.values))


def dense_nb_matrix(g: WeightedGraph) -> np.ndarray:
    """Dense 2m x 2m non-backtracking matrix (test oracle, small graphs).

    Entry [(i->j), (k->l)] is w_kl when l == i and k != j, else 0.
    """
    two_m = g.num_half_edges
    if two_m > 4000:
        raise ValueError(f"graph too large for the dense oracle (2m={two_m})")
    rows = np.arange(two_m)
    cont = g.dst[None, :] == g.src[:, None]        # column ends where row starts
    not_twin = rows[None, :] != g.twin[:, None]     # and is not the reversal
    return np.where(cont & not_twin, g.weight[None, :], 0.0)


def pool(g: WeightedGraph, v: MessageState) -> np.ndarray:
    """Aggregate messages per node: pooled_i = sum_l w_il * v(l->i).

    Isolated nodes pool to 0.  The pooled vector inherits whatever scale
    the message state carries; sign decisions are unaffected.
    """
    _check_size(g, v.values)
    return np.bincount(g.dst, weights=g.weight * v.values, minlength=g.n)
