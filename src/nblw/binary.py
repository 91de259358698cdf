"""Two-cluster non-backtracking local walk.

Initialize one message per directed edge from the revealed labels
(unrevealed sources get i.i.d. +-1), iterate the non-backtracking update
k_max times, pool incoming messages per node, negate the pooled vector if
it disagrees with the revealed labels on balance, and label each node by
the sign of its pooled value.  The one-vs-rest init here also starts the
multi-cluster walk, and :func:`accuracy` scores the labels of both.
"""

from __future__ import annotations

import itertools

import numpy as np

from .graph import MessageState, WeightedGraph, apply_nb, pool
from .model import LabeledDataset

__all__ = [
    "init_messages",
    "power_iterate",
    "run_binary",
    "accuracy",
    "match_labels",
    "DEFAULT_KMAX",
]

# Iteration budget used by the experiment harness when none is given.
DEFAULT_KMAX = 30


def _one_vs_rest(g: WeightedGraph, data: LabeledDataset, classes, rng) -> np.ndarray:
    """The one-vs-rest initializations of ``classes``, one row each: out-edges
    of revealed class-c nodes get +1, out-edges of other revealed nodes -1,
    the rest i.i.d. +-1.  Rows draw from ``rng`` in turn, in half-edge
    order, which follows the pairs in key order, the only order
    :func:`~nblw.graph.build_graph` accepts."""
    from_revealed = data.revealed[g.src]
    src_cls = data.class_indices()[g.src[from_revealed]]
    X = np.empty((len(classes), g.num_half_edges))
    for row, c in zip(X, classes):
        if not 0 <= c < data.q:
            raise ValueError(f"class index {c} out of range for q={data.q}")
        # 1 - 2 * draw, made in place to keep one 2m temporary fewer
        np.multiply(rng.integers(0, 2, size=g.num_half_edges), -2.0, out=row)
        row += 1.0
        row[from_revealed] = np.where(src_cls == c, 1.0, -1.0)
    return X


def init_messages(g: WeightedGraph, data: LabeledDataset, rng) -> MessageState:
    """Messages out of a revealed node carry its +-1 label; others are
    i.i.d. Rademacher, independently per half-edge.

    This is the one-vs-rest initialization of class 0 (the +1 class);
    its max-abs bound is 1."""
    if data.q != 2:
        raise ValueError("binary walk needs q == 2 with +-1 labels")
    return MessageState(_one_vs_rest(g, data, [0], rng)[0], bound=1.0)


def power_iterate(g: WeightedGraph, state: MessageState, k_max: int) -> MessageState:
    """Apply the non-backtracking update k_max times by :func:`apply_nb`,
    which rescales only when the state's growth bound requires it, and
    end on one max-absolute rescale if the last steps went unscanned.
    For k_max > 0 the messages returned have max-abs 1 (unless all are
    0), and a NaN or infinite message raises ValueError."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    for _ in range(k_max):
        state = apply_nb(g, state)
    return state.rescaled() if state.unscanned else state


def align_to_labels(pooled: np.ndarray, data: LabeledDataset) -> np.ndarray:
    """``pooled``, negated if sum over revealed i of pooled_i * label_i < 0:
    from few labels, the random messages out of unrevealed nodes can win
    and give the mirror labelling.  The check is global, so it stays out
    of :func:`decide`, whose decision at a node is local."""
    if pooled[data.revealed] @ data.truth[data.revealed] < 0.0:
        return -pooled
    return pooled


def decide(g: WeightedGraph, pooled: np.ndarray, data: LabeledDataset) -> np.ndarray:
    """Sign decision with deterministic ties: sign(0) -> +1.

    Isolated nodes pool to 0; when such a node is revealed we output its
    known label instead of the tie value.  A NaN or infinite pooled value
    raises ValueError instead of becoming a label.
    """
    if not np.all(np.isfinite(pooled)):
        raise ValueError("pooled values must be finite")
    est = np.where(pooled >= 0.0, 1, -1).astype(np.int64)
    # an isolated node pools to exactly 0, so only revealed zeros need
    # the degree count
    fix = data.revealed & (pooled == 0.0)
    if fix.any():
        fix &= g.degrees() == 0
        est[fix] = data.truth[fix]
    return est


def run_binary(g: WeightedGraph, data: LabeledDataset, k_max: int = DEFAULT_KMAX, rng=None):
    """Full two-cluster pipeline; returns (assignments, pooled vector),
    the pooled vector aligned with the revealed labels by
    :func:`align_to_labels`.

    Assignments are reported for every node, labeled ones included
    (messages are initialized from the labels but never clamped back).
    """
    if rng is None:
        rng = np.random.default_rng()
    state = init_messages(g, data, rng)
    state = power_iterate(g, state, k_max)
    pooled = align_to_labels(pool(g, state), data)
    return decide(g, pooled, data), pooled


def accuracy(est, truth, scope: str = "all", revealed=None) -> float:
    """Fraction of agreeing labels, in any encoding.

    Any revealed label names the clusters, and the pipelines align their
    output with the revealed labels, so then the raw agreement is
    returned.  With none revealed the clusters are named only up to a
    relabelling, and the best agreement over relabellings of ``est`` is
    returned: :func:`match_labels` on the labels as indices into their
    sorted distinct values (for +-1 labels, the better of ``est`` and its
    global sign flip).  ``scope`` restricts to ``"all"`` or
    ``"unlabeled"`` nodes; an empty scope gives nan.
    """
    est = np.asarray(est)
    truth = np.asarray(truth)
    if est.shape != truth.shape:
        raise ValueError("est and truth must have equal length")
    if revealed is None:
        revealed = np.zeros(est.shape, dtype=bool)
    revealed = np.asarray(revealed, dtype=bool)
    if scope == "all":
        keep = np.ones(est.shape, dtype=bool)
    elif scope == "unlabeled":
        keep = ~revealed
    else:
        raise ValueError(f"unknown scope {scope!r}")
    if not keep.any():
        return float("nan")
    if revealed.any():
        return float(np.mean(est[keep] == truth[keep]))
    # est and truth as indices into their joint sorted values
    _, index = np.unique(np.concatenate([est[keep], truth[keep]]), return_inverse=True)
    return match_labels(*np.split(index, 2))[0]


def match_labels(est, truth):
    """Best accuracy over relabelings of ``est`` (labels in 0..q-1).

    Exhaustive over permutations for q <= 6, Hungarian assignment on the
    confusion matrix above.  Returns (accuracy, permutation) where
    permutation[c] is the truth label assigned to est label c.
    """
    est = np.asarray(est, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if est.shape != truth.shape:
        raise ValueError("est and truth must have equal length")
    if est.min(initial=0) < 0 or truth.min(initial=0) < 0:
        raise ValueError("labels must be class indices 0..q-1, not +-1")
    q = int(max(est.max(), truth.max())) + 1
    confusion = np.bincount(est * q + truth, minlength=q * q).reshape(q, q)
    if q <= 6:
        best_perm, best_hits = None, -1
        for perm in itertools.permutations(range(q)):
            hits = int(confusion[np.arange(q), perm].sum())
            if hits > best_hits:
                best_perm, best_hits = perm, hits
    else:
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(confusion, maximize=True)
        perm = np.empty(q, dtype=np.int64)
        perm[rows] = cols
        best_perm, best_hits = tuple(perm), int(confusion[rows, cols].sum())
    return best_hits / est.shape[0], best_perm
