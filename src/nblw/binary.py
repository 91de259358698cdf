"""Two-cluster non-backtracking local walk.

Initialize one message per directed edge from the revealed labels
(unrevealed sources get i.i.d. +-1), iterate the non-backtracking update
k_max times, pool incoming messages per node, and label each node by the
sign of its pooled value.
"""

from __future__ import annotations

import numpy as np

from .graph import MessageState, WeightedGraph, apply_nb, pool
from .model import LabeledDataset
from .multiclass import init_messages_class

__all__ = [
    "init_messages",
    "power_iterate",
    "run_binary",
    "accuracy",
    "DEFAULT_KMAX",
]

# Iteration budget used by the experiment harness when none is given.
DEFAULT_KMAX = 30


def init_messages(g: WeightedGraph, data: LabeledDataset, rng) -> MessageState:
    """Messages out of a revealed node carry its +-1 label; others are
    i.i.d. Rademacher, independently per half-edge.

    This is the one-vs-rest initializer for class 0 (the +1 class)."""
    if data.q != 2:
        raise ValueError("binary walk needs q == 2 with +-1 labels")
    return init_messages_class(g, data, 0, rng)


def power_iterate(g: WeightedGraph, state: MessageState, k_max: int) -> MessageState:
    """Apply the non-backtracking update k_max times."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    for _ in range(k_max):
        state = apply_nb(g, state)
    return state


def decide(g: WeightedGraph, pooled: np.ndarray, data: LabeledDataset) -> np.ndarray:
    """Sign decision with deterministic ties: sign(0) -> +1.

    Isolated nodes pool to 0; when such a node is revealed we output its
    known label instead of the tie value.  A NaN or infinite pooled value
    raises ValueError instead of becoming a label.
    """
    if not np.all(np.isfinite(pooled)):
        raise ValueError("pooled values must be finite")
    est = np.where(pooled >= 0.0, 1, -1).astype(np.int64)
    isolated = g.degrees() == 0
    fix = isolated & data.revealed
    est[fix] = data.truth[fix]
    return est


def run_binary(g: WeightedGraph, data: LabeledDataset, k_max: int = DEFAULT_KMAX, rng=None):
    """Full two-cluster pipeline; returns (assignments, pooled vector).

    Assignments are reported for every node, labeled ones included
    (messages are initialized from the labels but never clamped back).
    """
    if rng is None:
        rng = np.random.default_rng()
    state = init_messages(g, data, rng)
    state = power_iterate(g, state, k_max)
    pooled = pool(g, state)
    return decide(g, pooled, data), pooled


def accuracy(est, truth, scope: str = "all", revealed=None) -> float:
    """Fraction of agreeing labels for +-1 assignments.

    With no revealed labels the two clusters are only identifiable up to
    a global sign flip, so the flip maximizing agreement is taken; any
    revealed label breaks that symmetry and the raw agreement is
    returned.  ``scope`` restricts to ``"all"`` or ``"unlabeled"`` nodes.
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
        return 1.0
    agree = float(np.mean(est[keep] == truth[keep]))
    if not revealed.any():
        return max(agree, 1.0 - agree)
    return agree
