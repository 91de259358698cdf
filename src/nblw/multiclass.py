"""Multi-cluster walk via deflation-based power iteration.

For q clusters, q - 1 pooled vectors are extracted one class at a time:
initialize messages one-vs-rest from the revealed labels, power-iterate
under the current deflated operator, pool into an embedding column, then
deflate away the direction just extracted.  The n x (q-1) embedding is
clustered with k-means.

The deflated operator never exists as a matrix: each stage stores the
deflation vector v, its image z = B_c v, coimage u = B_c^T v and the
scalar v.z, and applications recurse as
B_{c+1} x = B_c x - z * (u.x) / (v.z).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .graph import MessageState, WeightedGraph, nb_multiply, nb_multiply_t, pool
from .model import LabeledDataset

__all__ = [
    "DeflationError",
    "EmptyClusterWarning",
    "DeflationStack",
    "apply_deflated",
    "apply_deflated_t",
    "init_messages_class",
    "MulticlassResult",
    "run_multiclass",
    "kmeans",
    "match_labels",
]

# Relative floor below which a deflation denominator counts as degenerate.
DENOM_RTOL = 1e-12


class DeflationError(RuntimeError):
    """A deflation stage produced a (near-)zero denominator."""


class EmptyClusterWarning(UserWarning):
    """k-means ended with fewer than q non-empty clusters."""


@dataclass
class _Stage:
    v: np.ndarray       # deflation vector
    z: np.ndarray       # B_c v
    u: np.ndarray       # B_c^T v
    denom: float        # v . z


@dataclass
class DeflationStack:
    """Base graph plus the rank-one corrections accumulated so far."""

    base: WeightedGraph
    stages: list = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.stages)

    def push(self, v: np.ndarray):
        """Record a new deflation stage built from vector v under the
        current deflated operator; raises on a degenerate denominator."""
        v = np.asarray(v, dtype=np.float64)
        z = apply_deflated(self, self.depth, v)
        u = apply_deflated_t(self, self.depth, v)
        denom = float(v @ z)
        floor = DENOM_RTOL * float(np.linalg.norm(v)) * float(np.linalg.norm(z))
        if abs(denom) <= floor:
            raise DeflationError(
                f"deflation stage {self.depth} has degenerate denominator {denom:.3e}"
            )
        self.stages.append(_Stage(v=v, z=z, u=u, denom=denom))


def apply_deflated(stack: DeflationStack, depth: int, x: np.ndarray) -> np.ndarray:
    """Apply the depth-times-deflated operator to a raw message vector."""
    if depth > stack.depth:
        raise ValueError(f"depth {depth} exceeds stored stages ({stack.depth})")
    if depth == 0:
        return nb_multiply(stack.base, np.asarray(x, dtype=np.float64))
    st = stack.stages[depth - 1]
    return apply_deflated(stack, depth - 1, x) - st.z * (st.u @ x / st.denom)


def apply_deflated_t(stack: DeflationStack, depth: int, x: np.ndarray) -> np.ndarray:
    """Transpose counterpart of :func:`apply_deflated`."""
    if depth > stack.depth:
        raise ValueError(f"depth {depth} exceeds stored stages ({stack.depth})")
    if depth == 0:
        return nb_multiply_t(stack.base, np.asarray(x, dtype=np.float64))
    st = stack.stages[depth - 1]
    return apply_deflated_t(stack, depth - 1, x) - st.u * (st.z @ x / st.denom)


def init_messages_class(
    g: WeightedGraph, data: LabeledDataset, c: int, rng
) -> MessageState:
    """One-vs-rest initialization: out-edges of revealed class-c nodes get
    +1, out-edges of other revealed nodes -1, the rest i.i.d. +-1."""
    if not 0 <= c < data.q:
        raise ValueError(f"class index {c} out of range for q={data.q}")
    values = (1 - 2 * rng.integers(0, 2, size=g.num_half_edges)).astype(np.float64)
    cls = data.class_indices()
    from_revealed = data.revealed[g.src]
    values[from_revealed] = np.where(cls[g.src[from_revealed]] == c, 1.0, -1.0)
    return MessageState(values)


@dataclass
class MulticlassResult:
    assignments: np.ndarray          # in 0..q-1
    embedding: np.ndarray            # n x (q-1) pooled columns
    rayleigh: np.ndarray             # per-stage quotient v.B_c v / v.v
    log_scales: np.ndarray           # per-stage accumulated rescale logs


def run_multiclass(
    g: WeightedGraph, data: LabeledDataset, q: int, k_max: int, rng=None
) -> MulticlassResult:
    """Extract q - 1 pooled vectors under progressive deflation, then
    k-means the embedding into q clusters.

    Messages are max-abs rescaled between iterations by
    :meth:`MessageState.advance`, as in the binary walk (the deflation
    formula is invariant to the scale of its vector, so this only guards
    against overflow; a non-finite message raises ValueError).  Per-stage
    Rayleigh quotients are surfaced so a caller can judge how much signal
    each successive stage carried.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if rng is None:
        rng = np.random.default_rng()

    stack = DeflationStack(base=g)
    columns = []
    quotients = []
    log_scales = []
    for c in range(q - 1):
        state = init_messages_class(g, data, c, rng)
        for _ in range(k_max):
            state = state.advance(apply_deflated(stack, c, state.values))
        columns.append(pool(g, state))
        log_scales.append(state.log_scale)
        values = state.values
        vv = float(values @ values)
        quotients.append(float(values @ apply_deflated(stack, c, values)) / vv if vv else 0.0)
        if c < q - 2:
            stack.push(values)

    embedding = np.column_stack(columns) if columns else np.zeros((g.n, 0))
    assignments = kmeans(embedding, q, rng)
    return MulticlassResult(
        assignments=assignments,
        embedding=embedding,
        rayleigh=np.asarray(quotients),
        log_scales=np.asarray(log_scales),
    )


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------


def _kmeans_pp_centers(points, q, rng):
    n = points.shape[0]
    centers = np.empty((q, points.shape[1]))
    centers[0] = points[rng.integers(0, n)]
    closest = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, q):
        total = closest.sum()
        if total <= 0:
            centers[c:] = points[rng.integers(0, n, size=q - c)]
            break
        centers[c] = points[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def _lloyd(points, centers, max_iter, tol):
    wcss = np.inf
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        new_wcss = float(d2[np.arange(points.shape[0]), labels].sum())
        for c in range(centers.shape[0]):
            mask = labels == c
            if mask.any():
                centers[c] = points[mask].mean(axis=0)
            # empty clusters keep their center; reported by the caller
        if wcss - new_wcss <= tol * max(new_wcss, 1e-300):
            wcss = new_wcss
            break
        wcss = new_wcss
    return labels, wcss


def kmeans(points, q: int, rng=None, restarts: int = 10, max_iter: int = 100,
           tol: float = 1e-6) -> np.ndarray:
    """Lloyd's algorithm from kmeans++ seeding, best of ``restarts`` by
    within-cluster sum of squares; deterministic under a fixed rng.

    Ending with fewer than q non-empty clusters is possible (e.g. all
    points identical) and is reported via :class:`EmptyClusterWarning`.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    if points.shape[0] == 0:
        raise ValueError("kmeans needs at least one point")
    if q > points.shape[0]:
        raise ValueError("q cannot exceed the number of points")
    if rng is None:
        rng = np.random.default_rng()

    best_labels, best_wcss = None, np.inf
    for _ in range(restarts):
        centers = _kmeans_pp_centers(points, q, rng)
        labels, wcss = _lloyd(points, centers, max_iter, tol)
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    if np.unique(best_labels).size < q:
        warnings.warn(
            f"k-means produced {np.unique(best_labels).size} non-empty "
            f"clusters out of {q}",
            EmptyClusterWarning,
        )
    return best_labels


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
    q = int(max(est.max(), truth.max())) + 1
    confusion = np.zeros((q, q), dtype=np.int64)
    np.add.at(confusion, (est, truth), 1)
    if q <= 6:
        best_perm, best_hits = None, -1
        for perm in itertools.permutations(range(q)):
            hits = int(confusion[np.arange(q), perm].sum())
            if hits > best_hits:
                best_perm, best_hits = perm, hits
    else:
        rows, cols = linear_sum_assignment(confusion, maximize=True)
        perm = np.empty(q, dtype=np.int64)
        perm[rows] = cols
        best_perm, best_hits = tuple(perm), int(confusion[rows, cols].sum())
    return best_hits / est.shape[0], best_perm
