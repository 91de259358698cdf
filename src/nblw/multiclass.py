"""Multi-cluster walk: block power iteration of the non-backtracking operator.

For q clusters, the q - 1 one-vs-rest initializations from the revealed
labels are the rows of one message block X.  Each step applies the
operator to every row and re-orthonormalizes the block by Cholesky-QR:
with L = cholesky(X X^T), X becomes L^{-1} X.  In the symmetric q-cluster
model the informative eigenvalue is (q - 1)-fold degenerate, and the block
converges to its whole eigenspace at once.  Row 0 keeps the direction of
the binary walk.  The n x (q-1) embedding of the pooled rows is clustered
with k-means, and the clusters are relabelled to match the revealed labels.

When every class has a revealed node, k-means is one Lloyd run from the
q revealed-class means of the embedding, so center c starts with class
c's index (Seeded-KMeans: Basu, Banerjee & Mooney, "Semi-supervised
Clustering by Seeding", ICML 2002).  Otherwise it is the best of several
kmeans++ restarts, with no class order of its own.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .binary import _one_vs_rest, match_labels
from .graph import MessageState, WeightedGraph, nb_multiply, pool
from .label_prop import ConvergenceWarning
from .model import LabeledDataset

__all__ = [
    "EmptyClusterWarning",
    "MulticlassResult",
    "run_multiclass",
    "kmeans",
]


# A Cholesky pivot L_cc below this fraction of its row's norm means the row
# depends on the rows before it: from X X^T, an exactly dependent row still
# leaves a pivot of up to a few sqrt(eps) ~ 1.5e-8 of its norm.
_RANK_RTOL = 1e-6


class EmptyClusterWarning(UserWarning):
    """k-means ended with fewer than q non-empty clusters."""


@dataclass
class MulticlassResult:
    assignments: np.ndarray          # in 0..q-1, aligned with the revealed labels
    embedding: np.ndarray            # n x (q-1) pooled rows of the block
    rayleigh: np.ndarray             # per-row quotient x.Bx / x.x of the final block
    log_scales: np.ndarray           # per-row sum of log L_cc over the steps


def _orthonormal_walk(g: WeightedGraph, X: np.ndarray, k_max: int) -> np.ndarray:
    """Run ``k_max`` steps on the rows of X in place: apply the operator to
    each row, then replace X by L^{-1} X, with L = cholesky(X X^T), by
    forward substitution.  Returns the per-row sum of log L_cc."""
    log_scales = np.zeros(X.shape[0])
    for i in range(1, k_max + 1):
        for c in range(X.shape[0]):
            X[c] = nb_multiply(g, X[c])
        # row by row: for this skinny shape, X @ X.T took four times as long;
        # an infinite message makes NaN products, which raise just below
        with np.errstate(invalid="ignore"):
            gram = np.array([[x @ y for y in X] for x in X])
        if not np.all(np.isfinite(gram)):
            raise ValueError(f"non-finite message after iteration {i}")
        try:
            L = np.linalg.cholesky(gram)
            full_rank = np.all(np.diag(L) > _RANK_RTOL * np.sqrt(np.diag(gram)))
        except np.linalg.LinAlgError:
            full_rank = False
        if not full_rank:
            raise ValueError(f"message block lost rank at iteration {i}")
        for c in range(X.shape[0]):
            for j in range(c):
                X[c] -= L[c, j] * X[j]
            X[c] /= L[c, c]
        log_scales += np.log(np.diag(L))
    return log_scales


def run_multiclass(
    g: WeightedGraph, data: LabeledDataset, q: int, k_max: int, rng=None
) -> MulticlassResult:
    """Walk the block of the q - 1 one-vs-rest initializations for
    ``k_max`` orthonormalized steps, pool each row into an embedding
    column, then k-means the embedding into q clusters, relabelled so
    that they agree best with the revealed labels (:func:`match_labels`
    on the revealed nodes; a class no revealed node carries keeps its
    index).  With nothing revealed the k-means labels stay as they are.
    ``q`` must equal ``data.q``.

    If every class has a revealed node, k-means starts from the mean
    embedding of each class's revealed nodes and draws nothing from
    ``rng``; the relabelling is then the identity unless Lloyd's steps
    carried a cluster off its class.  If some class has none (η = 0
    included), k-means takes the best of its kmeans++ restarts, drawn
    from ``rng``.

    The initializations draw from ``rng`` class by class, before k-means.
    Row c of the walked block is the direction of B^k x_c with the
    directions of rows 0..c-1 removed, so row 0 is the binary walk's
    direction.  A non-finite message raises ValueError, and so does a
    block that loses rank (a row becomes a combination of the rows
    before it), as on a forest, where the operator is nilpotent.  The
    per-row Rayleigh quotients of the final block show how much signal
    each direction carried.
    """
    if q != data.q:
        raise ValueError(f"q={q} differs from the dataset's q={data.q}")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if rng is None:
        rng = np.random.default_rng()

    X = _one_vs_rest(g, data, range(q - 1), rng)
    log_scales = _orthonormal_walk(g, X, k_max)

    xbx = np.array([x @ nb_multiply(g, x) for x in X])
    xx = np.einsum("ij,ij->i", X, X)
    rayleigh = np.divide(xbx, xx, out=np.zeros_like(xx), where=xx > 0)
    embedding = np.column_stack([pool(g, MessageState(x)) for x in X])
    rev = data.revealed
    cls = data.class_indices()[rev]
    sizes = np.bincount(cls, minlength=q)
    if np.all(sizes > 0):
        centers = np.column_stack([np.bincount(cls, weights=column[rev], minlength=q)
                                   for column in embedding.T]) / sizes[:, None]
        assignments = kmeans(embedding, q, centers=centers)
    else:
        assignments = kmeans(embedding, q, rng)
    if rev.any():
        _, matched = match_labels(assignments[rev], cls)
        # labels absent from the revealed nodes keep their own index, so
        # the permutation covers all q labels
        perm = np.arange(q)
        perm[:len(matched)] = matched
        assignments = perm[assignments]
    return MulticlassResult(
        assignments=assignments,
        embedding=embedding,
        rayleigh=rayleigh,
        log_scales=log_scales,
    )


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------


# Unseeded k-means runs this many kmeans++ restarts, each at most this many
# Lloyd steps, stopping once a step lowers the WCSS by at most this fraction.
_RESTARTS = 10
_MAX_ITER = 100
_TOL = 1e-6


def _sq_distances(points, centers):
    """(n, k) squared distances from the points to the k centers, summed
    one coordinate at a time, so no (n, k, d) array is made."""
    d2 = np.zeros((points.shape[0], centers.shape[0]))
    for j in range(points.shape[1]):
        d2 += (points[:, j, None] - centers[:, j]) ** 2
    return d2


def _kmeans_pp_centers(points, q, rng):
    n = points.shape[0]
    centers = np.empty((q, points.shape[1]))
    centers[0] = points[rng.integers(0, n)]
    closest = _sq_distances(points, centers[:1])[:, 0]
    for c in range(1, q):
        total = closest.sum()
        if total <= 0:
            centers[c:] = points[rng.integers(0, n, size=q - c)]
            break
        centers[c] = points[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, _sq_distances(points, centers[c:c + 1])[:, 0])
    return centers


def _lloyd(points, centers):
    """Lloyd steps on ``centers`` in place; returns (labels, WCSS, whether
    it stopped at ``_MAX_ITER`` steps before the WCSS settled).  An empty
    cluster keeps its center; the caller reports it."""
    n, q = points.shape[0], centers.shape[0]
    wcss = np.inf
    for _ in range(_MAX_ITER):
        d2 = _sq_distances(points, centers)
        labels = d2.argmin(axis=1)
        new_wcss = float(d2[np.arange(n), labels].sum())
        counts = np.bincount(labels, minlength=q)
        filled = counts > 0
        for j in range(points.shape[1]):
            sums = np.bincount(labels, weights=points[:, j], minlength=q)
            centers[filled, j] = sums[filled] / counts[filled]
        settled = wcss - new_wcss <= _TOL * max(new_wcss, 1e-300)
        wcss = new_wcss
        if settled:
            return labels, wcss, False
    return labels, wcss, True


def kmeans(points, q: int, rng=None, centers=None) -> np.ndarray:
    """Lloyd's algorithm from kmeans++ seeding, best of ``_RESTARTS`` by
    within-cluster sum of squares; deterministic under a fixed rng.

    Given ``centers``, a finite (q, d) array for the d columns of
    ``points``, it runs Lloyd's algorithm once from them instead, so
    cluster c grows from ``centers[c]``; nothing is drawn from ``rng``
    and the caller's array is not changed.  A wrong shape or a non-finite
    center raises ValueError, and so does a non-finite point, before
    anything is drawn.

    Ending with fewer than q non-empty clusters is possible (e.g. all
    points identical, or two equal centers) and is reported via
    :class:`EmptyClusterWarning`; keeping a run that stopped at
    ``_MAX_ITER`` Lloyd steps before its WCSS settled, via
    :class:`~nblw.label_prop.ConvergenceWarning`.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    if points.shape[0] == 0:
        raise ValueError("kmeans needs at least one point")
    if q > points.shape[0]:
        raise ValueError("q cannot exceed the number of points")
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        raise ValueError(f"points must be finite: point {bad[0]} is not "
                         f"({bad.size} in all)")

    if centers is not None:
        centers = np.array(centers, dtype=np.float64)  # a copy: Lloyd moves it
        if centers.shape != (q, points.shape[1]):
            raise ValueError(f"centers must have shape {(q, points.shape[1])}, "
                             f"not {centers.shape}")
        if not np.all(np.isfinite(centers)):
            raise ValueError("centers must be finite")
        starts = [centers]
    else:
        if rng is None:
            rng = np.random.default_rng()
        starts = (_kmeans_pp_centers(points, q, rng) for _ in range(_RESTARTS))
    best_labels, best_wcss, best_capped = None, np.inf, False
    for start in starts:
        labels, wcss, capped = _lloyd(points, start)
        if best_labels is None or wcss < best_wcss:
            best_labels, best_wcss, best_capped = labels, wcss, capped
    if best_capped:
        warnings.warn(f"k-means stopped at {_MAX_ITER} Lloyd steps before its "
                      f"WCSS settled", ConvergenceWarning, stacklevel=2)
    if np.unique(best_labels).size < q:
        warnings.warn(
            f"k-means produced {np.unique(best_labels).size} non-empty "
            f"clusters out of {q}",
            EmptyClusterWarning,
        )
    return best_labels
