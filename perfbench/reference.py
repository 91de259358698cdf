"""Independent references for the benchmark's output checks.

Nothing here imports nblw.  Each function recomputes a library result from
plain arrays by a route of its own: the walk runs on the list of
undirected pairs instead of half-edges with twin pointers, label
propagation is solved exactly with a sparse factorisation instead of
Jacobi sweeps, and the error bounds are iterated from the paper's scalar
recursions.  ``selftest.py`` checks these references against dense oracles.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu


def pair_layout(n, src, dst):
    """Pair every half-edge with its reverse, from the endpoint lists alone.

    Returns ``(ab, ba)``: for undirected pair p, in increasing order of
    (min endpoint, max endpoint), ``ab[p]`` is the index of the half-edge
    a->b and ``ba[p]`` that of b->a, with a < b.  Raises ValueError unless
    every half-edge has exactly one reverse and no half-edge is a loop.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape or src.size % 2:
        raise ValueError("half-edges must come in reverse pairs")
    if np.any(src == dst):
        raise ValueError("self-loop among the half-edges")
    key = np.minimum(src, dst) * np.int64(n) + np.maximum(src, dst)
    order = np.argsort(key)
    first, second = order[0::2], order[1::2]
    sorted_key = key[order]
    if np.any(sorted_key[0::2] != sorted_key[1::2]) or np.any(
        sorted_key[2::2] <= sorted_key[1:-1:2]
    ):
        raise ValueError("a pair does not have exactly two half-edges")
    forward = src[first] < dst[first]
    ab = np.where(forward, first, second)
    ba = np.where(forward, second, first)
    if np.any(src[ab] >= dst[ab]) or np.any(src[ba] <= dst[ba]):
        raise ValueError("the two half-edges of a pair are not reverses")
    return ab, ba


def pair_walk(n, a, b, w, x_ab, x_ba, k):
    """k max-abs-rescaled non-backtracking steps on a pair list, then pooling.

    Pair p joins a[p] and b[p] with weight w[p] and carries the messages
    x_ab[p] (a->b) and x_ba[p] (b->a); pairs are sorted by a, as
    :func:`pair_layout` orders them.  One step sets
    x(a->b) = (sum of weighted messages into a) - w_ab x(b->a); the result
    is the pooled vector, the sum of weighted messages into each node.
    """
    w = np.asarray(w, dtype=np.float64)
    if np.any(a[1:] < a[:-1]):
        raise ValueError("pairs must be sorted by their first endpoint")
    a_counts = np.bincount(a, minlength=n)
    x_ab = np.array(x_ab, dtype=np.float64)
    x_ba = np.array(x_ba, dtype=np.float64)
    wx_ab, wx_ba = np.empty_like(x_ab), np.empty_like(x_ba)

    def into():
        np.multiply(w, x_ab, out=wx_ab)  # arrives at b
        np.multiply(w, x_ba, out=wx_ba)  # arrives at a
        total = np.bincount(a, weights=wx_ba, minlength=n)
        total += np.bincount(b, weights=wx_ab, minlength=n)
        return total

    for _ in range(k):
        total = into()
        x_ab[:] = np.repeat(total, a_counts)  # = total[a], streamed
        x_ab -= wx_ba
        np.take(total, b, out=x_ba)
        x_ba -= wx_ab
        scale = max(x_ab.max(initial=0.0), -x_ab.min(initial=0.0),
                    x_ba.max(initial=0.0), -x_ba.min(initial=0.0))
        if scale > 0.0:
            x_ab /= scale
            x_ba /= scale
    return into()


def harmonic_scores(n, src, dst, weight, revealed, classes, q):
    """Exact clamped harmonic solution, per component that holds a label.

    Solves (D - W)_FF X_F = W_FL Y_L for the unlabeled nodes F of every
    connected component that contains a labeled node, where Y_L is one-hot.
    Returns ``(scores, covered)``: ``scores`` is (n, q), one-hot on labeled
    rows and zero outside the solved components; ``covered`` marks F.
    """
    revealed = np.asarray(revealed, dtype=bool)
    classes = np.asarray(classes, dtype=np.int64)
    W = sp.csr_matrix(
        (np.asarray(weight, dtype=np.float64), (np.asarray(src), np.asarray(dst))),
        shape=(n, n),
    )
    _, comp = connected_components(W, directed=False)
    labeled_comp = np.zeros(comp.max() + 1, dtype=bool)
    labeled_comp[comp[revealed]] = True
    covered = ~revealed & labeled_comp[comp]

    scores = np.zeros((n, q))
    scores[revealed, classes[revealed]] = 1.0
    if covered.any():
        free = np.flatnonzero(covered)
        lab = np.flatnonzero(revealed)
        degree = np.asarray(W.sum(axis=1)).ravel()
        laplacian = sp.diags(degree) - W
        lhs = laplacian[free][:, free].tocsc()
        rhs = (W[free][:, lab] @ scores[lab]).astype(np.float64)
        # symmetric positive definite: a symmetric fill-reducing order
        # keeps the factor sparse (COLAMD's fill is ten times slower here)
        lu = splu(lhs, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
        scores[free] = lu.solve(np.ascontiguousarray(rhs))
    return scores, covered


def cantelli_bound(tau, eta, k):
    """1 - r_{k+1} with r_0 = eta^2 and r_{l+1} = tau r_l / (1 + tau r_l)."""
    r = eta**2
    for _ in range(k + 1):
        r = tau * r / (1.0 + tau * r)
    return 1.0 - r


def chernoff_bound(tau, eta, k, delta, sigma2):
    """exp(-q_{k+1}/4 min(1, sigma2/delta)) with q_0 = 2 eta^2 and
    q_{l+1} = tau q_l / (1 + 1.5 max(1, q_l))."""
    q = 2.0 * eta**2
    for _ in range(k + 1):
        q = tau * q / (1.0 + 1.5 * max(1.0, q))
    return math.exp(-q / 4.0 * min(1.0, sigma2 / delta))


def matched_accuracy(est, truth, q):
    """Best agreement over all relabelings of ``est`` (labels 0..q-1),
    by exhaustive search over the q! permutations."""
    est = np.asarray(est, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    confusion = np.zeros((q, q), dtype=np.int64)
    np.add.at(confusion, (est, truth), 1)
    best = max(
        int(confusion[np.arange(q), list(perm)].sum())
        for perm in itertools.permutations(range(q))
    )
    return best / est.shape[0]
