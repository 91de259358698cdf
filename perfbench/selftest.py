"""Check the benchmark's references against independent oracles on tiny
inputs, so that the output checks are themselves checked.

  * ``pair_walk`` against products with the dense non-backtracking matrix
    (``nblw.dense_nb_matrix``, which builds the matrix entry by entry);
  * ``harmonic_scores`` against a dense solve of the random-walk form
    (I - P_FF) f = P_FL y, on components found by dense reachability;
  * the bound recursions against their known fixed points;
  * ``matched_accuracy`` on relabeled copies of the truth.

``run.py`` calls :func:`run` on every run and refuses to report if it
fails.  Standalone: ``python3 perfbench/selftest.py`` (from the repo root,
with ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import numpy as np

import nblw
import reference


def _random_graph(rng, n, p, low, high):
    while True:
        ii, jj = np.triu_indices(n, k=1)
        keep = rng.random(ii.size) < p
        if keep.sum() >= 3:
            break
    pairs = np.column_stack([ii[keep], jj[keep]])
    return nblw.build_graph(n, pairs, rng.uniform(low, high, pairs.shape[0]))


def _check_pair_walk(rng, failures):
    for trial in range(15):
        g = _random_graph(rng, int(rng.integers(5, 12)), 0.5, -1.0, 1.0)
        B = nblw.dense_nb_matrix(g)
        x0 = rng.standard_normal(g.num_half_edges)
        k = int(rng.integers(0, 7))
        dense = np.linalg.matrix_power(B, k) @ x0
        pooled_dense = np.bincount(g.dst, weights=g.weight * dense, minlength=g.n)
        ab, ba = reference.pair_layout(g.n, g.src, g.dst)
        pooled_ref = reference.pair_walk(g.n, g.src[ab], g.dst[ab], g.weight[ab], x0[ab], x0[ba], k)
        scale_d = np.abs(pooled_dense).max()
        scale_r = np.abs(pooled_ref).max()
        if scale_d == 0.0 and scale_r == 0.0:
            continue
        # the reference rescales by a positive factor each step
        err = np.abs(pooled_ref / scale_r - pooled_dense / scale_d).max()
        if not err <= 1e-9:
            failures.append(f"pair walk vs dense matrix, trial {trial}: error {err:.3e}")


def _dense_harmonic(W, revealed, classes, q):
    n = W.shape[0]
    reach = (W > 0) | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
    covered = ~revealed & reach[:, revealed].any(axis=1)
    y = np.zeros((n, q))
    y[revealed, classes[revealed]] = 1.0
    free = np.flatnonzero(covered)
    if free.size:
        P = W / np.maximum(W.sum(axis=1, keepdims=True), 1e-300)
        lhs = np.eye(free.size) - P[np.ix_(free, free)]
        y[free] = np.linalg.solve(lhs, P[np.ix_(free, np.flatnonzero(revealed))] @ y[revealed])
    return y, covered


def _check_harmonic(rng, failures):
    for trial in range(15):
        n, q = int(rng.integers(6, 16)), int(rng.integers(2, 4))
        g = _random_graph(rng, n, 0.25, 0.05, 1.0)
        revealed = rng.random(n) < 0.3
        revealed[rng.integers(0, n)] = True
        classes = rng.integers(0, q, size=n)
        W = np.zeros((n, n))
        W[g.src, g.dst] = g.weight
        want, want_cov = _dense_harmonic(W, revealed, classes, q)
        got, got_cov = reference.harmonic_scores(n, g.src, g.dst, g.weight, revealed, classes, q)
        err = np.abs(got - want).max()
        if not np.array_equal(got_cov, want_cov) or not err <= 1e-10:
            failures.append(f"sparse vs dense harmonic solve, trial {trial}: error {err:.3e}")


def _check_bounds(failures):
    # tau > 1: r -> (tau - 1) / tau; tau > 5/2: q -> (2/3)(tau - 1)
    if abs(reference.cantelli_bound(4.0, 0.3, 300) - 0.25) > 1e-12:
        failures.append("Cantelli recursion misses its fixed point at tau = 4")
    want = np.exp(-(2.0 / 3.0) * 3.0 / 4.0 * min(1.0, 1.25 / 0.5))
    if abs(reference.chernoff_bound(4.0, 0.3, 300, 0.5, 1.25) - want) > 1e-12:
        failures.append("Chernoff recursion misses its fixed point at tau = 4")


def _check_matching(rng, failures):
    for q in (2, 3, 4):
        truth = rng.integers(0, q, size=200)
        est = rng.permutation(q)[truth]
        if reference.matched_accuracy(est, truth, q) != 1.0:
            failures.append(f"label matching misses a relabeling, q = {q}")


def run(seed: int = 0) -> list[str]:
    """Run every self-check; returns the failures (empty when all pass)."""
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    _check_pair_walk(rng, failures)
    _check_harmonic(rng, failures)
    _check_bounds(failures)
    _check_matching(rng, failures)
    return failures


if __name__ == "__main__":
    problems = run()
    for line in problems:
        print("FAIL", line)
    print("selftest:", "FAIL" if problems else "PASS")
    raise SystemExit(1 if problems else 0)
