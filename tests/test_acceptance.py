"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints a single ``acceptance[k] <name>: PASS`` line on success
(run with ``pytest -s`` to see them inline).  The MNIST reproduction
requires the standard IDX files on disk and is skipped with a notice when
they are absent (set NBLW_MNIST_DIR or place them under ./data/mnist).
"""

import itertools
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    chained_unscaled,
    conditional_message_moments,
    random_graph,
    restrict_to_ball,
    transfer_messages,
)
from nblw import (
    EmptyClusterWarning,
    FunctionWeight,
    Gaussian,
    MessageState,
    ModelSpec,
    accuracy,
    apply_nb_transpose,
    center_weights,
    centered_weight,
    check_error_bounds,
    chernoff_recursion,
    dataset_from_truth,
    dense_nb_matrix,
    density_evolution,
    gaussian_blobs,
    identity_weight,
    init_messages,
    kmeans,
    label_propagation,
    load_mnist_subset,
    make_instance,
    mgf_envelope_sequences,
    pool,
    power_iterate,
    run_binary,
    snr_recursion,
    sparsify_knn,
    subsample_and_weight,
    tau_optimal,
    theory_report,
    weight_stats,
)
from nblw.binary import decide
from nblw.multiclass import _orthonormal_walk

GAUSS_IN, GAUSS_OUT = Gaussian(0.5, 1.0), Gaussian(-0.5, 1.0)
GAUSS_W = centered_weight(GAUSS_IN, GAUSS_OUT)  # delta 0.5, sigma2 1.25


def report(num, name):
    print(f"\nacceptance[{num:02d}] {name}: PASS")


def test_01_operator_oracle():
    """Chained sparse applications equal dense matrix powers, for the
    operator and its transpose, and the walked multiclass block equals the
    positive-diagonal QR factor of B^k X_0."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    walked = 0
    for trial in range(50):
        while True:
            g = random_graph(rng, int(rng.integers(6, 13)), p=0.6)
            if g.num_half_edges >= 20:
                break
        two_m = g.num_half_edges
        B = dense_nb_matrix(g)
        v = rng.standard_normal(two_m)
        k = int(rng.integers(1, 6))

        dense = np.linalg.matrix_power(B, k) @ v
        scale = max(1.0, np.abs(dense).max())
        assert np.abs(chained_unscaled(g, v, k) - dense).max() <= 1e-9 * scale

        state = MessageState(v.copy())
        for _ in range(k):
            state = apply_nb_transpose(g, state)
        dense_t = np.linalg.matrix_power(B.T, k) @ v
        scale_t = max(1.0, np.abs(dense_t).max())
        assert np.abs(state.unscaled() - dense_t).max() <= 1e-9 * scale_t

        # the block walk of q - 1 rows against dense QR with R_cc > 0
        X = rng.standard_normal((int(rng.integers(1, 4)), two_m))
        Y = np.linalg.matrix_power(B, k) @ X.T
        if np.linalg.matrix_rank(Y) < X.shape[0]:
            continue  # the walk raises on a rank-deficient block
        Q, R = np.linalg.qr(Y)
        signs = np.sign(np.diag(R))
        log_scales = _orthonormal_walk(g, X, k)
        assert np.abs(X - (Q * signs).T).max() <= 1e-9
        want = np.log(np.abs(np.diag(R)))
        assert np.abs(log_scales - want).max() <= 1e-9 * max(1.0, np.abs(want).max())
        walked += 1
    assert walked >= 45
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, "operator-oracle")


def test_02_snr_fixed_points():
    """tau = 4 drives the ratio to 3/4; tau = 0.9 drives it to zero."""
    r, _ = snr_recursion(4.0, 0.3, 200)
    assert abs(r[-1] - 0.75) < 1e-10
    r_sub, _ = snr_recursion(0.9, 0.5, 500)
    assert r_sub[-1] < 1e-10
    report(2, "snr-fixed-points")


def test_03_chernoff_fixed_point_and_identity():
    """tau = 4 fixed point, subcritical collapse, and the exact
    equivalence q_l = a_l^2 / b_l across 100 random models."""
    q, _, _ = chernoff_recursion(4.0, 0.3, 500, 1.0, 1.0)
    assert abs(q[-1] - 2.0) < 1e-10
    q_sub, _, informative = chernoff_recursion(2.0, 0.5, 500, 1.0, 1.0)
    assert q_sub[-1] < 1e-10 and not informative

    rng = np.random.default_rng(7)
    for _ in range(100):
        delta = rng.uniform(0.2, 1.0)
        sigma2 = rng.uniform(0.2, 2.0)
        alpha = rng.uniform(1.05, 3.0) / min(delta, sigma2)
        eta = rng.uniform(0.01, 1.0)
        k = int(rng.integers(1, 25))
        tau = alpha * delta**2 / sigma2
        _, _, q_ab = mgf_envelope_sequences(alpha, delta, sigma2, eta, k)
        q_rec, _, _ = chernoff_recursion(tau, eta, k, delta, sigma2)
        rel = np.abs(q_ab - q_rec) / np.maximum(np.abs(q_rec), 1e-300)
        assert rel.max() < 1e-12
    report(3, "chernoff-fixed-point-and-identity")


def test_04_moment_tracking():
    """200 instances (n = 1e4, alpha = 25, eta = 0.1): sign-aligned message
    means follow eta (alpha delta)^l and second moments follow
    m2_{l+1} = alpha^2 delta^2 m1_l^2 + alpha sigma2 m2_l, l = 1..4."""
    t0 = time.perf_counter()
    alpha, eta, delta, sigma2, l_max, reps = 25.0, 0.1, 0.5, 1.25, 4, 200
    m1 = np.empty((reps, l_max + 1))
    m2 = np.empty((reps, l_max + 1))
    for r in range(reps):
        spec = ModelSpec(n=10**4, q=2, alpha=alpha, eta=eta,
                         p_in=GAUSS_IN, p_out=GAUSS_OUT, seed=31_000 + r)
        m1[r], m2[r] = conditional_message_moments(spec, l_max, 62_000 + r)
    pred1 = eta * (alpha * delta) ** np.arange(l_max + 1)
    pred2 = np.empty(l_max + 1)
    pred2[0] = 1.0
    for l in range(l_max):
        pred2[l + 1] = alpha**2 * delta**2 * pred1[l] ** 2 + alpha * sigma2 * pred2[l]
    for l in range(1, l_max + 1):
        se1 = m1[:, l].std(ddof=1) / np.sqrt(reps)
        se2 = m2[:, l].std(ddof=1) / np.sqrt(reps)
        assert abs(m1[:, l].mean() - pred1[l]) <= 3 * se1, f"first moment l={l}"
        assert abs(m2[:, l].mean() - pred2[l]) <= 3 * se2, f"second moment l={l}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(4, "moment-tracking")


def test_05_density_evolution_vs_simulation():
    """At n = 1e5 and tau in {3, 5, 10} (k = 8, eta = 0.1) the graph error
    and the density-evolution estimate agree within 0.01, and both sit
    at or below the Cantelli and (valid) Chernoff bounds + 3 MC SE."""
    t0 = time.perf_counter()
    for tau, alpha in ((3, 15.0), (5, 25.0), (10, 50.0)):
        spec = ModelSpec(n=10**5, q=2, alpha=alpha, eta=0.1,
                         p_in=GAUSS_IN, p_out=GAUSS_OUT, seed=900 + tau)
        g, sims, data = make_instance(spec)
        g = g.with_pair_weights(center_weights(sims))
        est, _ = run_binary(g, data, 8, np.random.default_rng(17 + tau))
        err_graph = float(np.mean(est != data.truth))
        err_graph_se = np.sqrt(max(err_graph * (1 - err_graph), 1e-5) / spec.n)

        de = density_evolution(spec, GAUSS_W, 8, pop=200_000,
                               rng=np.random.default_rng(23 + tau))
        assert abs(err_graph - de.error) <= 0.01, f"tau={tau}"

        stats = weight_stats(GAUSS_IN, GAUSS_OUT, GAUSS_W, alpha)
        rep = theory_report(stats, 0.1, 8)
        assert bool(check_error_bounds(rep, de.error, de.error_se)), f"DE bounds tau={tau}"
        assert bool(check_error_bounds(rep, err_graph, err_graph_se)), f"graph bounds tau={tau}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(5, "density-evolution-vs-simulation")


def test_06_random_guess_floor():
    """Zero similarity signal: unlabeled accuracy is 0.5 +- 0.02."""
    t0 = time.perf_counter()
    accs = []
    for seed in range(20):
        spec = ModelSpec(n=10**4, q=2, alpha=10.0, eta=0.1,
                         p_in=Gaussian(0, 1), p_out=Gaussian(0, 1), seed=400 + seed)
        g, sims, data = make_instance(spec)
        g = g.with_pair_weights(center_weights(sims))
        est, _ = run_binary(g, data, 30, np.random.default_rng(seed))
        accs.append(accuracy(est, data.truth, "unlabeled", data.revealed))
    assert abs(np.mean(accs) - 0.5) < 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(6, "random-guess-floor")


def test_07_exponential_error_decay():
    """log(error) vs alpha over {10,...,40} at n = 1e5 fits a line with
    negative slope and R^2 > 0.9 (finite budget k = 8 in the
    exponential-decay regime)."""
    t0 = time.perf_counter()
    alphas = [10.0, 15.0, 20.0, 25.0, 30.0, 40.0]
    errors = []
    for alpha in alphas:
        errs = []
        for seed in (1, 2):
            spec = ModelSpec(n=10**5, q=2, alpha=alpha, eta=0.1,
                             p_in=GAUSS_IN, p_out=GAUSS_OUT, seed=7000 + seed)
            g, sims, data = make_instance(spec)
            g = g.with_pair_weights(center_weights(sims))
            est, _ = run_binary(g, data, 8, np.random.default_rng(500 + seed))
            errs.append(float(np.mean(est != data.truth)))
        errors.append(np.mean(errs))
    assert min(errors) > 0, "no errors left to regress on"
    x = np.asarray(alphas)
    y = np.log(np.asarray(errors))
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    r2 = 1 - ((y - fit) ** 2).sum() / ((y - y.mean()) ** 2).sum()
    assert slope < 0
    assert r2 > 0.9
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(7, "exponential-error-decay")


def _find_mnist():
    candidates = []
    env = os.environ.get("NBLW_MNIST_DIR")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "mnist")
    for base in candidates:
        for suffix in ("", ".gz"):
            images = base / f"train-images-idx3-ubyte{suffix}"
            labels = base / f"train-labels-idx1-ubyte{suffix}"
            if images.exists() and labels.exists():
                return images, labels
    return None


def test_08_mnist_binary_reproduction():
    """Digits {0, 1}, cosine kernel, eta = 0.01, alpha = 6: mean accuracy
    over 20 seeds at least 0.96, each run within 10 seconds."""
    found = _find_mnist()
    if found is None:
        pytest.skip(
            "MNIST IDX files not found (set NBLW_MNIST_DIR or put "
            "train-images-idx3-ubyte / train-labels-idx1-ubyte under "
            "./data/mnist); skipping the reproduction criterion"
        )
    images, labels = found
    X, truth = load_mnist_subset(images, labels, (0, 1))
    assert X.shape[0] == 14780
    accs = []
    for seed in range(20):
        t0 = time.perf_counter()
        res = subsample_and_weight(X, 6.0, "cosine", np.random.default_rng(3000 + seed))
        data = dataset_from_truth(truth, 0.01, np.random.default_rng(4000 + seed))
        est, _ = run_binary(res.graph, data, 30, np.random.default_rng(5000 + seed))
        accs.append(accuracy(est, data.truth, "all", data.revealed))
        assert time.perf_counter() - t0 <= 10.0
    assert np.mean(accs) >= 0.96
    report(8, "mnist-binary-reproduction")


def test_09_walk_beats_label_propagation_with_fewer_labels():
    """Blobs, n = 1e4, alpha = 4: the walk from 1% labels beats label
    propagation from 10% labels, averaged over 50 seeds."""
    t0 = time.perf_counter()
    pts, truth = gaussian_blobs(10**4, [[-3.0, 0.0], [3.0, 0.0]], 1.0,
                                np.random.default_rng(99))
    walk_accs, lp_accs = [], []
    for seed in range(50):
        res = subsample_and_weight(pts, 4.0, "euclidean",
                                   np.random.default_rng(10_000 + seed))
        d_walk = dataset_from_truth(truth, 0.01, np.random.default_rng(20_000 + seed))
        est, _ = run_binary(res.graph, d_walk, 30, np.random.default_rng(30_000 + seed))
        walk_accs.append(accuracy(est, d_walk.truth, "all", d_walk.revealed))

        d_lp = dataset_from_truth(truth, 0.1, np.random.default_rng(20_000 + seed))
        g_raw = res.graph.with_pair_weights(res.similarities)
        pruned = sparsify_knn(g_raw, res.similarities, 3)
        est_lp = label_propagation(pruned, d_lp)
        lp_accs.append(accuracy(est_lp, d_lp.truth, "all", d_lp.revealed))
    assert np.mean(walk_accs) > np.mean(lp_accs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(9, "walk-beats-lp-with-fewer-labels")


def test_10_property_suite():
    """Scale invariance, centering improvement, weighting optimality,
    locality, k-means brute force, kNN pruning rank oracle."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(555)

    # (a) positive weight rescaling leaves assignments unchanged
    spec = ModelSpec(n=2000, q=2, alpha=8.0, eta=0.1,
                     p_in=GAUSS_IN, p_out=GAUSS_OUT, seed=1)
    g, sims, data = make_instance(spec)
    g = g.with_pair_weights(center_weights(sims))
    for c in (1e-4, 3.0, 1e5):
        a, _ = run_binary(g, data, 10, np.random.default_rng(2))
        b, _ = run_binary(g.with_pair_weights(g.pair_weights() * c), data, 10,
                          np.random.default_rng(2))
        assert np.array_equal(a, b)

    # (b) centering strictly improves tau on 20 shifted families
    for _ in range(20):
        mu_out = rng.uniform(-1, 1)
        mu_in = mu_out + rng.uniform(0.2, 2.0)
        var = rng.uniform(0.3, 2.0)
        p_in, p_out = Gaussian(mu_in, var), Gaussian(mu_out, var)
        raw = weight_stats(p_in, p_out, identity_weight(), alpha=4.0)
        cen = weight_stats(p_in, p_out, centered_weight(p_in, p_out), alpha=4.0)
        if abs(raw.mean_w) > 1e-12:
            assert cen.tau > raw.tau

    # (c) the optimal weighting dominates a battery of alternatives
    tau_star = tau_optimal(8.0, GAUSS_IN, GAUSS_OUT)
    for w in (GAUSS_W, FunctionWeight(np.sign, "sign"),
              FunctionWeight(lambda s: np.tanh(2 * s), "tanh"),
              FunctionWeight(lambda s: np.clip(s, -1, 1), "clip")):
        ws = weight_stats(GAUSS_IN, GAUSS_OUT, w, 8.0, rng=np.random.default_rng(6))
        slack = 3 * (ws.delta_se + ws.sigma2_se + 1e-9) * 8.0
        assert ws.tau <= tau_star + slack

    # (d) locality: assignments depend only on the radius-(k+1) ball
    k_max = 3
    spec_l = ModelSpec(n=600, q=2, alpha=5.0, eta=0.2,
                       p_in=GAUSS_IN, p_out=GAUSS_OUT, seed=17)
    gl, sims_l, data_l = make_instance(spec_l)
    gl = gl.with_pair_weights(center_weights(sims_l))
    init_full = init_messages(gl, data_l, np.random.default_rng(19))
    est_full = decide(gl, pool(gl, power_iterate(gl, init_full.copy(), k_max)), data_l)
    for node in rng.integers(0, 600, size=10):
        sub, _ = restrict_to_ball(gl, int(node), k_max)
        sub_init = MessageState(transfer_messages(gl, init_full.values, sub))
        sub_est = decide(sub, pool(sub, power_iterate(sub, sub_init, k_max)), data_l)
        assert sub_est[node] == est_full[node]

    # (e) k-means matches the brute-force WCSS oracle on n <= 8
    def wcss_of(points, labels, q):
        return sum(
            ((points[labels == c] - points[labels == c].mean()) ** 2).sum()
            for c in range(q) if (labels == c).any()
        )

    hits = 0
    for _ in range(100):
        n = int(rng.integers(4, 9))
        pts = rng.uniform(-1, 1, n)
        best = min(
            wcss_of(pts, np.asarray(assign), 2)
            for assign in itertools.product([0, 1], repeat=n)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyClusterWarning)
            labels = kmeans(pts, 2, rng)
        if wcss_of(pts, labels, 2) <= best * (1 + 1e-9) + 1e-12:
            hits += 1
    assert hits >= 95

    # (f) symmetric-union kNN pruning matches the rank predicate, n = 100
    from nblw import build_graph, draw_er_pairs

    pairs = draw_er_pairs(100, 8.0, rng)
    sims_k = rng.uniform(0.01, 1.0, pairs.shape[0])
    gk = build_graph(100, pairs, sims_k)
    pruned = sparsify_knn(gk, sims_k, k=3)
    kept = {tuple(sorted(p)) for p in pruned.pairs}
    neighbors = {i: [] for i in range(100)}
    for (i, j), s in zip(gk.pairs, sims_k):
        neighbors[i].append((j, s))
        neighbors[j].append((i, s))
    for i in neighbors:
        neighbors[i].sort(key=lambda t: (-t[1], t[0]))
    topk = {i: {j for j, _ in nbrs[:3]} for i, nbrs in neighbors.items()}
    for (i, j) in map(tuple, map(sorted, gk.pairs)):
        assert ((i, j) in kept) == ((j in topk[i]) or (i in topk[j]))

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(10, "property-suite")
