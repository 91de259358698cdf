"""Generator contracts: cardinalities, concentration, determinism."""

import itertools

import numpy as np
import pytest
from scipy import stats

from nblw import (
    Gaussian,
    LabeledDataset,
    ModelSpec,
    PointMass,
    Uniform,
    dataset_from_truth,
    draw_er_pairs,
    draw_labels,
    draw_revealed_set,
    draw_similarities,
    gaussian_blobs,
    make_instance,
    parse_distribution,
    split_seed,
)


class TestDrawLabels:
    def test_binary_frequencies_at_1e6(self):
        spec = ModelSpec(n=10**6, q=2, alpha=5, eta=0.1,
                         p_in=PointMass(1), p_out=PointMass(-1), seed=0)
        labels = draw_labels(spec, np.random.default_rng(0))
        freq = np.mean(labels == 1)
        assert abs(freq - 0.5) < 0.002  # 3 sigma of Binomial(1e6, 1/2)/1e6

    def test_single_item(self):
        spec = ModelSpec(n=1, q=2, alpha=0.5, eta=0.0,
                         p_in=PointMass(1), p_out=PointMass(-1), seed=0)
        labels = draw_labels(spec, np.random.default_rng(1))
        assert labels.shape == (1,) and labels[0] in (-1, 1)

    def test_deterministic(self):
        spec = ModelSpec(n=1000, q=3, alpha=5, eta=0.1,
                         p_in=PointMass(1), p_out=PointMass(-1), seed=0)
        a = draw_labels(spec, np.random.default_rng(7))
        b = draw_labels(spec, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestDrawRevealedSet:
    def test_exact_count(self):
        mask = draw_revealed_set(100, 0.1, np.random.default_rng(0))
        assert mask.sum() == 10

    def test_eta_zero(self):
        assert draw_revealed_set(50, 0.0, np.random.default_rng(0)).sum() == 0

    def test_floor_rule(self):
        assert draw_revealed_set(7, 0.5, np.random.default_rng(0)).sum() == 3

    def test_uniformity_of_fixed_item(self):
        """Any fixed item is marked with frequency eta over many seeds."""
        n, hits, trials = 10**5, 0, 10**4
        rng = np.random.default_rng(5)
        for _ in range(trials):
            # equivalent to membership of item 0 in a uniform half-subset
            hits += bool(draw_revealed_set(n, 0.5, rng)[0])
        assert abs(hits / trials - 0.5) < 0.01


class TestDrawErPairs:
    def test_pair_count_concentration(self):
        pairs = draw_er_pairs(10**5, 5.0, np.random.default_rng(0))
        expected = 5.0 * (10**5 - 1) / 2
        assert abs(pairs.shape[0] - expected) < 0.02 * expected

    def test_vanishing_alpha(self):
        assert draw_er_pairs(10**6, 1e-7, np.random.default_rng(0)).shape == (0, 2)

    def test_deterministic(self):
        a = draw_er_pairs(1000, 4.0, np.random.default_rng(3))
        b = draw_er_pairs(1000, 4.0, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_pairs_sorted_unique_upper_triangle(self):
        pairs = draw_er_pairs(500, 6.0, np.random.default_rng(9))
        assert np.all(pairs[:, 0] < pairs[:, 1])
        keys = pairs[:, 0] * 500 + pairs[:, 1]
        assert np.all(np.diff(keys) > 0)  # lexicographic order, no duplicates
        # alpha just below n makes every gap 1: the complete graph, row by row
        for n in range(2, 61):
            pairs = draw_er_pairs(n, np.nextafter(n, 0.0), np.random.default_rng(n))
            assert pairs.tolist() == [list(p) for p in itertools.combinations(range(n), 2)]

    def test_matches_bernoulli_law_small_n(self):
        """Inclusion frequency of a fixed pair matches alpha/n."""
        n, alpha, trials = 30, 3.0, 4000
        rng = np.random.default_rng(11)
        count = 0
        for _ in range(trials):
            pairs = draw_er_pairs(n, alpha, rng)
            count += bool(((pairs[:, 0] == 4) & (pairs[:, 1] == 17)).any())
        p = alpha / n
        assert abs(count / trials - p) < 3 * np.sqrt(p * (1 - p) / trials)

    def test_poisson_degree_distribution(self):
        """Chi-square against Poisson(alpha (n-1)/n) at n = 1e5."""
        n, alpha = 10**5, 5.0
        pairs = draw_er_pairs(n, alpha, np.random.default_rng(13))
        deg = np.bincount(pairs.ravel(), minlength=n)
        lam = alpha * (n - 1) / n
        kmax = 14
        observed = np.bincount(np.minimum(deg, kmax), minlength=kmax + 1)
        pmf = stats.poisson.pmf(np.arange(kmax), lam)
        expected = np.append(pmf, 1 - pmf.sum()) * n
        _, pvalue = stats.chisquare(observed, expected)
        assert pvalue > 0.001


class TestDrawSimilarities:
    def test_point_mass_agreement_indicator(self):
        truth = np.array([1, 1, -1, -1])
        pairs = np.array([(0, 1), (0, 2), (2, 3), (1, 3)])
        s = draw_similarities(pairs, truth, PointMass(1), PointMass(-1),
                              np.random.default_rng(0))
        same = truth[pairs[:, 0]] == truth[pairs[:, 1]]
        assert np.array_equal(s, np.where(same, 1.0, -1.0))

    def test_gaussian_within_mean_clt(self):
        truth = np.ones(2 * 10**6, dtype=np.int64)
        pairs = np.arange(2 * 10**6).reshape(-1, 2)
        s = draw_similarities(pairs, truth, Gaussian(0.5, 1), Gaussian(-0.5, 1),
                              np.random.default_rng(1))
        assert abs(s.mean() - 0.5) < 0.003  # 3 sigma at 1e6 samples

    def test_zero_signal_is_label_independent(self):
        """With p_in = p_out the two conditional samples look identical."""
        rng = np.random.default_rng(2)
        truth = 1 - 2 * rng.integers(0, 2, size=4000)
        pairs = draw_er_pairs(4000, 8.0, rng)
        s = draw_similarities(pairs, truth, Gaussian(0, 1), Gaussian(0, 1), rng)
        same = truth[pairs[:, 0]] == truth[pairs[:, 1]]
        _, pvalue = stats.ks_2samp(s[same], s[~same])
        assert pvalue > 0.01

    def test_unsampleable_handle(self):
        with pytest.raises(ValueError, match="cannot sample"):
            draw_similarities(np.array([[0, 1]]), np.array([1, 1]),
                              object(), PointMass(0), np.random.default_rng(0))


class TestMakeInstance:
    def _spec(self, **kw):
        base = dict(n=2000, q=2, alpha=8.0, eta=0.1,
                    p_in=Gaussian(0.5, 1), p_out=Gaussian(-0.5, 1), seed=5)
        base.update(kw)
        return ModelSpec(**base)

    def test_deterministic(self):
        g1, s1, d1 = make_instance(self._spec())
        g2, s2, d2 = make_instance(self._spec())
        assert np.array_equal(g1.pairs, g2.pairs)
        assert np.array_equal(s1, s2)
        assert np.array_equal(d1.truth, d2.truth)
        assert np.array_equal(d1.revealed, d2.revealed)

    def test_eta_one_reveals_all(self):
        _, _, data = make_instance(self._spec(eta=1.0))
        assert data.revealed.all()

    def test_mean_degree_concentration(self):
        spec = self._spec(n=10**4, alpha=10.0)
        g, _, _ = make_instance(spec)
        assert abs(2 * g.num_pairs / spec.n - 10.0) < 0.3

    def test_exchangeability_under_item_permutation(self):
        """Relabeling items of one instance leaves the summary statistics
        distributionally indistinguishable from a fresh instance."""
        spec_a = self._spec(n=4000, seed=21)
        spec_b = self._spec(n=4000, seed=22)
        ga, sa, da = make_instance(spec_a)
        gb, sb, db = make_instance(spec_b)
        # permute instance b's identities, preserving labels
        rng = np.random.default_rng(23)
        perm = rng.permutation(4000)
        pairs_p = perm[gb.pairs]
        truth_p = np.empty(4000, dtype=np.int64)
        truth_p[perm] = db.truth
        deg_a = np.bincount(ga.pairs.ravel(), minlength=4000)
        deg_b = np.bincount(pairs_p.ravel(), minlength=4000)
        _, p_deg = stats.ks_2samp(deg_a, deg_b)
        same_a = da.truth[ga.pairs[:, 0]] == da.truth[ga.pairs[:, 1]]
        same_b = truth_p[pairs_p[:, 0]] == truth_p[pairs_p[:, 1]]
        _, p_in = stats.ks_2samp(sa[same_a], sb[same_b])
        _, p_out = stats.ks_2samp(sa[~same_a], sb[~same_b])
        assert min(p_deg, p_in, p_out) > 0.001

    def test_zero_signal_weight_label_decorrelation(self):
        spec = self._spec(n=10**4, p_in=Gaussian(0, 1), p_out=Gaussian(0, 1), seed=31)
        g, sims, data = make_instance(spec)
        same = (data.truth[g.pairs[:, 0]] == data.truth[g.pairs[:, 1]]).astype(float)
        rho = np.corrcoef(sims, same)[0, 1]
        assert abs(rho) < 3 / np.sqrt(sims.shape[0])


class TestGaussianBlobs:
    def test_sigma_zero_exact_centers(self):
        centers = [[0.0, 0.0], [5.0, 5.0]]
        pts, lab = gaussian_blobs(100, centers, 0.0, np.random.default_rng(0))
        assert np.allclose(pts, np.asarray(centers)[lab])

    def test_five_sigma_separation_almost_separable(self):
        pts, lab = gaussian_blobs(10**4, [[-5.0, 0.0], [5.0, 0.0]], 1.0,
                                  np.random.default_rng(1))
        # the midline classifier errs with probability Phi(-5) ~ 3e-7
        est = (pts[:, 0] > 0).astype(int)
        assert np.mean(est != lab) < 1e-4

    def test_deterministic(self):
        a = gaussian_blobs(50, [[0, 0], [1, 1]], 0.5, np.random.default_rng(2))
        b = gaussian_blobs(50, [[0, 0], [1, 1]], 0.5, np.random.default_rng(2))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_needs_two_centers(self):
        with pytest.raises(ValueError):
            gaussian_blobs(10, [[0.0, 0.0]], 1.0, np.random.default_rng(0))


class TestSpecsAndParsing:
    def test_modelspec_validation(self):
        good = dict(n=10, q=2, alpha=2, eta=0.5, p_in=PointMass(1),
                    p_out=PointMass(0), seed=0)
        ModelSpec(**good)
        for bad in (dict(alpha=0), dict(eta=1.5), dict(q=1), dict(alpha=10)):
            with pytest.raises(ValueError):
                ModelSpec(**{**good, **bad})

    def test_labeled_dataset_validation(self):
        revealed = np.array([True, False])
        LabeledDataset(truth=np.array([1, -1]), revealed=revealed, n=2, q=2)
        with pytest.raises(ValueError):
            LabeledDataset(truth=np.array([2, 0]), revealed=revealed, n=2, q=2)
        # 1.0 and True pass wherever 1 does
        for q, truth in ((2, [1.0, -1.0]), (2, [True, True]), (3, [2.0, 1.0]),
                         (3, [True, False])):
            LabeledDataset(truth=np.array(truth), revealed=revealed, n=2, q=q)
        for q, truth in ((2, [0.5, 1]), (2, [np.nan, 1]), (2, [0, 1]), (3, [0.5, 1]),
                         (3, [np.nan, 1]), (3, [3, 0]), (3, [-1, 0])):
            with pytest.raises(ValueError, match="out of range"):
                LabeledDataset(truth=np.array(truth), revealed=revealed, n=2, q=q)

    def test_single_class_dataset_rejected(self):
        # one class would reach the walk as q = 1 and fail with a rank loss
        with pytest.raises(ValueError, match="q must be at least 2, got 1$"):
            dataset_from_truth(np.zeros(5, dtype=int), 0.4, np.random.default_rng(0))
        for q in (1, 0):
            with pytest.raises(ValueError, match=f"q must be at least 2, got {q}$"):
                LabeledDataset(truth=np.zeros(2), revealed=np.ones(2, bool), n=2, q=q)

    def test_parse_distribution(self):
        assert parse_distribution("gaussian:0.5:2") == Gaussian(0.5, 2)
        assert parse_distribution("gaussian:-1") == Gaussian(-1.0, 1.0)
        assert parse_distribution("point:1") == PointMass(1.0)
        assert parse_distribution("uniform:0:1") == Uniform(0.0, 1.0)
        with pytest.raises(ValueError):
            parse_distribution("beta:1:2")

    def test_split_seed_deterministic_and_distinct(self):
        a = split_seed(42, 4)
        assert a == split_seed(42, 4)
        assert len(set(a)) == 4
        assert a != split_seed(43, 4)

    def test_distribution_moments(self):
        assert Uniform(0, 1).second_moment() == pytest.approx(1 / 3)
        assert Gaussian(0.5, 1).second_moment() == pytest.approx(1.25)
        assert PointMass(-2).second_moment() == 4

    def test_gaussian_mass_interval_constant(self):
        """The literal z in ``Gaussian.mass_interval`` is scipy's value."""
        from scipy.special import ndtri

        z = float(ndtri(1 - 1e-8 / 2))
        assert Gaussian(0.0, 1.0).mass_interval() == (-z, z)

    def test_distribution_validation(self):
        # a zero variance is a point-like Gaussian; a nan or infinite
        # parameter, a negative variance, an empty interval or finite
        # parameters whose second moment overflows are refused
        assert Gaussian(1.0, 0.0).mass_interval() == (1.0, 1.0)
        nan, inf = float("nan"), float("inf")
        for law, params in [(Gaussian, (nan,)), (Gaussian, (0.0, inf)), (Gaussian, (0.0, -1.0)),
                            (PointMass, (nan,)), (PointMass, (-inf,)), (Uniform, (0.0, inf)),
                            (Uniform, (nan, 1.0)), (Uniform, (1.0, 1.0)),
                            (Gaussian, (1e300,)), (Gaussian, (1e154, 1e308)),
                            (PointMass, (-1e300,)), (Uniform, (0.0, 1e300))]:
            with pytest.raises(ValueError):
                law(*params)
