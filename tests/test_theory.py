"""Statistics, recursions, bounds, and the density-evolution oracle."""

import threading

import numpy as np
import pytest

from nblw import (
    AffineWeight,
    FunctionWeight,
    Gaussian,
    ModelSpec,
    PointMass,
    Uniform,
    centered_weight,
    check_error_bounds,
    chernoff_recursion,
    density_evolution,
    identity_weight,
    mgf_envelope_sequences,
    optimal_weight,
    snr_recursion,
    sufficient_alpha,
    tau_optimal,
    theory_report,
    weight_stats,
)
from nblw.theory import _DE_BLOCK


class TestWeightStats:
    def test_point_masses(self):
        ws = weight_stats(PointMass(1.0), PointMass(-1.0), alpha=7.0)
        assert ws.delta == 1.0 and ws.sigma2 == 1.0 and ws.tau == 7.0
        assert not ws.monte_carlo

    def test_centered_gaussians_analytic(self):
        p_in, p_out = Gaussian(0.5, 1), Gaussian(-0.5, 1)
        ws = weight_stats(p_in, p_out, centered_weight(p_in, p_out), alpha=10.0)
        assert ws.delta == pytest.approx(0.5)
        assert ws.sigma2 == pytest.approx(1.25)
        assert ws.tau == pytest.approx(2.0)
        assert ws.mean_w == pytest.approx(0.0)

    def test_monte_carlo_agrees_with_analytic(self):
        p_in, p_out = Gaussian(0.5, 1), Gaussian(-0.5, 1)
        w = centered_weight(p_in, p_out)
        mc = weight_stats(p_in, p_out, FunctionWeight(w, "mc"), alpha=10.0,
                          rng=np.random.default_rng(0))
        assert mc.monte_carlo and mc.delta_se > 0
        assert abs(mc.delta - 0.5) <= 3 * mc.delta_se
        assert abs(mc.sigma2 - 1.25) <= 3 * mc.sigma2_se

    def test_zero_signal(self):
        ws = weight_stats(Gaussian(0, 1), Gaussian(0, 1), alpha=5.0)
        assert ws.delta == 0.0 and ws.tau == 0.0

    def test_degenerate_weighting(self):
        with pytest.raises(ValueError, match="degenerate"):
            weight_stats(PointMass(0.0), PointMass(0.0), alpha=1.0)


class TestSnrRecursion:
    def test_tau_zero_collapses(self):
        r, bound = snr_recursion(0.0, 0.5, 5)
        assert np.all(r[1:] == 0.0) and bound == 1.0

    def test_tau_four_fixed_point(self):
        r, bound = snr_recursion(4.0, 0.3, 200)
        assert abs(r[-1] - 0.75) < 1e-10
        assert bound == pytest.approx(0.25, abs=1e-10)

    def test_direct_arithmetic(self):
        r, _ = snr_recursion(2.0, 0.5, 1)
        assert r[0] == 0.25
        assert r[1] == pytest.approx(1 / 3, abs=1e-15)
        assert r[2] == pytest.approx(0.4, abs=1e-15)

    def test_subcritical_decay(self):
        r, _ = snr_recursion(0.9, 0.5, 500)
        assert r[-1] < 1e-10

    def test_monotone_convergence_from_both_sides(self):
        tau = 3.0
        fp = (tau - 1) / tau
        below, _ = snr_recursion(tau, np.sqrt(fp / 4), 60)
        strictly = below < fp - 1e-12  # strict growth until float convergence
        assert np.all(np.diff(below)[strictly[:-1]] > 0)
        assert np.all(np.diff(below) >= 0) and below[-1] <= fp + 1e-12
        # start above the fixed point: r_0 = 0.9 > 2/3
        above, _ = snr_recursion(tau, np.sqrt(0.9), 60)
        strictly = above > fp + 1e-12
        assert np.all(np.diff(above)[strictly[:-1]] < 0)
        assert np.all(np.diff(above) <= 0) and above[-1] >= fp - 1e-12

    @pytest.mark.parametrize("tau, k", [(np.inf, 3), (np.nan, 3), (-1.0, 3), (2.0, -1)])
    def test_rejects_bad_tau_or_k(self, tau, k):
        with pytest.raises(ValueError, match="tau|k must"):
            snr_recursion(tau, 0.1, k)


class TestChernoffRecursion:
    def test_subthreshold_uninformative(self):
        q, bound, informative = chernoff_recursion(2.0, 0.5, 500, 1.0, 1.0)
        assert q[-1] < 1e-10 and bound > 1 - 1e-9 and not informative

    def test_tau_four_fixed_point(self):
        q, _, informative = chernoff_recursion(4.0, 0.3, 500, 1.0, 1.0)
        assert abs(q[-1] - 2.0) < 1e-10 and informative

    def test_eta_one_exact_fixed_point(self):
        q, _, _ = chernoff_recursion(4.0, 1.0, 3, 1.0, 1.0)
        assert q[0] == 2.0 and q[1] == 2.0

    def test_bound_uses_sigma_delta_ratio(self):
        # q stays at its fixed point 2.0; only min(1, sigma2/delta) varies
        _, b1, _ = chernoff_recursion(4.0, 1.0, 10, delta=1.0, sigma2=0.5)
        _, b2, _ = chernoff_recursion(4.0, 1.0, 10, delta=1.0, sigma2=2.0)
        assert b1 == pytest.approx(np.exp(-2.0 / 4 * 0.5))
        assert b2 == pytest.approx(np.exp(-2.0 / 4 * 1.0))

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            chernoff_recursion(4.0, 0.5, 5, 0.0, 1.0)

    @pytest.mark.parametrize("tau, k", [(np.inf, 3), (np.nan, 3), (-1.0, 3), (2.0, -1)])
    def test_rejects_bad_tau_or_k(self, tau, k):
        with pytest.raises(ValueError, match="tau|k must"):
            chernoff_recursion(tau, 0.1, k, 0.5, 1.25)


class TestEnvelopeSequences:
    def test_initial_values(self):
        a, b, _ = mgf_envelope_sequences(3.0, 0.5, 0.5, 0.7, 4)
        assert a[0] == 0.7 and b[0] == 0.5

    def test_direct_arithmetic(self):
        a, b, q = mgf_envelope_sequences(2.0, 1.0, 1.0, 1.0, 2)
        assert a[1] == 2.0 and b[1] == 4.0 and q[1] == 1.0

    def test_identity_with_chernoff_recursion(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            delta = rng.uniform(0.2, 1.0)
            sigma2 = rng.uniform(0.2, 2.0)
            alpha = rng.uniform(1.05 / min(delta, sigma2), 3.0 / min(delta, sigma2))
            eta = rng.uniform(0.01, 1.0)
            k = int(rng.integers(1, 20))
            tau = alpha * delta**2 / sigma2
            _, _, q_ab = mgf_envelope_sequences(alpha, delta, sigma2, eta, k)
            q_rec, _, _ = chernoff_recursion(tau, eta, k, delta, sigma2)
            rel = np.abs(q_ab - q_rec) / np.maximum(np.abs(q_rec), 1e-300)
            assert rel.max() < 1e-12

    def test_hypothesis_violation(self):
        with pytest.raises(ValueError, match="alpha"):
            mgf_envelope_sequences(1.0, 0.5, 2.0, 0.5, 3)
        for alpha, delta, sigma2 in [(np.inf, 0.5, 0.6), (np.nan, 0.5, 0.6),
                                     (4.0, np.inf, 0.6), (4.0, 0.5, np.inf)]:
            with pytest.raises(ValueError, match="finite alpha"):
                mgf_envelope_sequences(alpha, delta, sigma2, 0.3, 3)
        with pytest.raises(ValueError, match="k must"):
            mgf_envelope_sequences(4.0, 0.5, 0.6, 0.3, -1)

    def test_sequences_increasing_under_hypotheses(self):
        a, b, _ = mgf_envelope_sequences(4.0, 0.5, 0.6, 0.3, 10)
        assert np.all(np.diff(a) > 0) and np.all(np.diff(b) > 0)


class TestOptimalWeight:
    def test_zero_signal_is_zero(self):
        w = optimal_weight(Gaussian(0, 1), Gaussian(0, 1))
        s = np.linspace(-3, 3, 101)
        assert np.allclose(w(s), 0.0)
        assert tau_optimal(5.0, Gaussian(0, 1), Gaussian(0, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_supports(self):
        p_in, p_out = Uniform(0, 1), Uniform(2, 3)
        w = optimal_weight(p_in, p_out)
        assert np.allclose(w(np.array([0.2, 0.8])), 1.0)
        assert np.allclose(w(np.array([2.2, 2.8])), -1.0)
        assert tau_optimal(6.0, p_in, p_out) == pytest.approx(6.0, rel=1e-6)

    def test_quadrature_vs_monte_carlo(self):
        p_in, p_out = Gaussian(0.5, 1), Gaussian(-0.5, 1)
        alpha = 10.0
        tau_quad = tau_optimal(alpha, p_in, p_out)
        ws = weight_stats(p_in, p_out, optimal_weight(p_in, p_out), alpha,
                          rng=np.random.default_rng(1))
        se = 3 * (abs(2 * ws.delta * ws.delta_se / ws.sigma2 * alpha)
                  + abs(ws.tau / ws.sigma2 * ws.sigma2_se))
        assert abs(ws.tau - tau_quad) <= max(se, 1e-3 * tau_quad)
        # for the optimal weighting, delta and sigma2 coincide
        assert abs(ws.delta - ws.sigma2) <= 3 * (ws.delta_se + ws.sigma2_se)

    def test_needs_densities(self):
        with pytest.raises(ValueError, match="densities"):
            optimal_weight(PointMass(1), PointMass(-1))
        # a zero-variance Gaussian is a point mass
        for laws in [(Gaussian(0.5, 0.0), Gaussian(-0.5, 1.0)),
                     (Gaussian(0.5, 1.0), Gaussian(-0.5, 0.0))]:
            with pytest.raises(ValueError, match="densities"):
                optimal_weight(*laws)
            with pytest.raises(ValueError, match="densities"):
                tau_optimal(5.0, *laws)


class TestSufficientAlpha:
    def test_plugin_values(self):
        assert sufficient_alpha(0.0, 1.0, 1.0) == 2.0
        assert sufficient_alpha(0.1, 0.5, 1.25) == pytest.approx(2 * 1.25 / (0.9 * 0.25))

    def test_consistency_with_tau(self):
        delta, sigma2, eta = 0.4, 0.9, 0.3
        alpha = sufficient_alpha(eta, delta, sigma2)
        ws_tau = alpha * delta**2 / sigma2
        assert ws_tau == pytest.approx(2 / (1 - eta))

    def test_eta_one_rejected(self):
        with pytest.raises(ValueError):
            sufficient_alpha(1.0, 0.5, 1.0)


class TestDensityEvolution:
    def _spec(self, **kw):
        base = dict(n=10**5, q=2, alpha=20.0, eta=1.0,
                    p_in=PointMass(1.0), p_out=PointMass(-1.0), seed=0)
        base.update(kw)
        return ModelSpec(**base)

    def test_fully_labeled_point_mass_error_vanishes(self):
        spec = self._spec()
        de = density_evolution(spec, identity_weight(), k=0, pop=20000,
                               rng=np.random.default_rng(0))
        assert de.error < 1e-3

    def test_moment_trajectories_match_recursions(self):
        """Across independent runs, the population moments follow the
        first-moment geometric law and the second-moment recursion."""
        alpha, eta, delta, sigma2, k, runs = 25.0, 0.1, 0.5, 1.25, 4, 16
        p_in, p_out = Gaussian(0.5, 1), Gaussian(-0.5, 1)
        w = centered_weight(p_in, p_out)
        m1 = np.empty((runs, k + 1))
        m2 = np.empty((runs, k + 1))
        m1n = np.empty((runs, k + 1))
        m2n = np.empty((runs, k + 1))
        for r in range(runs):
            spec = self._spec(alpha=alpha, eta=eta, p_in=p_in, p_out=p_out)
            de = density_evolution(spec, w, k, pop=20000,
                                   rng=np.random.default_rng(100 + r))
            m1[r], m2[r] = de.first_moment, de.second_moment
            m1n[r], m2n[r] = de.first_moment_neg, de.second_moment_neg
        pred1 = eta * (alpha * delta) ** np.arange(k + 1)
        pred2 = np.empty(k + 1)
        pred2[0] = 1.0
        for l in range(k):
            pred2[l + 1] = alpha**2 * delta**2 * pred1[l] ** 2 + alpha * sigma2 * pred2[l]
        for l in range(1, k + 1):
            assert abs(m1[:, l].mean() - pred1[l]) <= 3 * m1[:, l].std(ddof=1) / np.sqrt(runs)
            assert abs(m2[:, l].mean() - pred2[l]) <= 3 * m2[:, l].std(ddof=1) / np.sqrt(runs)
            # symmetry: negative population mirrors the positive one
            sym = (m1[:, l] + m1n[:, l]).mean()
            assert abs(sym) <= 3 * (m1[:, l] + m1n[:, l]).std(ddof=1) / np.sqrt(runs)
            eq2 = (m2[:, l] - m2n[:, l]).mean()
            assert abs(eq2) <= 3 * (m2[:, l] - m2n[:, l]).std(ddof=1) / np.sqrt(runs)

    def test_needs_binary_model(self):
        spec = ModelSpec(n=100, q=3, alpha=5.0, eta=0.5,
                         p_in=PointMass(1), p_out=PointMass(0), seed=0)
        with pytest.raises(ValueError, match="q == 2"):
            density_evolution(spec, identity_weight(), 2, pop=100)

    def test_same_seed_same_result(self):
        """The two populations sweep on two threads, each with its own
        generator, so a seed fixes every bit of the result."""
        p_in, p_out = Gaussian(0.5, 1), Gaussian(-0.5, 1)
        spec = self._spec(alpha=25.0, eta=0.1, p_in=p_in, p_out=p_out)
        w = centered_weight(p_in, p_out)
        a, b = (density_evolution(spec, w, 3, pop=3 * _DE_BLOCK + 17,
                                  rng=np.random.default_rng(7)) for _ in range(2))
        assert np.array_equal(a.error, b.error) and np.array_equal(a.error_se, b.error_se)
        for name in ("first_moment", "second_moment", "first_moment_neg", "second_moment_neg"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    @pytest.mark.parametrize("pop", [2, _DE_BLOCK - 1, _DE_BLOCK, _DE_BLOCK + 1])
    def test_every_element_swept(self, pop):
        """Fully labelled point laws at k = 0: each pooled element is a sum
        of Poisson(20) + Poisson(20) terms of the right sign, so an element
        that no block wrote shows up as an error above 0."""
        spec = self._spec(alpha=40.0)
        de = density_evolution(spec, identity_weight(), 0, pop=pop,
                               rng=np.random.default_rng(pop))
        assert de.pop == pop and de.error == 0.0
        assert de.first_moment[0] == 1.0 and de.first_moment_neg[0] == -1.0

    def test_weighting_error_propagates_and_joins_worker(self):
        def broken(s):
            raise ValueError("broken weighting")

        before = threading.active_count()
        with pytest.raises(ValueError, match="broken weighting") as info:
            density_evolution(self._spec(), FunctionWeight(broken), 2, pop=100,
                              rng=np.random.default_rng(0))
        # the traceback in ``info`` keeps the call's frame alive, so a worker
        # left unjoined would still be counted here
        assert info.value is not None and threading.active_count() == before

    def test_non_finite_message_raises_and_joins_worker(self):
        """A NaN message passes neither sign test, so unchecked it would
        count as a correct decision and report error 0."""
        nan_above_3 = FunctionWeight(lambda s: np.where(s > 3, np.nan, s))
        spec = self._spec(alpha=10.0, eta=0.1, p_in=Gaussian(0.5, 1.0),
                          p_out=Gaussian(-0.5, 1.0))
        before = threading.active_count()
        with pytest.raises(ValueError, match="non-finite message after sweep 1 of 5") as info:
            density_evolution(spec, nan_above_3, 4, pop=2000, rng=np.random.default_rng(0))
        assert info.value is not None and threading.active_count() == before


class TestBoundChecks:
    def test_tau_zero_trivially_passes(self):
        stats = weight_stats(Gaussian(0, 1), Gaussian(0, 1), alpha=5.0)
        report = theory_report(stats, 0.5, 5)
        assert report.cantelli_bound == 1.0
        check = check_error_bounds(report, mc_error=0.5, mc_se=0.01)
        assert bool(check) and check.chernoff_ok is None  # hypotheses fail at delta=0

    def test_point_mass_model_bounds_hold(self):
        p_in, p_out = PointMass(1.0), PointMass(-1.0)
        stats = weight_stats(p_in, p_out, alpha=10.0)
        report = theory_report(stats, 0.1, 10)
        spec = ModelSpec(n=10**5, q=2, alpha=10.0, eta=0.1,
                         p_in=p_in, p_out=p_out, seed=0)
        de = density_evolution(spec, identity_weight(), 10, pop=30000,
                               rng=np.random.default_rng(0))
        check = check_error_bounds(report, de.error, de.error_se)
        assert bool(check) and check.chernoff_ok is True

    def test_gaussian_tau5_bounds_hold(self):
        p_in, p_out = Gaussian(0.5, 1), Gaussian(-0.5, 1)
        w = centered_weight(p_in, p_out)
        stats = weight_stats(p_in, p_out, w, alpha=25.0)
        report = theory_report(stats, 0.1, 10)
        spec = ModelSpec(n=10**5, q=2, alpha=25.0, eta=0.1,
                         p_in=p_in, p_out=p_out, seed=0)
        de = density_evolution(spec, w, 10, pop=30000, rng=np.random.default_rng(1))
        assert bool(check_error_bounds(report, de.error, de.error_se))

    def test_report_roundtrip_and_recursion_consistency(self):
        stats = weight_stats(PointMass(1.0), PointMass(-1.0), alpha=10.0)
        report = theory_report(stats, 0.1, 10)
        # trajectories re-satisfy their defining recursions exactly
        r, q, tau = report.r_traj, report.q_traj, report.tau
        for l in range(len(r) - 1):
            assert r[l + 1] == tau * r[l] / (1 + tau * r[l])
            assert q[l + 1] == tau * q[l] / (1 + 1.5 * max(1.0, q[l]))
        rec = report.to_dict()
        assert rec["tau"] == 10.0 and 0 <= rec["cantelli_bound"] <= 1

    @pytest.mark.parametrize("alpha, r_limit, q_limit", [
        (10.0, 0.9, 6.0),   # tau 10: both recursions have a positive limit
        (2.0, 0.5, 0.0),    # tau 2, below the Chernoff threshold 2.5
        (0.5, 0.0, 0.0),    # tau 1/2, below the detection threshold 1
    ])
    def test_report_limits(self, alpha, r_limit, q_limit):
        stats = weight_stats(PointMass(1.0), PointMass(-1.0), alpha=alpha)
        rec = theory_report(stats, 0.1, 10).to_dict()
        assert rec["r_limit"] == pytest.approx(r_limit, abs=1e-15)
        assert rec["q_limit"] == pytest.approx(q_limit, abs=1e-15)
        assert list(rec)[-3:] == ["sufficient_alpha", "r_limit", "q_limit"]


class TestWeightingProperties:
    def test_centering_improves_tau_across_families(self):
        """Removing a nonzero weight mean strictly increases tau."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            mu_out = rng.uniform(-1, 1)
            mu_in = mu_out + rng.uniform(0.2, 2.0)
            var = rng.uniform(0.3, 2.0)
            p_in, p_out = Gaussian(mu_in, var), Gaussian(mu_out, var)
            raw = weight_stats(p_in, p_out, identity_weight(), alpha=4.0)
            cen = weight_stats(p_in, p_out, centered_weight(p_in, p_out), alpha=4.0)
            if abs(raw.mean_w) > 1e-12:
                assert cen.tau > raw.tau

    def test_optimal_weight_dominates_battery(self):
        p_in, p_out = Gaussian(0.5, 1), Gaussian(-0.5, 1)
        alpha = 8.0
        tau_star = tau_optimal(alpha, p_in, p_out)
        battery = [
            centered_weight(p_in, p_out),
            FunctionWeight(np.sign, "sign"),
            FunctionWeight(lambda s: np.tanh(2 * s), "tanh"),
            FunctionWeight(lambda s: np.clip(s, -1, 1), "clip"),
            AffineWeight(shift=0.3),
        ]
        for w in battery:
            ws = weight_stats(p_in, p_out, w, alpha, rng=np.random.default_rng(9))
            slack = 3 * (ws.delta_se + ws.sigma2_se + 1e-9) * alpha
            assert ws.tau <= tau_star + slack
