"""Closed-form performance statistics and a density-evolution oracle.

For the symmetric two-cluster model everything is governed by three
scalars of the weighting function w applied to the similarities:

    delta  = (E[w | same cluster] - E[w | different clusters]) / 2
    sigma2 = (E[w^2 | same] + E[w^2 | different]) / 2
    tau    = alpha * delta^2 / sigma2

Two scalar recursions bound the misclassification probability after k
iterations of the walk (asymptotically in the item count):

  * the squared-mean-to-second-moment ratio r_l of the message
    distribution, giving the Cantelli bound 1 - r_{k+1};
  * the sub-exponential parameter q_l, giving the Chernoff bound
    exp(-q_{k+1}/4 * min(1, sigma2/delta)), valid when alpha*delta > 1
    and alpha*sigma2 > 1.

The same message distribution can be simulated directly: a message
pointing at a random edge is, in the large-graph limit, a sum over a
Poisson(alpha/2) number of same-cluster children and a Poisson(alpha/2)
number of cross-cluster children of weight-times-child-message terms.
:func:`density_evolution` estimates this recursion with a population of
samples and returns the resulting error estimate P(sigma * pooled <= 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Gaussian, ModelSpec

__all__ = [
    "AffineWeight",
    "FunctionWeight",
    "identity_weight",
    "centered_weight",
    "optimal_weight",
    "WeightStats",
    "weight_stats",
    "snr_recursion",
    "chernoff_recursion",
    "mgf_envelope_sequences",
    "tau_optimal",
    "sufficient_alpha",
    "DensityEvolutionResult",
    "density_evolution",
    "TheoryReport",
    "theory_report",
    "BoundCheck",
    "check_error_bounds",
]

# Monte-Carlo sample count for weightings without analytic moments.
MC_SAMPLES = 10**6

# Below this signal-to-noise ratio the Chernoff recursion collapses to 0
# and its bound carries no information.
CHERNOFF_TAU_THRESHOLD = 2.5


# ---------------------------------------------------------------------------
# weighting functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineWeight:
    """w(s) = s - shift.

    Its moments follow from a law's first and second moments, so this is
    the exact path for the identity and centered weightings.
    """

    shift: float = 0.0

    def __call__(self, s):
        return np.asarray(s, dtype=np.float64) - self.shift


@dataclass(frozen=True)
class FunctionWeight:
    """Arbitrary pointwise weighting; moments via Monte Carlo only."""

    fn: object
    name: str = "custom"

    def __call__(self, s):
        return np.asarray(self.fn(np.asarray(s, dtype=np.float64)), dtype=np.float64)


def identity_weight() -> AffineWeight:
    return AffineWeight()


def centered_weight(p_in, p_out) -> AffineWeight:
    """w(s) = s - E[s], centering by the exact marginal similarity mean
    (equal-size clusters: half the pairs within, half across)."""
    return AffineWeight(shift=0.5 * (p_in.mean() + p_out.mean()))


def optimal_weight(p_in, p_out) -> FunctionWeight:
    """The variance-optimal weighting (p_in - p_out) / (p_in + p_out).

    Defined as 0 wherever both densities vanish.  Requires pointwise
    densities on both distribution handles; a zero-variance Gaussian is a
    point mass and has none.
    """
    if not all(hasattr(d, "pdf") and not (isinstance(d, Gaussian) and d.var == 0)
               for d in (p_in, p_out)):
        raise ValueError("optimal weighting needs pointwise densities")

    def w(s):
        fi, fo = p_in.pdf(s), p_out.pdf(s)
        num, den = fi - fo, fi + fo
        out = np.zeros_like(den)
        np.divide(num, den, out=out, where=den > 0)
        return out

    return FunctionWeight(w, "optimal")


# ---------------------------------------------------------------------------
# weight statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightStats:
    """The (delta, sigma2, tau) triple for one model and weighting.

    ``delta_se``/``sigma2_se`` are nonzero only when the moments were
    estimated by Monte Carlo.
    """

    delta: float
    sigma2: float
    tau: float
    alpha: float
    mean_w: float
    delta_se: float = 0.0
    sigma2_se: float = 0.0
    monte_carlo: bool = False


def _analytic_affine_moments(dist, w: AffineWeight):
    m1, m2 = dist.mean(), dist.second_moment()
    return m1 - w.shift, m2 - 2 * w.shift * m1 + w.shift**2


def weight_stats(p_in, p_out, w=None, alpha: float = 1.0, rng=None) -> WeightStats:
    """Compute delta, sigma2, mean and tau for a weighting function.

    Affine weightings are computed exactly from the laws' moments; any
    other weighting falls back to Monte Carlo with ``MC_SAMPLES`` draws per
    distribution and reported standard errors.
    """
    if w is None:
        w = identity_weight()
    analytic = isinstance(w, AffineWeight)
    if analytic:
        e1_in, e2_in = _analytic_affine_moments(p_in, w)
        e1_out, e2_out = _analytic_affine_moments(p_out, w)
        d_se = s_se = 0.0
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        wi = w(p_in.sample(rng, MC_SAMPLES))
        wo = w(p_out.sample(rng, MC_SAMPLES))
        e1_in, e1_out = wi.mean(), wo.mean()
        e2_in, e2_out = (wi**2).mean(), (wo**2).mean()
        # SE of delta and of sigma2 from the per-sample variances
        d_se = 0.5 * math.sqrt(wi.var() / MC_SAMPLES + wo.var() / MC_SAMPLES)
        s_se = 0.5 * math.sqrt((wi**2).var() / MC_SAMPLES + (wo**2).var() / MC_SAMPLES)

    delta = 0.5 * (e1_in - e1_out)
    sigma2 = 0.5 * (e2_in + e2_out)
    mean_w = 0.5 * (e1_in + e1_out)
    if sigma2 <= 0:
        raise ValueError("degenerate weighting: E[w^2] = 0")
    return WeightStats(
        delta=float(delta),
        sigma2=float(sigma2),
        tau=float(alpha * delta**2 / sigma2),
        alpha=float(alpha),
        mean_w=float(mean_w),
        delta_se=float(d_se),
        sigma2_se=float(s_se),
        monte_carlo=not analytic,
    )


# ---------------------------------------------------------------------------
# scalar recursions and bounds
# ---------------------------------------------------------------------------


def snr_recursion(tau: float, eta: float, k: int):
    """Ratio r_l = E[message]^2 / E[message^2] and its Cantelli bound.

    r_0 = eta^2 and r_{l+1} = tau * r_l / (1 + tau * r_l).  Returns the
    trajectory (r_0..r_{k+1}) and the error bound 1 - r_{k+1}.  For
    tau > 1 the trajectory converges to (tau - 1) / tau from any positive
    start; for tau <= 1 it decays to 0 and the bound degenerates to 1.
    """
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    r = np.empty(k + 2)
    r[0] = eta**2
    for l in range(k + 1):
        r[l + 1] = tau * r[l] / (1.0 + tau * r[l])
    return r, float(1.0 - r[k + 1])


def chernoff_recursion(tau: float, eta: float, k: int, delta: float, sigma2: float):
    """Sub-exponential parameter q_l and its Chernoff bound.

    q_0 = 2 * eta^2 and q_{l+1} = tau * q_l / (1 + 1.5 * max(1, q_l)).
    Returns (trajectory q_0..q_{k+1}, bound exp(-q_{k+1}/4 *
    min(1, sigma2/delta)), informative flag).  Below tau = 5/2 the
    trajectory collapses to 0 from any start and the bound is
    uninformative; above, it converges to (2/3) * (tau - 1).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    q = np.empty(k + 2)
    q[0] = 2.0 * eta**2
    for l in range(k + 1):
        q[l + 1] = tau * q[l] / (1.0 + 1.5 * max(1.0, q[l]))
    bound = math.exp(-q[k + 1] / 4.0 * min(1.0, sigma2 / delta))
    return q, float(bound), tau > CHERNOFF_TAU_THRESHOLD


def mgf_envelope_sequences(alpha: float, delta: float, sigma2: float, eta: float, k: int):
    """Growth sequences (a_l, b_l) of the moment-generating envelope
    exp(sigma * lam * a_l + lam^2 * b_l) for the message distribution.

    a_0 = eta, b_0 = 1/2, then a_{l+1} = alpha*delta*a_l and
    b_{l+1} = alpha*sigma2*(b_l + 1.5*max(a_l^2, b_l)).  Requires
    finite alpha*delta > 1 and alpha*sigma2 > 1 (both sequences then
    increase), and k >= 0.
    Returns (a, b, q) with q_l = a_l^2 / b_l, the same quantity as
    :func:`chernoff_recursion`.

    Both sequences grow geometrically; for large k prefer
    :func:`chernoff_recursion`, which iterates the bounded ratio directly.
    """
    if not (1.0 < alpha * delta < math.inf and 1.0 < alpha * sigma2 < math.inf):
        raise ValueError(
            "envelope sequences need finite alpha*delta > 1 and alpha*sigma2 > 1 "
            f"(got {alpha * delta:.4g} and {alpha * sigma2:.4g})"
        )
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    a = np.empty(k + 2)
    b = np.empty(k + 2)
    a[0], b[0] = eta, 0.5
    for l in range(k + 1):
        a[l + 1] = alpha * delta * a[l]
        b[l + 1] = alpha * sigma2 * (b[l] + 1.5 * max(a[l] ** 2, b[l]))
    return a, b, a**2 / b


def tau_optimal(alpha: float, p_in, p_out) -> float:
    """Signal-to-noise ratio of the optimal weighting, by quadrature:
    (alpha/2) * integral of (p_in - p_out)^2 / (p_in + p_out).

    The integration window covers all but 1e-8 of both masses; the
    integrand is taken as 0 where both densities vanish.
    """
    from scipy.integrate import quad

    optimal_weight(p_in, p_out)  # validates densities exist

    def integrand(s):
        fi, fo = float(p_in.pdf(s)), float(p_out.pdf(s))
        den = fi + fo
        return (fi - fo) ** 2 / den if den > 0 else 0.0

    lo_i, hi_i = p_in.mass_interval()
    lo_o, hi_o = p_out.mass_interval()
    lo, hi = min(lo_i, lo_o), max(lo_o, hi_o, hi_i)
    breaks = sorted({lo_i, hi_i, lo_o, hi_o} - {lo, hi})
    val, _ = quad(integrand, lo, hi, points=breaks or None, limit=200)
    return float(alpha / 2.0 * val)


def sufficient_alpha(eta: float, delta: float, sigma2: float) -> float:
    """Mean degree at which improving the initial labeling is guaranteed:
    the alpha solving tau(alpha, w) = 2 / (1 - eta)."""
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1); the condition is vacuous at 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    return 2.0 * sigma2 / ((1.0 - eta) * delta**2)


# ---------------------------------------------------------------------------
# density evolution by population dynamics
# ---------------------------------------------------------------------------


@dataclass
class DensityEvolutionResult:
    """Population-dynamics estimate of the misclassification probability.

    ``first_moment``/``second_moment`` are per-sweep empirical moments of
    the positive-cluster message population, l = 0..k; the negative
    population mirrors them (recorded for the symmetry checks).
    """

    error: float
    error_se: float
    first_moment: np.ndarray
    second_moment: np.ndarray
    first_moment_neg: np.ndarray
    second_moment_neg: np.ndarray
    k: int
    pop: int


# Population elements per block of a sweep.  A block's temporaries take
# O(block * alpha) memory; unblocked, each of the two sweeping threads would
# hold O(pop * alpha) of them, the worker's in its own malloc arena.
_DE_BLOCK = 4096


def _de_sweep(rng, spec, w, same_pop, other_pop):
    """One resampling sweep: each new element is a Poisson(alpha/2) sum of
    weighted same-cluster messages plus a Poisson(alpha/2) sum of weighted
    cross-cluster messages, everything drawn with replacement.  The new
    population is drawn ``_DE_BLOCK`` elements at a time."""
    pop = same_pop.shape[0]
    out = np.zeros(pop)
    for lo in range(0, pop, _DE_BLOCK):
        b = min(_DE_BLOCK, pop - lo)
        for dist, source in ((spec.p_in, same_pop), (spec.p_out, other_pop)):
            counts = rng.poisson(spec.alpha / 2.0, size=b)
            total = int(counts.sum())
            if total == 0:
                continue
            weights = w(dist.sample(rng, total))
            # the gather is a fresh array, so the product goes in place
            values = source[rng.integers(0, source.shape[0], size=total)]
            values *= weights
            segments = np.repeat(np.arange(b), counts)
            out[lo:lo + b] += np.bincount(segments, weights=values, minlength=b)
    return out


def _de_init(rng, sign, eta, pop):
    """The walk's initial messages: ``sign`` with probability eta, otherwise
    a fair +-1."""
    revealed = rng.random(pop) < eta
    return np.where(revealed, sign, (1 - 2 * rng.integers(0, 2, size=pop)).astype(np.float64))


def density_evolution(
    spec: ModelSpec, w, k: int, pop: int = 100_000, rng=None
) -> DensityEvolutionResult:
    """Estimate the error P(sigma * pooled <= 0) after k iterations.

    Two populations track the message distribution conditioned on the
    source cluster.  Initialization matches the walk: the true value
    (+1 or -1) with probability eta, otherwise a fair +-1.  After k
    message sweeps one further sweep plays the role of the pooling step.
    A NaN or infinite message, e.g. from a weighting that returns one,
    raises ValueError after its sweep instead of counting as a decision.

    The two populations are swept on two threads, the positive one in a
    worker that is started and joined within the call.  Each population
    draws its initial values and every sweep from its own generator
    spawned from ``rng`` (``rng.spawn(2)``), so the result depends on the
    seed only, never on the core count or the threads' timing.  ``w`` and
    the laws' ``sample`` are called from both threads at once.  These
    streams replaced one generator shared by both populations, so the
    estimates for a given seed changed once, with the same distribution.
    """
    from concurrent.futures import ThreadPoolExecutor

    if spec.q != 2:
        raise ValueError("density evolution is defined for q == 2")
    if pop < 2:
        raise ValueError("population too small")
    if rng is None:
        rng = np.random.default_rng(spec.seed)

    rp, rm = rng.spawn(2)
    vp = _de_init(rp, 1.0, spec.eta, pop)
    vm = _de_init(rm, -1.0, spec.eta, pop)

    m1p, m2p = np.empty(k + 1), np.empty(k + 1)
    m1m, m2m = np.empty(k + 1), np.empty(k + 1)
    with ThreadPoolExecutor(max_workers=1) as worker:
        # sweep l = k is the pooling step
        for l in range(k + 1):
            m1p[l], m2p[l] = vp.mean(), (vp**2).mean()
            m1m[l], m2m[l] = vm.mean(), (vm**2).mean()
            next_p = worker.submit(_de_sweep, rp, spec, w, vp, vm)
            next_m = _de_sweep(rm, spec, w, vm, vp)
            vp, vm = next_p.result(), next_m
            if not (np.all(np.isfinite(vp)) and np.all(np.isfinite(vm))):
                raise ValueError(f"non-finite message after sweep {l + 1} of {k + 1}")

    err = 0.5 * (np.mean(vp <= 0.0) + np.mean(vm >= 0.0))
    se = math.sqrt(max(err * (1.0 - err), 1.0 / (2 * pop)) / (2 * pop))
    return DensityEvolutionResult(
        error=float(err),
        error_se=float(se),
        first_moment=m1p,
        second_moment=m2p,
        first_moment_neg=m1m,
        second_moment_neg=m2m,
        k=k,
        pop=pop,
    )


# ---------------------------------------------------------------------------
# combined report and bound checks
# ---------------------------------------------------------------------------


@dataclass
class TheoryReport:
    """All scalar predictions for one (model, weighting, k) triple."""

    alpha: float
    eta: float
    k: int
    delta: float
    sigma2: float
    tau: float
    mean_w: float
    r_traj: np.ndarray
    q_traj: np.ndarray
    cantelli_bound: float
    chernoff_bound: float
    informative: bool
    envelope_valid: bool

    def to_dict(self) -> dict:
        """Flat record for CSV/JSON emission, with the fixed points of both
        recursions: r_limit = (tau - 1)/tau for tau > 1 and
        q_limit = (2/3)(tau - 1) above ``CHERNOFF_TAU_THRESHOLD``, else 0;
        both are 0 for a signal-free model (delta <= 0)."""
        rec = {
            "alpha": self.alpha,
            "eta": self.eta,
            "k": self.k,
            "delta": self.delta,
            "sigma2": self.sigma2,
            "tau": self.tau,
            "mean_w": self.mean_w,
            "r_final": float(self.r_traj[-1]),
            "q_final": float(self.q_traj[-1]),
            "cantelli_bound": self.cantelli_bound,
            "chernoff_bound": self.chernoff_bound,
            "informative": self.informative,
            "envelope_valid": self.envelope_valid,
        }
        if self.eta < 1.0 and self.delta > 0:
            rec["sufficient_alpha"] = sufficient_alpha(self.eta, self.delta, self.sigma2)
        tau = self.tau if self.delta > 0 else 0.0
        rec["r_limit"] = max(0.0, (tau - 1.0) / tau) if tau > 1 else 0.0
        rec["q_limit"] = (2.0 / 3.0) * (tau - 1.0) if tau > CHERNOFF_TAU_THRESHOLD else 0.0
        return rec


def theory_report(stats: WeightStats, eta: float, k: int) -> TheoryReport:
    """Assemble both recursions into one report; ``envelope_valid`` says
    whether the hypotheses of :func:`mgf_envelope_sequences` hold.

    A signal-free model (delta <= 0; ``stats.tau`` = alpha*delta^2/sigma2
    may still be positive) runs both recursions at tau = 0: r and q
    collapse to 0 and both bounds degenerate to 1.
    """
    r, cantelli = snr_recursion(stats.tau if stats.delta > 0 else 0.0, eta, k)
    if stats.delta > 0:
        q, chernoff, informative = chernoff_recursion(
            stats.tau, eta, k, stats.delta, stats.sigma2
        )
    else:
        q = np.concatenate([[2.0 * eta**2], np.zeros(k + 1)])
        chernoff, informative = 1.0, False
    envelope_valid = stats.alpha * stats.delta > 1.0 and stats.alpha * stats.sigma2 > 1.0
    return TheoryReport(
        alpha=stats.alpha,
        eta=eta,
        k=k,
        delta=stats.delta,
        sigma2=stats.sigma2,
        tau=stats.tau,
        mean_w=stats.mean_w,
        r_traj=r,
        q_traj=q,
        cantelli_bound=cantelli,
        chernoff_bound=chernoff,
        informative=informative,
        envelope_valid=envelope_valid,
    )


@dataclass
class BoundCheck:
    """Outcome of checking a measured error against the two bounds."""

    cantelli_ok: bool
    cantelli_margin: float
    chernoff_ok: bool | None
    chernoff_margin: float | None

    def __bool__(self):
        return self.cantelli_ok and self.chernoff_ok is not False


def check_error_bounds(
    report: TheoryReport, mc_error: float, mc_se: float = 0.0
) -> BoundCheck:
    """Check mc_error <= bound + 3 * mc_se for the Cantelli bound, and for
    the Chernoff bound when its hypotheses hold (else that side is None).
    Margins are (bound + 3 * se) - error, so nonnegative means pass."""
    slack = 3.0 * mc_se
    c_margin = report.cantelli_bound + slack - mc_error
    if report.envelope_valid:
        h_margin = report.chernoff_bound + slack - mc_error
        return BoundCheck(c_margin >= 0, c_margin, h_margin >= 0, h_margin)
    return BoundCheck(c_margin >= 0, c_margin, None, None)
