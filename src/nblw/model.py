"""Synthetic instance generators.

The generative model: n items get uniform cluster labels, a fraction eta
of them is revealed, an Erdos-Renyi graph picks which pairs are compared
(each pair kept with probability alpha/n), and each kept pair draws its
similarity from ``p_in`` or ``p_out`` according to whether the endpoints
share a label.  Everything is a pure function of the seed.

Every similarity law handle has finite parameters and a finite second
moment, an RNG-backed ``sample``, the analytic ``mean``/``second_moment``
behind the theory module's exact moments, and a ``mass_interval`` holding
all but 1e-8 of its mass.  Each but the point mass, which has no density,
has the pointwise ``pdf`` that the optimal weighting reads; a
zero-variance Gaussian is a point mass and has no density either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import build_graph

__all__ = [
    "Gaussian",
    "PointMass",
    "Uniform",
    "parse_distribution",
    "ModelSpec",
    "LabeledDataset",
    "split_seed",
    "draw_labels",
    "draw_revealed_set",
    "draw_er_pairs",
    "draw_similarities",
    "make_instance",
    "gaussian_blobs",
    "dataset_from_truth",
]


# ---------------------------------------------------------------------------
# similarity distributions
# ---------------------------------------------------------------------------


def _check_second_moment(law):
    """Refuse a law with finite parameters whose second moment overflows
    (Python's float ``**`` raises OverflowError rather than giving inf)."""
    try:
        finite = math.isfinite(law.second_moment())
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError("need a finite second moment")


@dataclass(frozen=True)
class Gaussian:
    mu: float
    var: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.mu) and 0 <= self.var < math.inf):
            raise ValueError("need a finite mean and a finite nonnegative variance")
        _check_second_moment(self)

    def sample(self, rng, size):
        return rng.normal(self.mu, math.sqrt(self.var), size)

    def mean(self):
        return self.mu

    def second_moment(self):
        return self.var + self.mu**2

    def pdf(self, s):
        s = np.asarray(s, dtype=np.float64)
        return np.exp(-((s - self.mu) ** 2) / (2 * self.var)) / math.sqrt(
            2 * math.pi * self.var
        )

    def mass_interval(self):
        # z = ndtri(1 - 1e-8 / 2): the interval holds all but 1e-8 of the mass
        z = 5.73072886926708
        sd = math.sqrt(self.var)
        return (self.mu - z * sd, self.mu + z * sd)


@dataclass(frozen=True)
class PointMass:
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("need a finite value")
        _check_second_moment(self)

    def sample(self, rng, size):
        return np.full(size, self.value, dtype=np.float64)

    def mean(self):
        return self.value

    def second_moment(self):
        return self.value**2

    def mass_interval(self):
        return (self.value, self.value)


@dataclass(frozen=True)
class Uniform:
    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a < self.b < math.inf):
            raise ValueError("need finite a < b")
        _check_second_moment(self)

    def sample(self, rng, size):
        return rng.uniform(self.a, self.b, size)

    def mean(self):
        return 0.5 * (self.a + self.b)

    def second_moment(self):
        return (self.a**2 + self.a * self.b + self.b**2) / 3.0

    def pdf(self, s):
        s = np.asarray(s, dtype=np.float64)
        return np.where((s >= self.a) & (s <= self.b), 1.0 / (self.b - self.a), 0.0)

    def mass_interval(self):
        return (self.a, self.b)


def parse_distribution(spec: str):
    """Parse a CLI distribution spec.

    Formats: ``gaussian:MU:VAR``, ``gaussian:MU`` (unit variance),
    ``point:VALUE``, ``uniform:A:B``.  Every fault is a ValueError that
    quotes the spec.
    """
    kind, *params = spec.strip().split(":")
    law = {("gaussian", 1): Gaussian, ("gaussian", 2): Gaussian, ("point", 1): PointMass,
           ("uniform", 2): Uniform}.get((kind.lower(), len(params)))
    if law is None:
        raise ValueError(f"cannot parse distribution spec {spec!r}")
    try:
        return law(*(float(p) for p in params))
    except ValueError as exc:
        raise ValueError(f"cannot parse distribution spec {spec!r}: {exc}") from None


# ---------------------------------------------------------------------------
# model spec and labeled data
# ---------------------------------------------------------------------------


@dataclass
class ModelSpec:
    """Parameters of one synthetic instance.

    alpha is the mean degree of the sampled comparison graph, eta the
    fraction of items whose true label is revealed.
    """

    n: int
    q: int
    alpha: float
    eta: float
    p_in: object
    p_out: object
    seed: int = 0

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("n must be positive")
        if self.q < 2:
            raise ValueError("q must be at least 2")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.alpha >= self.n:
            raise ValueError("alpha must be smaller than n")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")


@dataclass
class LabeledDataset:
    """Ground-truth labels plus the revealed mask.

    Labels are +-1 when q == 2 and 0..q-1 otherwise, for q >= 2.
    Exactly floor(eta * n) entries of ``revealed`` are set.
    """

    truth: np.ndarray
    revealed: np.ndarray
    n: int
    q: int

    def __post_init__(self):
        if self.q < 2:
            raise ValueError(f"q must be at least 2, got {self.q}")
        self.truth = np.asarray(self.truth)
        self.revealed = np.asarray(self.revealed, dtype=bool)
        if self.truth.shape != (self.n,) or self.revealed.shape != (self.n,):
            raise ValueError("truth and revealed must have length n")
        allowed = [-1, 1] if self.q == 2 else np.arange(self.q)
        if not np.isin(self.truth, allowed).all():
            raise ValueError("labels out of range for q")

    def class_indices(self) -> np.ndarray:
        """Labels as 0..q-1 (for q == 2, +1 -> 0 and -1 -> 1)."""
        if self.q == 2:
            return ((1 - self.truth) // 2).astype(np.int64)
        return self.truth.astype(np.int64)


def split_seed(seed: int, count: int) -> list[int]:
    """Derive ``count`` independent child seeds from a master seed.

    The rule (the one used everywhere in this package) is numpy's
    SeedSequence expansion: child i is ``SeedSequence(seed).generate_state``
    word i.  Deterministic, documented, collision-resistant.
    """
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


# ---------------------------------------------------------------------------
# the four elementary draws
# ---------------------------------------------------------------------------


def draw_labels(spec: ModelSpec, rng) -> np.ndarray:
    """I.i.d. uniform cluster labels (+-1 for q == 2, else 0..q-1)."""
    raw = rng.integers(0, spec.q, size=spec.n)
    if spec.q == 2:
        return 1 - 2 * raw  # 0 -> +1, 1 -> -1
    return raw


def draw_revealed_set(n: int, eta: float, rng) -> np.ndarray:
    """Mark exactly floor(eta * n) items, uniformly without replacement."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    k = int(math.floor(eta * n))
    mask = np.zeros(n, dtype=bool)
    if k:
        mask[rng.permutation(n)[:k]] = True
    return mask


def draw_er_pairs(n: int, alpha: float, rng) -> np.ndarray:
    """Sample each of the C(n, 2) pairs independently with prob alpha/n.

    Uses geometric jumps over the lexicographic pair order, so expected
    cost is O(alpha * n) rather than O(n^2).  Returns an (m, 2) array of
    pairs with first index < second, in lexicographic order.
    """
    if not alpha < n:
        raise ValueError("alpha must be smaller than n")
    p = alpha / n
    total = n * (n - 1) // 2
    if p < 1e-12 or total == 0:
        return np.empty((0, 2), dtype=np.int64)

    # Positions of successes in 0..total-1 via cumulative geometric gaps,
    # drawn in batches sized to overshoot the expected count slightly.
    batch = max(int(total * p * 1.05) + 16, 1024)
    positions = []
    last = -1
    while last < total:
        gaps = rng.geometric(p, size=batch)
        pos = np.cumsum(gaps) + last
        positions.append(pos)
        last = int(pos[-1])
    t = np.concatenate(positions)
    t = t[t < total]

    # Invert the lexicographic index: row i starts at rank first[i] =
    # i*(2n-i-1)/2, that of (i, i + 1), and rank t in it is pair
    # (i, t - (first[i] - i - 1)), made with one m-sized temporary: more of
    # them fragmented the heap and raised the peak RSS of later steps.
    rows = np.arange(n - 1, dtype=np.int64)
    first = rows * (2 * n - 1 - rows) // 2
    counts = np.diff(np.searchsorted(t, first), append=t.size)
    i = np.repeat(rows, counts)
    j = t - np.repeat(first - rows - 1, counts)
    return np.column_stack([i, j])


def draw_similarities(pairs, truth, p_in, p_out, rng) -> np.ndarray:
    """Draw s ~ p_in for within-cluster pairs, s ~ p_out otherwise."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    truth = np.asarray(truth)
    for d in (p_in, p_out):
        if not hasattr(d, "sample"):
            raise ValueError(f"distribution handle {d!r} cannot sample")
    same = truth[pairs[:, 0]] == truth[pairs[:, 1]]
    s = np.empty(pairs.shape[0], dtype=np.float64)
    s[same] = p_in.sample(rng, int(same.sum()))
    s[~same] = p_out.sample(rng, int((~same).sum()))
    return s


def make_instance(spec: ModelSpec):
    """Generate one full instance as a pure function of ``spec.seed``.

    Draw order is fixed: labels, revealed mask, pairs, similarities.

    Returns
    -------
    graph : WeightedGraph
        Built with the *raw* similarities as weights (apply a weighting
        such as :func:`nblw.graph.center_weights` before clustering).
    similarities : float64 array, one per sampled pair
    data : LabeledDataset
    """
    rng = np.random.default_rng(spec.seed)
    truth = draw_labels(spec, rng)
    revealed = draw_revealed_set(spec.n, spec.eta, rng)
    pairs = draw_er_pairs(spec.n, spec.alpha, rng)
    sims = draw_similarities(pairs, truth, spec.p_in, spec.p_out, rng)
    graph = build_graph(spec.n, pairs, sims)
    data = LabeledDataset(truth=truth, revealed=revealed, n=spec.n, q=spec.q)
    return graph, sims, data


# ---------------------------------------------------------------------------
# toy geometric data
# ---------------------------------------------------------------------------


def gaussian_blobs(n: int, centers, sigma: float, rng):
    """n points assigned uniformly to centers plus isotropic noise.

    Returns (points, labels) with labels in 0..len(centers)-1.
    """
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] < 2:
        raise ValueError("need at least 2 centers, as a (c, d) array")
    labels = rng.integers(0, centers.shape[0], size=n)
    points = centers[labels] + sigma * rng.standard_normal((n, centers.shape[1]))
    return points, labels


def dataset_from_truth(truth, eta: float, rng, q: int | None = None) -> LabeledDataset:
    """Wrap 0-based truth labels into a LabeledDataset with a revealed mask.

    For q == 2 the labels are re-encoded as +-1 (0 -> +1, 1 -> -1).
    """
    truth = np.asarray(truth, dtype=np.int64)
    n = truth.shape[0]
    if q is None:
        q = int(truth.max()) + 1
    if q == 2:
        truth = 1 - 2 * truth
    revealed = draw_revealed_set(n, eta, rng)
    return LabeledDataset(truth=truth, revealed=revealed, n=n, q=q)
