"""The four benchmark workloads.

Each workload has:

  * ``setup(seed)`` makes the inputs from the seed (counted in ``setup_s``);
  * ``run(inputs, r)`` is round ``r``, the timed region: library calls
    only, from the generated inputs to the final labels or estimates
    (``wall_s``).  Only vectors-q4 uses ``r``, to take a new instance;
    the other workloads repeat the same calls on the same inputs;
  * ``WARM_MIB``, about the round's peak RSS, is how much memory run.py
    touches in a child just before timing;
  * ``check(inputs, out, ops, memo)`` runs after the clock stops and
    records one :class:`Op` per library operation, failing it when an
    output check fails or when a known fault of the program shows.  Where
    the references are costly, the first round is checked against them and
    keeps what later rounds must reproduce in ``memo`` (empty at first).

Every library call goes through a module attribute (``nblw.pool``, never a
name imported from it), so that the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

import nblw
import nblw.binary
import nblw.label_prop
import reference

GAUSS_IN, GAUSS_OUT = nblw.Gaussian(0.5, 1.0), nblw.Gaussian(-0.5, 1.0)
# centered weighting of N(+-0.5, 1): w(s) = s, so delta = 0.5, E[w^2] = 1.25
DELTA, SIGMA2 = 0.5, 1.25


@dataclass
class Op:
    name: str
    faults: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def check(self, ok, what):
        """A failed output check: the operation fails and the run is not
        correct."""
        if not ok:
            self.errors.append(what)
        return bool(ok)

    def fault(self, what):
        """A known fault of the program: the operation fails, but its
        outputs passed their checks, so the run stays correct."""
        self.faults.append(what)

    @property
    def failed(self):
        return bool(self.faults or self.errors)


class Ops(list):
    def op(self, name) -> Op:
        self.append(Op(name))
        return self[-1]


@contextlib.contextmanager
def _returns_of(module, name):
    """Collect what ``module.name`` returns while the block runs.

    label_propagation keeps its sweep trace to itself; this pass-through on
    the propagate_scores it calls lets a check see whether the solve
    converged, at the cost of one Python call per solve.
    """
    original, returned = getattr(module, name), []

    def recording(*args, **kwargs):
        returned.append(original(*args, **kwargs))
        return returned[-1]

    setattr(module, name, recording)
    try:
        yield returned
    finally:
        setattr(module, name, original)


def _rel_err(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return float(np.abs(got - want).max(initial=0.0) / max(np.abs(want).max(initial=0.0), 1e-300))


def _check_sampled_pairs(op, n, alpha, pairs):
    """m ~ Binomial(n(n-1)/2, alpha/n), and the pairs are distinct with
    i < j < n, in the lexicographic order the sampler documents."""
    p = alpha / n
    total = n * (n - 1) // 2
    z = (pairs.shape[0] - total * p) / math.sqrt(total * p * (1 - p))
    op.check(abs(z) <= 5.0, f"pair count {pairs.shape[0]} is {z:+.1f} sd from Binomial mean")
    key = pairs[:, 0] * np.int64(n) + pairs[:, 1]
    ok = pairs.size == 0 or (pairs[:, 0].min() >= 0 and pairs[:, 1].max() < n
                             and np.all(pairs[:, 0] < pairs[:, 1]) and np.all(np.diff(key) > 0))
    op.check(ok, "sampled pairs are not distinct pairs i < j < n in lexicographic order")
    return ok


def _check_centered_weights(op, g, sims):
    """The graph's half-edges are exactly the sampled pairs, both ways, and
    carry s - mean(s).  Returns the pair layout, or None if it is broken."""
    try:
        ab, ba = reference.pair_layout(g.n, g.src, g.dst)
    except ValueError as exc:
        op.check(False, f"half-edges do not form pairs: {exc}")
        return None
    # pairs are sorted (checked above), as pair_layout orders them
    if not op.check(np.array_equal(g.pairs[:, 0], g.src[ab]) and np.array_equal(g.pairs[:, 1], g.dst[ab]),
                    "graph topology differs from the sampled pairs"):
        return None
    want = sims - sims.mean()
    err = max(_rel_err(g.weight[ab], want), _rel_err(g.weight[ba], want))
    op.check(err <= 1e-12, f"graph weights are not the centered similarities (rel err {err:.2e})")
    return ab, ba


# ---------------------------------------------------------------------------


class Synth:
    """Two-cluster model at n = 1e5, the smaller of the ROADMAP's two
    synthetic scales, so that a run holds some twenty rounds."""

    N, ALPHA, ETA, K = 10**5, 10.0, 0.1, 30
    WARM_MIB = 250

    def setup(self, seed):
        instance_seed, walk_seed = nblw.split_seed(seed, 2)
        spec = nblw.ModelSpec(n=self.N, q=2, alpha=self.ALPHA, eta=self.ETA,
                              p_in=GAUSS_IN, p_out=GAUSS_OUT, seed=instance_seed)
        return {"spec": spec, "walk_seed": walk_seed}

    def run(self, inp, r):
        g, sims, data = nblw.make_instance(inp["spec"])
        g = g.with_pair_weights(nblw.center_weights(sims))
        state = nblw.init_messages(g, data, np.random.default_rng(inp["walk_seed"]))
        state = nblw.power_iterate(g, state, self.K)
        pooled = nblw.pool(g, state)
        est = nblw.binary.decide(g, pooled, data)
        return {"g": g, "sims": sims, "data": data, "pooled": pooled, "est": est}

    def check(self, inp, out, ops, memo):
        g, sims, data = out["g"], out["sims"], out["data"]
        sample = ops.op("make_instance")
        walk = ops.op("init_messages/power_iterate/pool/decide")
        if memo:
            # same spec and seeds: the first round's checked outputs again
            sample.check(np.array_equal(g.pairs, memo["pairs"]) and np.array_equal(g.src, memo["src"])
                         and np.array_equal(g.dst, memo["dst"]), "graph differs from the first round's")
            err = max(_rel_err(sims, memo["sims"]), _rel_err(g.weight, memo["weight"]))
            sample.check(err <= 1e-12, f"weights differ from the first round's (rel err {err:.2e})")
        elif not self._check_first(inp, out, sample, walk, memo):
            return
        err = _rel_err(out["pooled"], memo["ref"])
        walk.check(err <= 1e-9, f"pooled vector differs from the pair-list walk (rel err {err:.2e})")
        walk.check(np.array_equal(out["est"], memo["want"]), "decisions differ from the reference signs")

    def _check_first(self, inp, out, sample, walk, memo):
        """The first round against the references; keeps the checked
        outputs and the reference walk in ``memo``."""
        g, sims, data = out["g"], out["sims"], out["data"]
        same = data.truth[g.pairs[:, 0]] == data.truth[g.pairs[:, 1]]
        for mask, dist, what in ((same, GAUSS_IN, "within"), (~same, GAUSS_OUT, "across")):
            z = (sims[mask].mean() - dist.mu) * math.sqrt(mask.sum() / dist.var)
            sample.check(abs(z) <= 5.0, f"{what}-cluster similarity mean is {z:+.1f} SE off")
        layout = _check_sampled_pairs(sample, self.N, self.ALPHA, g.pairs) and \
            _check_centered_weights(sample, g, sims)

        # The timed walk's starting state, made again from the same seed,
        # checked against the labels, then walked K steps by the pair-list
        # reference; the pooled vector and the decisions must match.
        x0 = nblw.init_messages(g, data, np.random.default_rng(inp["walk_seed"])).values
        from_revealed = data.revealed[g.src]
        walk.check(np.array_equal(x0[from_revealed], data.truth[g.src[from_revealed]]),
                   "messages out of revealed nodes do not carry their labels")
        walk.check(np.all(np.abs(x0) == 1.0), "initial messages are not +-1")
        if not walk.check(bool(layout), "no pair layout to walk on"):
            return False
        ab, ba = layout
        ref = reference.pair_walk(g.n, g.src[ab], g.dst[ab], g.weight[ab], x0[ab], x0[ba], self.K)
        isolated = np.bincount(g.src, minlength=g.n) == 0
        want = np.where(ref >= 0.0, 1, -1)
        want[isolated & data.revealed] = data.truth[isolated & data.revealed]
        memo.update(pairs=g.pairs, src=g.src, dst=g.dst, sims=sims, weight=g.weight,
                    ref=ref, want=want)
        return True


class BlobsLP:
    """The walk from 1 % labels against kNN-3 label propagation from 10 %,
    on the same sampled graph of 2-D blobs: graphs 0-4 of acceptance
    criterion 9, with that test's seeds.

    Nothing here depends on the run's seed.  From 1 % labels the walk
    lands on the mirror labelling for about 7 % of walk seeds, so with
    seeded walks the walk-beats-LP check would fail on some runs; and the
    LP solves that stop at their iteration cap must be the same in every
    run.
    """

    N, ALPHA, K, KNN = 10**4, 4.0, 30, 3
    WARM_MIB = 150
    GRAPHS = range(5)
    LP_MAX_ITER, LP_TOL = 1000, 1e-6

    def setup(self, seed):
        pts, truth = nblw.gaussian_blobs(self.N, [[-3.0, 0.0], [3.0, 0.0]], 1.0,
                                         np.random.default_rng(99))
        cases = []
        for s in self.GRAPHS:
            # one permutation: the 1 % walk labels are a subset of the 10 %
            cases.append({
                "graph_seed": 10_000 + s,
                "walk_data": nblw.dataset_from_truth(truth, 0.01, np.random.default_rng(20_000 + s)),
                "lp_data": nblw.dataset_from_truth(truth, 0.1, np.random.default_rng(20_000 + s)),
                "walk_seed": 30_000 + s,
            })
        return {"points": pts, "cases": cases}

    def run(self, inp, r):
        results = []
        for case in inp["cases"]:
            res = nblw.subsample_and_weight(inp["points"], self.ALPHA, "euclidean",
                                            np.random.default_rng(case["graph_seed"]))
            est, _ = nblw.run_binary(res.graph, case["walk_data"], self.K,
                                     np.random.default_rng(case["walk_seed"]))
            raw = res.graph.with_pair_weights(res.similarities)
            pruned = nblw.sparsify_knn(raw, res.similarities, self.KNN)
            with _returns_of(nblw.label_prop, "propagate_scores") as returned:
                labels = nblw.label_propagation(pruned, case["lp_data"], self.LP_TOL,
                                                self.LP_MAX_ITER)
            results.append({"est": est, "pruned": pruned, "labels": labels,
                            "sweeps": [deltas for _, deltas in returned]})
        return results

    def check(self, inp, out, ops, memo):
        walk_ops, walk_acc, lp_acc = [], [], []
        for i, (case, res) in enumerate(zip(inp["cases"], out)):
            walk_ops.append(ops.op(f"walk graph {case['graph_seed']}"))
            walk_acc.append(float(np.mean(res["est"] == case["walk_data"].truth)))
            lp = ops.op(f"label_propagation graph {case['graph_seed']}")
            data, g = case["lp_data"], res["pruned"]
            lp_acc.append(float(np.mean(res["labels"] == data.truth)))
            if i in memo:
                # same inputs: the first round's kNN graph, whose exact
                # solve is kept, again
                src, dst, weight, want = memo[i]
                lp.check(np.array_equal(g.src, src) and np.array_equal(g.dst, dst)
                         and _rel_err(g.weight, weight) <= 1e-12,
                         "kNN graph differs from the first round's")
            else:
                cls = data.class_indices()
                scores, covered = reference.harmonic_scores(g.n, g.src, g.dst, g.weight,
                                                            data.revealed, cls, 2)
                want = scores.argmax(axis=1)  # ties go to the lower class, as in the library
                majority = int(np.bincount(cls[data.revealed], minlength=2).argmax())
                want[~covered & ~data.revealed] = majority
                memo[i] = g.src, g.dst, g.weight, want
            got = (1 - res["labels"]) // 2
            bad = int(np.sum(got != want))
            lp.check(bad == 0, f"{bad} labels differ from the exact harmonic solve")
            for deltas in res["sweeps"]:
                if deltas and deltas[-1] >= self.LP_TOL:
                    lp.fault(f"stopped at max_iter={len(deltas)} with residual "
                             f"{deltas[-1]:.2e} > tol {self.LP_TOL:g}")
        beats = np.mean(walk_acc) > np.mean(lp_acc)
        for op in walk_ops:
            op.check(beats, f"walk accuracy {np.mean(walk_acc):.4f} does not beat "
                            f"LP accuracy {np.mean(lp_acc):.4f}")


class VectorsQ4:
    """784-dimensional Gaussian blobs (MNIST's shape), four clusters.

    A round is one instance on the run's point set: sampled pairs, kernel
    and multiclass walk.  Round r takes instance r (mod ``INSTANCES``),
    each with its own kernel and walk seeds, so that the median over a
    run's rounds does not rest on one instance's k-means.
    """

    N, DIM, Q, ALPHA, ETA, K = 20_000, 784, 4, 10.0, 0.05, 30
    INSTANCES = 64
    WARM_MIB = 2100
    # squared distance between centers; noise is N(0, I), so within-cluster
    # squared distances are 2 * DIM +- 79
    CENTER_SQ_DIST = 400.0

    def setup(self, seed):
        point_seed, label_seed, *seeds = nblw.split_seed(seed, 2 + 2 * self.INSTANCES)
        rng = np.random.default_rng(point_seed)
        dirs = rng.standard_normal((self.Q, self.DIM))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        centers = dirs * math.sqrt(self.CENTER_SQ_DIST / 2)
        pts, truth = nblw.gaussian_blobs(self.N, centers, 1.0, rng)
        data = nblw.dataset_from_truth(truth, self.ETA, np.random.default_rng(label_seed), q=self.Q)
        return {"points": pts, "data": data, "seeds": list(zip(seeds[0::2], seeds[1::2]))}

    def run(self, inp, r):
        kernel_seed, walk_seed = inp["seeds"][r % self.INSTANCES]
        res = nblw.subsample_and_weight(inp["points"], self.ALPHA, "euclidean",
                                        np.random.default_rng(kernel_seed))
        mc = nblw.run_multiclass(res.graph, inp["data"], self.Q, self.K,
                                 np.random.default_rng(walk_seed))
        return {"res": res, "assignments": mc.assignments}

    def check(self, inp, out, ops, memo):
        pts, res, g = inp["points"], out["res"], out["res"].graph
        kernel = ops.op("subsample_and_weight")
        kernel.check(res.similarity_evals == g.num_pairs,
                     f"similarity_evals {res.similarity_evals} != num_pairs {g.num_pairs}")
        d2 = np.empty(g.num_pairs)
        for lo in range(0, g.num_pairs, 4096):  # chunked: O(chunk * d) memory
            diff = pts[g.pairs[lo:lo + 4096, 0]] - pts[g.pairs[lo:lo + 4096, 1]]
            d2[lo:lo + 4096] = np.einsum("ij,ij->i", diff, diff)
        sigma2 = d2.mean()
        err = abs(res.sigma2 - sigma2) / sigma2
        kernel.check(err <= 1e-12, f"sigma^2 is not the mean squared distance (rel err {err:.2e})")
        err = _rel_err(res.similarities, np.exp(-d2 / sigma2))
        kernel.check(err <= 1e-12, f"similarities are not exp(-d^2/sigma^2) (rel err {err:.2e})")
        if _check_sampled_pairs(kernel, self.N, self.ALPHA, g.pairs):
            _check_centered_weights(kernel, g, res.similarities)

        walk = ops.op("run_multiclass")
        acc = reference.matched_accuracy(out["assignments"], inp["data"].truth, self.Q)
        walk.check(acc >= 2.0 / self.Q, f"label-matched accuracy {acc:.4f} is below 2/q")


class TheoryDE:
    """Graph error against density evolution and the two bounds, n = 4e4."""

    N, ETA, K, POP = 40_000, 0.1, 8, 30_000
    WARM_MIB = 400
    TAUS = ((3, 15.0), (5, 25.0), (10, 50.0))  # tau = alpha * delta^2 / sigma2

    def setup(self, seed):
        seeds = iter(nblw.split_seed(seed, 3 * len(self.TAUS)))
        weighting = nblw.centered_weight(GAUSS_IN, GAUSS_OUT)
        cases = []
        for tau, alpha in self.TAUS:
            spec = nblw.ModelSpec(n=self.N, q=2, alpha=alpha, eta=self.ETA,
                                  p_in=GAUSS_IN, p_out=GAUSS_OUT, seed=next(seeds))
            cases.append({"tau": tau, "alpha": alpha, "spec": spec,
                          "walk_seed": next(seeds), "de_seed": next(seeds)})
        return {"cases": cases, "weighting": weighting}

    def run(self, inp, r):
        results = []
        for case in inp["cases"]:
            spec = case["spec"]
            g, sims, data = nblw.make_instance(spec)
            g = g.with_pair_weights(nblw.center_weights(sims))
            est, _ = nblw.run_binary(g, data, self.K, np.random.default_rng(case["walk_seed"]))
            del g, sims
            de = nblw.density_evolution(spec, inp["weighting"], self.K, pop=self.POP,
                                        rng=np.random.default_rng(case["de_seed"]))
            stats = nblw.weight_stats(GAUSS_IN, GAUSS_OUT, inp["weighting"], case["alpha"])
            report = nblw.theory_report(stats, self.ETA, self.K)
            results.append({"graph_error": float(np.mean(est != data.truth)),
                            "de": de, "report": report})
        return results

    def check(self, inp, out, ops, memo):
        for case, res in zip(inp["cases"], out):
            tau, alpha = case["tau"], case["alpha"]
            walk = ops.op(f"make_instance/run_binary tau={tau}")
            de = ops.op(f"density_evolution tau={tau}")
            rep = ops.op(f"weight_stats/theory_report tau={tau}")
            report = res["report"]
            cantelli = reference.cantelli_bound(tau, self.ETA, self.K)
            chernoff = reference.chernoff_bound(tau, self.ETA, self.K, DELTA, SIGMA2)
            valid = alpha * DELTA > 1.0 and alpha * SIGMA2 > 1.0
            rep.check(abs(report.tau - tau) <= 1e-12 * tau, f"report tau {report.tau} != {tau}")
            rep.check(abs(report.cantelli_bound - cantelli) <= 1e-12,
                      f"Cantelli bound {report.cantelli_bound} != {cantelli}")
            rep.check(abs(report.chernoff_bound - chernoff) <= 1e-12,
                      f"Chernoff bound {report.chernoff_bound} != {chernoff}")
            rep.check(report.envelope_valid == valid, "Chernoff validity flag is wrong")

            e_graph, e_de = res["graph_error"], res["de"].error
            se_graph = math.sqrt(max(e_graph * (1 - e_graph), 1e-5) / self.N)
            se_de = math.sqrt(max(e_de * (1 - e_de), 1e-5) / (2 * self.POP))
            de.check(abs(e_graph - e_de) <= 0.01,
                     f"graph error {e_graph:.4f} and DE error {e_de:.4f} differ by more than 0.01")
            for op, err, se in ((walk, e_graph, se_graph), (de, e_de, se_de)):
                op.check(err <= cantelli + 3 * se, f"error {err:.4f} above the Cantelli bound {cantelli:.4f}")
                if valid:
                    op.check(err <= chernoff + 3 * se,
                             f"error {err:.4f} above the Chernoff bound {chernoff:.4f}")


WORKLOADS = {
    "synth-1e5": Synth(),
    "blobs-lp": BlobsLP(),
    "vectors-q4": VectorsQ4(),
    "theory-de": TheoryDE(),
}
