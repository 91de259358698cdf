"""Spans and counts at the public functions of nblw's layers.

For the length of one traced round, :class:`Tracer` swaps each listed
function for a wrapper in every nblw module that holds a reference to it
(``from .graph import build_graph`` makes a second reference in
``nblw.model``), and puts the originals back afterwards.  No library file
changes.  Functions in ``SPANS`` record a span (name, start, end, parent);
the per-iteration operators in ``COUNTED`` only count their calls, keyed by
the module whose reference was called, so their time stays with the walk
that calls them.  Counts that need a call's arguments or result are taken
by the hooks in ``_HOOKS``.  Every wrapper adds the time it spends outside
the call it wraps to ``overhead``: the tracing's own cost.

``cli`` is a shell over the other modules and is not wrapped.
"""

from __future__ import annotations

import importlib
import inspect
import time
import tracemalloc
from collections import Counter

import nblw

LAYERS = ("model", "ingest", "graph", "binary", "multiclass", "label_prop", "theory")

SPANS = {
    "model": ("make_instance", "draw_er_pairs", "draw_similarities"),
    "ingest": ("subsample_and_weight",),
    "graph": ("build_graph", "center_weights", "pool"),
    "binary": ("run_binary", "init_messages", "power_iterate", "decide"),
    "multiclass": ("run_multiclass", "kmeans"),
    "label_prop": ("sparsify_knn", "label_propagation", "propagate_scores"),
    "theory": ("weight_stats", "density_evolution", "theory_report"),
}
METHOD_SPANS = {"graph": (("WeightedGraph", "with_pair_weights"),)}
COUNTED = {"graph": ("nb_multiply", "nb_multiply_t", "apply_nb")}


def _count_pairs(counts, args, out):
    counts["model.pairs"] += len(out)


def _count_evals(counts, args, out):
    counts["ingest.similarity_evals"] += int(out.similarity_evals)


def _count_half_edges(counts, args, out):
    counts["graph.half_edges"] += int(out.num_half_edges)


def _count_edge_updates(counts, args, out):
    counts["binary.edge_updates"] += int(args["g"].num_half_edges) * int(args["k_max"])


def _count_sweeps(counts, args, out):
    _, deltas = out
    counts["label_prop.iterations"] += len(deltas)
    counts["label_prop.unconverged"] += int(bool(deltas) and deltas[-1] >= args["tol"])


def _count_de_draws(counts, args, out):
    # each of the two populations is redrawn k times, then once to pool
    counts["theory.de_draws"] += 2 * int(args["pop"]) * (int(args["k"]) + 1)


_HOOKS = {
    "model.draw_er_pairs": _count_pairs,
    "ingest.subsample_and_weight": _count_evals,
    "graph.build_graph": _count_half_edges,
    "binary.power_iterate": _count_edge_updates,
    "label_prop.propagate_scores": _count_sweeps,
    "theory.density_evolution": _count_de_draws,
}
# Calls whose peak allocation is recorded (numpy reports its buffers to
# tracemalloc), as "<name>.alloc_peak_bytes", the largest over calls.
_ALLOC_PEAK = ("ingest.subsample_and_weight",)


def _modules():
    return [nblw] + [importlib.import_module(f"nblw.{name}") for name in LAYERS]


class Tracer:
    """Install with ``with tracer:``; spans and counts accumulate."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.overhead = 0.0  # seconds in the wrappers, outside the wrapped calls
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _span(self, name, fn):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        alloc = name in _ALLOC_PEAK

        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
            self._stack.append(index)
            if alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = start, end
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    key = f"{name}.alloc_peak_bytes"
                    self.counts[key] = max(self.counts[key], peak)
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counts, bound.arguments, out)
            self.overhead += time.perf_counter() - entered - (end - start)
            return out

        return wrapper

    def _counter(self, key, fn):
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            self.counts[key] += 1
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            end = time.perf_counter()
            self.overhead += start - entered + time.perf_counter() - end
            return out

        return wrapper

    def _swap(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        modules = _modules()
        for layer, names in SPANS.items():
            home = importlib.import_module(f"nblw.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._span(f"{layer}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        self._swap(module, fname, wrapper)
        for layer, methods in METHOD_SPANS.items():
            home = importlib.import_module(f"nblw.{layer}")
            for cls_name, meth in methods:
                cls = getattr(home, cls_name)
                self._swap(cls, meth, self._span(f"{layer}.{meth}", getattr(cls, meth)))
        for layer, names in COUNTED.items():
            home = importlib.import_module(f"nblw.{layer}")
            for fname in names:
                original = getattr(home, fname)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        key = f"calls.{module.__name__.removeprefix('nblw.')}.{fname}"
                        self._swap(module, fname, self._counter(key, original))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def self_times(self) -> Counter:
        """Per span name, total duration minus the time of child spans."""
        own = Counter()
        for name, start, end, _ in self.spans:
            own[name] += end - start
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return own

    def layer_metrics(self) -> dict:
        """Every per-layer metric of BENCHMARK.json; a layer the round
        never entered reads 0."""
        st, c = self.self_times(), self.counts
        walk = st["binary.power_iterate"]
        steps = c["calls.binary.apply_nb"]
        de = st["theory.density_evolution"]
        return {
            "model.sample_s": st["model.draw_er_pairs"],
            "model.similarities_s": st["model.draw_similarities"],
            "model.pairs": c["model.pairs"],
            "ingest.kernel_s": st["ingest.subsample_and_weight"],
            "ingest.similarity_evals": c["ingest.similarity_evals"],
            "ingest.rss_growth_mb": c["ingest.subsample_and_weight.alloc_peak_bytes"] / 2**20,
            "graph.build_s": st["graph.build_graph"],
            "graph.half_edges": c["graph.half_edges"],
            "graph.reweight_s": st["graph.center_weights"] + st["graph.with_pair_weights"],
            "graph.pool_s": st["graph.pool"],
            "binary.init_s": st["binary.init_messages"],
            "binary.walk_s": walk,
            "binary.iter_ms": 1e3 * walk / steps if steps else 0.0,
            "binary.edge_updates_per_s": c["binary.edge_updates"] / walk if walk else 0.0,
            "binary.decide_s": st["binary.decide"],
            "multiclass.walk_s": st["multiclass.run_multiclass"],
            "multiclass.kmeans_s": st["multiclass.kmeans"],
            "multiclass.operator_calls": c["calls.multiclass.nb_multiply"]
            + c["calls.multiclass.nb_multiply_t"],
            "label_prop.knn_s": st["label_prop.sparsify_knn"],
            "label_prop.solve_s": st["label_prop.label_propagation"]
            + st["label_prop.propagate_scores"],
            "label_prop.iterations": c["label_prop.iterations"],
            "label_prop.unconverged": c["label_prop.unconverged"],
            "theory.de_s": de,
            "theory.de_draws_per_s": c["theory.de_draws"] / de if de else 0.0,
            "theory.report_s": st["theory.weight_stats"] + st["theory.theory_report"],
            "trace.overhead_s": self.overhead,
        }

    def dump(self) -> dict:
        return {
            "overhead_s": self.overhead,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
        }
