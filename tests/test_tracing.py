"""The benchmark tracer resolves every function it wraps by name, so a
renamed library function must fail here, not only under ``--trace 1``."""

import importlib
import json
import pathlib

import numpy as np

import nblw
from nblw import ModelSpec, PointMass, center_weights, make_instance

ROOT = pathlib.Path(__file__).resolve().parent.parent


def instance(q, seed):
    spec = ModelSpec(n=300, q=q, alpha=8.0, eta=0.2,
                     p_in=PointMass(1.0), p_out=PointMass(0.0 if q > 2 else -1.0), seed=seed)
    g, sims, data = make_instance(spec)
    return g.with_pair_weights(center_weights(sims)), data


def module_attrs(tracing):
    """Every attribute the tracer may swap, by (owner, name)."""
    names = {f for group in (tracing.SPANS, tracing.COUNTED) for fs in group.values() for f in fs}
    attrs = {(m.__name__, f): getattr(m, f) for m in tracing._modules() for f in names
             if hasattr(m, f)}
    for layer, methods in tracing.METHOD_SPANS.items():
        home = importlib.import_module(f"nblw.{layer}")
        for cls_name, meth in methods:
            cls = getattr(home, cls_name)
            attrs[(cls.__qualname__, meth)] = cls.__dict__[meth]
    return attrs


def test_tracer_names_match_library_and_benchmark(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    g2, data2 = instance(2, 1)
    g3, data3 = instance(3, 2)
    before = module_attrs(tracing)

    tracer = tracing.Tracer()
    with tracer:
        # through the package, as the workloads call them
        nblw.run_binary(g2, data2, 5, np.random.default_rng(0))
        nblw.run_multiclass(g3, data3, 3, 5, np.random.default_rng(0))

    metrics = tracer.layer_metrics()
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in per_layer} <= set(metrics)
    assert tracer.counts["calls.binary.apply_nb"] == 5
    assert metrics["multiclass.operator_calls"] > 0
    assert metrics["binary.init_s"] > 0 and metrics["multiclass.walk_s"] > 0
    assert module_attrs(tracing) == before
