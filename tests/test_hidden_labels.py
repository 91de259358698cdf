"""The pipelines read only the revealed labels: redrawing the truth of every
unrevealed node leaves each output bit-identical."""

import numpy as np
import pytest

from nblw import (
    LabeledDataset,
    ModelSpec,
    Uniform,
    center_weights,
    label_propagation,
    make_instance,
    run_binary,
    run_multiclass,
    sparsify_knn,
)


def _redrawn(data, rng):
    """Two copies of the dataset with the truth of every unrevealed node
    redrawn among the valid labels: uniformly, and by moving each hidden
    label to the next class (for q = 2, its negation)."""
    hidden = ~data.revealed
    labels = np.array([1, -1]) if data.q == 2 else np.arange(data.q)
    uniform = data.truth.copy()
    uniform[hidden] = rng.choice(labels, size=int(hidden.sum()))
    shifted = data.truth.copy()
    shifted[hidden] = -shifted[hidden] if data.q == 2 else (shifted[hidden] + 1) % data.q
    return [LabeledDataset(truth=t, revealed=data.revealed.copy(), n=data.n, q=data.q)
            for t in (uniform, shifted)]


@pytest.mark.parametrize("q,seed", [(q, s) for q in (2, 3, 4) for s in range(3)])
def test_outputs_ignore_hidden_labels(q, seed):
    """On a sparse instance, so that label propagation also leaves some
    nodes unreached and falls back to the revealed majority."""
    spec = ModelSpec(n=3000, q=q, alpha=3.0, eta=0.1, p_in=Uniform(0.25, 1.0),
                     p_out=Uniform(0.0, 0.75), seed=seed)
    g, sims, data = make_instance(spec)
    centered = g.with_pair_weights(center_weights(sims))
    knn = sparsify_knn(g, sims, k=3)

    def outputs(d):
        result = run_multiclass(centered, d, q, 10, np.random.default_rng(7))
        out = [result.assignments, result.embedding, label_propagation(knn, d)]
        if q == 2:
            out += run_binary(centered, d, 10, np.random.default_rng(7))
        return out

    want = outputs(data)
    for other in _redrawn(data, np.random.default_rng(100 + seed)):
        assert np.array_equal(other.truth[data.revealed], data.truth[data.revealed])
        assert np.mean(other.truth != data.truth) > 0.3
        for got, expected in zip(outputs(other), want, strict=True):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
