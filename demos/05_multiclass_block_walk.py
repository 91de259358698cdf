"""More than two clusters: one orthonormalized block walk plus k-means.

Four Gaussian blobs are clustered from subsampled kernel similarities.
The q - 1 = 3 one-vs-rest initializations are walked as one block,
re-orthonormalized after every step, and each row is pooled into one
embedding column; the columns are k-means'd, from the revealed nodes'
class means when every class has one, and the clusters relabelled to
agree with the revealed labels.  The rows' Rayleigh
quotients show how much signal each direction carried.
"""

import numpy as np

from nblw import (
    dataset_from_truth,
    gaussian_blobs,
    match_labels,
    run_multiclass,
    subsample_and_weight,
)

centers = [[-4.0, -4.0], [-4.0, 4.0], [4.0, -4.0], [4.0, 4.0]]
points, truth = gaussian_blobs(12_000, centers, 1.0, np.random.default_rng(5))
print(f"{points.shape[0]} points in {len(centers)} blobs; "
      "revealing 5% of the labels")

sampled = subsample_and_weight(points, 12.0, "euclidean",
                               np.random.default_rng(1))
data = dataset_from_truth(truth, 0.05, np.random.default_rng(2), q=4)

result = run_multiclass(sampled.graph, data, q=4, k_max=30,
                        rng=np.random.default_rng(3))
acc, perm = match_labels(result.assignments, data.class_indices())
print(f"\nembedding shape: {result.embedding.shape}")
print("row Rayleigh quotients:", np.array2string(result.rayleigh, precision=2))
print(f"accuracy after label matching: {acc:.4f} (permutation {perm})")

# run_multiclass already relabels its clusters to agree with the revealed
# labels, so the permutation above is the identity
print("\nper-cluster sizes (estimated vs true):")
for c in range(4):
    est_size = int(np.sum(result.assignments == c))
    true_size = int(np.sum(data.class_indices() == c))
    print(f"  cluster {c}: {est_size:>6} vs {true_size:>6}")
