"""A walk through the half-edge graph and the non-backtracking operator.

Builds a tiny weighted graph, shows how messages live on directed
half-edges, applies the operator sparsely and checks it against the dense
matrix, and demonstrates the overflow-safe rescaling.
"""

import numpy as np

from nblw import (
    MessageState,
    build_graph,
    center_weights,
    dense_nb_matrix,
    nb_multiply,
    pool,
    power_iterate,
)

# A 5-node graph: the square 0-1-2-3 with the diagonal 0-2 and a pendant
# node 4.  build_graph takes each pair as (lo, hi), lo < hi, in key order
# lo * n + hi, which is how the samplers emit them.
pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4)]
sims = [0.9, 0.2, 0.75, 0.8, 0.7, 0.6]
g = build_graph(5, pairs, center_weights(sims))

print(f"nodes: {g.n}, undirected pairs: {g.num_pairs}, half-edges: {g.num_half_edges}")
print(f"degrees: {g.degrees()}")
# Half-edge p runs pairs[p, 0] -> pairs[p, 1]; half-edge m + p is its reverse.
m = g.num_pairs
twin = (np.arange(g.num_half_edges) + m) % (2 * m)
print(f"the reverse of half-edge e is (e + m) mod 2m, m = {m}:",
      np.all((g.src[twin] == g.dst) & (g.dst[twin] == g.src)))

# One operator application: each outgoing message becomes the weighted sum
# of incoming messages, excluding the one that would backtrack.
v = np.ones(g.num_half_edges)
out = nb_multiply(g, v)
print("\nfirst few updated messages:")
for e in range(4):
    print(f"  ({g.src[e]}->{g.dst[e]}): {out[e]:+.3f}")

# The sparse product matches the explicit matrix on small graphs.
B = dense_nb_matrix(g)
print("\nsparse == dense matrix product:", np.allclose(out, B @ v))

# Messages grow geometrically; the state rescales itself whenever a bound
# on that growth says it must, and remembers the logarithm of the total
# factor.  power_iterate applies apply_nb and ends on one rescale.
state = power_iterate(g, MessageState(np.ones(g.num_half_edges)), 25)
print(f"\nafter 25 iterations: max |message| = {np.abs(state.values).max():.3f} "
      f"(rescaled), accumulated log-scale = {state.log_scale:.2f}")

pooled = pool(g, state)
print("pooled per-node values (sign is the cluster decision):")
print(" ", np.array2string(pooled, precision=3))
