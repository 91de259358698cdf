"""Sparse weighted similarity graphs stored as directed half-edges.

The pair list is the graph: m distinct undirected pairs (lo, hi), lo < hi,
in increasing key order lo * n + hi, taken as given and checked, never
sorted.  Half-edge p is ``lo_p -> hi_p`` and half-edge m + p is its
reverse, so the twin of half-edge e is (e + m) mod 2m and swapping the
two halves of a message vector reverses every message.  Per-pair arrays
line up with the input pairs, which ``pairs`` returns.
One application of the non-backtracking operator costs O(half_edges):
the weighted sum of incoming messages is accumulated once per node and
the single backtracking term, read from the other half, is subtracted
per half-edge, instead of re-scanning each neighborhood per edge.

Messages (one real value per half-edge) are carried in a
:class:`MessageState`, which also accumulates the logarithm of the
positive rescaling factors applied so far.  Message magnitudes grow or
shrink geometrically with the iteration count, and the final cluster
decision is a sign, so dividing by the max-absolute value changes nothing
downstream while keeping float64 safe.  That pass need not run every
step: no product exceeds :attr:`WeightedGraph.growth_bound` times its
input's max-absolute value, so the state carries an upper bound on its
own and is scanned and divided only when that bound leaves
[2**-500, 2**500] or after 32 unscanned steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = [
    "WeightedGraph",
    "MessageState",
    "build_graph",
    "center_weights",
    "nb_multiply",
    "nb_multiply_t",
    "apply_nb",
    "apply_nb_transpose",
    "dense_nb_matrix",
    "pool",
]


# Largest n with n * n - 1 < 2**63: the (src, dst) keys src * n + dst fit int64.
MAX_NODES = 3_037_000_499

# MessageState.advance keeps a raw product unscanned while its max-abs bound
# lies in [TINY, HUGE].  From bound 1, which every scan sets, a walk's bounds
# are powers of the growth W, so a kept bound above 1 means W <= HUGE and
# the next product stays below HUGE * W <= 2**1000: it cannot overflow.
# MAX_UNSCANNED caps the steps between scans, because the bound can sit far
# above the true max-abs, which could then sink into subnormals and
# underflow to 0.
TINY, HUGE = 2.0**-500, 2.0**500
MAX_UNSCANNED = 32


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph in half-edge (directed arc) form.

    Attributes
    ----------
    n : int
        Number of nodes.
    src, dst : int64 arrays, shape (2m,)
        Endpoints of each half-edge: ``concat(lo, hi)`` and
        ``concat(hi, lo)`` over the pairs (lo, hi) in key order.  Half-edge
        p (p < m) is ``lo_p -> hi_p`` and half-edge m + p its reverse: the
        twin of half-edge e is (e + m) mod 2m.
    weight : float64 array, shape (2m,)
        Weight per half-edge, the pair weights twice over:
        ``weight[e] == weight[(e + m) % (2 * m)]``.
    growth_bound : float
        W, the largest per-node sum of |weight| over incoming half-edges,
        computed on first use; ``|nb_multiply(g, x)|.max() <= W * |x|.max()``.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    @property
    def num_half_edges(self) -> int:
        return self.src.shape[0]

    @property
    def num_pairs(self) -> int:
        return self.src.shape[0] // 2

    @property
    def pairs(self) -> np.ndarray:
        """The (m, 2) int64 pairs (lo, hi), lo < hi, in key order: a new
        array made from the first halves of ``src`` and ``dst``."""
        m = self.num_pairs
        return np.column_stack([self.src[:m], self.dst[:m]])

    @cached_property
    def growth_bound(self) -> float:
        # cached in the instance dict, which the frozen dataclass leaves
        # writable; with_pair_weights makes a new instance with its own
        return float(np.bincount(self.dst, weights=np.abs(self.weight), minlength=self.n).max())

    def degrees(self) -> np.ndarray:
        """Out-degree (= undirected degree) per node."""
        return np.bincount(self.src, minlength=self.n)

    def pair_weights(self) -> np.ndarray:
        """Weight per undirected pair, aligned with ``pairs`` in key order
        (a view of the first half of ``weight``)."""
        return self.weight[: self.num_pairs]

    def with_pair_weights(self, pair_weights) -> "WeightedGraph":
        """Same topology with new per-pair weights, aligned with ``pairs``
        in key order (O(2m))."""
        pw = np.asarray(pair_weights, dtype=np.float64)
        if pw.shape != (self.num_pairs,):
            raise ValueError(
                f"expected {self.num_pairs} pair weights, got {pw.shape}"
            )
        if not np.all(np.isfinite(pw)):
            raise ValueError("pair weights must be finite")
        return replace(self, weight=np.concatenate([pw, pw]))


@dataclass
class MessageState:
    """One real message per half-edge plus accumulated rescale log-factor.

    The true (unrescaled) messages are ``values * exp(log_scale)``.
    ``bound`` is an upper bound on ``max |values|`` (inf when unknown, 1
    after a rescale) and ``unscanned`` the number of steps since the last
    max-absolute scan.
    """

    values: np.ndarray
    iteration: int = 0
    log_scale: float = 0.0
    bound: float = math.inf
    unscanned: int = 0

    def advance(self, values: np.ndarray, growth: float = math.inf) -> "MessageState":
        """The next state from ``values``, the raw product of this state's
        values by an operator that multiplies max-absolute values by at
        most ``growth``.  While ``bound * growth`` lies in
        [2**-500, 2**500] and fewer than 32 steps have passed unscanned,
        ``values`` is kept as it is, with that bound; otherwise it is
        :meth:`rescaled`, which raises ValueError on a NaN or infinite
        message.  The default growth, inf, rescales every step."""
        bound = self.bound * growth
        state = MessageState(values, self.iteration + 1, self.log_scale, bound, self.unscanned + 1)
        if TINY <= bound <= HUGE and state.unscanned < MAX_UNSCANNED:
            return state
        return state.rescaled()

    def rescaled(self) -> "MessageState":
        """The same messages divided by their max-absolute value, whose log
        is added to ``log_scale``; bound 1.  A NaN or infinite message
        raises ValueError."""
        values = self.values
        scale = max(values.max(), -values.min()) if values.size else 0.0
        if not np.isfinite(scale):
            raise ValueError(f"non-finite message after iteration {self.iteration}")
        log_scale = self.log_scale
        if scale > 0.0:
            values = values / scale
            log_scale += np.log(scale)
        return MessageState(values, self.iteration, log_scale, 1.0)

    def unscaled(self) -> np.ndarray:
        """``values * exp(log_scale)``, the messages without rescaling.
        Raises ValueError when that overflows, as it does after enough
        growth steps: meant for moment analysis at small iteration counts,
        not long runs."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.values * np.exp(self.log_scale)
        if not np.all(np.isfinite(out)):
            raise ValueError(f"unscaled messages are not finite (log-scale {self.log_scale:.4g})")
        return out

    def copy(self) -> "MessageState":
        return replace(self, values=self.values.copy())


def build_graph(n, pairs, weights) -> WeightedGraph:
    """Build a half-edge graph from pairs in canonical form, one weight each.

    The pairs must be distinct (lo, hi), lo < hi, in increasing key order
    lo * n + hi, as :func:`~nblw.model.draw_er_pairs` emits them and
    :attr:`WeightedGraph.pairs` returns them.  A self-loop, a reversed pair
    (so a pair repeated in reversed orientation), a repeated pair and a
    pair out of key order each raise ValueError naming the first offending
    pair: nothing is sorted, dropped or repaired.  Cost: O(m).

    ``n`` is the node count, with endpoints in [0, n); ``pairs`` is
    array-like of shape (m, 2) and ``weights`` of shape (m,).
    """
    n = int(n)
    if n <= 0:
        raise ValueError("n must be positive")
    if n > MAX_NODES:
        raise ValueError(f"n = {n} exceeds {MAX_NODES}: int64 pair keys would overflow")
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if pairs.shape[0] != weights.shape[0]:
        raise ValueError(
            f"{pairs.shape[0]} pairs but {weights.shape[0]} weights"
        )
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ValueError("pair endpoint out of range [0, n)")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    lo, hi = pairs[:, 0], pairs[:, 1]
    if np.any(lo >= hi):
        p = int(np.argmax(lo >= hi))
        a, b = pairs[p]
        raise ValueError(f"self-loops are not allowed: pair {p} is ({a}, {b})" if a == b else
                         f"pair {p}, ({a}, {b}), is reversed: pairs must be (lo, hi) with lo < hi")
    key = lo * n + hi  # freed at the return: freeing it before the outputs slowed later layers
    if np.any(key[1:] <= key[:-1]):
        p = int(np.argmax(key[1:] <= key[:-1])) + 1
        a, b = pairs[p]
        rule = "repeats" if key[p] == key[p - 1] else "is out of key order lo * n + hi after"
        raise ValueError(f"pair {p}, ({a}, {b}), {rule} pair {p - 1}")
    return WeightedGraph(n=n, src=np.concatenate([lo, hi]), dst=np.concatenate([hi, lo]),
                         weight=np.concatenate([weights, weights]))


def center_weights(similarities) -> np.ndarray:
    """Subtract the empirical mean: w_i = s_i - mean(s).

    Centering removes the uninformative common mode of the similarities;
    the output sums to zero up to rounding.
    """
    s = np.asarray(similarities, dtype=np.float64)
    if s.size == 0:
        raise ValueError("cannot center an empty similarity list")
    if not np.all(np.isfinite(s)):
        raise ValueError("similarities must be finite")
    return s - s.mean()


def _check_size(g: WeightedGraph, x: np.ndarray):
    if x.shape != (g.num_half_edges,):
        raise ValueError(
            f"message vector has shape {x.shape}, graph has "
            f"{g.num_half_edges} half-edges"
        )


def _sum_into(g: WeightedGraph, values: np.ndarray) -> np.ndarray:
    """Per node, the sum of ``values`` over its incoming half-edges in
    half-edge order, which for pairs in key order is increasing source
    order, as in a CSR layout.  float64 also for an empty graph, where
    ``bincount`` returns int64 zeros."""
    return np.bincount(g.dst, weights=values, minlength=g.n).astype(np.float64, copy=False)


def nb_multiply(g: WeightedGraph, x: np.ndarray) -> np.ndarray:
    """Raw non-backtracking operator product B.x (no rescaling).

    out(i->j) = sum over l in neighbors(i) \\ {j} of w_il * x(l->i),
    computed as the full incoming sum at i minus the backtracking term,
    which sits on the twin, in the other half.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_size(g, x)
    m = g.num_pairs
    into = g.weight * x  # on half-edge (l->i): w_il * x(l->i)
    out = _sum_into(g, into)[g.src]
    out[:m] -= into[m:]
    out[m:] -= into[:m]
    return out


def nb_multiply_t(g: WeightedGraph, x: np.ndarray) -> np.ndarray:
    """Raw transposed product B^T.x (no rescaling).

    out(k->l) = w_kl * sum over j in neighbors(l) \\ {k} of x(l->j).
    """
    x = np.asarray(x, dtype=np.float64)
    _check_size(g, x)
    m = g.num_pairs
    back = np.concatenate([x[m:], x[:m]])  # on half-edge (k->l): x(l->k)
    out = _sum_into(g, back)[g.dst]
    out -= back
    out *= g.weight
    return out


def apply_nb(g: WeightedGraph, v: MessageState) -> MessageState:
    """One non-backtracking update of a message state, passed with
    ``g.growth_bound`` to :meth:`MessageState.advance`, which rescales it
    only when the state's bound requires it.  ``unscaled()`` of the result
    is the raw product of ``v.unscaled()`` either way."""
    return v.advance(nb_multiply(g, v.values), g.growth_bound)


def apply_nb_transpose(g: WeightedGraph, v: MessageState) -> MessageState:
    """One update with the transposed operator, rescaled every step: B^T
    is not bounded by ``g.growth_bound``."""
    return v.advance(nb_multiply_t(g, v.values))


def dense_nb_matrix(g: WeightedGraph) -> np.ndarray:
    """Dense 2m x 2m non-backtracking matrix (test oracle, small graphs).

    Entry [(i->j), (k->l)] is w_kl when l == i and k != j, else 0.
    """
    two_m = g.num_half_edges
    if two_m > 4000:
        raise ValueError(f"graph too large for the dense oracle (2m={two_m})")
    rows = np.arange(two_m)
    twin = (rows + g.num_pairs) % two_m
    cont = g.dst[None, :] == g.src[:, None]        # column ends where row starts
    not_twin = rows[None, :] != twin[:, None]       # and is not the reversal
    return np.where(cont & not_twin, g.weight[None, :], 0.0)


def pool(g: WeightedGraph, v: MessageState) -> np.ndarray:
    """Aggregate messages per node: pooled_i = sum_l w_il * v(l->i).

    Isolated nodes pool to 0.  The pooled vector inherits whatever scale
    the message state carries; sign decisions are unaffected.
    """
    _check_size(g, v.values)
    return _sum_into(g, g.weight * v.values)
