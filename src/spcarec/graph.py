"""Observation graphs and their structural quantities.

An observation graph records which entries of a symmetric d x d matrix are
observed: nodes are row/column indices 0..n-1, an edge {i, j} means entries
(i, j) and (j, i) are observed, and a loop {i, i} means the diagonal entry
is observed.  The graph is stored as that observation pattern itself: a
read-only symmetric n x n bool mask with the loops on its diagonal.
Degrees count loops once, i.e. degree(i) is the number of observed entries
in row i.  Laplacians are built from the loopless graph (loops cancel in
D - A), so algebraic connectivity has its usual meaning.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BucketExhausted, IrregularityUndefined
from .numerics import SymMatrix

__all__ = [
    "ObservationGraph",
    "BipartiteSubgraph",
    "adjacency",
    "algebraic_connectivity",
    "induced_subgraph",
    "bipartite_block",
    "block_quantities",
    "random_graph",
    "random_graph_bucketed",
    "graph_from_mask",
]

_EIG_ZERO_TOL = 1e-8


class ObservationGraph:
    """Undirected graph on nodes 0..n-1; loops allowed, no duplicate edges.

    `mask` is the read-only symmetric n x n bool observation pattern;
    `edges` lists the same graph as (i, j) pairs with i <= j.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, edges=()):
        if n < 1:
            raise ValueError("node count must be positive")
        n = int(n)
        mask = np.zeros((n, n), dtype=bool)
        for i, j in edges:
            i, j = int(i), int(j)
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            mask[i, j] = mask[j, i] = True
        mask.setflags(write=False)
        self.n, self.mask = n, mask

    @property
    def edges(self) -> frozenset:
        rows, cols = np.nonzero(np.triu(self.mask))
        return frozenset(zip(rows.tolist(), cols.tolist()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ObservationGraph)
            and self.n == other.n
            and np.array_equal(self.mask, other.mask)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask.tobytes()))

    def __repr__(self) -> str:
        edges = np.count_nonzero(np.triu(self.mask))
        return f"ObservationGraph(n={self.n}, edges={edges})"


def _graph(mask: np.ndarray) -> ObservationGraph:
    """Graph holding `mask`, a new symmetric bool array nothing else writes."""
    g = ObservationGraph.__new__(ObservationGraph)
    mask.setflags(write=False)
    g.n, g.mask = mask.shape[0], mask
    return g


@dataclass(frozen=True, eq=False)
class BipartiteSubgraph:
    """Edges between two disjoint node sets (the block G_{L,R} of a graph).

    `pattern` is a read-only 2-d bool copy of the given mask: rows are the
    left nodes, columns the right nodes.
    """

    pattern: np.ndarray

    def __post_init__(self):
        pattern = np.array(self.pattern, dtype=bool)
        if pattern.ndim != 2:
            raise ValueError("mask must be 2-d")
        pattern.setflags(write=False)
        object.__setattr__(self, "pattern", pattern)

    def max_degree(self) -> int:
        """Max incident-edge count over all vertices on both sides."""
        return _bipartite_max_degree(self.pattern)


def _bipartite_max_degree(p: np.ndarray) -> int:
    """Max row or column count of a bool bipartite pattern."""
    return int(max(p.sum(axis=1).max(initial=0), p.sum(axis=0).max(initial=0)))


def adjacency(g: ObservationGraph) -> SymMatrix:
    """0/1 adjacency matrix; A_ii = 1 iff the loop {i,i} is present."""
    return SymMatrix(g.mask.astype(float))


def _loopless_laplacian(mask: np.ndarray) -> np.ndarray:
    # a loop adds 1 to both D_ii and A_ii, so it cancels exactly in D - A
    a = mask.astype(float)
    return np.diag(a.sum(axis=1)) - a


def _connectivity(mask: np.ndarray) -> float:
    """Algebraic connectivity of the graph with bool mask `mask` (>= 2 nodes)."""
    phi = float(np.linalg.eigvalsh(_loopless_laplacian(mask))[1])
    return phi if phi > _EIG_ZERO_TOL else 0.0


def _irregularity(mask: np.ndarray, phi: float) -> float:
    """Irregularity of the graph with bool mask `mask` and connectivity `phi`.

    The max over the graph and its complement ~mask, taken within the
    pairs including loops, of (max degree - algebraic connectivity).  Undefined (raises IrregularityUndefined) when either
    difference is negative, e.g. for the complete graph without loops.
    """
    comp = ~mask
    d1 = float(mask.sum(axis=1).max()) - phi
    d2 = float(comp.sum(axis=1).max()) - _connectivity(comp)
    if d1 < -_EIG_ZERO_TOL or d2 < -_EIG_ZERO_TOL:
        raise IrregularityUndefined(
            f"max degree below connectivity (diffs {d1:.3g}, {d2:.3g})"
        )
    return max(max(d1, 0.0), max(d2, 0.0))


def algebraic_connectivity(g: ObservationGraph) -> float:
    """Second-smallest Laplacian eigenvalue; 0 iff the graph is disconnected."""
    if g.n < 2:
        raise ValueError("algebraic connectivity needs at least 2 nodes")
    return _connectivity(g.mask)


def _node_set(n: int, nodes, what: str) -> list[int]:
    """`nodes` sorted and deduplicated; nonempty and within 0..n-1."""
    nodes = sorted(set(int(v) for v in nodes))
    if not nodes:
        raise ValueError(f"{what} must be nonempty")
    if nodes[0] < 0 or nodes[-1] >= n:
        raise ValueError(f"{what} index out of range")
    return nodes


def _support_arrays(n: int, nodes, what="support") -> tuple[np.ndarray, np.ndarray]:
    """`nodes` checked by _node_set as an int array, and its complement in 0..n-1."""
    idx = np.asarray(_node_set(n, nodes, what), dtype=int)
    keep = np.ones(n, dtype=bool)
    keep[idx] = False
    comp = np.flatnonzero(keep)
    return idx, comp


def induced_subgraph(g: ObservationGraph, nodes) -> ObservationGraph:
    """Subgraph on `nodes`, relabeled 0..k-1 preserving the sorted order."""
    nodes = _node_set(g.n, nodes, "node set")
    return _graph(g.mask[np.ix_(nodes, nodes)])


def bipartite_block(g: ObservationGraph, left) -> BipartiteSubgraph:
    """Edges of g with exactly one endpoint in `left` (the block G_{J,J^c})."""
    left, right = _support_arrays(g.n, left, "left set")
    if right.size == 0:
        raise ValueError("left set must be a proper subset of the nodes")
    return BipartiteSubgraph(g.mask[np.ix_(left, right)])


def block_quantities(g: ObservationGraph, nodes) -> tuple[float, float]:
    """(algebraic connectivity, irregularity) of the induced block.

    A disconnected block returns (0, nan) without attempting the
    irregularity; callers treat that case separately.  A single node with
    its loop observed is the complete graph with loops on k = 1 nodes,
    which has connectivity k and irregularity 0, so it returns (1, 0).
    Without its loop the block observes no entry at all, so it counts as
    disconnected, (0, nan): with s = 1 the support's row of M* is zero off
    the diagonal, and an unobserved diagonal leaves nothing to recover.
    """
    nodes = _node_set(g.n, nodes, "node set")
    block = g.mask[np.ix_(nodes, nodes)]
    if len(nodes) == 1:
        return (1.0, 0.0) if block[0, 0] else (0.0, float("nan"))
    phi = _connectivity(block)
    if phi <= 0.0:
        return 0.0, float("nan")
    return phi, _irregularity(block, phi)


@functools.lru_cache(maxsize=8)
def _pair_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and ordered-entry weights of the pairs i <= j, read-only.

    An off-diagonal pair observes two ordered entries, a loop one.
    """
    rows, cols = np.triu_indices(n)
    weights = np.where(rows == cols, 1, 2)
    for a in (rows, cols, weights):
        a.setflags(write=False)
    return rows, cols, weights


def _draw_pairs(n: int, budget: int, rng: np.random.Generator) -> np.ndarray:
    """Indices into _pair_table(n) of the pairs a random graph draws."""
    if not budget:
        return np.empty(0, dtype=int)
    weights = _pair_table(n)[2]
    perm = rng.permutation(weights.size)
    cum = np.cumsum(weights[perm])
    return perm[: int(np.searchsorted(cum, budget, side="left")) + 1]


def _graph_of_pairs(n: int, sel: np.ndarray) -> ObservationGraph:
    rows, cols, _ = _pair_table(n)
    mask = np.zeros((n, n), dtype=bool)
    mask[rows[sel], cols[sel]] = True
    return _graph(mask | mask.T)


def _in_bucket(block: np.ndarray, ratio_lo: float, ratio_hi: float) -> bool:
    """Whether the block with bool mask `block` is connected with psi/phi,
    as block_quantities computes them, in [ratio_lo, ratio_hi).

    The complement's connectivity is >= 0, so max(d1, 0) <= psi <=
    max(d1, 0, Dmax(complement)); the irregularity, with the complement's
    Laplacian spectrum, is computed only when these bounds leave the test
    open.  Subtraction of a nonnegative number and division by phi > 0 are
    monotone under rounding, so the bounds hold for the computed psi / phi
    too and every answer is block_quantities' own; only d1 can make psi
    undefined, as the complement's connectivity is <= its Dmax (Fiedler 1973).
    """
    if block.shape[0] == 1:  # (1, 0) with its loop, else disconnected
        return bool(block[0, 0]) and ratio_lo <= 0.0 < ratio_hi
    phi = _connectivity(block)
    if phi <= 0.0:
        return False
    d1 = float(block.sum(axis=1).max()) - phi
    if d1 < -_EIG_ZERO_TOL:
        return False
    low = max(d1, 0.0)
    high = max(low, float((~block).sum(axis=1).max()))
    if high / phi < ratio_lo or low / phi >= ratio_hi:
        return False
    return ratio_lo <= _irregularity(block, phi) / phi < ratio_hi


def _check_graph_args(n: int, budget: int) -> None:
    """A random graph needs n >= 1 nodes and a budget in [0, n^2]."""
    if n < 1:
        raise ValueError("node count must be positive")
    if not 0 <= budget <= n * n:
        raise ValueError(f"budget must be in [0, n^2], got {budget}")


def _check_bucket_args(n, budget, ratio_lo, ratio_hi, max_tries) -> None:
    """random_graph_bucketed's arguments other than the support and seed."""
    if max_tries < 1:
        raise ValueError("max_tries must be at least 1")
    if not ratio_lo < ratio_hi:
        raise ValueError("need ratio_lo < ratio_hi")
    _check_graph_args(n, budget)


def random_graph(n: int, budget: int, rng_seed: int) -> ObservationGraph:
    """Uniformly sample pairs/loops until the ordered-entry count reaches budget.

    An off-diagonal pair contributes 2 to the count (both (i,j) and (j,i)),
    a loop contributes 1, so the final count lands in [budget, budget + 1].
    """
    _check_graph_args(n, budget)
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    return _graph_of_pairs(n, _draw_pairs(n, budget, rng))


def random_graph_bucketed(
    n: int,
    budget: int,
    support,
    ratio_lo: float,
    ratio_hi: float,
    max_tries: int,
    rng_seed: int,
) -> ObservationGraph:
    """Rejection-sample random graphs until psi/phi of the support block
    lands in [ratio_lo, ratio_hi) with the block connected.

    Draws with a disconnected block or undefined irregularity are rejected.
    Raises BucketExhausted after max_tries rejections.  Each try builds
    only the support block; the graph is built for the accepted try.
    """
    _check_bucket_args(n, budget, ratio_lo, ratio_hi, max_tries)
    support = _node_set(n, support, "support")
    k = len(support)
    # flat index of each pair's entry in a (k+1) x (k+1) array whose last
    # row and column collect the pairs outside the block
    pos = np.full(n, k)
    pos[support] = np.arange(k)
    rows, cols, _ = _pair_table(n)
    flat = pos[rows] * (k + 1) + pos[cols]
    for attempt in range(max_tries):
        rng = np.random.default_rng(np.random.SeedSequence((rng_seed, attempt)))
        sel = _draw_pairs(n, budget, rng)
        hit = np.zeros((k + 1) * (k + 1), dtype=bool)
        hit[flat[sel]] = True
        block = hit.reshape(k + 1, k + 1)[:k, :k]
        if _in_bucket(block | block.T, ratio_lo, ratio_hi):
            return _graph_of_pairs(n, sel)
    raise BucketExhausted(
        f"no graph with ratio in [{ratio_lo}, {ratio_hi}) after {max_tries} tries"
    )


def graph_from_mask(mask) -> ObservationGraph:
    """Observation graph from a symmetric 0/1 mask matrix."""
    mask = np.asarray(mask)
    if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
        raise ValueError("mask must be square")
    if mask.shape[0] < 1:
        raise ValueError("node count must be positive")
    if not np.array_equal(mask, mask.T):
        raise ValueError("mask must be symmetric")
    return _graph(mask.astype(bool))
