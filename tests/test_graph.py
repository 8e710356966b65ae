"""Observation graphs: structure, spectra, and generators."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spcarec import graph
from spcarec.bounds import masking_difference_check, tau
from spcarec.errors import BucketExhausted, Disconnected, IrregularityUndefined
from spcarec.graph import (
    ObservationGraph,
    _draw_pairs,
    _graph_of_pairs,
    _in_bucket,
    _loopless_laplacian,
    _pair_table,
    adjacency,
    algebraic_connectivity,
    bipartite_block,
    bipartite_from_mask,
    block_quantities,
    complement,
    degrees,
    graph_from_mask,
    induced_subgraph,
    irregularity,
    random_graph,
    random_graph_bucketed,
)
from spcarec.harness import DEFAULT_MAX_TRIES, gen_instance
from spcarec.numerics import SymMatrix, spectral_norm
from spcarec.spca import theoretical_rho

from helpers import _complete_with_loops


def _path3():
    return ObservationGraph(3, [(0, 1), (1, 2)])


class TestAdjacency:
    def test_triangle(self):
        g = ObservationGraph(3, [(0, 1), (0, 2), (1, 2)])
        np.testing.assert_array_equal(
            adjacency(g).a, [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        )

    def test_single_loop(self):
        g = ObservationGraph(2, [(0, 0)])
        np.testing.assert_array_equal(adjacency(g).a, [[1, 0], [0, 0]])

    def test_empty(self):
        np.testing.assert_array_equal(adjacency(ObservationGraph(3)).a, np.zeros((3, 3)))


class TestDegrees:
    def test_path(self):
        np.testing.assert_array_equal(degrees(_path3()), [1, 2, 1])

    def test_complete_with_loops(self):
        np.testing.assert_array_equal(degrees(_complete_with_loops(3)), [3, 3, 3])

    def test_loop_counts_once(self):
        g = ObservationGraph(2, [(1, 1)])
        np.testing.assert_array_equal(degrees(g), [0, 1])


class TestAlgebraicConnectivity:
    def test_disconnected(self):
        assert algebraic_connectivity(ObservationGraph(2)) == 0.0

    def test_path_oracle(self):
        # Laplacian spectrum of the 3-path is {0, 1, 3}
        lap = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        expected = np.sort(np.linalg.eigvalsh(lap))[1]
        assert algebraic_connectivity(_path3()) == pytest.approx(expected)
        assert algebraic_connectivity(_path3()) == pytest.approx(1.0)

    def test_complete_oracle(self):
        g = _complete_with_loops(3)
        assert algebraic_connectivity(g) == pytest.approx(3.0)

    def test_loops_do_not_matter(self):
        g1 = ObservationGraph(3, [(0, 1), (0, 2), (1, 2)])
        g2 = _complete_with_loops(3)
        assert algebraic_connectivity(g1) == pytest.approx(algebraic_connectivity(g2))

    def test_too_small(self):
        with pytest.raises(ValueError):
            algebraic_connectivity(ObservationGraph(1))


class TestComplement:
    def test_complete_to_empty(self):
        assert complement(_complete_with_loops(4)) == ObservationGraph(4)

    def test_empty_to_complete(self):
        assert complement(ObservationGraph(4)) == _complete_with_loops(4)

    def test_path_complement(self):
        expected = ObservationGraph(3, [(0, 2), (0, 0), (1, 1), (2, 2)])
        assert complement(_path3()) == expected

    def test_involution_and_degree_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            g = random_graph(n, int(rng.integers(0, n * n + 1)), int(rng.integers(1e6)))
            assert complement(complement(g)) == g
            np.testing.assert_array_equal(degrees(g) + degrees(complement(g)),
                                          np.full(n, n))


class TestIrregularity:
    def test_complete_with_loops_is_regular_extreme(self):
        assert irregularity(_complete_with_loops(4)) == pytest.approx(0.0)

    def test_path_oracle(self):
        # derived via the Laplacian spectra of the path and of its complement
        # in the loops-included universe: the graph side gives 2 - 1 = 1, the
        # complement (edge {0,2} plus all loops) is disconnected, giving 2 - 0
        g = _path3()
        gc = complement(g)
        expected = max(
            degrees(g).max() - algebraic_connectivity(g),
            degrees(gc).max() - algebraic_connectivity(gc),
        )
        assert expected == pytest.approx(2.0)
        assert irregularity(g) == pytest.approx(2.0)

    def test_complete_without_loops_undefined(self):
        g = ObservationGraph(3, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(IrregularityUndefined):
            irregularity(g)

    def test_nonnegative_when_defined(self):
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(50):
            n = int(rng.integers(2, 9))
            g = random_graph(n, int(rng.integers(0, n * n + 1)), int(rng.integers(1e6)))
            try:
                assert irregularity(g) >= 0.0
                checked += 1
            except IrregularityUndefined:
                pass
        assert checked > 20


class TestInducedSubgraph:
    def test_triangle_restrict(self):
        g = ObservationGraph(3, [(0, 1), (0, 2), (1, 2)])
        assert induced_subgraph(g, [0, 1]) == ObservationGraph(2, [(0, 1)])

    def test_singleton_loop(self):
        g = ObservationGraph(3, [(1, 1), (0, 1)])
        assert induced_subgraph(g, [1]) == ObservationGraph(1, [(0, 0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            induced_subgraph(_path3(), [])

    def test_full_is_identity(self):
        rng = np.random.default_rng(13)
        g = random_graph(6, 20, int(rng.integers(1e6)))
        assert induced_subgraph(g, range(6)) == g

    def test_relabeling_order_preserving(self):
        g = ObservationGraph(4, [(1, 3), (2, 3)])
        sub = induced_subgraph(g, [1, 3])
        assert sub == ObservationGraph(2, [(0, 1)])


class TestBipartiteBlock:
    def test_triangle(self):
        g = ObservationGraph(3, [(0, 1), (0, 2), (1, 2)])
        blk = bipartite_block(g, [0])
        np.testing.assert_array_equal(blk.pattern, [[True, True]])
        assert blk.max_degree() == 2

    def test_empty(self):
        blk = bipartite_block(ObservationGraph(4), [0, 1])
        assert blk.max_degree() == 0

    def test_complete_with_loops_count(self):
        n, s = 7, 3
        blk = bipartite_block(_complete_with_loops(n), range(s))
        assert blk.max_degree() == max(s, n - s)

    def test_full_left_rejected(self):
        with pytest.raises(ValueError):
            bipartite_block(_path3(), [0, 1, 2])

    def test_pattern_shape(self):
        mask = np.array([[1, 0], [1, 1], [0, 0]])
        blk = bipartite_from_mask(mask)
        np.testing.assert_array_equal(blk.pattern, mask.astype(bool))
        assert blk.max_degree() == 2

    def test_mask_must_be_2d(self):
        for mask in (np.ones(3, dtype=bool), np.ones((2, 2, 2), dtype=bool)):
            with pytest.raises(ValueError, match="mask must be 2-d"):
                bipartite_from_mask(mask)


class TestRandomGraph:
    def _ordered_count(self, g):
        return int(sum(1 if i == j else 2 for i, j in g.edges))

    def test_full_budget(self):
        g = random_graph(4, 16, 0)
        assert g == _complete_with_loops(4)

    def test_zero_budget(self):
        assert random_graph(4, 0, 0) == ObservationGraph(4)

    def test_budget_window(self):
        g = random_graph(50, 1250, 123)
        assert 1250 <= self._ordered_count(g) <= 1251

    def test_deterministic(self):
        assert random_graph(12, 70, 9) == random_graph(12, 70, 9)

    def test_infeasible(self):
        with pytest.raises(ValueError):
            random_graph(3, 10, 0)
        with pytest.raises(ValueError):
            random_graph(3, -1, 0)
        # ObservationGraph(0) refuses n = 0, so the generator does too
        with pytest.raises(ValueError, match="node count must be positive"):
            random_graph(0, 0, 0)


class TestRandomGraphBucketed:
    def test_unconstrained_bucket(self):
        g = random_graph_bucketed(8, 40, [0, 1, 2], 0.0, np.inf, 50, 4)
        phi, psi = block_quantities(g, [0, 1, 2])
        assert phi > 0
        assert 0.0 <= psi / phi < np.inf

    def test_impossible_bucket(self):
        with pytest.raises(BucketExhausted):
            random_graph_bucketed(8, 40, [0, 1, 2], -5.0, 0.0, 20, 4)

    def test_paper_scale_bucket(self):
        g = random_graph_bucketed(50, 1250, range(10), 0.0, 2.0, 10000, 21)
        phi, psi = block_quantities(g, range(10))
        assert 0.0 <= psi / phi < 2.0

    def test_support_validated(self):
        with pytest.raises(ValueError, match="support must be nonempty"):
            random_graph_bucketed(8, 40, [], 0.0, 1.0, 5, 0)
        for support in ([0, 8], [-1, 2]):
            with pytest.raises(ValueError, match="out of range"):
                random_graph_bucketed(8, 40, support, 0.0, 1.0, 5, 0)

    def test_budget_checked_like_random_graph(self):
        # above n^2 the draw would silently be the complete graph; below 0
        # it would use up max_tries and raise BucketExhausted
        for budget in (37, 10**6, -1, -5):
            with pytest.raises(ValueError, match="budget must be in"):
                random_graph_bucketed(6, budget, [0, 1], 0.0, np.inf, 5, 0)
        with pytest.raises(ValueError, match="node count must be positive"):
            random_graph_bucketed(0, 0, [0], 0.0, np.inf, 5, 0)

    @pytest.mark.parametrize("max_tries", [0, -1])
    def test_max_tries_below_one_rejected(self, max_tries):
        # with no draw allowed the bucket could only ever be exhausted
        with pytest.raises(ValueError, match="max_tries must be at least 1"):
            random_graph_bucketed(8, 40, [0, 1, 2], 0.0, np.inf, max_tries, 4)

    def test_deterministic(self):
        a = random_graph_bucketed(20, 150, range(5), 0.0, 4.0, 1000, 77)
        b = random_graph_bucketed(20, 150, range(5), 0.0, 4.0, 1000, 77)
        assert a == b


def _per_try_bucketed(n, budget, support, ratio_lo, ratio_hi, max_tries, rng_seed):
    """The per-try loop kept as the reference for random_graph_bucketed:
    every try draws the whole graph and calls block_quantities on it."""
    for attempt in range(max_tries):
        rng = np.random.default_rng(np.random.SeedSequence((rng_seed, attempt)))
        g = _graph_of_pairs(n, _draw_pairs(n, budget, rng))
        try:
            phi, psi = block_quantities(g, support)
        except IrregularityUndefined:
            continue
        if phi <= 0.0:
            continue
        if ratio_lo <= psi / phi < ratio_hi:
            return g
    raise BucketExhausted(f"no graph after {max_tries} tries")


# a low ratio_hi makes the sampler's lower bound reject, a high ratio_lo
# its upper bound
_RATIO_BOUNDS = [-1.0, 0.0, 1e-9, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 1e9, np.inf]


@st.composite
def _bucketed_args(draw):
    n = draw(st.integers(1, 30))
    budget = draw(st.integers(0, n * n))
    support = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    lo, hi = sorted(draw(st.lists(
        st.sampled_from(_RATIO_BOUNDS), min_size=2, max_size=2, unique=True
    )))
    max_tries = draw(st.integers(1, 50))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, budget, support, lo, hi, max_tries, seed


class TestBucketedMatchesPerTrialLoop:
    @settings(max_examples=300, deadline=None)
    @given(_bucketed_args())
    # the diagnose-hard and mc-easy shapes
    @example((50, 1250, list(range(0, 50, 5)), 10.0, 12.0, DEFAULT_MAX_TRIES, 21))
    @example((20, 200, [2, 7, 11, 19], 0.0, 2.0, DEFAULT_MAX_TRIES, 5))
    def test_same_graph_or_both_exhausted(self, args):
        try:
            expected = _per_try_bucketed(*args)
        except BucketExhausted:
            with pytest.raises(BucketExhausted):
                random_graph_bucketed(*args)
            return
        assert random_graph_bucketed(*args) == expected


def _block(n, pairs):
    return ObservationGraph(n, pairs).mask


_PATH3 = _block(3, [(0, 1), (1, 2)])  # phi 1, psi 2: d1 = 1, Dmax(complement) = 2


class TestInBucketExits:
    """Each try is decided as block_quantities decides it, with the
    complement's Laplacian spectrum computed only when the bounds
    max(d1, 0) <= psi <= max(d1, 0, Dmax(complement)) leave it open."""

    @pytest.mark.parametrize(
        "block, ratio_lo, ratio_hi, spectra",
        [
            (_PATH3, 2.5, 3.0, 1),  # the upper bound 2 is below ratio_lo
            (_PATH3, -1.0, 0.5, 1),  # the lower bound 1 is at least ratio_hi
            (_PATH3, 1.5, 2.5, 2),  # open: accepted
            (_PATH3, 1.5, 1.9, 2),  # open: rejected
            (_block(3, [(0, 1), (1, 2), (0, 2)]), -1.0, np.inf, 1),  # d1 = -1
            (_block(3, [(0, 0), (1, 1)]), -1.0, np.inf, 1),  # disconnected
            (_block(1, []), 0.0, 1.0, 0),  # one node: (1, 0)
            (_block(1, []), 0.5, 1.0, 0),
        ],
    )
    def test_decides_like_block_quantities(
        self, monkeypatch, block, ratio_lo, ratio_hi, spectra
    ):
        try:
            phi, psi = block_quantities(graph_from_mask(block), range(block.shape[0]))
            expected = phi > 0.0 and ratio_lo <= psi / phi < ratio_hi
        except IrregularityUndefined:
            expected = False
        calls = []
        connectivity = graph._connectivity
        monkeypatch.setattr(
            graph, "_connectivity", lambda m: calls.append(m) or connectivity(m)
        )
        assert _in_bucket(block, ratio_lo, ratio_hi) == expected
        assert len(calls) == spectra

    def test_bucket_edges_at_the_ratio(self):
        checked = 0
        for seed in range(40):
            g = random_graph(8, 36, seed)
            phi, psi = block_quantities(g, range(5))
            if phi <= 0.0:
                continue
            block = g.mask[:5, :5]
            r = psi / phi
            up, down = np.nextafter(r, np.inf), np.nextafter(r, -np.inf)
            assert _in_bucket(block, r, up)
            assert _in_bucket(block, down, up)
            assert not _in_bucket(block, up, np.inf)
            assert not _in_bucket(block, -np.inf, r)
            checked += 1
        assert checked >= 20


class TestComplementIrregularityDefined:
    """Why _in_bucket calls _irregularity unguarded: the loopless complement
    of a connected block on k >= 2 nodes is not complete, so its algebraic
    connectivity is at most its minimum degree (Fiedler 1973), and the
    complement's difference Dmax - a is never negative."""

    def test_every_connected_block_on_two_to_five_nodes(self):
        blocks = 0
        for k in range(2, 6):
            rows, cols = np.triu_indices(k)
            codes = np.arange(2 ** rows.size)[:, None]
            for bits in (codes >> np.arange(rows.size)) & 1 == 1:
                block = np.zeros((k, k), dtype=bool)
                block[rows[bits], cols[bits]] = True
                block |= block.T
                if graph._connectivity(block) <= 0.0:
                    continue
                comp = ~block
                assert comp.sum(axis=1).max() - graph._connectivity(comp) >= 0.0
                blocks += 1
        # 4 + 32 + 608 + 23,296 connected blocks, loops included
        assert blocks == 23_940


def _ones_complement_basis(n):
    basis = np.column_stack([np.ones(n), np.eye(n)[:, : n - 1]])
    q, _ = np.linalg.qr(basis)
    return q[:, 1:]


class TestFootnoteSandwich:
    def test_sandwich_on_random_graphs(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            g = random_graph(n, int(rng.integers(0, n * n + 1)), int(rng.integers(1e6)))
            a = adjacency(g).a
            q2 = _ones_complement_basis(n)
            constrained_max = np.linalg.eigvalsh(q2.T @ a @ q2)[-1]
            deg = degrees(g)
            diff = deg.max() - algebraic_connectivity(g)
            assert constrained_max <= diff + 1e-8
            assert diff <= constrained_max + deg.max() - deg.min() + 1e-8


class TestGraphFromMask:
    def test_roundtrip(self):
        g = random_graph(6, 20, 5)
        assert graph_from_mask(adjacency(g).a) == g

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            graph_from_mask(np.array([[1, 1], [0, 1]]))


# ---------------------------------------------------------------------------
# Reference: the edge-set implementation the bool-mask graph replaced, kept
# verbatim in substance so the mask code can be checked against it exactly.


class _RefGraph:
    def __init__(self, n, edges=()):
        canon = set()
        for i, j in edges:
            i, j = int(i), int(j)
            canon.add((i, j) if i <= j else (j, i))
        self.n = int(n)
        self.edges = frozenset(canon)


def _ref_adjacency(g):
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    return 0.5 * (a + a.T)  # SymMatrix's symmetrization


def _ref_degrees(g):
    deg = np.zeros(g.n, dtype=int)
    for i, j in g.edges:
        deg[i] += 1
        if i != j:
            deg[j] += 1
    return deg


def _ref_loopless_laplacian(g):
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        if i != j:
            a[i, j] = 1.0
            a[j, i] = 1.0
    return np.diag(a.sum(axis=1)) - a


def _ref_connectivity(g):
    phi = float(np.linalg.eigvalsh(_ref_loopless_laplacian(g))[1])
    return phi if phi > 1e-8 else 0.0


def _ref_complement(g):
    universe = {(i, j) for i in range(g.n) for j in range(i, g.n)}
    return _RefGraph(g.n, universe - g.edges)


def _ref_irregularity(g):
    gc = _ref_complement(g)
    d1 = float(_ref_degrees(g).max()) - _ref_connectivity(g)
    d2 = float(_ref_degrees(gc).max()) - _ref_connectivity(gc)
    if d1 < -1e-8 or d2 < -1e-8:
        raise IrregularityUndefined("undefined")
    return max(max(d1, 0.0), max(d2, 0.0))


def _ref_induced_subgraph(g, nodes):
    nodes = sorted(set(int(v) for v in nodes))
    relabel = {v: k for k, v in enumerate(nodes)}
    keep = set(nodes)
    edges = [
        (relabel[i], relabel[j]) for i, j in g.edges if i in keep and j in keep
    ]
    return _RefGraph(len(nodes), edges)


def _ref_bipartite_block(g, left):
    """(pattern, max degree) of the block G_{L, L^c}: rows are the sorted
    left set, columns its sorted complement."""
    left = sorted(set(int(v) for v in left))
    lset = set(left)
    right = tuple(v for v in range(g.n) if v not in lset)
    edges = set()
    for i, j in g.edges:
        if (i in lset) != (j in lset):
            edges.add((i, j) if i in lset else (j, i))
    counts = {}
    for l, r in edges:
        counts[l] = counts.get(l, 0) + 1
        counts[r] = counts.get(r, 0) + 1
    li = {v: k for k, v in enumerate(left)}
    ri = {v: k for k, v in enumerate(right)}
    pattern = np.zeros((len(left), len(right)), dtype=bool)
    for l, r in edges:
        pattern[li[l], ri[r]] = True
    return pattern, max(counts.values(), default=0)


def _ref_block_quantities(g, nodes):
    nodes = sorted(set(int(v) for v in nodes))
    if len(nodes) == 1:
        return 1.0, 0.0
    sub = _ref_induced_subgraph(g, nodes)
    phi = _ref_connectivity(sub)
    if phi <= 0.0:
        return 0.0, float("nan")
    return phi, _ref_irregularity(sub)


def _ref_random_graph(n, budget, rng):
    rows, cols = np.triu_indices(n)
    weights = np.where(rows == cols, 1, 2)
    if budget == 0:
        return _RefGraph(n, ())
    perm = rng.permutation(rows.size)
    cum = np.cumsum(weights[perm])
    k = int(np.searchsorted(cum, budget, side="left"))
    sel = perm[: k + 1]
    return _RefGraph(n, zip(rows[sel].tolist(), cols[sel].tolist()))


@st.composite
def _graph_pairs(draw):
    """(ObservationGraph, reference graph) built from the same edges,
    either listed directly or drawn by the seeded random generator."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        budget = draw(st.integers(0, n * n))
        seed = draw(st.integers(0, 2**32 - 1))
        g = _graph_of_pairs(n, _draw_pairs(n, budget, np.random.default_rng(seed)))
        ref = _ref_random_graph(n, budget, np.random.default_rng(seed))
        return g, ref
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=n * (n + 1) // 2 + 4))
    return ObservationGraph(n, edges), _RefGraph(n, edges)


def _same_edges(g, ref):
    edges = sorted(g.edges)
    assert edges == sorted(ref.edges)
    assert all(type(i) is int and type(j) is int and i <= j for i, j in edges)


def _same_float(x, y):
    assert x == y or (math.isnan(x) and math.isnan(y))


class TestMatchesEdgeSetReference:
    @settings(max_examples=300, deadline=None)
    @given(_graph_pairs(), st.data())
    def test_every_quantity_exactly_equal(self, pair, data):
        g, ref = pair
        n = g.n
        _same_edges(g, ref)
        a = adjacency(g).a
        assert a.dtype == np.float64
        assert a.tobytes() == _ref_adjacency(ref).tobytes()
        deg = degrees(g)
        assert deg.dtype == _ref_degrees(ref).dtype
        np.testing.assert_array_equal(deg, _ref_degrees(ref))
        lap_vals = np.linalg.eigvalsh(_loopless_laplacian(g.mask))
        ref_vals = np.linalg.eigvalsh(_ref_loopless_laplacian(ref))
        assert lap_vals.tobytes() == ref_vals.tobytes()
        _same_edges(complement(g), _ref_complement(ref))
        np.testing.assert_array_equal(deg + degrees(complement(g)), np.full(n, n))

        nodes = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        _same_edges(induced_subgraph(g, nodes), _ref_induced_subgraph(ref, nodes))
        try:
            expected = _ref_block_quantities(ref, nodes)
        except IrregularityUndefined:
            with pytest.raises(IrregularityUndefined):
                block_quantities(g, nodes)
        else:
            got = block_quantities(g, nodes)
            _same_float(got[0], expected[0])
            _same_float(got[1], expected[1])

        if n >= 2:
            left = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
            blk = bipartite_block(g, left)
            ref_pattern, ref_dmax = _ref_bipartite_block(ref, left)
            assert blk.pattern.dtype == bool
            np.testing.assert_array_equal(blk.pattern, ref_pattern)
            assert blk.max_degree() == ref_dmax
            assert type(blk.max_degree()) is int


class TestMaskingCheckMatchesReference:
    def test_phi_psi_recomputed_from_edges(self):
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(80):
            n = int(rng.integers(2, 13))
            g = random_graph(n, int(rng.integers(0, n * n + 1)), int(rng.integers(1e6)))
            ref = _RefGraph(n, g.edges)
            y = SymMatrix(rng.standard_normal((n, n)))
            phi = _ref_connectivity(ref)
            if phi <= 0.0:
                with pytest.raises(Disconnected):
                    masking_difference_check(y, g)
                continue
            try:
                psi = _ref_irregularity(ref)
            except IrregularityUndefined:
                with pytest.raises(IrregularityUndefined):
                    masking_difference_check(y, g)
                continue
            mask = _ref_adjacency(ref).astype(bool)
            lhs = spectral_norm(y.a - (n / phi) * (mask * y.a))
            rhs = (n * tau(y) * psi / phi) * spectral_norm(y)
            got = masking_difference_check(y, g)
            assert got[:2] == (lhs, rhs)
            assert got[2] == (lhs <= rhs + 1e-8 * max(1.0, rhs))
            checked += 1
        assert checked >= 20


class TestIndexSetRule:
    """Every support or node-set argument goes through one check with two
    messages: "<what> must be nonempty" and "<what> index out of range"."""

    @pytest.mark.parametrize(
        "what, call",
        [
            ("node set", lambda g, nodes: block_quantities(g, nodes)),
            ("node set", lambda g, nodes: induced_subgraph(g, nodes)),
            ("left set", lambda g, nodes: bipartite_block(g, nodes)),
            ("support", lambda g, nodes: random_graph_bucketed(
                g.n, 20, nodes, 0.0, 1.0, 5, 0)),
            ("support", lambda g, nodes: gen_instance(
                g.n, max(len(nodes), 1), 1.0, 0.0, g, 0, support=nodes)),
            ("support", lambda g, nodes: theoretical_rho(
                SymMatrix(np.eye(g.n)), g, 0.1, nodes)),
        ],
    )
    def test_messages(self, what, call):
        g = random_graph(6, 20, 3)
        with pytest.raises(ValueError, match=f"^{what} must be nonempty$"):
            call(g, [])
        for nodes in ([6], [-1, 2], [0, 6]):
            with pytest.raises(ValueError, match=f"^{what} index out of range$"):
                call(g, nodes)


class TestMaskReadOnly:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: ObservationGraph(3, [(0, 1)]),
            lambda: random_graph(5, 12, 1),
            lambda: complement(ObservationGraph(3, [(0, 1)])),
            lambda: induced_subgraph(random_graph(5, 12, 1), [0, 2, 3]),
            lambda: graph_from_mask(np.eye(3)),
        ],
    )
    def test_write_raises(self, make):
        g = make()
        assert g.mask.dtype == bool
        assert np.array_equal(g.mask, g.mask.T)
        with pytest.raises(ValueError):
            g.mask[0, 0] = not g.mask[0, 0]

    def test_from_mask_copies_input(self):
        mask = np.eye(3, dtype=bool)
        g = graph_from_mask(mask)
        mask[0, 1] = mask[1, 0] = True
        assert g == ObservationGraph(3, [(0, 0), (1, 1), (2, 2)])

    def test_bipartite_pattern_read_only(self):
        blk = bipartite_block(random_graph(6, 20, 2), [0, 1])
        with pytest.raises(ValueError):
            blk.pattern[0, 0] = True

    def test_cached_pair_table_read_only(self):
        # every draw of a random graph shares one table per n
        for a in _pair_table(5):
            with pytest.raises(ValueError):
                a[0] = 0
