"""Tail bound and deterministic difference bound."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spcarec.bounds import (
    _TAIL_BLOCK,
    _open_trials,
    masking_difference_check,
    tail_bound_montecarlo,
    tail_bound_value,
    tau,
)
from spcarec.errors import Disconnected, IrregularityUndefined
from spcarec.graph import (
    BipartiteSubgraph,
    ObservationGraph,
    random_graph,
)
from spcarec.numerics import SymMatrix

from helpers import _complete_with_loops


class TestTau:
    def test_identity(self):
        assert tau(SymMatrix(np.eye(5))) == pytest.approx(1.0)

    def test_spike(self):
        u = np.zeros(4)
        u[0] = 1.0
        assert tau(SymMatrix(np.outer(u, u))) == pytest.approx(1.0)

    def test_uniform_spike(self):
        n = 6
        u = np.ones(n) / np.sqrt(n)
        assert tau(SymMatrix(np.outer(u, u))) == pytest.approx(1.0 / n)

    def test_zero_matrix(self):
        assert tau(SymMatrix(np.zeros((3, 3)))) == 0.0

    def test_range(self):
        rng = np.random.default_rng(80)
        for _ in range(20):
            a = rng.standard_normal((5, 5))
            t = tau(SymMatrix(a + a.T))
            assert 0.0 < t <= 1.0 + 1e-12

    def test_scale_invariant(self):
        rng = np.random.default_rng(81)
        a = rng.standard_normal((5, 5))
        y = SymMatrix(a + a.T)
        for c in (-3.0, 0.5, 7.0):
            assert tau(SymMatrix(c * y.a)) == pytest.approx(tau(y), rel=1e-10)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(82)
        a = rng.standard_normal((6, 6))
        y = SymMatrix(a + a.T)
        perm = rng.permutation(6)
        yp = SymMatrix(y.a[np.ix_(perm, perm)])
        assert tau(yp) == pytest.approx(tau(y), rel=1e-10)


class TestTheorem3:
    def test_complete_graph_zero_both_sides(self):
        rng = np.random.default_rng(83)
        a = rng.standard_normal((5, 5))
        lhs, rhs, holds = masking_difference_check(SymMatrix(a + a.T), _complete_with_loops(5))
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)
        assert holds

    def test_path_with_loops_rank_one(self):
        rng = np.random.default_rng(84)
        u = rng.standard_normal(3)
        y = SymMatrix(np.outer(u, u))
        g = ObservationGraph(3, [(0, 1), (1, 2), (0, 0), (1, 1), (2, 2)])
        lhs, rhs, holds = masking_difference_check(y, g)
        assert holds
        assert lhs <= rhs + 1e-8 * max(1.0, rhs)

    def test_random_sweep(self):
        rng = np.random.default_rng(85)
        done = 0
        while done < 100:
            n = int(rng.integers(3, 10))
            g = random_graph(n, int(rng.integers(n, n * n + 1)), int(rng.integers(1e9)))
            a = rng.standard_normal((n, n))
            try:
                _, _, holds = masking_difference_check(SymMatrix(a + a.T), g)
            except (Disconnected, IrregularityUndefined):
                continue
            assert holds
            done += 1

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            masking_difference_check(SymMatrix(np.eye(4)), ObservationGraph(4, [(0, 1)]))

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 10),
        rank=st.integers(1, 10),
        scale=st.sampled_from([0.0, 1e-6, 1.0, 1e6]),
        p_edge=st.floats(0.0, 1.0),
        p_loop=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_holds_on_connected_graphs(self, n, rank, scale, p_edge, p_loop, seed):
        # a random spanning tree keeps the graph connected; extra edges and
        # loops vary its degrees, and a low-rank Y makes tau small
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        edges = [(int(order[i]), int(order[rng.integers(i)])) for i in range(1, n)]
        edges += [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p_edge]
        edges += [(i, i) for i in range(n) if rng.random() < p_loop]
        vecs = rng.standard_normal((n, min(rank, n)))
        vals = rng.standard_normal(vecs.shape[1])
        y = SymMatrix(scale * (vecs * vals) @ vecs.T)
        try:
            lhs, rhs, holds = masking_difference_check(y, ObservationGraph(n, edges))
        except IrregularityUndefined:
            return
        assert holds, (lhs, rhs)


class TestTailBoundValue:
    def test_monotone_in_t(self):
        values = [tail_bound_value(5, 5, 1.0, 5, t) for t in (0.0, 1.0, 2.0, 5.0)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_monotone_in_sigma(self):
        values = [tail_bound_value(5, 5, s, 5, 3.0) for s in (0.5, 1.0, 2.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_empty_pattern(self):
        assert tail_bound_value(4, 4, 1.0, 0, 1.0) == 0.0
        assert tail_bound_value(4, 4, 1.0, 0, 0.0) == 16.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma, t", [(1e-170, 1e170), (1e-300, 1e10), (5e-324, 2.0)])
    def test_overflowing_ratio_gives_zero(self, sigma, t):
        assert math.isinf(t / sigma)
        assert tail_bound_value(4, 4, sigma, 3, t) == 0.0


class TestTheorem2MonteCarlo:
    def test_t_zero_trivial(self):
        pattern = BipartiteSubgraph(np.ones((3, 3), dtype=bool))
        check = tail_bound_montecarlo(1.0, pattern, 0.0, 1000, 0)
        assert check.empirical == 1.0
        assert check.bound >= 1.0
        assert check.holds

    def test_far_tail(self):
        pattern = BipartiteSubgraph(np.ones((5, 5), dtype=bool))
        check = tail_bound_montecarlo(1.0, pattern, 20.0, 1000, 1)
        assert check.empirical == 0.0
        assert check.holds

    def test_reference_level(self):
        # at t = 2 sigma sqrt(Dmax log(m+n)) the bound collapses to 2/(m+n)
        m = n = 4
        sigma = 1.0
        pattern = BipartiteSubgraph(np.ones((m, n), dtype=bool))
        dmax = pattern.max_degree()
        t = 2.0 * sigma * math.sqrt(dmax * math.log(m + n))
        check = tail_bound_montecarlo(sigma, pattern, t, 2000, 2)
        assert check.bound == pytest.approx(2.0 / (m + n), rel=1e-12)
        se = math.sqrt(check.empirical * (1 - check.empirical) / check.trials)
        assert check.empirical <= check.bound + 3 * se
        assert check.holds

    def test_empty_pattern(self):
        pattern = BipartiteSubgraph(np.zeros((3, 2), dtype=bool))
        check = tail_bound_montecarlo(1.0, pattern, 0.5, 1000, 3)
        assert check.empirical == 0.0
        assert check.holds

    def test_schedule_independent(self):
        pattern = BipartiteSubgraph(np.ones((3, 3), dtype=bool))
        a = tail_bound_montecarlo(1.0, pattern, 3.0, 1000, 4)
        b = tail_bound_montecarlo(1.0, pattern, 3.0, 1000, 4)
        assert a == b

    def test_validation(self):
        pattern = BipartiteSubgraph(np.ones((2, 2), dtype=bool))
        for sigma in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="sigma must be a positive finite"):
                tail_bound_montecarlo(sigma, pattern, 1.0, 1000, 0)
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="t must be finite"):
                tail_bound_montecarlo(1.0, pattern, t, 1000, 0)
        with pytest.raises(ValueError):
            tail_bound_montecarlo(1.0, pattern, 1.0, 999, 0)


def _per_trial_tail_norms(sigma, mask, trials, rng_seed):
    """The per-trial loop kept as the reference for tail_bound_montecarlo's
    blocks: the trials are drawn one after another from one generator, one
    draw of the pattern's cells in row-major order and one SVD per trial.
    Returns every trial's spectral norm; trial k exceeds t if norm >= t."""
    m, n = mask.shape
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    norms = []
    for _ in range(trials):
        z = np.zeros((m, n))
        z[mask] = rng.standard_normal(int(mask.sum())) * sigma
        norms.append(np.linalg.svd(z, compute_uv=False)[0] if z.size else 0.0)
    return norms


# the fewest trials tail_bound_montecarlo accepts that fill whole blocks
_WHOLE_BLOCKS = -(-1000 // _TAIL_BLOCK) * _TAIL_BLOCK


class TestTailMatchesPerTrialLoop:
    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(0, 6),
        n=st.integers(0, 8),
        density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        sigma=st.sampled_from([0.1, 0.5, 1.0, 3.0]),
        t=st.sampled_from([-1.0, 0.0, 0.3, 1.0, 2.5, 6.0]),
        trials=st.sampled_from([1000, 1001, _WHOLE_BLOCKS, _WHOLE_BLOCKS + 7]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=0, n=4, density=1.0, sigma=1.0, t=0.0, trials=1000, seed=0)
    @example(m=3, n=0, density=1.0, sigma=1.0, t=0.5, trials=1001, seed=1)
    @example(m=4, n=5, density=0.0, sigma=1.0, t=0.0, trials=1000, seed=2)
    @example(m=4, n=5, density=0.0, sigma=1.0, t=0.5, trials=1001, seed=3)
    # no cell is drawn: every norm is 0, which is >= t
    @example(m=4, n=5, density=0.0, sigma=1.0, t=0.0, trials=_WHOLE_BLOCKS, seed=10)
    @example(m=4, n=5, density=0.0, sigma=1.0, t=-1.0, trials=1000, seed=11)
    # row 1 and column 4 of this pattern hold no cell
    @example(m=4, n=5, density=0.3, sigma=1.0, t=1.0, trials=1000, seed=0)
    # on a single row or column ||Z||_2 = ||Z||_F = the row (column) norm,
    # so the norm bounds are tight and only the screen's margin keeps its
    # decisions equal to the SVD's
    @example(m=1, n=8, density=1.0, sigma=1.0, t=2.5, trials=1000, seed=4)
    @example(m=1, n=5, density=0.7, sigma=3.0, t=6.0, trials=1001, seed=5)
    @example(m=6, n=1, density=1.0, sigma=0.5, t=1.0, trials=_WHOLE_BLOCKS, seed=6)
    @example(m=4, n=1, density=0.7, sigma=0.1, t=0.3, trials=1000, seed=7)
    # sigma^2 underflows to 0 and overflows to inf; the bound stays finite
    @example(m=4, n=5, density=0.7, sigma=1e-170, t=1.0, trials=1000, seed=8)
    @example(m=4, n=5, density=0.7, sigma=1e170, t=1.0, trials=1000, seed=9)
    def test_exceedances_equal(self, m, n, density, sigma, t, trials, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((m, n)) < density
        pattern = BipartiteSubgraph(mask)
        norms = _per_trial_tail_norms(sigma, mask, trials, seed)
        # at t equal to the first or last trial's norm and just above it,
        # the counts differ unless that trial's draw is counted exactly once;
        # at 1e-12 relative on either side the norm bounds nearly decide it
        edge = [norms[0], norms[-1]]
        near = [x * (1.0 + e) for x in edge for e in (-1e-12, 1e-12)]
        for t in [t] + edge + [np.nextafter(x, np.inf) for x in edge] + near:
            check = tail_bound_montecarlo(sigma, pattern, t, trials, seed)
            empirical = sum(norm >= t for norm in norms) / trials
            se = math.sqrt(empirical * (1.0 - empirical) / trials)
            assert check.empirical == empirical
            assert check.holds == (empirical <= check.bound + 3.0 * se)
            assert check.trials == trials

    @pytest.mark.parametrize(
        "m, n, sigma, seed", [(5, 5, 1.0, 8), (1, 8, 0.5, 4), (6, 3, 3.0, 12)]
    )
    def test_dense_pattern_keeps_its_stream(self, m, n, sigma, seed):
        # a dense pattern's row-major draw is the full (m, n) draw, so its
        # count equals the one from drawing every trial as an (m, n) matrix
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        norms = [
            np.linalg.svd(rng.standard_normal((m, n)) * sigma, compute_uv=False)[0]
            for _ in range(1000)
        ]
        t = float(np.quantile(norms, 0.9))
        pattern = BipartiteSubgraph(np.ones((m, n), dtype=bool))
        check = tail_bound_montecarlo(sigma, pattern, t, 1000, seed)
        assert 0.0 < check.empirical < 1.0
        assert check.empirical == sum(norm >= t for norm in norms) / 1000


class TestTailScreen:
    """The Frobenius bound decides trials below t without an SVD where it
    can, and leaves the rest to the SVD."""

    @staticmethod
    def _count_svd_trials(monkeypatch):
        sent = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            sent.append(a.shape[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        return sent

    def test_no_svd_in_far_tail(self, monkeypatch):
        sent = self._count_svd_trials(monkeypatch)
        pattern = BipartiteSubgraph(np.ones((5, 5), dtype=bool))
        assert tail_bound_montecarlo(1.0, pattern, 20.0, 1000, 1).empirical == 0.0
        assert sent == []

    def test_open_trials_go_to_svd(self, monkeypatch):
        mask = np.ones((5, 5), dtype=bool)
        norms = _per_trial_tail_norms(1.0, mask, 1000, 8)
        t = float(np.quantile(norms, 0.9))
        sent = self._count_svd_trials(monkeypatch)
        check = tail_bound_montecarlo(1.0, BipartiteSubgraph(mask), t, 1000, 8)
        assert 0.0 < check.empirical < 1.0
        assert check.empirical == sum(norm >= t for norm in norms) / 1000
        assert 0 < sum(sent) < 1000

    def test_squares_out_of_range_left_open(self):
        # the squares of 1e-165 underflow to 0, so the sum would read
        # ||Z||_F = 0 < 1e-165 where ||Z||_2 is 2e-165; those of 1e155
        # overflow, so it reads inf, which is never below t
        for x, t in ((1e-165, 1e-165), (1e155, 3e155)):
            assert _open_trials(np.full((1, 2, 2), x), t).tolist() == [True]
