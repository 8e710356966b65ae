"""Support recovery front end, penalty tuning, and theory diagnostics."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spcarec import spca
from spcarec.errors import DegenerateBaseline, Disconnected
from spcarec.graph import (
    ObservationGraph,
    adjacency,
    bipartite_block,
    degrees,
    induced_subgraph,
    random_graph,
)
from spcarec.harness import gen_instance
from spcarec.numerics import SymMatrix, spectral_norm
from spcarec.sdp import DEFAULT_TOL, _witness_window, kkt_report, solve_sdp
from spcarec.spca import (
    DEFAULT_RHO_GRID,
    _grid,
    rescaled_parameter,
    sufficient_conditions_report,
    theoretical_rho,
    tune_rho,
)

from helpers import _complete_with_loops, _experiment_matrix


def _rank_one(d, idx, scale=5.0):
    u = np.zeros(d)
    u[np.asarray(idx)] = 1.0 / np.sqrt(len(idx))
    return SymMatrix(scale * np.outer(u, u))


class TestRecoverSupport:
    """The support at one penalty, as solve_sdp reports it."""

    def test_rank_one_fully_observed(self):
        m = _rank_one(6, [0, 1])
        sol = solve_sdp(m, 0.1)
        assert sol.converged
        assert sol.support == {0, 1}

    def test_diagonal(self):
        assert solve_sdp(SymMatrix(np.diag([3.0, 1.0])), 0.5).support == {0}


class TestCriterion:
    """The tuning criterion at one penalty: a one-point tune_rho."""

    def test_unpenalized_dense(self):
        # at rho = 0 the variance ratio is 1; the identity-like solution is
        # dense, so the sparsity term vanishes
        m = SymMatrix(np.eye(5))
        assert tune_rho(m, (0.0,), 0.5).criteria[0] == pytest.approx(0.5, abs=1e-9)

    def test_plugin_arithmetic(self):
        from spcarec.spca import _criterion_value

        # variance ratio 0.8, support 2 of 10, a = 0.5
        assert _criterion_value(0.8, 1.0, 2, 10, 0.5) == pytest.approx(0.8)

    def test_sparse_beats_dense_on_noisy_rank_one(self):
        # a noisy spike: the unpenalized solution is dense, the penalized one
        # finds the planted support, and the sparsity term wins for a >= 0.4
        rng = np.random.default_rng(42)
        noise = 0.3 * rng.standard_normal((10, 10))
        m = SymMatrix(_rank_one(10, [2, 7]).a + noise + noise.T)
        for a in (0.4, 0.5, 0.6):
            c_rho = tune_rho(m, (0.3,), a).criteria[0]
            c_zero = tune_rho(m, (0.0,), a).criteria[0]
            assert c_rho > c_zero

    def test_degenerate_baseline(self):
        with pytest.raises(DegenerateBaseline):
            tune_rho(SymMatrix(np.zeros((3, 3))), (0.1,), 0.5)

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            tune_rho(SymMatrix(np.eye(2)), (0.1,), 1.0)


class TestGrid:
    @pytest.mark.parametrize("step, count", [(0.025, 40), (0.05, 20)])
    def test_matches_rounded_multiples(self, step, count):
        want = [round(step * k, 6).hex() for k in range(1, count + 1)]
        assert [r.hex() for r in _grid(step, 1.0, step)] == want

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0.1, 0.5, 0.0), "need step > 0"),
            ((0.5, 0.1, 0.1), "stop >= start"),
            ((0.0, 1e308, 1e-308), "more than 1000000 points"),
            ((-1e308, 1e308, 1.0), "more than 1000000 points"),
            ((0.0, 1e9, 1e-9), "more than 1000000 points"),
            ((0.0, 1_000_000.0, 1.0), "more than 1000000 points"),
        ],
    )
    def test_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            _grid(*args)

    def test_point_limit_is_inclusive(self):
        assert len(_grid(0.0, 999_999.0, 1.0)) == 1_000_000


class TestTuneRho:
    def test_singleton_grid(self):
        m = _rank_one(5, [0, 1])
        trace = tune_rho(m, [0.2], 0.5)
        assert trace.chosen_rho == 0.2
        assert trace.grid == (0.2,)

    def test_tie_breaks_to_larger(self):
        # a matrix whose solution is identical at both grid points
        m = _rank_one(4, [1])
        trace = tune_rho(m, [0.0, 0.1], 0.5)
        assert trace.criteria[0] == pytest.approx(trace.criteria[1], abs=1e-9)
        assert trace.chosen_rho == 0.1

    def test_chosen_in_grid_and_attains_max(self):
        rng = np.random.default_rng(40)
        a = rng.standard_normal((6, 6))
        m = SymMatrix(a + a.T + 4 * np.eye(6))
        grid = (0.05, 0.1, 0.3, 0.6)
        trace = tune_rho(m, grid, 0.5)
        assert trace.chosen_rho in grid
        assert max(trace.criteria) == trace.criteria[trace.grid.index(trace.chosen_rho)]

    def test_recovers_on_synthetic_instance(self):
        from spcarec.harness import gen_instance

        g = random_graph(20, 320, 11)
        inst = gen_instance(20, 4, 8.0, 0.0, g, 12)
        trace = tune_rho(inst.m, [round(0.1 * k, 6) for k in range(1, 11)], 0.5)
        assert trace.chosen_support == inst.support

    def test_per_point_diagnostics_aligned_with_grid(self, monkeypatch):
        witnesses = {}

        def record(m, rhos, prev, tol):
            certified, start = _witness_window(m, rhos, prev, tol)
            for rho, sol in zip(rhos, certified):
                x_hat = SymMatrix(sol.x_hat.a)
                witnesses[rho] = (x_hat, sol.z_dual, sol.objective, sol.gap)
            return certified, start

        monkeypatch.setattr(spca, "_witness_window", record)
        rng = np.random.default_rng(41)
        a = rng.standard_normal((6, 6))
        m = SymMatrix(a + a.T + 4 * np.eye(6))
        grid = (0.3, 0.0, 0.05, 0.6)
        trace = tune_rho(m, grid, 0.5)
        for field in (trace.converged, trace.iterations, trace.gaps):
            assert len(field) == len(trace.grid)
        assert all(trace.converged)
        # a point without ADMM iterations took the rank-one witness: its gap
        # is certified and its dual satisfies the KKT system
        zero = [rho for rho, k in zip(trace.grid, trace.iterations) if k == 0]
        assert zero and sorted(witnesses) == zero
        for rho in zero:
            x_hat, z_dual, objective, gap = witnesses[rho]
            assert trace.gaps[trace.grid.index(rho)] == gap
            assert gap <= DEFAULT_TOL * max(1.0, abs(objective))
            kkt = kkt_report(m, rho, x_hat, z_dual)
            assert kkt.stationarity_residual <= 1e-5
        for gap in trace.gaps:
            assert -1e-10 <= gap <= 1e-6
        # the rho = 0 point reports the baseline solve
        base = solve_sdp(m, 0.0)
        assert trace.grid[0] == 0.0
        assert (trace.iterations[0], trace.gaps[0]) == (base.iterations, base.gap)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        planted=st.booleans(),
        grid=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6),
    )
    def test_certified_point_has_cold_support(self, d, seed, planted, grid):
        # a grid point the witness certified carries the support of a
        # cold solve at the same rho
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d, d))
        m = SymMatrix(a + a.T)
        if planted:
            k = max(1, d // 4)
            u = np.zeros(d)
            u[rng.choice(d, k, replace=False)] = 1.0
            m = SymMatrix(0.1 * m.a + 4.0 * np.outer(u, u) / k)
        trace = tune_rho(m, grid, 0.5)
        for rho, k, support in zip(trace.grid, trace.iterations, trace.supports):
            if k == 0:
                assert support == solve_sdp(m, rho).support

    @pytest.mark.parametrize(
        "grid, digest",
        [
            (
                (0.0,),
                "c17479afdb12c2fb6e2afd4a5332744f5ec3b71291cfc91a721666018ec0d0f2",
            ),
            (
                (0.0, 0.0, 0.05),
                "5faf70e795003cccae3915df8d818badf56605805750faece13dbfe21c0d2145",
            ),
            (
                (-0.0, 0.05),
                "856beece8037cf4bfd94bb20c387fe26875b3f59989e197bd1220e9ec4788d46",
            ),
            (
                (0.0,) + DEFAULT_RHO_GRID,
                "92bc9a5f747cad3e65eec064acf56cbd258514d7816199e5911c90d71ad8528b",
            ),
        ],
        ids=["zero", "zero-zero-point", "negative-zero-point", "zero-default-grid"],
    )
    def test_zero_points_report_baseline(self, grid, digest):
        # the rho = 0 points lead the sorted grid and report the baseline
        # solve; the digest of the trace's repr on the first mc-easy
        # repetition was recorded from a walk that tested every grid point
        # for rho = 0
        m = _experiment_matrix(20, 4, 8.0, 200, (0.0, 2.0), 3, 0, 0)
        trace = tune_rho(m, grid, 0.5)
        base = solve_sdp(m, 0.0)
        zeros = grid.count(0.0)
        assert trace.grid[:zeros] == grid[:zeros]
        assert trace.supports[:zeros] == (base.support,) * zeros
        assert trace.iterations[:zeros] == (base.iterations,) * zeros
        assert trace.gaps[:zeros] == (base.gap,) * zeros
        assert hashlib.sha256(repr(trace).encode()).hexdigest() == digest

    def test_tiny_max_iter_records_nonconvergence(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((6, 6))
        m = SymMatrix(a + a.T + 4 * np.eye(6))
        trace = tune_rho(m, (0.1, 0.2, 0.4), 0.5, max_iter=3)
        assert trace.converged == (False, False, False)
        assert trace.iterations == (3, 3, 3)
        assert len(trace.gaps) == 3 and all(g >= -1e-10 for g in trace.gaps)


_TREND_GRID = tuple(round(0.1 * k, 6) for k in range(1, 11))


class TestFallbackWarmStart:
    """An ADMM fallback starts from the declined witness, and lands on the
    support that the same solve started from the previous grid point
    lands on."""

    @staticmethod
    def _fallbacks(monkeypatch, m, grid):
        """Run tune_rho and return, for each fallback it started from a
        declined witness, that solve and the same solve started from the
        previous grid point."""
        prevs, starts, pairs = {}, {}, []

        def witness(m_a, rhos, prev, tol):
            # the point after the certified ones: the walk's next fallback
            # when the window hands out a start for it
            certified, start = _witness_window(m_a, rhos, prev, tol)
            if start is not None:
                rho = rhos[len(certified)]
                prevs[rho] = certified[-1] if certified else prev
                starts[rho] = start
            return certified, start

        def solve(m, rho, warm_start=None, **kwargs):
            sol = solve_sdp(m, rho, warm_start=warm_start, **kwargs)
            if rho > 0:
                assert warm_start is starts[rho]
                if starts[rho] is not prevs[rho]:
                    ref = solve_sdp(m, rho, warm_start=prevs[rho], **kwargs)
                    pairs.append((sol, ref))
            return sol

        monkeypatch.setattr(spca, "_witness_window", witness)
        monkeypatch.setattr(spca, "solve_sdp", solve)
        trace = tune_rho(m, grid, 0.5, tol=DEFAULT_TOL)
        assert all(trace.converged)
        return pairs

    @pytest.mark.parametrize(
        "d, s, gap, budget, bucket, seed, b, grid, reps",
        [
            # the benchmark's mc-easy repetitions: d=20, s=4, gap 8, bucket 0:2
            (20, 4, 8.0, 200, (0.0, 2.0), 3, 0, DEFAULT_RHO_GRID, 8),
            # acceptance test 07 at d=50, s=10: gap 10 and gap 1, top buckets
            (50, 10, 10.0, 1250, (8.0, 10.0), 2027, 2, _TREND_GRID, 3),
            (50, 10, 1.0, 1250, (4.0, 6.0), 2027, 2, _TREND_GRID, 3),
        ],
        ids=["mc-easy", "test07-gap10", "test07-gap1"],
    )
    def test_same_support_as_previous_point_start(
        self, monkeypatch, d, s, gap, budget, bucket, seed, b, grid, reps
    ):
        pairs = []
        for rep in range(reps):
            m = _experiment_matrix(d, s, gap, budget, bucket, seed, b, rep)
            pairs += self._fallbacks(monkeypatch, m, grid)
        assert len(pairs) >= 10
        for sol, ref in pairs:
            assert sol.converged and ref.converged
            assert sol.support == ref.support


class TestTheoreticalRho:
    def test_noiseless_rank_one(self):
        m = _rank_one(6, [0, 1, 2])
        assert theoretical_rho(m, _complete_with_loops(6), 0.0, [0, 1, 2]) == 0.0

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(41)
        d = 9
        a = rng.standard_normal((d, d))
        m_star = SymMatrix(a + a.T)
        g = random_graph(d, 50, 42)
        support = [1, 4, 6]
        comp = [i for i in range(d) if i not in support]
        d_cross = bipartite_block(g, support).max_degree()
        d_cc = degrees(induced_subgraph(g, comp)).max()
        sigma = 0.7
        expected = 2 * sigma * math.sqrt(max(d_cross, d_cc) * math.log(d)) + np.abs(
            m_star.a[np.ix_(comp, support)]
        ).max()
        got = theoretical_rho(m_star, g, sigma, support)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        m = _rank_one(4, [0, 1])
        for n in (3, 5):
            with pytest.raises(ValueError, match="dimension mismatch"):
                theoretical_rho(m, _complete_with_loops(n), 0.1, [0, 1])

    def test_proper_subset_required(self):
        m = _rank_one(4, [0, 1, 2, 3])
        with pytest.raises(ValueError):
            theoretical_rho(m, _complete_with_loops(4), 0.1, range(4))


@pytest.mark.parametrize("sigma", [-1.0, math.inf, math.nan])
@pytest.mark.parametrize(
    "call",
    [
        lambda m, g, sigma: theoretical_rho(m, g, sigma, [0, 1]),
        lambda m, g, sigma: rescaled_parameter(m, g, sigma, [0, 1]),
        lambda m, g, sigma: sufficient_conditions_report(m, g, sigma, 0.2, [0, 1]),
    ],
    ids=["theoretical_rho", "rescaled_parameter", "sufficient_conditions_report"],
)
def test_bad_sigma_rejected(call, sigma):
    with pytest.raises(ValueError, match="sigma must be a nonnegative finite"):
        call(_rank_one(4, [0, 1]), _complete_with_loops(4), sigma)


class TestRescaledParameter:
    def test_rank_one_complete_noiseless(self):
        m = _rank_one(7, [0, 3, 5])
        assert rescaled_parameter(m, _complete_with_loops(7), 0.0, [0, 3, 5]) == 0.0

    def test_monotone_in_sigma(self):
        from spcarec.harness import gen_instance

        g = random_graph(12, 100, 50)
        inst = gen_instance(12, 3, 5.0, 0.0, g, 51)
        values = [
            rescaled_parameter(inst.m_star, g, s, inst.support)
            for s in (0.0, 0.2, 0.5, 1.0)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] > values[0]

    def test_term_by_term_recomputation(self):
        from spcarec.harness import gen_instance
        from spcarec.graph import algebraic_connectivity, irregularity

        g = random_graph(50, 1250, 60)
        inst = gen_instance(50, 10, 5.0, 0.0, g, 61)
        idx = np.asarray(sorted(inst.support))
        comp = np.asarray([i for i in range(50) if i not in inst.support])
        sub = induced_subgraph(g, idx)
        phi = algebraic_connectivity(sub)
        psi = irregularity(sub)
        s = 10
        sigma = 0.3

        def snorm(block):
            # independent oracle: square root of the top Gram eigenvalue
            gram = block.T @ block
            return math.sqrt(max(np.linalg.eigvalsh(gram).max(), 0.0))

        a = inst.m_star.a
        lhs = (
            snorm(a[np.ix_(idx, idx)]) * psi
            + sigma * math.sqrt(degrees(sub).max() * math.log(s))
            + s * snorm(a[np.ix_(comp, idx)])
            + snorm(a[np.ix_(comp, comp)]) / math.sqrt(s)
            + sigma
            * s
            * math.sqrt(
                max(
                    bipartite_block(g, idx).max_degree(),
                    degrees(induced_subgraph(g, comp)).max(),
                )
                * math.log(50)
            )
        )
        vals = np.linalg.eigvalsh(inst.m_star.a)
        gap = vals[-1] - vals[-2]
        denom = phi * gap * (1.0 / math.sqrt(s)) / s
        expected = lhs / denom
        got = rescaled_parameter(inst.m_star, g, sigma, inst.support)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_disconnected_block(self):
        m = _rank_one(5, [0, 1])
        g = ObservationGraph(5, [(2, 3), (0, 0), (1, 1)])  # no edge inside {0,1}
        with pytest.raises(Disconnected):
            rescaled_parameter(m, g, 0.1, [0, 1])

    def test_relabeling_invariance(self):
        from spcarec.harness import gen_instance

        rng = np.random.default_rng(62)
        g = random_graph(10, 60, 63)
        inst = gen_instance(10, 3, 4.0, 0.0, g, 64)
        base = rescaled_parameter(inst.m_star, g, 0.4, inst.support)
        perm = rng.permutation(10)
        pm = SymMatrix(inst.m_star.a[np.ix_(perm, perm)])
        inv = np.argsort(perm)
        pg = ObservationGraph(10, [(inv[i], inv[j]) for i, j in g.edges])
        psupport = [int(inv[i]) for i in inst.support]
        permuted = rescaled_parameter(pm, pg, 0.4, psupport)
        assert permuted == pytest.approx(base, rel=1e-9)


class TestSufficientConditionsReport:
    def test_hand_evaluated_2x2(self):
        m_star = SymMatrix(np.diag([2.0, 0.5]))
        g = _complete_with_loops(2)
        rep = sufficient_conditions_report(m_star, g, 0.0, 0.5, [0])
        assert len(rep.ineq) == 5
        by_name = {r.name: r for r in rep.ineq}
        rec = by_name["cross_dual_max"]
        assert rec.lhs == pytest.approx(0.0)
        assert rec.rhs == pytest.approx(0.5)
        assert rec.holds
        assert rep.spectral_gap == pytest.approx(1.5)
        assert rep.min_abs_u1 == pytest.approx(1.0)

    def test_huge_noise_fails(self):
        from spcarec.harness import gen_instance

        g = random_graph(10, 80, 71)
        inst = gen_instance(10, 3, 5.0, 0.0, g, 72)
        rep = sufficient_conditions_report(inst.m_star, g, 1e6, 0.3, inst.support)
        by_name = {r.name: r for r in rep.ineq}
        assert not by_name["cross_dual_max"].holds
        assert not by_name["sign_agreement"].holds

    def test_rank_one_all_hold(self):
        m = _rank_one(8, [1, 2, 6], scale=6.0)
        g = _complete_with_loops(8)
        rep = sufficient_conditions_report(m, g, 0.0, 0.01, [1, 2, 6])
        assert all(r.holds for r in rep.ineq)
        assert rep.rescaled == 0.0
        assert rep.xi == 0.0

    def test_scaling_invariance_of_flags(self):
        from spcarec.harness import gen_instance

        g = random_graph(12, 100, 72)
        inst = gen_instance(12, 4, 6.0, 0.0, g, 73)
        sigma, rho, t = 0.2, 0.3, 7.5
        rep1 = sufficient_conditions_report(inst.m_star, g, sigma, rho, inst.support)
        scaled = SymMatrix(t * inst.m_star.a)
        rep2 = sufficient_conditions_report(scaled, g, t * sigma, t * rho, inst.support)
        for r1, r2 in zip(rep1.ineq, rep2.ineq):
            assert r1.holds == r2.holds

    def test_reproducible(self):
        from spcarec.harness import gen_instance

        g = random_graph(9, 50, 74)
        inst = gen_instance(9, 3, 4.0, 0.0, g, 75)
        a = sufficient_conditions_report(inst.m_star, g, 0.1, 0.2, inst.support)
        b = sufficient_conditions_report(inst.m_star, g, 0.1, 0.2, inst.support)
        assert a == b

    @pytest.mark.parametrize("seed", [76, 77, 78])
    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_rescaled_equals_rescaled_parameter(self, seed, sigma):
        from spcarec.harness import gen_instance

        g = random_graph(10, 80, seed)
        inst = gen_instance(10, 3, 5.0, 0.0, g, seed + 100)
        rep = sufficient_conditions_report(inst.m_star, g, sigma, 0.2, inst.support)
        assert rep.rescaled == rescaled_parameter(inst.m_star, g, sigma, inst.support)

    @pytest.mark.parametrize("rho", [-1.0, math.inf, math.nan])
    def test_bad_rho_rejected(self, rho):
        # a negative rho would lower the sign-agreement left side
        m = _rank_one(4, [0, 1])
        with pytest.raises(ValueError, match="rho must be a nonnegative finite"):
            sufficient_conditions_report(m, _complete_with_loops(4), 0.0, rho, [0, 1])

    def test_xi_matches_definition(self):
        from spcarec.harness import gen_instance

        g = random_graph(10, 80, 75)
        inst = gen_instance(10, 3, 5.0, 0.0, g, 76)
        rep = sufficient_conditions_report(inst.m_star, g, 0.0, 0.2, inst.support)
        idx = np.asarray(sorted(inst.support))
        comp = np.asarray([i for i in range(10) if i not in inst.support])
        masked = adjacency(g).a * inst.m_star.a
        a = inst.m_star.a
        expected = max(
            0.0,
            spectral_norm(masked[np.ix_(comp, idx)])
            / spectral_norm(a[np.ix_(comp, idx)])
            - 1.0,
            spectral_norm(masked[np.ix_(comp, comp)])
            / spectral_norm(a[np.ix_(comp, comp)])
            - 1.0,
        )
        assert rep.xi == pytest.approx(expected, rel=1e-12)

    def test_full_support(self):
        # s = d: both off-support blocks are empty, so their norms, degrees
        # and xi are 0 and only the sign-agreement side is nonzero
        from spcarec.harness import gen_instance

        g = random_graph(6, 30, 1)
        inst = gen_instance(6, 6, 5.0, 0.1, g, 2)
        assert inst.support == frozenset(range(6))
        rescaled = rescaled_parameter(inst.m_star, g, 0.1, inst.support)
        assert rescaled == pytest.approx(17.570935599723562, rel=1e-12)
        rep = sufficient_conditions_report(inst.m_star, g, 0.1, 0.5, inst.support)
        assert rep.rescaled == rescaled
        assert rep.xi == 0.0
        by_name = {r.name: r for r in rep.ineq}
        sign = by_name.pop("sign_agreement")
        assert sign.lhs == pytest.approx(21.26114146855435, rel=1e-12)
        assert len(by_name) == 4
        for rec in by_name.values():
            assert rec.lhs == 0.0
            assert rec.holds
