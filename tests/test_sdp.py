"""Penalized spectrahedron solver, KKT diagnostics, witness certificate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spcarec.graph import ObservationGraph, random_graph
from spcarec.numerics import SymMatrix, eigh, project_simplex, project_spectrahedron
from spcarec.sdp import (
    DEFAULT_TOL,
    _support_arrays,
    kkt_report,
    solve_restricted,
    solve_sdp,
    support_of,
    witness_certificate,
)


# Reference implementation: the straightforward form of the ADMM loop and
# the projections, kept here to pin the solver's iterates bit for bit.


def _reference_project_simplex(v):
    u = np.sort(v, kind="stable")[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    positive = u - (css - 1.0) / ks > 0
    k = int(ks[positive][-1])
    theta = (css[k - 1] - 1.0) / k
    return np.maximum(v - theta, 0.0)


def _reference_project_spectrahedron(b):
    vals, vecs = np.linalg.eigh(b)
    w = _reference_project_simplex(vals)
    x = (vecs * w) @ vecs.T
    return 0.5 * (x + x.T)


def _frob(a):
    return float(np.linalg.norm(a))


def _reference_admm(m, rho, tol, max_iter, state=None):
    d = m.shape[0]
    if state is None:
        y = np.eye(d) / d
        u = np.zeros((d, d))
        beta = 1.0
    else:
        y, u, beta = state
        y, u = y.copy(), u.copy()
    rn = sn = math.inf
    converged = False
    iterations = 0
    hold = 0
    for iterations in range(1, max_iter + 1):
        x = _reference_project_spectrahedron(y - u + m / beta)
        y_old = y
        b = x + u
        y = np.sign(b) * np.maximum(np.abs(b) - rho / beta, 0.0)
        u = u + x - y
        r = _frob(x - y)
        s = beta * _frob(y - y_old)
        rn = r / max(1.0, _frob(x), _frob(y))
        sn = s / max(1.0, beta * _frob(u))
        if max(rn, sn) <= tol:
            hold += 1
            if hold >= 50:
                converged = True
                break
        else:
            hold = 0
        if max(rn, sn) >= 100.0 * tol:
            if rn > 10.0 * sn and beta < 1e6:
                beta *= 2.0
                u /= 2.0
            elif sn > 10.0 * rn and beta > 1e-6:
                beta /= 2.0
                u *= 2.0
    x_hat = 0.5 * (x + x.T)
    return {
        "x_hat": x_hat,
        "objective": float((m * x_hat).sum()) - rho * float(np.abs(x_hat).sum()),
        "iterations": iterations,
        "primal_residual": rn,
        "dual_residual": sn,
        "converged": converged,
        "z_dual": np.clip(beta * u / rho, -1.0, 1.0) if rho > 0 else None,
        "state": (y, u, beta),
    }


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_weak_duality(sol):
    assert sol.gap >= -1e-10 * max(1.0, abs(sol.objective))


def _complete_with_loops(n):
    return ObservationGraph(n, [(i, j) for i in range(n) for j in range(i, n)])


def _random_sym(rng, d):
    a = rng.standard_normal((d, d))
    return SymMatrix(a + a.T)


def _simple_top(rng, d, min_gap=0.5):
    """Random symmetric matrix whose top eigenvalue is simple by at least min_gap."""
    m = _random_sym(rng, d)
    vals, vecs = np.linalg.eigh(m.a)
    gap = vals[-1] - vals[-2]
    if gap < min_gap:
        m = SymMatrix(m.a + (min_gap - gap) * np.outer(vecs[:, -1], vecs[:, -1]))
    return m


class TestSolveSdp:
    def test_diagonal_unpenalized(self):
        sol = solve_sdp(SymMatrix(np.diag([3.0, 1.0])), 0.0)
        assert sol.converged
        np.testing.assert_allclose(sol.x_hat.a, np.diag([1.0, 0.0]), atol=1e-4)

    def test_leading_eigenvector(self):
        sol = solve_sdp(SymMatrix([[2.0, 1.0], [1.0, 2.0]]), 0.0)
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(sol.x_hat.a, np.outer(v, v), atol=1e-4)

    def test_penalized_against_brute_force(self):
        # exhaust the 2x2 spectrahedron: X = w v v' + (1-w) v_perp v_perp'
        m = np.diag([3.0, 1.0])
        rho = 0.5
        thetas = np.arange(0.0, np.pi, 1e-3)
        ws = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        c, s = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
        w = ws[None, :]
        x11 = w * c**2 + (1 - w) * s**2
        x22 = w * s**2 + (1 - w) * c**2
        x12 = (2 * w - 1) * c * s
        obj = 3 * x11 + x22 - rho * (np.abs(x11) + np.abs(x22) + 2 * np.abs(x12))
        assert obj.max() == pytest.approx(2.5, abs=1e-3)
        sol = solve_sdp(SymMatrix(m), rho)
        assert sol.objective == pytest.approx(2.5, abs=1e-6)
        np.testing.assert_allclose(sol.x_hat.a, np.diag([1.0, 0.0]), atol=1e-4)

    def test_feasibility_exact(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            m = _random_sym(rng, int(rng.integers(2, 12)))
            sol = solve_sdp(m, float(rng.uniform(0, 0.8)))
            assert np.linalg.eigvalsh(sol.x_hat.a)[0] >= -1e-6
            assert abs(np.trace(sol.x_hat.a) - 1.0) <= 1e-6
            _assert_weak_duality(sol)
            if sol.converged:
                assert sol.gap <= 10 * DEFAULT_TOL * max(1.0, abs(sol.objective))

    def test_rank_one_accuracy(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = int(rng.integers(2, 15))
            m = _simple_top(rng, d)
            u1 = eigh(m).vectors[:, 0]
            sol = solve_sdp(m, 0.0)
            assert np.linalg.norm(sol.x_hat.a - np.outer(u1, u1)) <= 1e-3
            _assert_weak_duality(sol)
            if sol.converged:
                assert sol.gap <= 10 * DEFAULT_TOL * max(1.0, abs(sol.objective))

    def test_converged_solves_certified(self):
        rng = np.random.default_rng(22)
        tol = 1e-7
        for _ in range(10):
            m = _random_sym(rng, int(rng.integers(3, 12)))
            rho = float(rng.uniform(0.05, 0.6))
            sol = solve_sdp(m, rho, tol=tol)
            assert sol.converged
            _assert_weak_duality(sol)
            assert sol.gap <= tol * max(1.0, abs(sol.objective))
            kkt = kkt_report(m, rho, sol.x_hat, sol.z_dual)
            assert kkt.stationarity_residual <= 1e-5

    def test_not_converged_flag(self):
        sol = solve_sdp(SymMatrix(np.diag([3.0, 1.0])), 0.3, max_iter=3)
        assert not sol.converged
        assert sol.iterations == 3
        _assert_weak_duality(sol)

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        m = _random_sym(rng, 7)
        a = solve_sdp(m, 0.2)
        b = solve_sdp(m, 0.2)
        assert np.array_equal(a.x_hat.a, b.x_hat.a)
        assert a.iterations == b.iterations

    def test_invalid_args(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            solve_sdp(m, -0.1)
        with pytest.raises(ValueError):
            solve_sdp(m, 0.1, tol=0.0)


def _planted(rng, d):
    """Sparse spike plus small symmetric noise, the experiments' shape of input."""
    s = max(1, d // 5)
    u = np.zeros(d)
    u[rng.choice(d, s, replace=False)] = rng.choice([-1.0, 1.0], s) / np.sqrt(s)
    a = 0.1 * rng.standard_normal((d, d))
    return SymMatrix(4.0 * np.outer(u, u) + a + a.T)


class TestBitIdentity:
    """solve_sdp reproduces the reference loop exactly, cold and warm-started."""

    @pytest.mark.parametrize("rho", [0.0, 0.05, 0.3])
    @pytest.mark.parametrize("d", [1, 2, 13, 20, 50])
    def test_matches_reference(self, d, rho):
        rng = np.random.default_rng([d, round(100 * rho)])
        m = _planted(rng, d)
        max_iter = 5000
        prev = ref_state = None
        # a cold solve, then one warm-started from it at the next penalty
        for step_rho in (rho, rho + 0.05):
            sol = solve_sdp(m, step_rho, max_iter=max_iter, warm_start=prev)
            ref = _reference_admm(m.a, step_rho, DEFAULT_TOL, max_iter, ref_state)
            assert _same_bytes(sol.x_hat.a, ref["x_hat"])
            assert sol.iterations == ref["iterations"]
            assert sol.primal_residual == ref["primal_residual"]
            assert sol.dual_residual == ref["dual_residual"]
            assert sol.objective == ref["objective"]
            assert sol.converged == ref["converged"]
            assert sol.support == support_of(SymMatrix(ref["x_hat"]))
            if ref["z_dual"] is None:
                assert sol.z_dual is None
            else:
                assert _same_bytes(sol.z_dual, ref["z_dual"])
            assert len(sol._state) == 3
            for got, want in zip(sol._state[:2], ref["state"][:2]):
                assert _same_bytes(got, want)
            assert sol._state[2] == ref["state"][2]
            _assert_weak_duality(sol)
            prev, ref_state = sol, ref["state"]


_side = st.integers(1, 10)
_entries = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


class TestProjectionProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        a=_side.flatmap(lambda d: arrays(np.float64, (d, d), elements=_entries)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_spectrahedron_projection(self, a, seed):
        b = SymMatrix(a)
        d = b.dim
        x = project_spectrahedron(b).a
        assert _same_bytes(x, _reference_project_spectrahedron(b.a))
        assert np.linalg.eigvalsh(x)[0] >= -1e-12
        assert abs(np.trace(x) - 1.0) <= 1e-12
        # no spectrahedron point drawn here is nearer to b
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        slack = 1e-9 * (1.0 + np.linalg.norm(b.a))
        dist = np.linalg.norm(b.a - x)
        for p in (rng.dirichlet(np.ones(d)), np.eye(d)[rng.integers(d)]):
            other = (q * p) @ q.T
            assert dist <= np.linalg.norm(b.a - other) + slack

    @settings(max_examples=300, deadline=None)
    @given(
        v=arrays(
            np.float64,
            st.integers(1, 30),
            elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        )
    )
    def test_simplex_projection(self, v):
        w = project_simplex(v)
        assert _same_bytes(w, _reference_project_simplex(v))
        assert np.all(w >= 0.0)
        scale = max(1.0, float(np.abs(v).max()))
        assert abs(w.sum() - 1.0) <= 4 * v.size**2 * np.finfo(float).eps * scale


class TestSolveRestricted:
    def test_full_support_matches_unrestricted(self):
        rng = np.random.default_rng(24)
        m = _random_sym(rng, 6)
        full = solve_sdp(m, 0.3)
        rest = solve_restricted(m, 0.3, range(6))
        assert abs(full.objective - rest.objective) <= 1e-6
        np.testing.assert_allclose(full.x_hat.a, rest.x_hat.a, atol=1e-5)

    def test_singleton(self):
        rng = np.random.default_rng(25)
        m = _random_sym(rng, 5)
        sol = solve_restricted(m, 0.4, [0])
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(sol.x_hat.a, expected, atol=1e-8)
        assert sol.objective == pytest.approx(m.a[0, 0] - 0.4, abs=1e-8)
        # the restricted solve reports its 1 x 1 sub-solve's gap
        assert sol.converged
        assert -1e-10 <= sol.gap <= 1e-6

    def test_excluded_coordinate_ignored(self):
        sol = solve_restricted(SymMatrix(np.diag([3.0, 2.0, 10.0])), 0.0, [0, 1])
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(sol.x_hat.a, expected, atol=1e-4)

    def test_objective_never_beats_unrestricted(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            d = int(rng.integers(3, 9))
            m = _random_sym(rng, d)
            rho = float(rng.uniform(0, 0.6))
            k = int(rng.integers(1, d))
            full = solve_sdp(m, rho)
            rest = solve_restricted(m, rho, range(k))
            assert rest.objective <= full.objective + 1e-6

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            solve_restricted(SymMatrix(np.eye(3)), 0.1, [])

    def test_out_of_range_support_rejected(self):
        for support in ([0, 3], [-1, 1]):
            with pytest.raises(ValueError, match="out of range"):
                solve_restricted(SymMatrix(np.eye(3)), 0.1, support)

    def test_diagnostics_are_the_sub_solve(self):
        rng = np.random.default_rng(27)
        m = _random_sym(rng, 7)
        idx = [1, 3, 4]
        rest = solve_restricted(m, 0.2, [4, 1, 3, 1])
        sub = solve_sdp(SymMatrix(m.a[np.ix_(idx, idx)]), 0.2)
        for name in ("objective", "iterations", "primal_residual",
                     "dual_residual", "gap", "converged"):
            assert getattr(rest, name) == getattr(sub, name)
        assert np.array_equal(rest.x_hat.a[np.ix_(idx, idx)], sub.x_hat.a)
        assert rest.x_hat.dim == 7
        assert rest.support == {idx[i] for i in sub.support}
        assert rest.z_dual is None and rest._state is None


class TestSupportOf:
    def test_rank_one(self):
        x = np.zeros((3, 3))
        x[0, 0] = 1.0
        assert support_of(SymMatrix(x)) == {0}

    def test_uniform(self):
        assert support_of(SymMatrix(np.eye(4) / 4)) == {0, 1, 2, 3}

    def test_threshold_semantics(self):
        x = np.diag([0.999, 1e-9, 1e-12])
        x = x / np.trace(x)
        assert support_of(SymMatrix(x), 1e-4) == {0}

    def test_zero_diagonal(self):
        assert support_of(SymMatrix(np.zeros((3, 3)))) == frozenset()

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            support_of(SymMatrix(np.eye(2)), 0.0)


class TestSupportArrays:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 30).flatmap(
        lambda d: st.tuples(st.just(d), st.lists(st.integers(0, d - 1), min_size=1))
    ))
    def test_matches_set_complement(self, case):
        d, support = case
        idx, comp = _support_arrays(d, support)
        expected = np.asarray(
            [i for i in range(d) if i not in set(idx.tolist())], dtype=int
        )
        assert comp.dtype == expected.dtype
        assert comp.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(idx, sorted(set(support)))


class TestKktReport:
    def test_converged_diagonal(self):
        m = SymMatrix(np.diag([3.0, 1.0]))
        sol = solve_sdp(m, 0.5)
        rep = kkt_report(m, 0.5, sol.x_hat, sol.z_dual)
        assert rep.stationarity_residual <= 1e-6
        assert rep.trace_violation <= 1e-6
        assert rep.min_eigenvalue >= -1e-6
        assert rep.mu_hat == pytest.approx(2.5, abs=1e-6)

    def test_zero_data(self):
        d = 4
        rep = kkt_report(SymMatrix(np.zeros((d, d))), 0.0, SymMatrix(np.eye(d) / d))
        assert rep.stationarity_residual == 0.0
        assert rep.trace_violation == 0.0

    def test_infeasible_detected(self):
        rng = np.random.default_rng(27)
        x = rng.standard_normal((4, 4))
        rep = kkt_report(SymMatrix(np.eye(4)), 0.1, SymMatrix(x + x.T))
        assert rep.trace_violation > 1e-3 or rep.min_eigenvalue < -1e-3

    def test_heuristic_subgradient_matches_solver_dual(self):
        rng = np.random.default_rng(28)
        m = _simple_top(rng, 6)
        sol = solve_sdp(m, 0.3)
        with_dual = kkt_report(m, 0.3, sol.x_hat, sol.z_dual)
        heuristic = kkt_report(m, 0.3, sol.x_hat)
        assert with_dual.stationarity_residual <= 1e-6
        assert heuristic.stationarity_residual <= 1e-4


class TestWitnessCertificate:
    def test_hand_evaluated_2x2(self):
        m_star = SymMatrix(np.diag([2.0, 0.5]))
        g = _complete_with_loops(2)
        rep = witness_certificate(m_star, g, m_star, 0.5, [0])
        assert rep.cond_sign
        assert rep.cond_offblock and rep.offblock_max == pytest.approx(0.0)
        assert rep.cond_eig
        assert rep.lambda1_restricted == pytest.approx(1.5)
        assert rep.lambda1_full == pytest.approx(1.5)
        assert rep.cond_gap
        assert rep.certified

    def test_large_rho_breaks_eigenvalue_condition(self):
        m_star = SymMatrix(np.diag([2.0, 0.5]))
        g = _complete_with_loops(2)
        rep = witness_certificate(m_star, g, m_star, 1.6, [0])
        assert rep.lambda1_restricted == pytest.approx(0.4)
        assert rep.lambda1_full == pytest.approx(0.5)
        assert not rep.cond_eig
        assert not rep.certified

    def test_rank_one_certified_and_solver_agrees(self):
        rng = np.random.default_rng(29)
        d, s = 8, 3
        idx = np.sort(rng.choice(d, s, replace=False))
        u = np.zeros(d)
        u[idx] = rng.choice([-1.0, 1.0], s) / np.sqrt(s)
        m_star = SymMatrix(5.0 * np.outer(u, u))
        g = _complete_with_loops(d)
        rho = 0.2
        rep = witness_certificate(m_star, g, m_star, rho, idx)
        assert rep.certified
        sol = solve_sdp(m_star, rho)
        assert sol.support == frozenset(int(i) for i in idx)

    def test_zero_rho_rejected(self):
        m_star = SymMatrix(np.diag([2.0, 0.5]))
        with pytest.raises(ValueError):
            witness_certificate(m_star, _complete_with_loops(2), m_star, 0.0, [0])

    def test_wrong_support_rejected(self):
        m_star = SymMatrix(np.diag([2.0, 0.5]))
        g = _complete_with_loops(2)
        with pytest.raises(ValueError):
            witness_certificate(m_star, g, m_star, 0.5, [1])

    def test_full_support_trivial_blocks(self):
        rng = np.random.default_rng(30)
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        m_star = SymMatrix(3.0 * np.outer(u, u))
        g = _complete_with_loops(4)
        rep = witness_certificate(m_star, g, m_star, 0.1, range(4))
        assert rep.offblock_max == 0.0
        assert rep.tailblock_max == 0.0


class TestCertificateSoundness:
    def test_certified_implies_recovery(self):
        # a smaller in-module version of the acceptance sweep
        rng = np.random.default_rng(31)
        certified = 0
        trials = 0
        while certified < 25 and trials < 300:
            trials += 1
            d = int(rng.integers(5, 11))
            s = int(rng.integers(1, 4))
            idx = np.sort(rng.choice(d, s, replace=False))
            u = np.zeros(d)
            u[idx] = rng.choice([-1.0, 1.0], s) / np.sqrt(s)
            gap = float(rng.uniform(2.0, 6.0))
            rest = 0.3 * rng.standard_normal(d - 1)
            basis = np.column_stack([u, rng.standard_normal((d, d - 1))])
            q, _ = np.linalg.qr(basis)
            q[:, 0] = u
            lams = np.concatenate([[np.max(rest) + gap], np.sort(rest)[::-1]])
            m_star = SymMatrix((q * lams) @ q.T)
            g = random_graph(d, int(0.9 * d * d), int(rng.integers(1e9)))
            m = SymMatrix(adjacency_mask(g) * m_star.a)
            rho = float(rng.uniform(0.15, 0.5))
            try:
                rep = witness_certificate(m_star, g, m, rho, idx)
            except ValueError:
                continue
            if not rep.certified:
                continue
            certified += 1
            sol = solve_sdp(m, rho)
            assert sol.converged
            assert sol.support == frozenset(int(i) for i in idx)
        assert certified == 25


def adjacency_mask(g):
    from spcarec.graph import adjacency

    return adjacency(g).a
