"""Penalized spectrahedron solver, KKT diagnostics, witness certificate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spcarec import sdp, spca
from spcarec.graph import random_graph
from spcarec.numerics import (
    SymMatrix,
    _eigh_descending,
    eigh,
    project_simplex,
    project_spectrahedron,
)
from spcarec.spca import DEFAULT_RHO_GRID, tune_rho
from spcarec.sdp import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    SdpSolution,
    _certificate,
    _checked_decomposition,
    _rank_one,
    _support_arrays,
    _witness_window,
    kkt_report,
    solve_restricted,
    solve_sdp,
    support_of,
    witness_certificate,
)

from helpers import _complete_with_loops, _experiment_matrix, _random_sym, _simple_top


# Reference implementations: the straightforward forms of the projections,
# of the plain ADMM loop, kept as an oracle for the solver's outcomes, of
# the Anderson-accelerated loop, kept to pin the solver's iterates bit for
# bit, and of the rank-one witnesses, kept to pin their outputs bit for bit.


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


def _reference_certificate(m, rho, x, beta, u):
    x_hat = 0.5 * (x + x.T)
    objective = float((m * x_hat).sum()) - rho * float(np.abs(x_hat).sum())
    z = np.clip(beta * u / rho, -1.0, 1.0) if rho > 0 else None
    dual_m = m if z is None else m - rho * z
    return objective, z, float(np.linalg.eigvalsh(dual_m)[-1]) - objective


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
    last_rebalance = 0
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
        # stop on small residuals plus a certified gap within tolerance
        if max(rn, sn) <= tol:
            objective, z, gap = _reference_certificate(m, rho, x, beta, u)
            if gap <= tol * max(1.0, abs(objective)):
                converged = True
                break
        # rebalance every iteration far from convergence, then at most once
        # per 50 iterations
        if max(rn, sn) >= 100.0 * tol or iterations - last_rebalance >= 50:
            if rn > 10.0 * sn and beta < 1e6:
                beta *= 2.0
                u /= 2.0
                last_rebalance = iterations
            elif sn > 10.0 * rn and beta > 1e-6:
                beta /= 2.0
                u *= 2.0
                last_rebalance = iterations
    if not converged:
        objective, z, gap = _reference_certificate(m, rho, x, beta, u)
    return {
        "x_hat": 0.5 * (x + x.T),
        "objective": objective,
        "iterations": iterations,
        "primal_residual": rn,
        "dual_residual": sn,
        "gap": gap,
        "converged": converged,
        "z_dual": z,
        "state": (y, u, beta),
    }


def _reference_aa_admm(m, rho, tol, max_iter, state=None, counts=None):
    """The plain loop's stop and beta rules around type-II Anderson
    acceleration (memory 5) of s = x + u, which the projection, the soft
    threshold and u = s - y map to its plain image f = x + u.

    History pairs (f - f', g - g'), g = f - s, between consecutive accepted
    points fill five slots in turn; the least-squares weights solve the
    Gram system with 1e-10 |g|^2 added to its diagonal.  An extrapolated
    point is kept only while |g| there is at most twice the last accepted
    |g|; otherwise the loop continues from the last accepted point's f.  A
    beta rebalance empties the history.  `counts` tallies dropped extrapolations ("rejected") and
    rebalances that emptied a nonempty history ("resets").
    """
    if counts is None:
        counts = {"rejected": 0, "resets": 0}
    d = m.shape[0]
    if state is None:
        y = np.eye(d) / d
        u = np.zeros((d, d))
        beta = 1.0
    else:
        y, u, beta = state
    s = y + u
    slots = [None] * 5
    nxt = 0
    accepted = None  # (f, g, |g|) at the last accepted point
    extrapolated = False
    rn = sn = math.inf
    converged = False
    iterations = 0
    last_rebalance = 0
    for iterations in range(1, max_iter + 1):
        x = _reference_project_spectrahedron(y - u + m / beta)
        f = x + u
        g = f - s
        if extrapolated and _frob(g) > 2.0 * accepted[2]:
            counts["rejected"] += 1
            s = accepted[0]
            extrapolated = False
        else:
            if accepted is not None:
                slots[nxt] = (f - accepted[0], g - accepted[1])
                nxt = (nxt + 1) % 5
            accepted = (f, g, _frob(g))
            s = f
            pairs = [p for p in slots if p is not None]
            if pairs:
                dfs = np.array([p[0].ravel() for p in pairs])
                dgs = np.array([p[1].ravel() for p in pairs])
                gram = np.array([[np.einsum("j,j->", a, b) for b in dgs] for a in dgs])
                gram[np.diag_indices(len(pairs))] += 1e-10 * accepted[2] * accepted[2]
                try:
                    gamma = np.linalg.solve(gram, dgs @ g.ravel())
                except np.linalg.LinAlgError:
                    pass
                else:
                    s = f - (gamma @ dfs).reshape(d, d)
                    extrapolated = True
        y_old = y
        y = np.sign(s) * np.maximum(np.abs(s) - rho / beta, 0.0)
        u = s - y
        r = _frob(x - y)
        sd = beta * _frob(y - y_old)
        rn = r / max(1.0, _frob(x), _frob(y))
        sn = sd / max(1.0, beta * _frob(u))
        # stop on small residuals plus a certified gap within tolerance
        if max(rn, sn) <= tol:
            objective, z, gap = _reference_certificate(m, rho, x, beta, u)
            if gap <= tol * max(1.0, abs(objective)):
                converged = True
                break
        # rebalance every iteration far from convergence, then at most once
        # per 50 iterations; a rebalance restarts the history at y + u
        if max(rn, sn) >= 100.0 * tol or iterations - last_rebalance >= 50:
            if rn > 10.0 * sn and beta < 1e6:
                beta *= 2.0
                u = u / 2.0
            elif sn > 10.0 * rn and beta > 1e-6:
                beta /= 2.0
                u = u * 2.0
            else:
                continue
            last_rebalance = iterations
            counts["resets"] += any(p is not None for p in slots)
            s = y + u
            slots = [None] * 5
            nxt = 0
            accepted = None
            extrapolated = False
    if not converged:
        objective, z, gap = _reference_certificate(m, rho, x, beta, u)
    return {
        "x_hat": 0.5 * (x + x.T),
        "objective": objective,
        "iterations": iterations,
        "primal_residual": rn,
        "dual_residual": sn,
        "gap": gap,
        "converged": converged,
        "z_dual": z,
        "state": (y, u, beta),
    }


def _reference_restricted_witness(m, rho, idx, comp, z, tail):
    """The block-dual builder as first written: np.ix_ blocks, the
    eigenvalues descending, and Z assembled from four block writes.  w is
    taken on v as the eigensolver returns it, and negated with v when v
    points against z."""
    b = m[np.ix_(idx, idx)] - rho * np.outer(z, z)
    bvals, bvecs = _eigh_descending(b)
    v = bvecs[:, 0]
    w = (m[np.ix_(comp, idx)] @ v) / (rho * float(np.abs(v).sum()))
    if float(z @ v) < 0:
        v, w = -v, -w
    sign_ok = bool(np.all(np.sign(v) == z))
    zw = np.outer(w, z)
    z_full = np.empty_like(m)
    z_full[np.ix_(idx, idx)] = np.outer(z, z)
    z_full[np.ix_(comp, idx)] = zw
    z_full[np.ix_(idx, comp)] = zw.T
    z_full[np.ix_(comp, comp)] = tail
    return bvals, v, sign_ok, w, z_full


def _reference_path_witness(m, rho, prev, tol):
    """The path witness as first written, which kept only a certified
    witness.  Returns why it stopped ("zero", "sign", "offblock", "gap" or
    "accepted") and, once X and Z are built, (X, Z, objective, gap), with
    objective nan and gap inf where the gap was not evaluated."""
    idx, comp = _support_arrays(m.shape[0], prev.support)
    _, vecs = np.linalg.eigh(prev.x_hat.a[np.ix_(idx, idx)])
    z = np.sign(vecs[:, -1])
    if not np.all(z):
        return "zero", None
    tail = np.clip(m[np.ix_(comp, comp)] / rho, -1.0, 1.0)
    _, v, sign_ok, w, z_full = _reference_restricted_witness(m, rho, idx, comp, z, tail)
    x = np.zeros_like(m)
    x[np.ix_(idx, idx)] = np.outer(v, v)
    if not sign_ok:
        return "sign", (x, z_full, math.nan, math.inf)
    if float(np.abs(w).max(initial=0.0)) > 1.0:
        return "offblock", (x, z_full, math.nan, math.inf)
    top = np.linalg.eigvalsh(m - rho * z_full)[-1]
    objective, gap, certified = _certificate(m, rho, x, top, tol)
    return ("accepted" if certified else "gap"), (x, z_full, objective, gap)


def _window_sols(prev, window):
    """A window's (certified, start) as the points it built in grid order:
    the certified ones, then start when it is the declined candidate
    rather than a point the walk already had (the last certified one, or
    prev)."""
    certified, start = window
    last = certified[-1] if certified else prev
    return certified if start is None or start is last else certified + [start]


def _witness_at(m, rho, prev, tol):
    """The path witness at one grid point, as a one-point window: the
    certified solution, else the declined candidate, else None when no
    witness was built."""
    sols = _window_sols(prev, _witness_window(m, (rho,), prev, tol))
    return sols[0] if sols else None


def _reference_witness_numbers(m_star, g, m, rho, support):
    """The numbers witness_certificate reads off the reference builder; its
    conditions are comparisons of these."""
    dec, idx, comp = _checked_decomposition(m_star, support)
    z = np.sign(dec.vectors[idx, 0])
    cc = np.ix_(comp, comp)
    tail = (m.a[cc] - g.mask[cc] * m_star.a[cc]) / rho
    bvals, _, cond_sign, w, z_full = _reference_restricted_witness(
        m.a, rho, idx, comp, z, tail
    )
    lam1_full = float(bvals[0])
    if comp.size:
        lam1_full = float(np.linalg.eigvalsh(m.a - rho * z_full)[-1])
    return {
        "cond_sign": cond_sign,
        "offblock_max": float(np.abs(w).max(initial=0.0)),
        "lambda1_restricted": float(bvals[0]),
        "lambda1_full": lam1_full,
        "tailblock_max": float(np.abs(tail).max(initial=0.0)),
        "eigengap": float(bvals[0] - bvals[1]) if idx.size >= 2 else math.inf,
    }


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_weak_duality(sol):
    assert sol.gap >= -1e-10 * max(1.0, abs(sol.objective))


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
        # three iterations are far from optimal on this input, so the
        # certificate is not met and the flag must say so
        m = _random_sym(np.random.default_rng(32), 6)
        sol = solve_sdp(m, 0.3, max_iter=3)
        assert not sol.converged
        assert sol.iterations == 3
        _assert_weak_duality(sol)
        assert sol.gap > DEFAULT_TOL * max(1.0, abs(sol.objective))

    @pytest.mark.parametrize(
        "seed, d, rho0, rho1", [([2, 5], 2, 0.05, 0.10), ([20, 0], 20, 0.0, 0.05)]
    )
    def test_warm_started_solve_converges(self, seed, d, rho0, rho1):
        # warm-started solves where residual balancing once froze with
        # rn >> sn, so the run crept to max_iter
        m = _planted(np.random.default_rng(seed), d)
        prev = solve_sdp(m, rho0)
        sol = solve_sdp(m, rho1, warm_start=prev)
        assert sol.converged
        _assert_weak_duality(sol)
        assert sol.gap <= DEFAULT_TOL * max(1.0, abs(sol.objective))
        kkt = kkt_report(m, rho1, sol.x_hat, sol.z_dual)
        assert kkt.stationarity_residual <= 1e-5

    def test_warm_start_dimension_checked(self):
        prev = solve_sdp(SymMatrix(np.eye(1)), 0.1)
        with pytest.raises(ValueError, match="warm_start"):
            solve_sdp(SymMatrix(np.eye(5)), 0.1, warm_start=prev)

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
        for tol in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="tol must be a positive finite"):
                solve_sdp(m, 0.1, tol=tol)
        # an infinite tol would certify any one-iteration solve
        with pytest.raises(ValueError, match="tol must be a positive finite"):
            solve_restricted(m, 0.1, [0], tol=np.inf)
        with pytest.raises(ValueError, match="tol must be a positive finite"):
            tune_rho(m, (0.1,), 0.5, tol=np.inf)


def _planted(rng, d):
    """Sparse spike plus small symmetric noise, the experiments' shape of input."""
    s = max(1, d // 5)
    u = np.zeros(d)
    u[rng.choice(d, s, replace=False)] = rng.choice([-1.0, 1.0], s) / np.sqrt(s)
    a = 0.1 * rng.standard_normal((d, d))
    return SymMatrix(4.0 * np.outer(u, u) + a + a.T)


_BIT_DS = (1, 2, 13, 20, 50)
_BIT_RHOS = (0.0, 0.05, 0.3)
# caps that stop most of these solves short of convergence, so the
# certificate of a solve that ends at max_iter is pinned too
_BIT_CAPS = (3, 60)


def _bit_identity_input(d, rho):
    return _planted(np.random.default_rng([d, round(100 * rho)]), d)


class TestBitIdentity:
    """solve_sdp reproduces the reference Anderson loop exactly, cold and
    warm-started."""

    @pytest.mark.parametrize("rho", _BIT_RHOS)
    @pytest.mark.parametrize("d", _BIT_DS)
    def test_matches_reference(self, d, rho):
        self._check(d, rho, 5000)

    @pytest.mark.parametrize("max_iter", _BIT_CAPS)
    @pytest.mark.parametrize("rho", _BIT_RHOS)
    @pytest.mark.parametrize("d", _BIT_DS)
    def test_capped_matches_reference(self, d, rho, max_iter):
        self._check(d, rho, max_iter)

    def test_battery_reaches_safeguard_and_reset(self):
        # the cases above drop extrapolated points and empty a nonempty
        # history on a rebalance, so both paths are pinned, not skipped
        counts = {"rejected": 0, "resets": 0}
        for d in _BIT_DS:
            for rho in _BIT_RHOS:
                m = _bit_identity_input(d, rho)
                for max_iter in (5000, *_BIT_CAPS):
                    state = None
                    for step_rho in (rho, rho + 0.05):
                        ref = _reference_aa_admm(
                            m.a, step_rho, DEFAULT_TOL, max_iter, state, counts
                        )
                        state = ref["state"]
        assert counts["rejected"] > 0
        assert counts["resets"] > 0

    @staticmethod
    def _check(d, rho, max_iter):
        m = _bit_identity_input(d, rho)
        prev = ref_state = None
        # a cold solve, then one warm-started from it at the next penalty
        for step_rho in (rho, rho + 0.05):
            sol = solve_sdp(m, step_rho, max_iter=max_iter, warm_start=prev)
            ref = _reference_aa_admm(m.a, step_rho, DEFAULT_TOL, max_iter, ref_state)
            assert _same_bytes(sol.x_hat.a, ref["x_hat"])
            assert sol.iterations == ref["iterations"]
            assert sol.primal_residual == ref["primal_residual"]
            assert sol.dual_residual == ref["dual_residual"]
            assert sol.objective == ref["objective"]
            assert sol.gap == ref["gap"]
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


def test_anderson_helper_reaches_safeguard_and_reset(monkeypatch):
    # the bit-identity battery drives the helper itself through both
    # paths: a dropped extrapolation and a rebalance that empties a
    # nonempty history
    made = []

    class Recorded(sdp._Anderson):
        def __init__(self, n):
            super().__init__(n)
            made.append(self)

    monkeypatch.setattr(sdp, "_Anderson", Recorded)
    for d in _BIT_DS:
        for rho in _BIT_RHOS:
            m = _bit_identity_input(d, rho)
            prev = solve_sdp(m, rho)
            solve_sdp(m, rho + 0.05, warm_start=prev)
    assert sum(aa.rejected for aa in made) > 0
    assert sum(aa.resets for aa in made) > 0


_TREND_GRID = tuple(round(0.1 * k, 6) for k in range(1, 11))


class TestPlainLoopOracle:
    """The accelerated solver reaches the plain ADMM loop's outcomes."""

    @pytest.mark.parametrize("rho", _BIT_RHOS)
    @pytest.mark.parametrize("d", _BIT_DS)
    def test_same_outcome_as_plain_loop(self, d, rho):
        m = _bit_identity_input(d, rho)
        prev = plain_state = None
        # a cold solve, then one warm-started from it at the next penalty
        for step_rho in (rho, rho + 0.05):
            sol = solve_sdp(m, step_rho, warm_start=prev)
            plain = _reference_admm(
                m.a, step_rho, DEFAULT_TOL, DEFAULT_MAX_ITER, plain_state
            )
            assert sol.converged and plain["converged"]
            assert sol.support == support_of(SymMatrix(plain["x_hat"]))
            scale = max(1.0, abs(plain["objective"]))
            assert abs(sol.objective - plain["objective"]) <= 2 * DEFAULT_TOL * scale
            prev, plain_state = sol, plain["state"]

    # draws k of a sweep (d, rho) ~ default_rng(77) on which the plain loop
    # stops its cold solve at max_iter with rn of 1.0-1.6e-7, just above tol
    @pytest.mark.parametrize("k", [61, 62, 72])
    def test_converges_where_the_plain_loop_stalls(self, k):
        rng = np.random.default_rng(77)
        draws = [(int(rng.integers(2, 41)), float(rng.uniform(0, 0.8)))
                 for _ in range(k + 1)]
        d, rho = draws[k]
        make = _planted if k % 2 == 0 else _random_sym
        m = make(np.random.default_rng([77, k]), d)
        prev = None
        for step_rho in (rho, rho + 0.05):
            sol = solve_sdp(m, step_rho, warm_start=prev)
            assert sol.converged
            _assert_weak_duality(sol)
            assert sol.gap <= DEFAULT_TOL * max(1.0, abs(sol.objective))
            kkt = kkt_report(m, step_rho, sol.x_hat, sol.z_dual)
            assert kkt.stationarity_residual <= 1e-5
            prev = sol

    # repetitions of acceptance test 07 (seed 2027, d=50, s=10) with a
    # warm-started grid point where s drifts by a nearly constant step, so
    # the g differences are rounding noise; the plain loop ends each point
    # in under 500 iterations, and an Anderson step whose ridge does not
    # scale with |g| ran them to max_iter
    @pytest.mark.parametrize(
        "gap, b, lo, hi, rep",
        [(10.0, 2, 8.0, 10.0, 34), (1.0, 2, 4.0, 6.0, 47)],
        ids=["gap10-rep34", "gap1-rep47"],
    )
    def test_tuning_path_converges(self, gap, b, lo, hi, rep):
        m = _experiment_matrix(50, 10, gap, 1250, (lo, hi), 2027, b, rep)
        trace = tune_rho(m, _TREND_GRID, 0.5, tol=DEFAULT_TOL)
        assert all(trace.converged)
        assert max(trace.iterations) <= 2000


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


_rhos = st.one_of(st.just(0.0), st.floats(0.01, 1.0))


class TestCertifiedConvergence:
    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        rho0=_rhos,
        rho1=_rhos,
        tol=st.sampled_from([1e-2, 1e-4, DEFAULT_TOL]),
    )
    def test_converged_implies_certified_gap(self, d, seed, rho0, rho1, tol):
        m = _random_sym(np.random.default_rng(seed), d)
        prev = None
        # a cold solve, then one warm-started from it
        for rho in (rho0, rho1):
            sol = solve_sdp(m, rho, tol=tol, warm_start=prev)
            prev = sol
            _assert_weak_duality(sol)
            if not sol.converged:
                continue
            x = sol.x_hat.a
            objective = float((m.a * x).sum()) - rho * float(np.abs(x).sum())
            dual_m = m.a if rho == 0 else m.a - rho * sol.z_dual
            gap = float(np.linalg.eigvalsh(dual_m)[-1]) - objective
            assert gap == sol.gap
            assert sol.gap <= tol * max(1.0, abs(sol.objective))


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
        assert support_of(SymMatrix(x)) == {0}

    def test_zero_diagonal(self):
        assert support_of(SymMatrix(np.zeros((3, 3)))) == frozenset()


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

    @pytest.mark.parametrize(
        "take",
        [lambda z: z[0], lambda z: z[0, 0], lambda z: np.full_like(z, np.nan)],
        ids=["row", "scalar", "nan"],
    )
    def test_z_hat_shape_checked(self, take):
        m = _random_sym(np.random.default_rng(33), 4)
        sol = solve_sdp(m, 0.3)
        with pytest.raises(ValueError, match="z_hat"):
            kkt_report(m, 0.3, sol.x_hat, take(sol.z_dual))

    @pytest.mark.parametrize("rho", [-0.5, math.inf, math.nan])
    def test_bad_rho_rejected(self, rho):
        m = SymMatrix(np.diag([3.0, 1.0]))
        with pytest.raises(ValueError, match="rho must be a nonnegative finite"):
            kkt_report(m, rho, SymMatrix(np.diag([1.0, 0.0])))

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

    def test_infinite_rho_rejected(self):
        m_star = SymMatrix(np.diag([2.0, 0.5]))
        with pytest.raises(ValueError, match="rho must be a nonnegative finite"):
            witness_certificate(m_star, _complete_with_loops(2), m_star, math.inf, [0])

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


class TestPathWitness:
    """The rank-one witness that tune_rho tries before ADMM at each rho > 0."""

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        planted=st.booleans(),
        rho0=st.floats(0.0, 1.0),
        step=st.floats(0.005, 0.1),
        tol=st.sampled_from([1e-4, 1e-6, DEFAULT_TOL]),
    )
    def test_accepted_witness_is_certified(self, d, seed, planted, rho0, step, tol):
        rng = np.random.default_rng(seed)
        m = _planted(rng, d) if planted else _random_sym(rng, d)
        rho = rho0 + step
        sol = _witness_at(m.a, rho, solve_sdp(m, rho0), tol)
        if sol is None or not sol.converged:
            return
        x, z = sol.x_hat.a, sol.z_dual
        assert np.linalg.eigvalsh(x)[0] >= -1e-12
        assert abs(np.trace(x) - 1.0) <= 1e-12
        assert np.array_equal(z, z.T) and np.abs(z).max() <= 1.0
        # Z is a subgradient of the l1 norm at X
        assert np.array_equal(z[x != 0], np.sign(x[x != 0]))
        objective = float((m.a * x).sum()) - rho * float(np.abs(x).sum())
        gap = float(np.linalg.eigvalsh(m.a - rho * z)[-1]) - objective
        assert gap <= tol * max(1.0, abs(objective))
        assert kkt_report(m, rho, sol.x_hat, z).stationarity_residual <= 1e-10
        assert (sol.iterations, sol.converged) == (0, True)
        assert sol.support == solve_sdp(m, rho).support

    @pytest.mark.parametrize("d", [2, 13, 20, 50])
    def test_state_is_an_admm_fixed_point(self, d):
        m = _planted(np.random.default_rng([d, 9]), d)
        sol = _witness_at(m.a, 0.25, solve_sdp(m, 0.2), DEFAULT_TOL)
        assert sol.converged
        nxt = solve_sdp(m, 0.25, warm_start=sol, max_iter=1)
        assert nxt.converged
        assert np.abs(nxt.x_hat.a - sol.x_hat.a).max() <= 1e-12

    def test_hand_evaluated_diagonal(self):
        # J = {0}: b = 2 - rho, w = 0, and the tail dual entry
        # clip(1.8 / rho, -1, 1) = 1 leaves M - rho Z = diag(1.5, 1.3)
        m = SymMatrix(np.diag([2.0, 1.8]))
        prev = solve_sdp(m, 0.0)
        assert prev.support == frozenset({0})
        sol = _witness_at(m.a, 0.5, prev, DEFAULT_TOL)
        assert sol.converged
        assert sol.objective == 1.5 and abs(sol.gap) <= 1e-15
        assert np.array_equal(sol.x_hat.a, np.diag([1.0, 0.0]))
        assert np.array_equal(sol.z_dual, np.eye(2))
        assert sol.support == frozenset({0})

    def test_gap_above_tol_declines(self):
        # sign and cross block pass on J = {0}, but coordinate 1 beats it by
        # 1e-5, which only the full-size gap exposes
        m = SymMatrix(np.diag([1.0, 1.0 + 1e-5]))
        prev = solve_sdp(SymMatrix(np.diag([1.0, 0.0])), 0.0)
        assert prev.support == frozenset({0})
        declined = _witness_at(m.a, 0.5, prev, DEFAULT_TOL)
        assert not declined.converged and declined.gap == pytest.approx(1e-5)
        sol = _witness_at(m.a, 0.5, prev, 1e-4)
        assert sol.converged and sol.gap == declined.gap

    def test_sign_flip_declines(self):
        # at rho = 0 the weak third coordinate is in the support with the
        # block's sign; once rho > eps its entries of M_JJ - rho z z^T are
        # negative and the top eigenvector flips that sign
        eps = 0.05
        m = SymMatrix([[1.0, 1.0, eps], [1.0, 1.0, eps], [eps, eps, 0.0]])
        base = solve_sdp(m, 0.0)
        assert base.support == frozenset({0, 1, 2})
        z = np.ones(3)
        _, _, sign_ok, _, _ = _reference_restricted_witness(
            m.a, 0.1, np.arange(3), np.arange(0), z, np.zeros((0, 0))
        )
        assert not sign_ok
        declined = _witness_at(m.a, 0.1, base, DEFAULT_TOL)
        assert not declined.converged and declined.gap == math.inf
        trace = tune_rho(m, (0.1,), 0.5)
        assert trace.iterations[0] >= 1 and trace.converged[0]

    def test_off_support_block_above_one_declines(self):
        # the rho = 0 support is {0}: coordinate 1 carries a diagonal share
        # of 2.5e-5, below SUPPORT_THRESHOLD; its dual entry w = delta / rho
        delta, rho = 0.005, 0.001
        m = SymMatrix([[1.0, delta], [delta, 0.0]])
        base = solve_sdp(m, 0.0)
        assert base.support == frozenset({0})
        _, _, sign_ok, w, _ = _reference_restricted_witness(
            m.a, rho, np.array([0]), np.array([1]), np.ones(1), np.zeros((1, 1))
        )
        assert sign_ok and w[0] == pytest.approx(delta / rho)
        declined = _witness_at(m.a, rho, base, DEFAULT_TOL)
        assert not declined.converged and declined.gap == math.inf
        trace = tune_rho(m, (rho,), 0.5)
        assert trace.iterations[0] >= 1 and trace.converged[0]

    @pytest.mark.parametrize("rho", [0.01, 0.05, 0.1, 0.5])
    def test_off_diagonal_pair_never_certifies_a_singleton(self, rho):
        # M = [[0, 1], [1, 0]] has both coordinates in the optimal support
        # for rho < 1, though neither diagonal entry exceeds rho
        m = SymMatrix([[0.0, 1.0], [1.0, 0.0]])
        for keep in range(2):
            diag = np.zeros(2)
            diag[keep] = 1.0
            prev = solve_sdp(SymMatrix(np.diag(diag)), 0.0)
            assert prev.support == frozenset({keep})
            assert not _witness_at(m.a, rho, prev, DEFAULT_TOL).converged
        trace = tune_rho(m, (rho,), 0.5)
        assert trace.supports == (frozenset({0, 1}),)
        assert trace.converged == (True,)


    def test_zero_sign_entry_builds_no_witness(self):
        # X = I / 2 on J = {0, 1}: its top eigenvector (0, 1) gives no sign
        # pattern, so no witness is built and ADMM starts from prev
        m = SymMatrix(np.eye(2))
        prev = solve_sdp(m, 0.0)
        assert np.array_equal(prev.x_hat.a, np.eye(2) / 2)
        assert _witness_at(m.a, 0.1, prev, DEFAULT_TOL) is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rho", [5e-324, 2.2250738585e-313, 1e-310])
    def test_subnormal_rho_falls_back_from_prev(self, rho):
        # w = M_{Jc,J} v / (rho ||v||_1) can overflow at a subnormal rho,
        # leaving the declined candidate without a finite warm-start state;
        # the overflow is expected and raises no warning
        m = _planted(np.random.default_rng(3), 2)
        cold = solve_sdp(m, rho)
        assert cold.converged
        trace = tune_rho(m, (rho,), 0.5)
        assert trace.converged == (True,)
        assert trace.supports == (cold.support,)

    def test_handed_out_points_are_read_only(self):
        # each point's X and Z are views of the window's frozen stacks, so
        # neither the walk nor a warm-started solve can write through them
        outcomes = set()
        for m, rho, prev, tol in _witness_battery():
            window = _witness_window(m.a, (rho, 1.5 * rho, 2 * rho), prev, tol)
            for sol in _window_sols(prev, window):
                outcomes.add(sol.converged)
                for a in (sol.x_hat.a, sol.z_dual, sol._state[0]):
                    assert not a.flags.writeable
                    with pytest.raises(ValueError, match="read-only"):
                        a[0, 0] = 0.0
        # certified points and declined candidates
        assert outcomes == {True, False}


# hand cases of TestPathWitness that start from the matrix's own rho = 0
# solution, each on its one grid point: a sign flip, an off-support block
# above one, and a sign pattern with a zero entry
_HAND_CHAINS = (
    ([[1.0, 1.0, 0.05], [1.0, 1.0, 0.05], [0.05, 0.05, 0.0]], (0.1,)),
    ([[1.0, 0.005], [0.005, 0.0]], (0.001,)),
    (np.eye(2), (0.1,)),
)


def _battery_matrices():
    """The random and planted matrices of the witness battery."""
    for d in (2, 5, 13, 20):
        for seed in range(6):
            rng = np.random.default_rng([d, seed])
            yield _planted(rng, d) if seed % 2 else _random_sym(rng, d)


def _witness_battery():
    """(m, rho, prev, tol) cases on which the path witness accepts and
    declines for each of its reasons: warm chains on random and planted
    matrices, each point started from the previous one, and the hand
    cases of TestPathWitness."""
    for m in _battery_matrices():
        prev = solve_sdp(m, 0.0)
        for rho in (0.02, 0.05, 0.1, 0.2, 0.4, 0.8):
            yield m, rho, prev, DEFAULT_TOL
            prev = solve_sdp(m, rho, warm_start=prev)
    yield (
        SymMatrix(np.diag([1.0, 1.0 + 1e-5])),
        0.5,
        solve_sdp(SymMatrix(np.diag([1.0, 0.0])), 0.0),
        DEFAULT_TOL,
    )
    for a, (rho,) in _HAND_CHAINS:
        m = SymMatrix(a)
        yield m, rho, solve_sdp(m, 0.0), DEFAULT_TOL


class TestWitnessBitIdentity:
    """The path witness and witness_certificate reproduce the reference
    builder byte for byte; a declined path witness carries the candidate
    the reference builds."""

    def test_path_witness_matches_reference(self):
        reasons = set()
        for m, rho, prev, tol in _witness_battery():
            why, built = _reference_path_witness(m.a, rho, prev, tol)
            reasons.add(why)
            sol = _witness_at(m.a, rho, prev, tol)
            if why == "zero":
                assert sol is None
                continue
            x, z_full, objective, gap = built
            assert sol.converged == (why == "accepted")
            assert _same_bytes(sol.x_hat.a, x)
            assert _same_bytes(sol.z_dual, z_full)
            # repr, so that nan equals nan
            assert repr(sol.objective) == repr(objective)
            assert repr(sol.gap) == repr(gap)
            assert sol.support == support_of(SymMatrix(x))
            assert (sol.iterations, sol.primal_residual, sol.dual_residual) == (0, 0, 0)
            beta = prev._state[2]
            assert _same_bytes(sol._state[0], x)
            assert _same_bytes(sol._state[1], rho * z_full / beta)
            assert sol._state[2] == beta
        assert reasons == {"zero", "sign", "offblock", "gap", "accepted"}

    def test_witness_certificate_matches_reference(self):
        rng = np.random.default_rng(31)
        reports, sizes = [], set()
        while len(reports) < 60:
            d = int(rng.integers(2, 11))
            s = int(rng.integers(1, d + 1))
            idx = np.sort(rng.choice(d, s, replace=False))
            u = np.zeros(d)
            u[idx] = rng.choice([-1.0, 1.0], s) / np.sqrt(s)
            rest = 0.3 * rng.standard_normal(d - 1)
            q, _ = np.linalg.qr(np.column_stack([u, rng.standard_normal((d, d - 1))]))
            q[:, 0] = u
            top = np.max(rest, initial=0.0) + float(rng.uniform(0.5, 6.0))
            m_star = SymMatrix((q * np.concatenate([[top], np.sort(rest)[::-1]])) @ q.T)
            g = random_graph(d, int(0.8 * d * d), int(rng.integers(1e9)))
            noise = 0.05 * rng.standard_normal((d, d))
            m = SymMatrix(adjacency_mask(g) * m_star.a + noise)
            rho = float(rng.uniform(0.05, 0.8))
            try:
                rep = witness_certificate(m_star, g, m, rho, idx)
            except ValueError:
                continue
            reports.append(rep)
            sizes.add(s if s < d else "all")
            for name, want in _reference_witness_numbers(m_star, g, m, rho, idx).items():
                assert repr(getattr(rep, name)) == repr(want), name
        # both outcomes, one-coordinate supports (no eigengap) and full
        # supports (no off-support blocks)
        assert {rep.certified for rep in reports} == {True, False}
        assert {1, "all"} <= sizes


# numpy rounds M_{Jc,J} v differently on a strided v and on a contiguous
# copy for some draws with one off-support row; the batteries below
# include such draws, so w must be taken on v as LAPACK returns it and
# negated after the product, or a sign flip of v changes its bytes


def _view_and_copy_differ(m_cj, v):
    return not _same_bytes(m_cj @ v, m_cj @ v.copy())


class TestWitnessSignIndependence:
    """w and the witness do not depend on the sign LAPACK gives v."""

    def test_rank_one_same_bytes_for_both_signs(self, monkeypatch):
        rng = np.random.default_rng(32)
        cases, differ = [], 0
        for _ in range(3000):
            c, s = (int(n) for n in rng.integers(1, 20, size=2))
            a = rng.standard_normal((c + s, c + s))
            m = a + a.T
            idx = np.sort(rng.choice(c + s, s, replace=False))
            comp = np.setdiff1d(np.arange(c + s), idx)
            z = rng.choice([-1.0, 1.0], s)
            rho = rng.uniform(0.05, 1.0, size=2)
            got = _rank_one(m, rho, idx, comp, z)
            cases.append((m, rho, idx, comp, z, got))
            # v holds strided row views, as the products are taken on
            differ += any(_view_and_copy_differ(m[np.ix_(comp, idx)], v) for v in got[1])
        assert differ > 0

        lapack_eigh = np.linalg.eigh

        def flipped_eigh(a, *args, **kwargs):
            vals, vecs = lapack_eigh(a, *args, **kwargs)
            return vals, -vecs

        monkeypatch.setattr(np.linalg, "eigh", flipped_eigh)
        for m, rho, idx, comp, z, (vals, v, sign_ok, r) in cases:
            f_vals, f_v, f_sign_ok, f_r = _rank_one(m, rho, idx, comp, z)
            assert _same_bytes(f_vals, vals) and _same_bytes(f_v, -v)
            assert _same_bytes(f_sign_ok, sign_ok)
            assert _same_bytes(f_r, r)

    def test_witness_certificate_same_for_both_signs(self, monkeypatch):
        rng = np.random.default_rng(33)
        cases, differ = [], 0
        for _ in range(300):
            # a support of all but one coordinate: one off-support row
            d = int(rng.integers(5, 13))
            idx = np.sort(rng.choice(d, d - 1, replace=False))
            comp = np.setdiff1d(np.arange(d), idx)
            u = np.zeros(d)
            u[idx] = rng.choice([-1.0, 1.0], d - 1) * rng.uniform(0.5, 1.0, d - 1)
            m_star = SymMatrix(5.0 * np.outer(u, u) / (u @ u))
            noise = 0.05 * rng.standard_normal((d, d))
            m = SymMatrix(m_star.a + noise + noise.T)
            rho = float(rng.uniform(0.05, 0.8))
            rep = witness_certificate(m_star, _complete_with_loops(d), m, rho, idx)
            cases.append((m_star, m, rho, idx, repr(rep)))
            z = np.sign(u[idx])
            v = np.linalg.eigh(m.a[np.ix_(idx, idx)] - rho * np.outer(z, z))[1][:, -1]
            differ += _view_and_copy_differ(m.a[np.ix_(comp, idx)], v)
        assert differ > 0

        lapack_eigh = np.linalg.eigh

        def flipped_eigh(a, *args, **kwargs):
            vals, vecs = lapack_eigh(a, *args, **kwargs)
            return vals, -vecs

        monkeypatch.setattr(np.linalg, "eigh", flipped_eigh)
        for m_star, m, rho, idx, want in cases:
            got = witness_certificate(m_star, _complete_with_loops(m.dim), m, rho, idx)
            assert repr(got) == want


def _point(sol, start):
    """What the walk comparison reads at a grid point: X, Z, objective,
    gap, support, converged, iterations, and the warm-start state of its
    ADMM solve (None for a certified witness)."""
    state = None if start is None else start._state
    return (
        sol.x_hat.a,
        sol.z_dual,
        sol.objective,
        sol.gap,
        sol.support,
        sol.converged,
        sol.iterations,
        state,
    )


def _reference_tune_points(m, grid, tol):
    """The rho > 0 points of tune_rho's grid walked one point at a time
    with the reference witness: a certified witness is kept; otherwise
    solve_sdp starts from the declined candidate, or from the previous
    point when no witness was built."""
    base = solve_sdp(m, 0.0, tol=tol)
    prev, points = base, []
    for rho in sorted(grid):
        if rho == 0.0:
            prev = base
            continue
        why, built = _reference_path_witness(m.a, rho, prev, tol)
        start = prev
        if built is not None:
            x, z_full, objective, gap = built
            beta = prev._state[2]
            x_hat = SymMatrix(x)
            start = SdpSolution(
                x_hat=x_hat,
                objective=objective,
                iterations=0,
                primal_residual=0.0,
                dual_residual=0.0,
                gap=gap,
                support=support_of(x_hat),
                converged=why == "accepted",
                z_dual=z_full,
                _state=(x, rho * z_full / beta, beta),
            )
        if why == "accepted":
            prev = start
            points.append(_point(prev, None))
        else:
            prev = solve_sdp(m, rho, tol=tol, warm_start=start)
            points.append(_point(prev, start))
    return base, points


def _walked_points(m, grid, tol):
    """tune_rho's trace; its rho > 0 points as _point reads them, off its
    witness windows and its ADMM solves; and its windows as
    (prev, rhos, solutions)."""
    points, windows = [], []

    def window(m_a, rhos, prev, tol):
        certified, start = _witness_window(m_a, rhos, prev, tol)
        windows.append((prev, rhos, _window_sols(prev, (certified, start))))
        points.extend(_point(sol, None) for sol in certified)
        return certified, start

    def solve(m, rho, warm_start=None, **kwargs):
        sol = solve_sdp(m, rho, warm_start=warm_start, **kwargs)
        if rho > 0:
            points.append(_point(sol, warm_start))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spca, "_witness_window", window)
        mp.setattr(spca, "solve_sdp", solve)
        trace = tune_rho(m, grid, 0.5, tol=tol)
    return trace, points, windows


def _assert_same_walk(m, grid, tol=DEFAULT_TOL):
    """Asserts that tune_rho's windowed walk gives, at every grid point,
    the bytes of the one-point-at-a-time walk, and returns its windows."""
    trace, got, windows = _walked_points(m, grid, tol)
    base, want = _reference_tune_points(m, grid, tol)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert _same_bytes(g[0], w[0]) and _same_bytes(g[1], w[1])
        # repr, so that nan equals nan
        assert repr(g[2:4]) == repr(w[2:4])
        assert g[4:7] == w[4:7]
        if w[7] is None:
            assert g[7] is None
        else:
            assert _same_bytes(g[7][0], w[7][0]) and _same_bytes(g[7][1], w[7][1])
            assert g[7][2] == w[7][2]
    # the trace reports each point the way the reference walk reached it
    baseline = float((m.a * base.x_hat.a).sum())
    k = [i for i, rho in enumerate(trace.grid) if rho > 0]
    assert [trace.supports[i] for i in k] == [w[4] for w in want]
    assert [trace.converged[i] for i in k] == [w[5] for w in want]
    assert [trace.iterations[i] for i in k] == [w[6] for w in want]
    assert [repr(trace.gaps[i]) for i in k] == [repr(w[3]) for w in want]
    criteria = [
        0.5 * float((m.a * w[0]).sum()) / baseline + 0.5 * (1.0 - len(w[4]) / m.dim)
        for w in want
    ]
    assert [repr(trace.criteria[i]) for i in k] == [repr(c) for c in criteria]
    return windows


def _top_signs(x_jj):
    return np.sign(np.linalg.eigh(x_jj)[1][:, -1])


def _window_cases(windows):
    """The cases of the walk that its windows reached."""
    cases = set()
    for prev, rhos, sols in windows:
        c = sum(sol.converged for sol in sols)
        if len(rhos) > 4:
            cases.add("longer than 4 points")
        if c > 1 and c < len(rhos) and sols[c - 1].support < prev.support:
            cases.add("support shrink inside a window")
        if not sols:
            cases.add("zero-sign break")
        if 0 < c < len(sols):
            cases.add("fallback inside a window")
        # the sign pattern of X's top eigenvector on J at each point that
        # another point of the window follows, against the window's z
        jj = np.ix_(sorted(prev.support), sorted(prev.support))
        z = _top_signs(prev.x_hat.a[jj])
        if any(np.array_equal(_top_signs(sol.x_hat.a[jj]), -z) for sol in sols[:-1]):
            cases.add("sign flip inside a window")
    return cases


def _sign_flip_matrix():
    """A masked planted matrix on whose DEFAULT_RHO_GRID walk the top
    eigenvector of a certified X on J has sign pattern -z, z that of the
    window, at 3 points that another point of the window follows."""
    rng = np.random.default_rng(113)
    m = _planted(rng, 4).a
    mask = rng.random((4, 4)) < 0.6
    return SymMatrix(m * (np.triu(mask) | np.triu(mask, 1).T))


class TestWindowedWalk:
    """tune_rho evaluates the path witness over windows of grid points
    with stacked LAPACK calls; every grid point has the bytes of the walk
    that tries the reference witness one point at a time."""

    def test_battery_chains(self):
        cases = set()
        for m in _battery_matrices():
            cases |= _window_cases(_assert_same_walk(m, DEFAULT_RHO_GRID))
        for a, grid in _HAND_CHAINS:
            cases |= _window_cases(_assert_same_walk(SymMatrix(a), grid))
        cases |= _window_cases(_assert_same_walk(_sign_flip_matrix(), DEFAULT_RHO_GRID))
        # the battery reaches every way a window ends, and a window whose
        # z is the negated sign pattern of a certified point's X
        assert cases == {
            "longer than 4 points",
            "support shrink inside a window",
            "zero-sign break",
            "fallback inside a window",
            "sign flip inside a window",
        }

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
    def test_experiment_chains(self, d, s, gap, budget, bucket, seed, b, grid, reps):
        for rep in range(reps):
            m = _experiment_matrix(d, s, gap, budget, bucket, seed, b, rep)
            _assert_same_walk(m, grid)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 20),
        seed=st.integers(0, 2**32 - 1),
        planted=st.booleans(),
        grid=st.lists(
            st.one_of(st.just(0.0), st.floats(0.001, 1.0)), min_size=1, max_size=40
        ),
    )
    def test_random_chains(self, d, seed, planted, grid):
        rng = np.random.default_rng(seed)
        m = _planted(rng, d) if planted else _random_sym(rng, d)
        _assert_same_walk(m, grid)


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
