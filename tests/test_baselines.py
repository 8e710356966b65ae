"""Thresholding baselines and nuclear-norm completion."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spcarec import baselines
from spcarec.baselines import (
    _complete_nuclear,
    _svt,
    complete_nuclear,
    dtspca,
    itspca,
)
from spcarec.errors import ThresholdTooLarge
from spcarec.graph import ObservationGraph, adjacency, graph_from_mask, random_graph
from spcarec.numerics import SymMatrix, eigh
from spcarec.sdp import _Anderson, solve_sdp

from helpers import _complete_with_loops


def _spike(d, idx, scale=5.0):
    u = np.zeros(d)
    u[np.asarray(idx)] = 1.0 / np.sqrt(len(idx))
    return SymMatrix(scale * np.outer(u, u))


class TestDtspca:
    def test_top_two(self):
        res = dtspca(SymMatrix(np.diag([3.0, 1.0, 2.0])), 2)
        assert res.support == {0, 2}

    def test_full(self):
        res = dtspca(SymMatrix(np.diag([3.0, 1.0, 2.0])), 3)
        assert res.support == {0, 1, 2}

    def test_spike_diagonal(self):
        res = dtspca(_spike(8, [1, 4, 6]), 3)
        assert res.support == {1, 4, 6}

    def test_tie_lowest_index(self):
        res = dtspca(SymMatrix(np.diag([1.0, 2.0, 2.0, 2.0])), 2)
        assert res.support == {1, 2}

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(90)
        a = rng.standard_normal((6, 6))
        m = SymMatrix(a + a.T + np.diag(np.arange(6, dtype=float)))
        perm = rng.permutation(6)
        mp = SymMatrix(m.a[np.ix_(perm, perm)])
        base = dtspca(m, 3).support
        permuted = dtspca(mp, 3).support
        inv = np.argsort(perm)
        assert permuted == {int(inv[i]) for i in base}

    def test_k_range(self):
        with pytest.raises(ValueError):
            dtspca(SymMatrix(np.eye(3)), 0)
        with pytest.raises(ValueError):
            dtspca(SymMatrix(np.eye(3)), 4)

    def test_k_must_be_integer(self):
        with pytest.raises(ValueError, match=r"k must be an integer in \[1, 3\]"):
            dtspca(SymMatrix(np.eye(3)), 1.5)
        assert dtspca(SymMatrix(np.diag([1.0, 3.0, 2.0])), np.int64(2)).support == {1, 2}


class TestItspca:
    def test_zero_threshold_is_power_method(self):
        rng = np.random.default_rng(91)
        a = rng.standard_normal((7, 7))
        m = SymMatrix(a @ a.T)  # psd, positive top eigenvalue
        res = itspca(m, 0.0, tol=1e-10)
        u1 = eigh(m).vectors[:, 0]
        assert res.support == {int(i) for i in np.nonzero(np.abs(u1) > 0)[0]}

    def test_threshold_too_large(self):
        with pytest.raises(ThresholdTooLarge):
            itspca(SymMatrix(np.eye(3)), 10.0)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -1.0])
    def test_bad_threshold(self, threshold):
        # a NaN threshold used to run every iteration and return all coordinates
        with pytest.raises(ValueError, match="threshold must be a nonnegative finite"):
            itspca(SymMatrix(np.diag([3.0, 1.0, 0.5])), threshold)

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
    def test_bad_tol(self, tol):
        # a NaN or negative tol used to run all max_iter iterations
        with pytest.raises(ValueError, match="tol must be a positive finite real"):
            itspca(SymMatrix(np.diag([3.0, 1.0, 0.5])), 0.1, tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_bad_max_iter(self, max_iter):
        # with no iteration the starting vector's support would be returned
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            itspca(SymMatrix(np.diag([3.0, 1.0, 0.5])), 0.9, max_iter=max_iter)

    def test_spike_recovery(self):
        res = itspca(_spike(9, [0, 3, 5]), threshold=0.4)
        assert res.support == {0, 3, 5}
        assert res.diagnostics["converged"]

    def test_stop_at_max_iter_reported(self):
        # eigenvalues 1 and -1 of equal magnitude: the iterate flips between
        # (1, 1) and (1, -1) / sqrt(2) and never settles
        res = itspca(SymMatrix(np.diag([1.0, -1.0])), 0.0, max_iter=50)
        assert res.diagnostics["iterations"] == 50
        assert res.diagnostics["delta"] > 1e-8
        assert res.diagnostics["converged"] is False
        assert res.support == {0, 1}


def _loop_itspca(a, threshold, max_iter=1000, tol=1e-8):
    """The itspca loop before it was trimmed, kept as the reference:
    np.linalg.norm and an inline soft threshold, with the sign-invariant
    step size min(||w - v||, ||w + v||).  Returns (support, iterations,
    delta)."""
    d = a.shape[0]
    v = np.ones(d) / np.sqrt(d)
    delta = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        w = a @ v
        w = np.sign(w) * np.maximum(np.abs(w) - threshold, 0.0)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            raise ThresholdTooLarge(f"iterate collapsed to zero at threshold {threshold}")
        w /= nw
        delta = min(np.linalg.norm(w - v), np.linalg.norm(w + v))
        v = w
        if delta <= tol:
            break
    return frozenset(int(i) for i in np.nonzero(v)[0]), it, float(delta)


def _itspca_matrix(d, seed, spiked):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    a = a + a.T
    if spiked:
        a = a + _spike(d, rng.choice(d, size=max(1, d // 4), replace=False)).a
    return a


# found by search: the run closes an exact cycle of period 4 at iteration
# 71, and one of period 12 at iteration 918
_PERIOD_4 = _itspca_matrix(12, 1, False)
_PERIOD_12 = _itspca_matrix(30, 1, False)


class TestItspcaMatchesLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        a=st.builds(
            _itspca_matrix, st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans()
        ),
        threshold=st.sampled_from([0.0, 0.01, 0.05, 0.3, 1.0, 3.0, 100.0]),
        max_iter=st.sampled_from([1, 2, 7, 8, 999, 1000, 1001]),
    )
    @example(a=_itspca_matrix(3, 0, False), threshold=10.0, max_iter=1000)
    # the iterate flips between (1, 1) and (1, -1) / sqrt(2)
    @example(a=np.diag([1.0, -1.0]), threshold=0.0, max_iter=1000)
    @example(a=np.diag([1.0, -1.0]), threshold=0.0, max_iter=1001)
    # the top-magnitude eigenvalue is negative: the iterate flips sign
    @example(a=_itspca_matrix(5, 0, False), threshold=0.0, max_iter=1000)
    @example(a=_PERIOD_4, threshold=1.0, max_iter=999)
    @example(a=_PERIOD_4, threshold=1.0, max_iter=1000)
    @example(a=_PERIOD_12, threshold=0.3, max_iter=1000)
    @example(a=_PERIOD_12, threshold=0.3, max_iter=1001)
    def test_bit_equal(self, a, threshold, max_iter):
        m = SymMatrix(a)
        try:
            expected = _loop_itspca(m.a, threshold, max_iter=max_iter)
        except ThresholdTooLarge:
            with pytest.raises(ThresholdTooLarge):
                itspca(m, threshold, max_iter=max_iter)
            return
        res = itspca(m, threshold, max_iter=max_iter)
        got = (res.support, res.diagnostics["iterations"], res.diagnostics["delta"])
        assert got == expected
        assert res.diagnostics["converged"] == (expected[2] <= 1e-8)
        assert type(res.diagnostics["delta"]) is float
        period = res.diagnostics["cycle_period"]
        assert period == 0 or (period >= 2 and not res.diagnostics["converged"])

    def test_negative_top_eigenvalue_converges(self):
        # the top-magnitude eigenvalue is negative, so the iterate flips
        # sign every step; the sign-invariant step size still settles
        a = _itspca_matrix(5, 0, False)
        vals = np.linalg.eigvalsh(a)
        assert -vals[0] > vals[-1] > 0
        res = itspca(SymMatrix(a), 0.0)
        assert res.diagnostics["converged"] is True
        assert res.diagnostics["cycle_period"] == 0
        assert res.diagnostics["iterations"] < 1000
        assert res.diagnostics["delta"] <= 1e-8

    @pytest.mark.parametrize(
        "a, threshold, period, closed_at",
        [(np.diag([1.0, -1.0]), 0.0, 2, 3), (_PERIOD_4, 1.0, 4, 71),
         (_PERIOD_12, 0.3, 12, 918)],
    )
    def test_cycle_period_reported(self, monkeypatch, a, threshold, period, closed_at):
        steps = []
        step = baselines._soft_threshold_arr

        def counted(x, t):
            steps.append(t)
            return step(x, t)

        monkeypatch.setattr(baselines, "_soft_threshold_arr", counted)
        for max_iter in (closed_at - 1, closed_at, 1000):
            steps.clear()
            res = itspca(SymMatrix(a), threshold, max_iter=max_iter)
            closed = max_iter >= closed_at
            assert res.diagnostics["cycle_period"] == (period if closed else 0)
            assert res.diagnostics["iterations"] == max_iter
            # the run stops where the cycle closes
            assert len(steps) == min(max_iter, closed_at)


def _svd_svt(b, t):
    u, s, vt = np.linalg.svd(b, full_matrices=False)
    return (u * np.maximum(s - t, 0.0)) @ vt


class TestSvt:
    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        t_frac=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0, 2.0]),
        rank=st.integers(1, 30),
    )
    def test_matches_svd_reference(self, d, seed, scale, t_frac, rank):
        rng = np.random.default_rng(seed)
        vecs = rng.standard_normal((d, min(rank, d)))
        vals = rng.standard_normal(vecs.shape[1])
        b = (vecs * vals) @ vecs.T
        b = scale * (b + b.T)
        assert np.array_equal(b, b.T)
        norm = np.linalg.norm(b, 2)
        got = _svt(b, t_frac * norm)
        assert np.array_equal(got, got.T)
        tol = 1e-10 * max(1.0, norm)
        assert np.abs(got - _svd_svt(b, t_frac * norm)).max() <= tol


class TestCompleteNuclear:
    def test_complete_observation_identity(self):
        rng = np.random.default_rng(92)
        a = rng.standard_normal((5, 5))
        m = SymMatrix(a + a.T)
        out = complete_nuclear(m, _complete_with_loops(5))
        np.testing.assert_allclose(out.a, m.a, atol=1e-12)

    def test_missing_corner_grid_oracle(self):
        # minimize the nuclear norm of [[1,1],[1,y]] over y by grid search
        ys = np.arange(-2.0, 3.0, 1e-3)
        best_y, best_val = None, np.inf
        for y in ys:
            val = np.abs(np.linalg.eigvalsh([[1.0, 1.0], [1.0, y]])).sum()
            if val < best_val - 1e-12:
                best_val, best_y = val, y
        assert best_y == pytest.approx(1.0, abs=2e-3)

        m = SymMatrix([[1.0, 1.0], [1.0, 0.0]])  # (1,1) unobserved, zero-imputed
        g = ObservationGraph(2, [(0, 0), (0, 1)])
        y, _ = _complete_nuclear(m.a, g.mask, 1e-8, 5000)
        assert y[1, 1] == pytest.approx(1.0, abs=1e-3)
        assert y[0, 1] == pytest.approx(1.0, abs=1e-10)

    def test_rank_one_recovery(self):
        rng = np.random.default_rng(93)
        u = rng.standard_normal(10)
        u /= np.linalg.norm(u)
        m_star = 4.0 * np.outer(u, u)
        mask = rng.random((10, 10)) < 0.8
        mask = np.triu(mask) | np.triu(mask).T
        np.fill_diagonal(mask, True)
        g = graph_from_mask(mask)
        m = SymMatrix(np.where(mask, m_star, 0.0))
        y, _ = _complete_nuclear(m.a, g.mask, 1e-8, 10000)
        rel = np.linalg.norm(y - m_star) / np.linalg.norm(m_star)
        assert rel <= 0.05

    def test_observed_entries_exact(self):
        rng = np.random.default_rng(94)
        a = rng.standard_normal((6, 6))
        m = SymMatrix(a + a.T)
        g = random_graph(6, 26, 5)
        out = complete_nuclear(m, g)
        obs = adjacency(g).a.astype(bool)
        assert np.abs((out.a - m.a)[obs]).max(initial=0.0) <= 1e-6

    def test_no_edges_rejected(self):
        with pytest.raises(ValueError):
            complete_nuclear(SymMatrix(np.eye(3)), ObservationGraph(3))

    @pytest.mark.parametrize("call", [complete_nuclear])
    def test_input_validation(self, call):
        with pytest.raises(ValueError, match="no edges"):
            call(SymMatrix(np.eye(3)), ObservationGraph(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            call(SymMatrix(np.eye(3)), _complete_with_loops(4))
        with pytest.raises(ValueError, match="square"):
            call(np.ones((2, 3)), _complete_with_loops(2))
        out = call(np.eye(3).tolist(), _complete_with_loops(3))
        assert out is not None

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 20),
        density=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
        max_iter=st.sampled_from([1, 5, 500]),
    )
    def test_symmetric_and_pinned_on_random_masks(self, d, density, seed, max_iter):
        rng = np.random.default_rng(seed)
        mask = np.triu(rng.random((d, d)) < density)
        mask = mask | mask.T
        a = rng.standard_normal((d, d))
        m = SymMatrix(np.where(mask, a + a.T, 0.0))
        y, info = _complete_nuclear(m.a, mask, 1e-6, max_iter)
        assert np.array_equal(y, y.T)
        assert np.array_equal(y[mask], m.a[mask])
        assert float(np.abs((y - m.a)[mask]).max(initial=0.0)) == 0.0
        assert 1 <= info["iterations"] <= max_iter
        # weak duality: the dual bound ||Y||_* - gap is at most the upper
        # bound ||Y||_* at every stop, up to the rounding of two eigenvalue
        # sums and a dot product over at most 400 entries
        upper = float(np.abs(np.linalg.eigvalsh(y)).sum())
        assert info["gap"] >= -1e-12 * max(1.0, upper)
        if info["converged"]:
            assert info["gap"] <= 1e-6 * max(1.0, upper)


def _plain_completion(m, observed, tol, max_iter):
    """The completion loop before Anderson acceleration, kept as the
    reference: penalty-1 ADMM with singular-value thresholding that stops
    on the residual alone.  Returns (y, iterations, converged)."""
    y = np.where(observed, m, 0.0)
    u = np.zeros_like(y)
    for it in range(1, max_iter + 1):
        w = _svt(y - u, 1.0)
        y_new = w + u
        y_new[observed] = m[observed]
        u = u + w - y_new
        residual = max(np.abs(w - y_new).max(), np.abs(y_new - y).max())
        y = y_new
        if residual <= tol:
            return y, it, True
    return y, max_iter, False


def _completion_inputs():
    """Exactly symmetric (m, observed) pairs: rank 1, rank 3 and full-rank
    truths at two densities."""
    for d in (6, 13, 20, 50):
        for rank in (1, 3, None):
            for density in (0.5, 0.8):
                rng = np.random.default_rng([d, rank or 0, int(10 * density)])
                if rank is None:
                    a = rng.standard_normal((d, d))
                    m_star = a + a.T
                else:
                    v = rng.standard_normal((d, rank))
                    m_star = (v * rng.choice([-1.0, 1.0], rank)) @ v.T
                    m_star = 0.5 * (m_star + m_star.T)
                mask = np.triu(rng.random((d, d)) < density)
                mask = mask | mask.T
                yield np.where(mask, m_star, 0.0), mask


class TestAcceleratedCompletion:
    def test_nuclear_norm_matches_plain_loop(self):
        for m, mask in _completion_inputs():
            ref, _, ref_converged = _plain_completion(m, mask, 1e-6, 20000)
            y, info = _complete_nuclear(m, mask, 1e-6, 20000)
            assert ref_converged and info["converged"]
            want = np.abs(np.linalg.eigvalsh(ref)).sum()
            got = np.abs(np.linalg.eigvalsh(y)).sum()
            assert abs(got - want) <= 1e-6 * max(1.0, want)

    def test_reaches_anderson_safeguard(self, monkeypatch):
        # the completion's map never changes, so it never empties its
        # history; the reset path is reached through solve_sdp's rebalances
        # (tests/test_sdp.py::test_anderson_helper_reaches_safeguard_and_reset)
        made = []

        class Recorded(_Anderson):
            def __init__(self, n):
                super().__init__(n)
                made.append(self)

        monkeypatch.setattr(baselines, "_Anderson", Recorded)
        for m, mask in _completion_inputs():
            _complete_nuclear(m, mask, 1e-6, 20000)
        assert sum(aa.rejected for aa in made) > 0
        assert sum(aa.resets for aa in made) == 0

    def test_symmetric_when_the_step_is_not(self, monkeypatch):
        # gamma @ dF need not round to a symmetric sum on every BLAS: an
        # extrapolated point off by an antisymmetric last-bit error must
        # still leave every iterate exactly symmetric
        class Skewed(_Anderson):
            def step(self, s, f):
                nxt = super().step(s, f)
                skew = np.triu(np.full(nxt.shape, 1e-15), 1)
                return nxt + skew - skew.T

        monkeypatch.setattr(baselines, "_Anderson", Skewed)
        for m, mask in _completion_inputs():
            y, info = _complete_nuclear(m, mask, 1e-6, 20000)
            assert np.array_equal(y, y.T)
            assert np.array_equal(y[mask], m[mask])


class TestCompletionThenSolve:
    """Nuclear-norm completion followed by the penalized spectrahedron
    solve at one rho; the experiments' `mc_sdp` method tunes it over a grid."""

    def test_complete_observation_matches_direct(self):
        rng = np.random.default_rng(95)
        a = rng.standard_normal((6, 6))
        m = SymMatrix(a + a.T)
        res = solve_sdp(complete_nuclear(m, _complete_with_loops(6)), 0.2)
        assert res.support == solve_sdp(m, 0.2).support

    def test_rank_one_well_observed(self):
        rng = np.random.default_rng(96)
        idx = [1, 4]
        m_star = _spike(8, idx)
        mask = rng.random((8, 8)) < 0.85
        mask = np.triu(mask) | np.triu(mask).T
        np.fill_diagonal(mask, True)
        m = SymMatrix(np.where(mask, m_star.a, 0.0))
        y, info = _complete_nuclear(m.a, mask, 1e-6, 5000)
        assert solve_sdp(SymMatrix(y), 0.15).support == set(idx)
        assert info["converged"]

    def test_full_rank_reports_diagnostics(self):
        # full-rank truth: completion is not low-rank, diagnostics still sane
        rng = np.random.default_rng(97)
        a = rng.standard_normal((8, 8))
        m_star = a + a.T
        mask = rng.random((8, 8)) < 0.5
        mask = np.triu(mask) | np.triu(mask).T
        np.fill_diagonal(mask, True)
        m = SymMatrix(np.where(mask, m_star, 0.0))
        y, info = _complete_nuclear(m.a, mask, 1e-6, 5000)
        assert solve_sdp(SymMatrix(y), 0.2).support <= set(range(8))
        assert "residual" in info
        assert info["gap"] >= 0.0

    def test_capped_completion_not_converged(self):
        # one iteration passes neither the residual test nor the certificate
        rng = np.random.default_rng(98)
        a = rng.standard_normal((8, 8))
        mask = np.triu(rng.random((8, 8)) < 0.5)
        mask = mask | mask.T
        m = SymMatrix(np.where(mask, a + a.T, 0.0))
        y, info = _complete_nuclear(m.a, mask, 1e-6, 1)
        assert not info["converged"]
        assert info["gap"] > 1e-6
