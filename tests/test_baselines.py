"""Thresholding baselines and nuclear-norm completion."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spcarec.baselines import (
    _complete_nuclear,
    _svt,
    complete_nuclear,
    dtspca,
    itspca,
    mc_then_sdp,
)
from spcarec.errors import ThresholdTooLarge
from spcarec.graph import ObservationGraph, adjacency, graph_from_mask, random_graph
from spcarec.numerics import SymMatrix, eigh
from spcarec.spca import recover_support


def _complete_with_loops(n):
    return ObservationGraph(n, [(i, j) for i in range(n) for j in range(i, n)])


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

    def test_random_start_deterministic(self):
        m = _spike(6, [1, 2])
        a = itspca(m, 0.05, rng_seed=3)
        b = itspca(m, 0.05, rng_seed=3)
        assert a.support == b.support


def _loop_itspca(a, threshold, max_iter=1000, tol=1e-8, rng_seed=None):
    """The itspca loop before it was trimmed, kept as the reference:
    np.linalg.norm and an inline soft threshold.  Returns (support,
    iterations, delta)."""
    d = a.shape[0]
    if rng_seed is None:
        v = np.ones(d) / np.sqrt(d)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
    delta = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        w = a @ v
        w = np.sign(w) * np.maximum(np.abs(w) - threshold, 0.0)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            raise ThresholdTooLarge(f"iterate collapsed to zero at threshold {threshold}")
        w /= nw
        delta = np.linalg.norm(w - v)
        v = w
        if delta <= tol:
            break
    return frozenset(int(i) for i in np.nonzero(v)[0]), it, float(delta)


class TestItspcaMatchesLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        threshold=st.sampled_from([0.0, 0.01, 0.05, 0.3, 1.0, 3.0, 100.0]),
        rng_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        max_iter=st.sampled_from([1, 7, 1000]),
        spiked=st.booleans(),
    )
    @example(d=3, seed=0, threshold=10.0, rng_seed=None, max_iter=1000, spiked=False)
    def test_bit_equal(self, d, seed, threshold, rng_seed, max_iter, spiked):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d, d))
        a = a + a.T
        if spiked:
            a = a + _spike(d, rng.choice(d, size=max(1, d // 4), replace=False)).a
        m = SymMatrix(a)
        try:
            expected = _loop_itspca(m.a, threshold, max_iter=max_iter, rng_seed=rng_seed)
        except ThresholdTooLarge:
            with pytest.raises(ThresholdTooLarge):
                itspca(m, threshold, max_iter=max_iter, rng_seed=rng_seed)
            return
        res = itspca(m, threshold, max_iter=max_iter, rng_seed=rng_seed)
        got = (res.support, res.diagnostics["iterations"], res.diagnostics["delta"])
        assert got == expected
        assert type(res.diagnostics["delta"]) is float


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
        out = complete_nuclear(m, g, tol=1e-8)
        assert out.a[1, 1] == pytest.approx(1.0, abs=1e-3)
        assert out.a[0, 1] == pytest.approx(1.0, abs=1e-10)

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
        out = complete_nuclear(m, g, tol=1e-8, max_iter=10000)
        rel = np.linalg.norm(out.a - m_star) / np.linalg.norm(m_star)
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

    @pytest.mark.parametrize(
        "call", [complete_nuclear, lambda m, g: mc_then_sdp(m, g, 0.1)]
    )
    def test_input_validation(self, call):
        with pytest.raises(ValueError, match="no edges"):
            call(SymMatrix(np.eye(3)), ObservationGraph(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            call(SymMatrix(np.eye(3)), _complete_with_loops(4))
        with pytest.raises(ValueError, match="square"):
            call(np.ones((2, 3)), _complete_with_loops(2))
        out = call(np.eye(3).tolist(), _complete_with_loops(3))
        assert out is not None

    @pytest.mark.parametrize(
        "call",
        [
            lambda m, g, k: complete_nuclear(m, g, max_iter=k),
            lambda m, g, k: mc_then_sdp(m, g, 0.1, max_iter=k),
        ],
    )
    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_bad_max_iter(self, call, max_iter):
        # with no iteration the zero-filled observation would be returned
        g = ObservationGraph(3, [(0, 0), (1, 1), (0, 1)])
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            call(SymMatrix(np.ones((3, 3))), g, max_iter)

    @pytest.mark.parametrize(
        "call",
        [
            lambda m, g, tol: complete_nuclear(m, g, tol=tol),
            lambda m, g, tol: mc_then_sdp(m, g, 0.1, tol=tol),
        ],
    )
    @pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
    def test_bad_tol(self, call, tol):
        # a NaN tol used to run all 5000 completion iterations and report
        # completion_converged False at a residual of 7e-16
        with pytest.raises(ValueError, match="tol must be a positive finite real"):
            call(SymMatrix(np.ones((3, 3))), _complete_with_loops(3), tol)

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
        assert info["observed_violation"] == 0.0
        assert 1 <= info["iterations"] <= max_iter


class TestMcThenSdp:
    def test_complete_observation_matches_direct(self):
        rng = np.random.default_rng(95)
        a = rng.standard_normal((6, 6))
        m = SymMatrix(a + a.T)
        res = mc_then_sdp(m, _complete_with_loops(6), 0.2)
        direct, _ = recover_support(m, 0.2)
        assert res.support == direct

    def test_rank_one_well_observed(self):
        rng = np.random.default_rng(96)
        idx = [1, 4]
        m_star = _spike(8, idx)
        mask = rng.random((8, 8)) < 0.85
        mask = np.triu(mask) | np.triu(mask).T
        np.fill_diagonal(mask, True)
        g = graph_from_mask(mask)
        m = SymMatrix(np.where(mask, m_star.a, 0.0))
        res = mc_then_sdp(m, g, 0.15)
        assert res.support == set(idx)
        assert res.diagnostics["completion_converged"]

    def test_full_rank_reports_diagnostics(self):
        # full-rank truth: completion is not low-rank, diagnostics still sane
        rng = np.random.default_rng(97)
        a = rng.standard_normal((8, 8))
        m_star = a + a.T
        mask = rng.random((8, 8)) < 0.5
        mask = np.triu(mask) | np.triu(mask).T
        np.fill_diagonal(mask, True)
        g = graph_from_mask(mask)
        m = SymMatrix(np.where(mask, m_star, 0.0))
        res = mc_then_sdp(m, g, 0.2)
        assert res.support <= set(range(8))
        assert "completion_residual" in res.diagnostics
