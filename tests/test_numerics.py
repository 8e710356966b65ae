"""Numerics: eigendecomposition, norms, projections, shrinkage."""

import copy
import pickle

import numpy as np
import pytest

from spcarec.numerics import (
    EigDecomp,
    SymMatrix,
    eigh,
    project_simplex,
    project_spectrahedron,
    soft_threshold,
    spectral_norm,
)

from helpers import _random_sym


class TestSymMatrix:
    def test_symmetrizes_exactly(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6))
        m = SymMatrix(a)
        assert np.array_equal(m.a, m.a.T)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SymMatrix([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError):
            SymMatrix([[np.inf]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((2, 3)))

    def test_backing_array_read_only(self):
        m = SymMatrix(np.eye(3))
        with pytest.raises(ValueError):
            m.a[0, 0] = 2.0

    def test_idempotent_on_symmatrix(self):
        m = SymMatrix(np.eye(3))
        assert SymMatrix(m) is m

    def test_array_input_copied_symmetrized_read_only(self):
        a = np.array([[1.0, 2.0], [4.0, 3.0]])
        m = SymMatrix(a)
        assert not np.shares_memory(m.a, a)
        assert m.a.tobytes() == (0.5 * (a + a.T)).tobytes()
        assert not m.a.flags.writeable
        a[0, 1] = 9.0
        assert m.a[0, 1] == 3.0

    def test_copy_and_pickle_round_trip(self):
        m = SymMatrix(np.array([[1.0, 2.0], [4.0, 3.0]]))
        for out in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert type(out) is SymMatrix
            assert out.a.tobytes() == m.a.tobytes()
            assert not out.a.flags.writeable


class TestEigh:
    def test_diagonal(self):
        dec = eigh(SymMatrix(np.diag([3.0, 1.0])))
        np.testing.assert_allclose(dec.values, [3.0, 1.0])
        np.testing.assert_allclose(dec.vectors, np.eye(2), atol=1e-14)

    def test_two_by_two(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 = 1 -> l in {3, 1}
        dec = eigh(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(dec.values, [3.0, 1.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(dec.vectors[:, 0], [s, s], atol=1e-12)
        # tie in magnitude: sign fixed by the lowest index
        np.testing.assert_allclose(dec.vectors[:, 1], [s, -s], atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(1)
        m = _random_sym(rng, 5)
        dec = eigh(m)
        rec = (dec.vectors * dec.values) @ dec.vectors.T
        assert np.abs(rec - m.a).max() <= 1e-8 * (1 + np.abs(m.a).max())

    def test_invariants_sweep(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            d = int(rng.integers(2, 31))
            m = _random_sym(rng, d)
            dec = eigh(m)
            assert np.all(np.diff(dec.values) <= 0)
            gram = dec.vectors.T @ dec.vectors
            assert np.abs(gram - np.eye(d)).max() <= 1e-10
            rec = (dec.vectors * dec.values) @ dec.vectors.T
            assert np.abs(rec - m.a).max() <= 1e-8 * (1 + np.abs(m.a).max())

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        m = _random_sym(rng, 8)
        d1, d2 = eigh(m), eigh(m)
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(d1.vectors, d2.vectors)

    def test_returns_type(self):
        assert isinstance(eigh(SymMatrix(np.eye(2))), EigDecomp)


class TestSpectralNorm:
    def test_symmetric_diagonal(self):
        assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0)

    def test_row_vector(self):
        assert spectral_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)

    def test_gram_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 2))
        expected = np.sqrt(np.linalg.eigvalsh(a.T @ a)[-1])
        assert spectral_norm(a) == pytest.approx(expected, rel=1e-12)

    def test_transpose_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            assert abs(spectral_norm(a) - spectral_norm(a.T)) <= 1e-10

    def test_empty(self):
        assert spectral_norm(np.zeros((0, 3))) == 0.0

    def test_one_dimensional_is_row_vector(self):
        assert spectral_norm(np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_more_than_two_dimensions_rejected(self):
        with pytest.raises(ValueError, match="at most 2 dimensions"):
            spectral_norm(np.ones((2, 2, 2)))


def _simplex_grid(h=1e-3):
    n1 = int(round(1.0 / h))
    i, j = np.meshgrid(np.arange(n1 + 1), np.arange(n1 + 1), indexing="ij")
    keep = (i + j) <= n1
    x1 = i[keep] * h
    x2 = j[keep] * h
    return np.column_stack([x1, x2, 1.0 - x1 - x2])


class TestProjectSimplex:
    def test_already_feasible(self):
        np.testing.assert_allclose(project_simplex([0.5, 0.5]), [0.5, 0.5])

    def test_single_active(self):
        np.testing.assert_allclose(project_simplex([2.0, 0.0]), [1.0, 0.0])

    def test_three_vector(self):
        np.testing.assert_allclose(
            project_simplex([0.8, 0.6, -0.2]), [0.6, 0.4, 0.0], atol=1e-12
        )

    def test_against_grid_search(self):
        grid = _simplex_grid()
        rng = np.random.default_rng(6)
        for _ in range(20):
            v = rng.uniform(-1.5, 1.5, size=3)
            proj = project_simplex(v)
            best = grid[np.argmin(((grid - v) ** 2).sum(axis=1))]
            assert np.abs(proj - best).max() <= 2e-3

    def test_feasible_output(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = rng.uniform(-5, 5, size=int(rng.integers(1, 12)))
            p = project_simplex(v)
            assert p.min() >= 0
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_entries_beyond_float_resolution_rejected(self):
        # u_1 - (u_1 - 1) rounds to 0, so no threshold exists in floating point
        with pytest.raises(ValueError):
            project_simplex([1e20, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([]))


class TestProjectSpectrahedron:
    def test_identity_scaled(self):
        m = SymMatrix(np.eye(4) / 4)
        np.testing.assert_allclose(project_spectrahedron(m).a, m.a, atol=1e-14)

    def test_diagonal(self):
        out = project_spectrahedron(SymMatrix(np.diag([2.0, 0.0])))
        np.testing.assert_allclose(out.a, np.diag([1.0, 0.0]), atol=1e-12)

    def test_simplex_oracle(self):
        out = project_spectrahedron(SymMatrix(np.diag([0.8, 0.6, -0.2])))
        np.testing.assert_allclose(out.a, np.diag([0.6, 0.4, 0.0]), atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            m = _random_sym(rng, int(rng.integers(2, 10)))
            once = project_spectrahedron(m)
            twice = project_spectrahedron(once)
            assert np.abs(once.a - twice.a).max() <= 1e-10


class TestSoftThreshold:
    def test_entries(self):
        out = soft_threshold(SymMatrix([[3.0, -0.5], [-0.5, 3.0]]), 1.0)
        np.testing.assert_allclose(out.a, [[2.0, 0.0], [0.0, 2.0]])

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(9)
        m = _random_sym(rng, 5)
        np.testing.assert_allclose(soft_threshold(m, 0.0).a, m.a)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(SymMatrix(np.eye(2)), -0.1)

    def test_lipschitz(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            x = rng.uniform(-4, 4, size=(4, 4))
            y = rng.uniform(-4, 4, size=(4, 4))
            t = float(rng.uniform(0, 2))
            sx = soft_threshold(SymMatrix(x + x.T), t).a
            sy = soft_threshold(SymMatrix(y + y.T), t).a
            assert np.all(np.abs(sx - sy) <= np.abs((x + x.T) - (y + y.T)) + 1e-12)
