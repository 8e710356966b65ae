"""Dense symmetric linear algebra and proximal primitives.

Everything here operates on small dense matrices (d up to a few hundred)
and is deterministic: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SymMatrix",
    "EigDecomp",
    "eigh",
    "spectral_norm",
    "project_simplex",
    "project_spectrahedron",
    "soft_threshold",
]


def _validated_square(values) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("matrix dimension must be positive")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


class SymMatrix:
    """Dense real symmetric matrix.

    Construction symmetrizes via (A + A^T)/2, which makes the stored array
    exactly symmetric entry by entry, and rejects non-finite input.  The
    backing array is marked read-only; treat instances as immutable values.
    """

    __slots__ = ("a",)

    def __init__(self, values):
        a = _validated_square(values)
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def __repr__(self) -> str:
        return f"SymMatrix(dim={self.dim})"


@dataclass(frozen=True)
class EigDecomp:
    """Full eigendecomposition, eigenvalues in descending order.

    ``vectors[:, k]`` is the unit eigenvector for ``values[k]``, with the
    sign fixed so that the entry of largest magnitude is positive (ties
    resolved toward the lowest index).
    """

    values: np.ndarray
    vectors: np.ndarray


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # np.argmax returns the first maximal index, which is the tie rule we want
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def _eigh_descending(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(a)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def eigh(a: SymMatrix) -> EigDecomp:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""
    if not isinstance(a, SymMatrix):
        a = SymMatrix(a)
    vals, vecs = _eigh_descending(a.a)
    vecs = _fix_signs(vecs)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return EigDecomp(values=vals, vectors=vecs)


def spectral_norm(a) -> float:
    """Largest singular value of a rectangular matrix.

    For symmetric input this equals the largest absolute eigenvalue.
    Empty matrices have norm 0.
    """
    if isinstance(a, SymMatrix):
        a = a.a
    arr = np.atleast_2d(np.asarray(a, dtype=float))
    if arr.size == 0:
        return 0.0
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return float(np.linalg.svd(arr, compute_uv=False)[0])


def _simplex_threshold(u: np.ndarray) -> float:
    """Shift theta with max(v - theta, 0) on the simplex; u is v sorted descending.

    theta = (u_1 + ... + u_k - 1) / k for the last k with u_k > theta_k.
    A scalar loop: at the sizes used here numpy's per-call overhead costs
    more than the arithmetic, and the running sum matches np.cumsum.
    """
    css = 0.0
    theta = None
    for k, uk in enumerate(u.tolist(), 1):
        css += uk
        t = (css - 1.0) / k
        if uk - t > 0:
            theta = t
    if theta is None:
        raise ValueError("no simplex threshold: entries too large to project")
    return theta


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    Sort-based exact algorithm: output entries are nonnegative and sum
    to 1.  Sorting uses a stable kind so ties are broken by index.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-d vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    theta = _simplex_threshold(np.sort(v, kind="stable")[::-1])
    return np.maximum(v - theta, 0.0)


def _project_spectrahedron_arr(b: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(b)
    # eigh returns the eigenvalues ascending, so no sort is needed
    w = np.maximum(vals - _simplex_threshold(vals[::-1]), 0.0)
    x = (vecs * w) @ vecs.T
    return 0.5 * (x + x.T)


def project_spectrahedron(a: SymMatrix) -> SymMatrix:
    """Frobenius-nearest matrix in {X >= 0, tr X = 1}.

    Computed by eigendecomposition followed by a simplex projection of
    the eigenvalues.
    """
    if not isinstance(a, SymMatrix):
        a = SymMatrix(a)
    return SymMatrix(_project_spectrahedron_arr(a.a))


def _soft_threshold_arr(b: np.ndarray, t: float) -> np.ndarray:
    """sign(b) * max(|b| - t, 0)."""
    mag = np.abs(b)
    mag -= t
    np.maximum(mag, 0.0, out=mag)
    y = np.sign(b)
    y *= mag
    return y


def soft_threshold(a: SymMatrix, t: float) -> SymMatrix:
    """Entrywise shrinkage sign(a_ij) * max(|a_ij| - t, 0); preserves symmetry."""
    if not isinstance(a, SymMatrix):
        a = SymMatrix(a)
    if not np.isfinite(t) or t < 0:
        raise ValueError("threshold must be a nonnegative finite real")
    return SymMatrix(_soft_threshold_arr(a.a, float(t)))
