"""Comparison methods: diagonal thresholding, thresholded power iteration,
and nuclear-norm completion followed by the penalized spectrahedron solver.

Missing entries are treated as zero by the thresholding baselines; the
completion baseline instead fills them by nuclear-norm minimization before
solving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ThresholdTooLarge
from .graph import ObservationGraph
from .numerics import (
    SymMatrix,
    _check_max_iter,
    _check_nonnegative_finite,
    _check_positive_finite,
    _soft_threshold_arr,
)
from .sdp import SdpSolution, solve_sdp, support_of

__all__ = [
    "BaselineResult",
    "dtspca",
    "itspca",
    "complete_nuclear",
    "mc_then_sdp",
]


@dataclass(frozen=True)
class BaselineResult:
    support: frozenset
    diagnostics: dict


def dtspca(m: SymMatrix, k: int) -> BaselineResult:
    """Support = indices of the k largest diagonal entries; ties go to the
    lowest index."""
    m = SymMatrix(m)
    if not 1 <= k <= m.dim:
        raise ValueError(f"k must be in [1, {m.dim}]")
    diag = np.diag(m.a)
    # lexsort: primary key descending diagonal, secondary ascending index
    order = np.lexsort((np.arange(m.dim), -diag))
    support = frozenset(int(i) for i in order[:k])
    return BaselineResult(
        support=support,
        diagnostics={"k": k, "kth_value": float(diag[order[k - 1]])},
    )


def itspca(
    m: SymMatrix,
    threshold: float,
    max_iter: int = 1000,
    tol: float = 1e-8,
    rng_seed: int | None = None,
) -> BaselineResult:
    """Power iteration with entrywise soft thresholding of the iterate.

    Starts from the normalized all-ones vector, or from a random unit
    vector when rng_seed is given.  Raises ThresholdTooLarge if the
    iterate collapses to zero.
    """
    m = SymMatrix(m)
    _check_nonnegative_finite(threshold, "threshold")
    _check_positive_finite(tol, "tol")
    _check_max_iter(max_iter)
    d = m.dim
    # math.sqrt(x.dot(x)) is what np.linalg.norm computes for a 1-d float x
    if rng_seed is None:
        v = np.ones(d) / np.sqrt(d)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
        v = rng.standard_normal(d)
        v /= math.sqrt(v.dot(v))
    a = m.a
    delta = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        w = _soft_threshold_arr(a @ v, threshold)
        nw = math.sqrt(w.dot(w))
        if nw == 0.0:
            raise ThresholdTooLarge(
                f"iterate collapsed to zero at threshold {threshold}"
            )
        w /= nw
        diff = w - v
        delta = math.sqrt(diff.dot(diff))
        v = w
        if delta <= tol:
            break
    support = frozenset(int(i) for i in np.nonzero(v)[0])
    return BaselineResult(
        support=support,
        diagnostics={"threshold": threshold, "iterations": it, "delta": float(delta)},
    )


def _svt(b: np.ndarray, t: float) -> np.ndarray:
    """Singular value thresholding of an exactly symmetric b.

    The singular values of a symmetric matrix are its eigenvalues'
    magnitudes, so shrinking them by t is soft thresholding of the
    eigenvalues.  The result is symmetrized like the spectrahedron
    projection, so it is exactly symmetric.
    """
    vals, vecs = np.linalg.eigh(b)
    w = (vecs * _soft_threshold_arr(vals, t)) @ vecs.T
    return 0.5 * (w + w.T)


def _complete_nuclear(
    m: np.ndarray,
    observed: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, dict]:
    """ADMM (penalty 1) with singular-value thresholding for
    min ||W||_*  s.t.  W symmetric, W agrees with m where `observed` (bool).

    m and `observed` must be exactly symmetric.  Every iterate then stays
    exactly symmetric, so the thresholding step is one symmetric
    eigendecomposition (`_svt`) and w + u is already the projection onto
    symmetric matrices.
    """
    _check_positive_finite(tol, "tol")
    _check_max_iter(max_iter)
    y = np.where(observed, m, 0.0)
    u = np.zeros_like(y)
    residual = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        w = _svt(y - u, 1.0)
        # projection onto {symmetric, observed entries pinned}
        y_new = w + u
        y_new[observed] = m[observed]
        u = u + w - y_new
        residual = max(
            float(np.abs(w - y_new).max()), float(np.abs(y_new - y).max())
        )
        y = y_new
        if residual <= tol:
            break
    info = {
        "iterations": it,
        "residual": residual,
        "converged": residual <= tol,
        "observed_violation": float(np.abs((y - m)[observed]).max(initial=0.0)),
    }
    return y, info


def _checked_observation(m, g: ObservationGraph) -> SymMatrix:
    m = SymMatrix(m)
    if not g.mask.any():
        raise ValueError("observation graph has no edges")
    if g.n != m.dim:
        raise ValueError("graph and matrix dimension mismatch")
    return m


def complete_nuclear(
    m: SymMatrix,
    g: ObservationGraph,
    tol: float = 1e-6,
    max_iter: int = 5000,
) -> SymMatrix:
    """Fill the unobserved entries by nuclear-norm minimization.

    The returned matrix is symmetric and agrees exactly with the observed
    entries of m.
    """
    m = _checked_observation(m, g)
    y, _ = _complete_nuclear(m.a, g.mask, tol, max_iter)
    return SymMatrix(y)


def mc_then_sdp(
    m: SymMatrix,
    g: ObservationGraph,
    rho: float,
    tol: float = 1e-6,
    max_iter: int = 5000,
) -> BaselineResult:
    """Nuclear-norm completion followed by the penalized spectrahedron solve."""
    m = _checked_observation(m, g)
    y, info = _complete_nuclear(m.a, g.mask, tol, max_iter)
    sol: SdpSolution = solve_sdp(SymMatrix(y), rho)
    return BaselineResult(
        support=support_of(sol.x_hat),
        diagnostics={
            "completion_iterations": info["iterations"],
            "completion_residual": info["residual"],
            "completion_converged": info["converged"],
            "solver_iterations": sol.iterations,
            "solver_converged": sol.converged,
        },
    )
