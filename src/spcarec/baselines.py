"""Comparison methods: diagonal thresholding, thresholded power iteration,
and nuclear-norm completion.

Missing entries are treated as zero by the thresholding baselines; the
completion baseline instead fills them by nuclear-norm minimization, and the
experiments solve the filled matrix with the spectrahedron solver.
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
from .sdp import _Anderson

__all__ = [
    "BaselineResult",
    "dtspca",
    "itspca",
    "complete_nuclear",
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
) -> BaselineResult:
    """Power iteration with entrywise soft thresholding of the iterate.

    Starts from the normalized all-ones vector.  Raises ThresholdTooLarge
    if the iterate collapses to zero.  A run that stops at max_iter returns
    its support with `converged` False in the diagnostics.  The step size
    is delta = min(||w - v||, ||w + v||) for the new iterate w: -v has the
    support of v, so a run whose top-magnitude eigenvalue is negative,
    where the iterate flips sign every step, still converges.

    Each step is a function of the iterate's bytes alone, so once iterate
    `it` repeats iterate j exactly, the run cycles with period
    p = it - j and never converges.  It then stops and returns iteration
    j + 1 + ((max_iter - j - 1) mod p) of the cycle, whose iterate and
    step size equal those of iteration max_iter; the diagnostics read as
    if the loop had run to max_iter, and `cycle_period` is p (0 for a run
    that did not close a cycle).  The iterates of a cycle can differ in
    support (a period-2 cycle can flip between two orthogonal iterates,
    delta = sqrt 2), so the support returned at the cap can depend on
    max_iter mod p.
    """
    m = SymMatrix(m)
    _check_nonnegative_finite(threshold, "threshold")
    _check_positive_finite(tol, "tol")
    _check_max_iter(max_iter)
    d = m.dim
    v = np.ones(d) / np.sqrt(d)
    a = m.a
    delta = np.inf
    it = period = 0
    # trail[i] is (iterate, step size) of iteration i; seen maps an
    # iterate's bytes to the first iteration that reached it
    trail = [(v, delta)]
    seen = {v.tobytes(): 0}
    for it in range(1, max_iter + 1):
        w = _soft_threshold_arr(a @ v, threshold)
        # math.sqrt(x.dot(x)) is what np.linalg.norm computes for a 1-d float x
        nw = math.sqrt(w.dot(w))
        if nw == 0.0:
            raise ThresholdTooLarge(
                f"iterate collapsed to zero at threshold {threshold}"
            )
        w /= nw
        diff, flip = w - v, w + v
        delta = math.sqrt(min(diff.dot(diff), flip.dot(flip)))
        v = w
        if delta <= tol:
            break
        trail.append((v, delta))
        j = seen.setdefault(v.tobytes(), it)
        if j < it:
            period = it - j
            v, delta = trail[j + 1 + (max_iter - j - 1) % period]
            it = max_iter
            break
    support = frozenset(int(i) for i in np.nonzero(v)[0])
    return BaselineResult(
        support=support,
        diagnostics={
            "threshold": threshold,
            "iterations": it,
            "delta": float(delta),
            "converged": delta <= tol,
            "cycle_period": period,
        },
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
    min ||W||_*  s.t.  W symmetric, W agrees with m where `observed` (bool),
    as a fixed-point map of the Douglas-Rachford variable s = y + u
    extrapolated by the solver's Anderson acceleration.

    y = P(s) pins the observed entries, u = s - y, w = _svt(y - u, 1) and
    the plain image is f = w + u.  m and `observed` must be exactly
    symmetric; the extrapolated s is symmetrized, so every iterate is
    exactly symmetric and the thresholding step is one symmetric
    eigendecomposition.  A run converges when the residual
    max(|w - y|_max, |y - y_old|_max) <= tol and the certified gap is
    <= tol max(1, ||Y||_*); the gap is evaluated once the residual test
    holds, and on the last iteration.  The callers pass a positive finite
    tol and max_iter >= 1.
    """
    y = np.where(observed, m, 0.0)
    u = np.zeros_like(y)
    s = y
    pinned = m[observed]
    aa = _Anderson(y.size)
    for it in range(1, max_iter + 1):
        w = _svt(y - u, 1.0)
        s = aa.step(s, w + u)
        # gamma @ dF need not round to a symmetric sum; 0.5 (s + s^T)
        # leaves an exactly symmetric s as it is
        s = 0.5 * (s + s.T)
        y_old = y
        y = s.copy()
        y[observed] = pinned
        u = s - y
        residual = max(float(np.abs(w - y).max()), float(np.abs(y - y_old).max()))
        residual_ok = residual <= tol
        if residual_ok or it == max_iter:
            # the certified gap ||Y||_* - <M_Omega, Lambda>: the dual
            # Lambda = -u / max(1, ||u||_2) vanishes off the observed set,
            # where y agrees with m, so <M_Omega, Lambda> = <Y, Lambda> is a
            # lower bound on the least nuclear norm (weak duality)
            lam = u / -max(1.0, float(np.abs(np.linalg.eigvalsh(u)).max()))
            upper = float(np.abs(np.linalg.eigvalsh(y)).sum())
            gap = upper - float(y.ravel().dot(lam.ravel()))
            converged = residual_ok and gap <= tol * max(1.0, upper)
            if converged:
                break
    return y, {
        "iterations": it, "residual": residual, "gap": gap, "converged": converged
    }


def complete_nuclear(m: SymMatrix, g: ObservationGraph) -> SymMatrix:
    """Fill the unobserved entries by nuclear-norm minimization.

    The returned matrix is symmetric and agrees exactly with the observed
    entries of m.  The solve runs at tol 1e-6 for at most 5000 iterations;
    its certified gap is the stopping rule and is not returned.
    """
    m = SymMatrix(m)
    if not g.mask.any():
        raise ValueError("observation graph has no edges")
    if g.n != m.dim:
        raise ValueError("graph and matrix dimension mismatch")
    y, _ = _complete_nuclear(m.a, g.mask, 1e-6, 5000)
    return SymMatrix(y)

