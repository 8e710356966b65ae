"""Semidefinite relaxation solver and optimality certificates.

The problem solved is

    maximize  <M, X> - rho * ||X||_{1,1}   over  X >= 0, tr(X) = 1,

by two-block ADMM on the equivalent split form with X constrained to the
spectrahedron and an auxiliary copy Y carrying the l1 term.  Both proximal
maps are exact: the X-update is a spectrahedron projection, the Y-update is
entrywise soft thresholding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import ObservationGraph
from .numerics import (
    EigDecomp,
    SymMatrix,
    _eigh_descending,
    _project_spectrahedron_arr,
    _soft_threshold_arr,
    eigh,
)

__all__ = [
    "SdpSolution",
    "KktReport",
    "WitnessReport",
    "solve_sdp",
    "solve_restricted",
    "support_of",
    "kkt_report",
    "witness_certificate",
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
    "SUPPORT_THRESHOLD",
]

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 20000
SUPPORT_THRESHOLD = 1e-4
# strictness margin for the certificate's strict inequalities
_STRICT_MARGIN = 1e-10
# convergence requires the residual test to hold this many consecutive
# iterations, which guards against single-iteration flukes
_CONVERGENCE_HOLD = 50


@dataclass(eq=False)
class SdpSolution:
    """Solver output: optimizer, diagnostics, and the recovered support."""

    x_hat: SymMatrix
    objective: float
    iterations: int
    primal_residual: float
    dual_residual: float
    # certified bound on suboptimality: lambda_max(M - rho Z) - objective,
    # with Z the dual variable z_dual (zero when rho == 0)
    gap: float
    support: frozenset
    converged: bool
    # exact l1 subgradient extracted from the scaled dual variable
    # (None when rho == 0, where the subgradient is immaterial)
    z_dual: np.ndarray | None = field(default=None, repr=False)
    # internal warm-start state (y, u, beta)
    _state: tuple = field(default=None, repr=False)


def _admm(
    m: np.ndarray,
    rho: float,
    tol: float,
    max_iter: int,
    state: tuple | None = None,
) -> SdpSolution:
    # the callers check max_iter >= 1, so the first projection assigns x
    # (and the loop assigns iterations) before anything reads them
    d = m.shape[0]
    if state is None:
        y = np.eye(d) / d
        u = np.zeros((d, d))
        beta = 1.0
    else:
        y, u, beta = state
        y, u = y.copy(), u.copy()

    # Frobenius norms are sqrt(v.v) on the raveled array, which is what
    # np.linalg.norm computes, without its dispatch
    sqrt = math.sqrt
    m_beta = m / beta
    t = rho / beta
    rn = sn = math.inf
    converged = False
    hold = 0
    for iterations in range(1, max_iter + 1):
        x = _project_spectrahedron_arr(y - u + m_beta)
        y_old = y
        y = _soft_threshold_arr(x + u, t)
        u += x
        u -= y

        xv, yv, uv = x.ravel(), y.ravel(), u.ravel()
        dxy = (x - y).ravel()
        dy = (y - y_old).ravel()
        rn = sqrt(dxy.dot(dxy)) / max(1.0, sqrt(xv.dot(xv)), sqrt(yv.dot(yv)))
        sn = beta * sqrt(dy.dot(dy)) / max(1.0, beta * sqrt(uv.dot(uv)))
        if max(rn, sn) <= tol:
            hold += 1
            if hold >= _CONVERGENCE_HOLD:
                converged = True
                break
        else:
            hold = 0
        # rebalance the penalty only while far from convergence
        if max(rn, sn) >= 100.0 * tol:
            if rn > 10.0 * sn and beta < 1e6:
                beta *= 2.0
                u /= 2.0
                m_beta = m / beta
                t = rho / beta
            elif sn > 10.0 * rn and beta > 1e-6:
                beta /= 2.0
                u *= 2.0
                m_beta = m / beta
                t = rho / beta

    x_hat = SymMatrix(x)
    objective = float((m * x_hat.a).sum()) - rho * float(np.abs(x_hat.a).sum())
    z_dual = None
    if rho > 0:
        z_dual = np.clip(beta * u / rho, -1.0, 1.0)
    # weak duality: lambda_max(M - rho Z) bounds the optimum for any
    # |Z|_max <= 1, so this is a certified bound on suboptimality
    dual_m = m if z_dual is None else m - rho * z_dual
    gap = float(np.linalg.eigvalsh(dual_m)[-1]) - objective
    return SdpSolution(
        x_hat=x_hat,
        objective=objective,
        iterations=iterations,
        primal_residual=rn,
        dual_residual=sn,
        gap=gap,
        support=support_of(x_hat),
        converged=converged,
        z_dual=z_dual,
        _state=(y, u, beta),
    )


def _check_solver_args(rho: float, tol: float, max_iter: int) -> None:
    if not np.isfinite(rho) or rho < 0:
        raise ValueError("rho must be a nonnegative finite real")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")


def solve_sdp(
    m: SymMatrix,
    rho: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    warm_start: SdpSolution | None = None,
) -> SdpSolution:
    """Solve the l1-penalized spectrahedron problem.

    Residuals are Frobenius norms normalized by the iterate scale;
    convergence means max(primal, dual) <= tol.  A run that hits max_iter
    is returned with converged=False rather than raising.
    """
    if not isinstance(m, SymMatrix):
        m = SymMatrix(m)
    _check_solver_args(rho, tol, max_iter)
    state = warm_start._state if warm_start is not None else None
    return _admm(m.a, float(rho), tol, max_iter, state)


def solve_restricted(
    m: SymMatrix,
    rho: float,
    support,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SdpSolution:
    """Solve with the optimizer constrained to support x support.

    Solves the |J| x |J| subproblem and embeds the optimizer back into the
    full dimension.
    """
    if not isinstance(m, SymMatrix):
        m = SymMatrix(m)
    _check_solver_args(rho, tol, max_iter)
    idx, _ = _support_arrays(m.dim, support)
    sub = _admm(m.a[np.ix_(idx, idx)], float(rho), tol, max_iter, None)
    x = np.zeros((m.dim, m.dim))
    x[np.ix_(idx, idx)] = sub.x_hat.a
    x_hat = SymMatrix(x)
    return replace(
        sub, x_hat=x_hat, support=support_of(x_hat), z_dual=None, _state=None
    )


def support_of(x_hat: SymMatrix, threshold: float = SUPPORT_THRESHOLD) -> frozenset:
    """Indices whose diagonal exceeds threshold times the max diagonal entry."""
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    if not isinstance(x_hat, SymMatrix):
        x_hat = SymMatrix(x_hat)
    dg = np.diag(x_hat.a)
    mx = float(dg.max(initial=0.0))
    if mx <= 0.0:
        return frozenset()
    return frozenset(int(i) for i in np.nonzero(dg > threshold * mx)[0])


@dataclass(frozen=True)
class KktReport:
    """Stationarity/feasibility residuals of a candidate optimizer."""

    mu_hat: float
    stationarity_residual: float
    trace_violation: float
    min_eigenvalue: float


def kkt_report(
    m: SymMatrix,
    rho: float,
    x_hat: SymMatrix,
    z_hat: np.ndarray | None = None,
) -> KktReport:
    """Evaluate the first-order optimality system at x_hat.

    A subgradient Z of the l1 term is taken from `z_hat` when provided
    (e.g. the solver's dual variable); otherwise it is reconstructed as
    sign(x) on the numerically nonzero entries and clip(m/rho, -1, 1)
    elsewhere.  The report contains mu = lambda_1(M - rho Z), the
    stationarity residual ||(M - rho Z) X - mu X||_max and the feasibility
    violations of X.
    """
    if not isinstance(m, SymMatrix):
        m = SymMatrix(m)
    if not isinstance(x_hat, SymMatrix):
        x_hat = SymMatrix(x_hat)
    rho = float(rho)
    x = x_hat.a
    if z_hat is not None:
        z = np.clip(np.asarray(z_hat, dtype=float), -1.0, 1.0)
    elif rho > 0:
        cutoff = 1e-8 * max(1.0, float(np.abs(x).max(initial=0.0)))
        z = np.where(np.abs(x) > cutoff, np.sign(x), np.clip(m.a / rho, -1.0, 1.0))
        z = 0.5 * (z + z.T)
    else:
        z = np.zeros_like(x)
    a = m.a - rho * z
    mu = float(np.linalg.eigvalsh(a)[-1])
    stationarity = float(np.abs(a @ x - mu * x).max(initial=0.0))
    trace_violation = abs(float(np.trace(x)) - 1.0)
    min_eig = float(np.linalg.eigvalsh(x)[0])
    return KktReport(
        mu_hat=mu,
        stationarity_residual=stationarity,
        trace_violation=trace_violation,
        min_eigenvalue=min_eig,
    )


@dataclass(frozen=True)
class WitnessReport:
    """Primal-dual witness evaluation for a claimed support.

    The four conditions are, in order: sign agreement between the
    restricted leading eigenvector and the true one; max-norm of the
    constructed off-support dual block strictly below 1; the restricted
    top eigenvalue being the global one together with the tail dual block
    strictly below 1 in max-norm; and a positive eigengap in the
    restricted penalized block.  `certified` is their conjunction and
    implies the solver's optimum is unique with the claimed support.
    """

    cond_sign: bool
    cond_offblock: bool
    offblock_max: float
    cond_eig: bool
    lambda1_restricted: float
    lambda1_full: float
    tailblock_max: float
    cond_gap: bool
    eigengap: float
    certified: bool


def _support_arrays(d: int, support) -> tuple[np.ndarray, np.ndarray]:
    idx = np.asarray(sorted(set(int(i) for i in support)), dtype=int)
    if idx.size == 0:
        raise ValueError("support must be nonempty")
    if idx[0] < 0 or idx[-1] >= d:
        raise ValueError("support index out of range")
    keep = np.ones(d, dtype=bool)
    keep[idx] = False
    comp = np.flatnonzero(keep)
    return idx, comp


def _checked_decomposition(
    m_star: SymMatrix, support
) -> tuple[EigDecomp, np.ndarray, np.ndarray]:
    """eigh(m_star) and the support/complement index arrays, after checking
    that the leading eigenvector is supported exactly on `support`."""
    dec = eigh(m_star)
    u1 = dec.vectors[:, 0]
    idx, comp = _support_arrays(m_star.dim, support)
    tol = 1e-8 * float(np.abs(u1).max())
    if np.any(np.abs(u1[idx]) <= tol) or (
        comp.size and np.any(np.abs(u1[comp]) > tol)
    ):
        raise ValueError(
            "support does not match the nonzero pattern of the leading eigenvector"
        )
    return dec, idx, comp


def witness_certificate(
    m_star: SymMatrix,
    g: ObservationGraph,
    m: SymMatrix,
    rho: float,
    support,
) -> WitnessReport:
    """Construct the primal-dual witness for support J and test its conditions.

    This is an oracle-side diagnostic: the tail dual block needs the
    expected observation A o M*, hence the ground truth.  Requires rho > 0
    since the off-support dual block divides by rho * ||x||_1.
    """
    if not isinstance(m_star, SymMatrix):
        m_star = SymMatrix(m_star)
    if not isinstance(m, SymMatrix):
        m = SymMatrix(m)
    if m_star.dim != m.dim or g.n != m.dim:
        raise ValueError("dimension mismatch between matrices and graph")
    rho = float(rho)
    if not rho > 0:
        raise ValueError("rho must be positive for the witness construction")

    d = m.dim
    dec, idx, comp = _checked_decomposition(m_star, support)
    u1 = dec.vectors[:, 0]
    s = idx.size

    z = np.sign(u1[idx])
    b = m.a[np.ix_(idx, idx)] - rho * np.outer(z, z)
    bvals, bvecs = _eigh_descending(b)
    x = bvecs[:, 0]
    if float(z @ x) < 0:
        x = -x

    cond_sign = bool(np.all(np.sign(x) == z))
    lam1_restricted = float(bvals[0])
    eigengap = float(bvals[0] - bvals[1]) if s >= 2 else math.inf
    cond_gap = eigengap > _STRICT_MARGIN

    if comp.size:
        w = (m.a[np.ix_(comp, idx)] @ x) / (rho * float(np.abs(x).sum()))
        offblock_max = float(np.abs(w).max())
        expected = g.mask * m_star.a
        zcc = (m.a[np.ix_(comp, comp)] - expected[np.ix_(comp, comp)]) / rho
        tailblock_max = float(np.abs(zcc).max(initial=0.0))
        z_full = np.zeros((d, d))
        z_full[np.ix_(idx, idx)] = np.outer(z, z)
        z_full[np.ix_(comp, idx)] = np.outer(w, z)
        z_full[np.ix_(idx, comp)] = np.outer(z, w)
        z_full[np.ix_(comp, comp)] = zcc
        lam1_full = float(np.linalg.eigvalsh(m.a - rho * z_full)[-1])
    else:
        offblock_max = 0.0
        tailblock_max = 0.0
        lam1_full = lam1_restricted

    cond_offblock = offblock_max < 1.0 - _STRICT_MARGIN
    eig_equal = (lam1_full - lam1_restricted) <= 1e-9 * (1.0 + abs(lam1_restricted))
    cond_eig = bool(eig_equal and tailblock_max < 1.0 - _STRICT_MARGIN)

    return WitnessReport(
        cond_sign=cond_sign,
        cond_offblock=cond_offblock,
        offblock_max=offblock_max,
        cond_eig=cond_eig,
        lambda1_restricted=lam1_restricted,
        lambda1_full=lam1_full,
        tailblock_max=tailblock_max,
        cond_gap=cond_gap,
        eigengap=eigengap,
        certified=bool(cond_sign and cond_offblock and cond_eig and cond_gap),
    )
