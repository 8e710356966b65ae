"""Semidefinite relaxation solver and optimality certificates.

The problem solved is

    maximize  <M, X> - rho * ||X||_{1,1}   over  X >= 0, tr(X) = 1,

by two-block ADMM on the equivalent split form with X constrained to the
spectrahedron and an auxiliary copy Y carrying the l1 term.  Both proximal
maps are exact: the X-update is a spectrahedron projection, the Y-update is
entrywise soft thresholding.  The iteration is a fixed-point map of the
Douglas-Rachford variable S = X + U, which is extrapolated by safeguarded
type-II Anderson acceleration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import ObservationGraph, _support_arrays
from .numerics import (
    EigDecomp,
    SymMatrix,
    _check_max_iter,
    _check_nonnegative_finite,
    _check_positive_finite,
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
# below 100 * tol the penalty is rebalanced at most once per this many
# iterations: often enough that rn and sn cannot drift apart for good,
# rarely enough that the iterates can settle between rescalings
_REBALANCE_EVERY = 50
# Anderson acceleration of the Douglas-Rachford variable: the number of
# differences kept; how far the residual at an extrapolated point may
# exceed the last accepted one before the point is dropped; and the ridge
# of the least-squares weights, relative to |g|^2.  The ridge bounds the
# weights by 1 / sqrt(_AA_RIDGE), and it leaves s at the plain image when
# the differences of g are negligible next to g, as when s drifts by a
# constant step; there, unregularized weights fit rounding noise, and
# they sent an iterate to 1e17 or kept solves from converging
_AA_MEMORY = 5
_AA_SAFEGUARD = 2.0
_AA_RIDGE = 1e-10


class _Anderson:
    """Safeguarded type-II Anderson acceleration (Walker & Ni 2011) of a
    fixed-point map s -> f(s) on arrays of n entries.

    It keeps the differences of the plain image f and of the fixed-point
    residual g = f - s between consecutive accepted points, in ring slots,
    with the Gram matrix of the g differences updated one row per push.
    The type-II step is s = f - (dS + dG) gamma = f - dF gamma, where gamma
    minimizes |g - dG gamma|^2 + _AA_RIDGE |g|^2 |gamma|^2.  `rejected`
    counts the extrapolated points the safeguard dropped and `resets` the
    resets that emptied a nonempty history.
    """

    __slots__ = ("dfv", "dgv", "gram", "filled", "slot", "f_acc", "g_acc",
                 "gn_acc", "extrapolated", "rejected", "resets")

    def __init__(self, n: int):
        self.dfv = np.zeros((_AA_MEMORY, n))
        self.dgv = np.zeros((_AA_MEMORY, n))
        self.gram = np.zeros((_AA_MEMORY, _AA_MEMORY))
        self.filled = self.slot = self.rejected = self.resets = 0
        self.f_acc = None
        self.extrapolated = False

    def reset(self) -> None:
        """Empty the history: the next point starts it afresh."""
        self.resets += self.filled > 0
        self.f_acc = None
        self.filled = self.slot = 0
        self.extrapolated = False

    def step(self, s: np.ndarray, f: np.ndarray) -> np.ndarray:
        """The next point after s, whose plain image is f."""
        g = f - s
        gv = g.ravel()
        # sqrt(v.v) is what np.linalg.norm computes, without its dispatch
        gn = math.sqrt(gv.dot(gv))
        if self.extrapolated and gn > _AA_SAFEGUARD * self.gn_acc:
            # safeguard: drop the extrapolated point and take the plain
            # step from the last accepted one
            self.rejected += 1
            self.extrapolated = False
            return self.f_acc
        dfv, dgv, filled, slot = self.dfv, self.dgv, self.filled, self.slot
        if self.f_acc is not None:
            np.subtract(f.ravel(), self.f_acc.ravel(), out=dfv[slot])
            np.subtract(gv, self.g_acc, out=dgv[slot])
            filled = self.filled = min(filled + 1, _AA_MEMORY)
            # einsum, not a BLAS product: each entry is then the same
            # sum as dg_i . dg_j on its own, whatever the slot
            row = np.einsum("ij,j->i", dgv[:filled], dgv[slot])
            self.gram[slot, :filled] = row
            self.gram[:filled, slot] = row
            self.slot = (slot + 1) % _AA_MEMORY
        self.f_acc, self.g_acc, self.gn_acc = f, gv, gn
        if not filled:
            return f
        gk = self.gram[:filled, :filled].copy()
        gk.flat[:: filled + 1] += _AA_RIDGE * gn * gn
        try:
            gamma = np.linalg.solve(gk, dgv[:filled] @ gv)
        except np.linalg.LinAlgError:
            return f
        self.extrapolated = True
        return f - (gamma @ dfv[:filled]).reshape(f.shape)


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


def _certificate(
    m: np.ndarray, rho: float, x: np.ndarray, top: float, tol: float
) -> tuple[float, float, bool]:
    """Objective of x, its certified gap, and whether gap <= tol max(1, |obj|).

    `top` is lambda_max(M - rho Z) for a dual Z (M itself at rho == 0).
    Weak duality makes it an upper bound on the optimum for any symmetric
    |Z|_max <= 1, so the gap top minus the objective bounds the
    suboptimality of x.
    """
    objective = float((m * x).sum()) - rho * float(np.abs(x).sum())
    gap = float(top) - objective
    return objective, gap, gap <= tol * max(1.0, abs(objective))


def _admm(
    m: np.ndarray,
    rho: float,
    tol: float,
    max_iter: int,
    state: tuple | None = None,
) -> SdpSolution:
    # the callers check max_iter >= 1, so the loop assigns x, iterations
    # and, on its last iteration at the latest, the certificate
    d = m.shape[0]
    if state is None:
        y = np.eye(d) / d
        u = np.zeros((d, d))
        beta = 1.0
    else:
        y, u, beta = state
    # the Douglas-Rachford variable: y = soft(s, rho / beta) and u = s - y
    s = y + u
    # s is extrapolated by Anderson acceleration; a rebalance empties its
    # history
    aa = _Anderson(d * d)

    # Frobenius norms are sqrt(v.v) on the raveled array, which is what
    # np.linalg.norm computes, without its dispatch
    sqrt = math.sqrt
    m_beta = m / beta
    t = rho / beta
    rn = sn = math.inf
    rebalanced_at = 0
    for iterations in range(1, max_iter + 1):
        x = _project_spectrahedron_arr(y - u + m_beta)
        f = x + u
        s = aa.step(s, f)
        y_old = y
        y = _soft_threshold_arr(s, t)
        u = s - y

        xv, yv, uv = x.ravel(), y.ravel(), u.ravel()
        dxy = (x - y).ravel()
        dy = (y - y_old).ravel()
        rn = sqrt(dxy.dot(dxy)) / max(1.0, sqrt(xv.dot(xv)), sqrt(yv.dot(yv)))
        sn = beta * sqrt(dy.dot(dy)) / max(1.0, beta * sqrt(uv.dot(uv)))
        # the gap's eigvalsh runs once the residual test holds and on the last
        # iteration; a rebalance after that leaves beta u, hence z_dual, as is
        residual_ok = max(rn, sn) <= tol
        if residual_ok or iterations == max_iter:
            z_dual = np.clip(beta * u / rho, -1.0, 1.0) if rho > 0 else None
            top = np.linalg.eigvalsh(m if z_dual is None else m - rho * z_dual)[-1]
            objective, gap, certified = _certificate(m, rho, x, top, tol)
            converged = residual_ok and certified
            if converged:
                break
        # residual balancing: every iteration while far from convergence,
        # then at most once per _REBALANCE_EVERY iterations
        if max(rn, sn) < 100.0 * tol and iterations - rebalanced_at < _REBALANCE_EVERY:
            continue
        if rn > 10.0 * sn and beta < 1e6:
            beta *= 2.0
            u /= 2.0
        elif sn > 10.0 * rn and beta > 1e-6:
            beta /= 2.0
            u *= 2.0
        else:
            continue
        m_beta = m / beta
        t = rho / beta
        rebalanced_at = iterations
        # the rescaled u moves s onto another map: restart the history there
        s = y + u
        aa.reset()

    x_hat = SymMatrix(x)
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
    _check_nonnegative_finite(rho, "rho")
    _check_positive_finite(tol, "tol")
    _check_max_iter(max_iter)


def solve_sdp(
    m: SymMatrix,
    rho: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    warm_start: SdpSolution | None = None,
) -> SdpSolution:
    """Solve the l1-penalized spectrahedron problem.

    Residuals are Frobenius norms normalized by the iterate scale.  A solve
    converges on the first iteration where max(primal, dual) <= tol and
    the certified duality gap lambda_max(M - rho Z) - objective, with Z the
    clipped scaled dual variable, is <= tol * max(1, |objective|); `gap`
    is then the value that passed.  A run that hits max_iter is returned
    with converged=False rather than raising.  `warm_start` must be a
    solution of a problem of the same dimension.
    """
    m = SymMatrix(m)
    _check_solver_args(rho, tol, max_iter)
    state = warm_start._state if warm_start is not None else None
    if state is not None and state[0].shape != (m.dim, m.dim):
        raise ValueError("warm_start comes from a problem of another dimension")
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


def support_of(x_hat: SymMatrix) -> frozenset:
    """Indices whose diagonal exceeds SUPPORT_THRESHOLD times the max
    diagonal entry."""
    x_hat = SymMatrix(x_hat)
    dg = np.diag(x_hat.a)
    mx = float(dg.max(initial=0.0))
    if mx <= 0.0:
        return frozenset()
    return frozenset(int(i) for i in np.nonzero(dg > SUPPORT_THRESHOLD * mx)[0])


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
    m = SymMatrix(m)
    x_hat = SymMatrix(x_hat)
    rho = float(rho)
    _check_nonnegative_finite(rho, "rho")
    x = x_hat.a
    if z_hat is not None:
        z = np.clip(np.asarray(z_hat, dtype=float), -1.0, 1.0)
        if z.shape != (m.dim, m.dim):
            raise ValueError(f"z_hat must have shape {(m.dim, m.dim)}, got {z.shape}")
        if np.isnan(z).any():
            raise ValueError("z_hat must not contain NaN")
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


def _checked_decomposition(
    m_star: SymMatrix, support
) -> tuple[EigDecomp, np.ndarray, np.ndarray]:
    """eigh(m_star) and the support/complement index arrays, after checking
    that the leading eigenvector is supported exactly on `support`."""
    dec = eigh(m_star)
    u1 = dec.vectors[:, 0]
    idx, comp = _support_arrays(m_star.dim, support)
    tol = 1e-8 * float(np.abs(u1).max())
    if np.any(np.abs(u1[idx]) <= tol) or np.any(np.abs(u1[comp]) > tol):
        raise ValueError(
            "support does not match the nonzero pattern of the leading eigenvector"
        )
    return dec, idx, comp


def _rank_one(
    m: np.ndarray, rho: np.ndarray, idx: np.ndarray, comp: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rank-one witness on J = idx with sign pattern z at each rho_k:
    the eigenvalues of M_JJ - rho_k z z^T and its top eigenvector v_k from
    one stacked eigh, whether sign(v_k) == +-z, and r_k, which holds z on J
    and w_k = M_{Jc,J} v_k / (rho_k ||v_k||_1) on Jc = comp for v_k
    oriented along z: (M - rho_k Z)_{Jc,J} v_k = 0 for a dual Z whose
    columns on J are r_k z^T.

    w_k is one product per point, taken on v_k as LAPACK returns it and
    negated together with v_k: numpy rounds M_{Jc,J} v differently on a
    strided v and on a contiguous copy, and negation is exact, so w_k does
    not depend on the sign LAPACK gives v_k.  Stacked calls return the
    bytes of single calls, so each point has the bytes of its own witness.
    """
    b = m[idx[:, None], idx] - rho[:, None, None] * np.outer(z, z)
    vals, vecs = np.linalg.eigh(b)
    v = vecs[:, :, -1]
    # sign(v) == z after orienting v along z exactly when sign(v) == +-z,
    # that is when |sign(v) . z| = |J|
    sign_ok = np.abs(np.sign(v) @ z) == z.size
    m_cj = m[comp[:, None], idx]
    r = np.empty((rho.size, m.shape[0]))
    r[:, idx] = z
    for k, (vk, rk) in enumerate(zip(v, rho.tolist())):
        w = (m_cj @ vk) / (rk * float(np.abs(vk).sum()))
        r[k, comp] = -w if float(z @ vk) < 0 else w
    return vals, v, sign_ok, r


# At a subnormal rho, M / rho and w can overflow: the clip bounds M / rho,
# and an overflowing w fails |w|_max <= 1 and leaves the declined
# candidate's state not finite, so it is not handed out as a warm start.
@np.errstate(over="ignore")
def _witness_window(
    m: np.ndarray,
    rhos: tuple[float, ...],
    prev: SdpSolution,
    tol: float,
) -> tuple[list[SdpSolution], SdpSolution | None]:
    """The rank-one witness at rhos[0], rhos[1], ... in turn, each point
    built on the support J and sign pattern z of the point before it.

    The first point takes J = prev.support and z, the sign pattern of the
    top eigenvector of prev.x_hat on J x J.  Each point's witness is
    X = v v^T, with v the top eigenvector of M_JJ - rho z z^T oriented
    along z, and the dual Z with z z^T on J x J, w z^T and its transpose
    across, where w = M_{Jc,J} v / (rho ||v||_1) (see _rank_one), and
    clip(M / rho, -1, 1) on Jc x Jc, so |Z|_max <= 1 whenever
    |w|_max <= 1.  The point is certified when sign(v) == z, |w|_max <= 1
    and its gap passes _certificate.  The next point builds on that X: the
    walk goes on while X keeps all of J.  Then X's top eigenvector on J is
    +-v, whose every entry exceeds 1e-2 of the largest in magnitude, so
    its sign pattern is +-z, and the window's z serves the next point.
    Negating z negates v and w with it and leaves X and Z as they are.

    So one _rank_one call serves the window, and one eigvalsh of the
    stack M - rho_k Z_k the gaps.

    The walk stops at the first point that is not certified; or after a
    certified point whose X drops part of J; or at the end of the window.
    Returns (certified, start): the certified points in grid order, and
    the warm start of the ADMM fallback at the point after them, None
    when no fallback is due (the walk did not stop at a declined point).
    start is the candidate built and declined there, with objective nan
    and gap inf when the sign or off-block test failed, when its state is
    finite; otherwise, as when z has a zero entry and no candidate is
    built, the last certified point, or prev.  Each point's warm-start
    state is (X, rho Z / beta, beta) with beta from prev, the ADMM fixed
    point when the witness is certified; its X and Z are read-only views
    of the window's stacks.  Requires every rho > 0.

    A window depends on prev alone, so tune_rho may size windows freely:
    it doubles a window while every point certifies.
    """
    d = m.shape[0]
    idx, comp = _support_arrays(d, prev.support)
    z = np.sign(np.linalg.eigh(prev.x_hat.a[idx[:, None], idx])[1][:, -1])
    if not np.all(z):
        return [], prev
    rho = np.array(rhos)
    beta = prev._state[2]

    _, v_top, sign_ok, r = _rank_one(m, rho, idx, comp, z)
    dg = v_top * v_top
    in_support = dg > SUPPORT_THRESHOLD * dg.max(axis=1, keepdims=True)
    passed = sign_ok & (np.abs(r[:, comp]).max(axis=1, initial=0.0) <= 1.0)
    # p points are built: up to the first that is declined or drops part
    # of J, or the whole window; the first q of them passed and get a gap
    stops = ~(passed & np.all(in_support, axis=1))
    stops[-1] = True
    p = int(stops.argmax()) + 1
    q = p if passed[p - 1] else p - 1

    x = np.zeros((p, d, d))
    x[:, idx[:, None], idx] = v_top[:p, :, None] * v_top[:p, None, :]
    z_dual = np.clip(m / rho[:p, None, None], -1.0, 1.0)
    z_dual[:, idx] = z[:, None] * r[:p, None, :]
    z_dual[:, :, idx] = r[:p, :, None] * z
    x.setflags(write=False)
    z_dual.setflags(write=False)
    tops = np.linalg.eigvalsh(m - rho[:q, None, None] * z_dual[:q])[:, -1]
    outcomes = [_certificate(m, rhos[i], x[i], tops[i], tol) for i in range(q)]
    outcomes.append((math.nan, math.inf, False))
    # the first point that is not certified, p when every point is
    c = [ok for _, _, ok in outcomes].index(False)

    def point(i):
        objective, gap, ok = outcomes[i]
        # X = v v^T is exactly symmetric: SymMatrix's validation and
        # (A + A^T) / 2 would keep its bytes
        x_hat = object.__new__(SymMatrix)
        x_hat.a = x[i]
        return SdpSolution(
            x_hat=x_hat,
            objective=objective,
            iterations=0,
            primal_residual=0.0,
            dual_residual=0.0,
            gap=gap,
            support=frozenset(idx[in_support[i]].tolist()),
            converged=ok,
            z_dual=z_dual[i],
            _state=(x_hat.a, rhos[i] * z_dual[i] / beta, beta),
        )

    certified = [point(i) for i in range(c)]
    if c == p:
        return certified, None
    start = point(c)
    if not np.isfinite(start._state[1]).all():
        start = certified[-1] if certified else prev
    return certified, start


def witness_certificate(
    m_star: SymMatrix,
    g: ObservationGraph,
    m: SymMatrix,
    rho: float,
    support,
) -> WitnessReport:
    """Construct the primal-dual witness for support J and test its conditions.

    This is an oracle-side diagnostic: the tail dual block needs the
    expected observation A o M*, hence the ground truth.  Requires a finite
    rho > 0 since the off-support dual block divides by rho * ||x||_1.
    """
    m_star = SymMatrix(m_star)
    m = SymMatrix(m)
    if m_star.dim != m.dim or g.n != m.dim:
        raise ValueError("dimension mismatch between matrices and graph")
    rho = float(rho)
    if not rho > 0:
        raise ValueError("rho must be positive for the witness construction")
    _check_nonnegative_finite(rho, "rho")

    dec, idx, comp = _checked_decomposition(m_star, support)
    u1 = dec.vectors[:, 0]
    s = idx.size

    z = np.sign(u1[idx])
    bvals, _, sign_ok, r = (a[0] for a in _rank_one(m.a, np.array([rho]), idx, comp, z))
    cond_sign = bool(sign_ok)
    # the dual: r z^T on J's columns, its transpose on J's rows, and
    # (M - A o M*) / rho on Jc x Jc
    z_full = (m.a - g.mask * m_star.a) / rho
    tail = z_full[comp[:, None], comp]
    z_full[idx] = np.outer(z, r)
    z_full[:, idx] = np.outer(r, z)
    lam1_restricted = float(bvals[-1])
    eigengap = float(bvals[-1] - bvals[-2]) if s >= 2 else math.inf
    cond_gap = eigengap > _STRICT_MARGIN

    offblock_max = float(np.abs(r[comp]).max(initial=0.0))
    tailblock_max = float(np.abs(tail).max(initial=0.0))
    lam1_full = lam1_restricted
    if comp.size:
        lam1_full = float(np.linalg.eigvalsh(m.a - rho * z_full)[-1])

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
