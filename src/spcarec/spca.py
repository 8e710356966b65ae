"""Support recovery, tuning of the penalty, and theoretical diagnostics.

The user-facing entry point is recover_support / tune_rho.  The remaining
functions evaluate the theory-side quantities (theoretical penalty choice,
rescaled difficulty parameter, sufficient-condition report) and need the
ground truth, the observation graph and the noise level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBaseline, Disconnected
from .graph import (
    ObservationGraph,
    _bipartite_max_degree,
    _support_arrays,
    block_quantities,
)
from .numerics import SymMatrix, _check_nonnegative_finite, spectral_norm
from .sdp import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    SdpSolution,
    _checked_decomposition,
    _witness_window,
    solve_sdp,
)

__all__ = [
    "TuningTrace",
    "InequalityRecord",
    "ConditionReport",
    "recover_support",
    "criterion",
    "tune_rho",
    "theoretical_rho",
    "rescaled_parameter",
    "sufficient_conditions_report",
    "DEFAULT_RHO_GRID",
]


def _grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """start, start + step, ... to stop, each rounded to 10 decimals; a grid
    of more than 1,000,000 points is refused before it is built."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError("grid start, stop and step must be finite")
    if step <= 0 or stop < start:
        raise ValueError("need step > 0 and stop >= start")
    steps = (stop - start) / step
    if not math.isfinite(steps) or round(steps) >= 1_000_000:
        raise ValueError("grid would have more than 1000000 points")
    return tuple(round(start + k * step, 10) for k in range(round(steps) + 1))


DEFAULT_RHO_GRID = _grid(0.025, 1.0, 0.025)
# grid points in tune_rho's first witness window, which doubles while
# every point certifies and is reset when a decline or a support change
# cuts it short: the dense rho = 0 support usually shrinks within a few
# points, and a window beyond the first decline is wasted
_FIRST_WINDOW = 4


def recover_support(m: SymMatrix, rho: float) -> tuple[frozenset, SdpSolution]:
    """Solve the penalized problem and read the support off the diagonal.

    An identically zero observation carries no signal and returns the
    empty support.
    """
    m = SymMatrix(m)
    sol = solve_sdp(m, rho)
    if not np.any(m.a):
        return frozenset(), sol
    return sol.support, sol


def _explained(m: np.ndarray, x: np.ndarray) -> float:
    return float((m * x).sum())


def _baseline(m: SymMatrix, tol: float, max_iter: int) -> tuple[SdpSolution, float]:
    """The unpenalized solve and the variance it explains, the criterion's
    denominator; raises DegenerateBaseline when that is zero."""
    base_sol = solve_sdp(m, 0.0, tol=tol, max_iter=max_iter)
    baseline = _explained(m.a, base_sol.x_hat.a)
    if abs(baseline) <= 1e-15 * (1.0 + float(np.abs(m.a).max())):
        raise DegenerateBaseline("unpenalized solution explains zero variance")
    return base_sol, baseline


def _checked_grid(grid, a: float) -> tuple[float, ...]:
    """The grid in ascending order, after checking it and the weight a."""
    if not 0.0 < a < 1.0:
        raise ValueError("weight a must lie strictly between 0 and 1")
    grid = tuple(sorted(float(r) for r in grid))
    if not grid:
        raise ValueError("grid must be nonempty")
    if grid[0] < 0 or not all(np.isfinite(grid)):
        raise ValueError("grid values must be nonnegative finite reals")
    return grid


def _criterion_value(
    explained_rho: float, baseline: float, support_size: int, d: int, a: float
) -> float:
    return (1.0 - a) * explained_rho / baseline + a * (1.0 - support_size / d)


def criterion(m: SymMatrix, rho: float, a: float) -> float:
    """Tuning criterion: explained-variance ratio traded against sparsity.

    C = (1-a) <M, X_rho> / <M, X_0> + a (1 - |supp(diag(X_rho))| / d),
    evaluated as the one-point grid search tune_rho(m, (rho,), a).
    """
    return tune_rho(m, (rho,), a).criteria[0]


@dataclass(frozen=True)
class TuningTrace:
    """Grid search record; grid is stored in ascending order.

    `converged`, `iterations` and `gaps` hold each grid point's solve
    diagnostics, aligned with `grid`; a rho = 0 point reports the baseline
    solve.
    """

    grid: tuple[float, ...]
    criteria: tuple[float, ...]
    chosen_rho: float
    supports: tuple[frozenset, ...]
    converged: tuple[bool, ...]
    iterations: tuple[int, ...]
    gaps: tuple[float, ...]

    @property
    def chosen_support(self) -> frozenset:
        return self.supports[self.grid.index(self.chosen_rho)]


def tune_rho(
    m: SymMatrix,
    grid,
    a: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> TuningTrace:
    """Evaluate the criterion over a grid of penalties and pick the best.

    Ties are broken toward the larger penalty.  At each rho > 0 a rank-one
    primal-dual witness on the previous grid point's support and sign
    pattern is tried first, and kept only when its duality gap on the full
    problem is certified <= tol * max(1, |objective|); such a point reports
    0 iterations.  Otherwise ADMM runs, warm-started from the declined
    witness (X = v v^T and its dual), or from the previous grid point when
    the sign pattern had a zero entry and no witness was built.  The warm
    start does not change the converged solutions but cuts the iteration
    count considerably.  A declined witness whose state is not finite,
    as at a subnormal rho, is passed over for the previous grid point.
    The witness is evaluated over windows of consecutive grid points, each
    built on the last certified point alone and returning its points as
    solutions, with the bytes of one point at a time; a window starts at
    4 points and doubles while every point certifies.
    """
    m = SymMatrix(m)
    grid = _checked_grid(grid, a)
    base_sol, baseline = _baseline(m, tol, max_iter)
    # (converged, iterations, gap, criterion, support) of each grid point
    points = []

    def keep(sol):
        expl = _explained(m.a, sol.x_hat.a)
        crit = _criterion_value(expl, baseline, len(sol.support), m.dim, a)
        points.append((sol.converged, sol.iterations, sol.gap, crit, sol.support))

    # the sorted grid starts with its rho = 0 points
    for _ in range(grid.count(0.0)):
        keep(base_sol)
    prev, size, k = base_sol, _FIRST_WINDOW, len(points)
    while k < len(grid):
        rhos = grid[k : k + size]
        certified, start = _witness_window(m.a, rhos, prev, tol)
        # prev ends at the last certified point
        for prev in certified:
            keep(prev)
        k += len(certified)
        size = 2 * size if len(certified) == len(rhos) else _FIRST_WINDOW
        if start is not None:
            prev = solve_sdp(m, grid[k], tol=tol, max_iter=max_iter, warm_start=start)
            keep(prev)
            k += 1

    converged, iterations, gaps, criteria, supports = zip(*points)
    best = max(range(len(grid)), key=lambda k: (criteria[k], k))
    return TuningTrace(
        grid=grid,
        criteria=criteria,
        chosen_rho=grid[best],
        supports=supports,
        converged=converged,
        iterations=iterations,
        gaps=gaps,
    )


def _block_max_degrees(
    g: ObservationGraph, idx: np.ndarray, comp: np.ndarray
) -> tuple[int, int, int]:
    """(max degree of G_JJ, of the bipartite block G_{J,Jc}, of G_{JcJc});
    `idx` is a nonempty support and `comp` its complement in 0..g.n-1."""
    mask = g.mask
    d_jj = int(mask[np.ix_(idx, idx)].sum(axis=1).max())
    d_cross = _bipartite_max_degree(mask[np.ix_(idx, comp)])
    d_cc = int(mask[np.ix_(comp, comp)].sum(axis=1).max(initial=0))
    return d_jj, d_cross, d_cc


def theoretical_rho(
    m_star: SymMatrix, g: ObservationGraph, sigma: float, support
) -> float:
    """Penalty level suggested by the theory (natural logarithm).

    2 sigma sqrt(max{Dmax(G_{J,Jc}), Dmax(G_{JcJc})} log d) + ||M*_{Jc,J}||_max.
    """
    _check_nonnegative_finite(sigma, "sigma")
    m_star = SymMatrix(m_star)
    if g.n != m_star.dim:
        raise ValueError("graph and matrix dimension mismatch")
    idx, comp = _support_arrays(m_star.dim, support)
    if comp.size == 0:
        raise ValueError("support must be a proper subset")
    _, d_cross, d_cc = _block_max_degrees(g, idx, comp)
    cross_max = float(np.abs(m_star.a[np.ix_(comp, idx)]).max(initial=0.0))
    return 2.0 * sigma * math.sqrt(max(d_cross, d_cc) * math.log(g.n)) + cross_max


def _condition_ingredients(m_star: SymMatrix, g: ObservationGraph, support):
    """Shared geometry for the rescaled parameter and the condition report."""
    if g.n != m_star.dim:
        raise ValueError("graph and matrix dimension mismatch")
    dec, idx, comp = _checked_decomposition(m_star, support)
    if m_star.dim < 2:
        raise ValueError("need dimension at least 2 for a spectral gap")
    gap = float(dec.values[0] - dec.values[1])
    min_u1 = float(np.abs(dec.vectors[idx, 0]).min())
    phi, psi = block_quantities(g, idx)
    if phi <= 0.0:
        raise Disconnected("support block of the observation graph is disconnected")
    d_jj, d_cross, d_cc = _block_max_degrees(g, idx, comp)
    a_sub = m_star.a[np.ix_(idx, idx)]
    a_cross = m_star.a[np.ix_(comp, idx)]
    a_cc = m_star.a[np.ix_(comp, comp)]
    return {
        "idx": idx,
        "comp": comp,
        "s": idx.size,
        "d": m_star.dim,
        "gap": gap,
        "min_u1": min_u1,
        "phi": phi,
        "psi": psi,
        "deg_jj": d_jj,
        "deg_cross": d_cross,
        "deg_cc": d_cc,
        "norm_jj": spectral_norm(a_sub),
        "norm_cross": spectral_norm(a_cross),
        "norm_cc": spectral_norm(a_cc),
        "max_cross": float(np.abs(a_cross).max(initial=0.0)),
    }


def _rescaled(q, sigma: float) -> float:
    s = q["s"]
    lhs = (
        q["norm_jj"] * q["psi"]
        + sigma * math.sqrt(q["deg_jj"] * math.log(s))
        + s * q["norm_cross"]
        + q["norm_cc"] / math.sqrt(s)
        + sigma * s * math.sqrt(max(q["deg_cross"], q["deg_cc"]) * math.log(q["d"]))
    )
    denom = q["phi"] * q["gap"] * q["min_u1"] / s
    return lhs / denom


def rescaled_parameter(
    m_star: SymMatrix, g: ObservationGraph, sigma: float, support
) -> float:
    """Difficulty measure: recovery-condition left side over its constant-free
    right side.  Smaller values predict easier support recovery."""
    _check_nonnegative_finite(sigma, "sigma")
    m_star = SymMatrix(m_star)
    return _rescaled(_condition_ingredients(m_star, g, support), sigma)


def _xi_constant(m_star: SymMatrix, g: ObservationGraph, q) -> float:
    """Smallest nonnegative xi with ||A o B||_2 <= (1 + xi) ||B||_2 for both
    off-support blocks; blocks with exactly zero norm are skipped."""
    comp, idx = q["comp"], q["idx"]
    masked = g.mask * m_star.a
    xi = 0.0
    if q["norm_cross"] != 0.0:
        xi = max(
            xi, spectral_norm(masked[np.ix_(comp, idx)]) / q["norm_cross"] - 1.0
        )
    if q["norm_cc"] != 0.0:
        xi = max(xi, spectral_norm(masked[np.ix_(comp, comp)]) / q["norm_cc"] - 1.0)
    return max(xi, 0.0)


@dataclass(frozen=True)
class InequalityRecord:
    name: str
    lhs: float
    rhs: float
    strict: bool
    holds: bool


@dataclass(frozen=True)
class ConditionReport:
    """Numeric evaluation of the five recovery inequalities."""

    ineq: tuple[InequalityRecord, ...]
    xi: float
    rescaled: float
    spectral_gap: float
    min_abs_u1: float

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.ineq)


def _record(name: str, lhs: float, rhs: float, strict: bool) -> InequalityRecord:
    holds = lhs < rhs if strict else lhs <= rhs
    return InequalityRecord(name=name, lhs=lhs, rhs=rhs, strict=strict, holds=holds)


def sufficient_conditions_report(
    m_star: SymMatrix,
    g: ObservationGraph,
    sigma: float,
    rho: float,
    support,
) -> ConditionReport:
    """Evaluate the five sufficient inequalities for unique recovery at (rho, sigma).

    The spectral gap of the full matrix is used throughout (it lower-bounds
    the gap of the support block, so the evaluation is conservative).
    """
    _check_nonnegative_finite(sigma, "sigma")
    _check_nonnegative_finite(rho, "rho")
    m_star = SymMatrix(m_star)
    q = _condition_ingredients(m_star, g, support)
    s, d = q["s"], q["d"]
    gap, min_u1, phi, psi = q["gap"], q["min_u1"], q["phi"], q["psi"]
    xi = _xi_constant(m_star, g, q)
    sq2 = math.sqrt(2.0)

    noise_jj = 2.0 * sigma * math.sqrt(q["deg_jj"] * math.log(s))
    noise_cross = 2.0 * sigma * math.sqrt(q["deg_cross"] * math.log(d))
    noise_cc = 2.0 * sigma * math.sqrt(q["deg_cc"] * math.log(d))

    records = (
        _record(
            "sign_agreement",
            q["norm_jj"] * psi + noise_jj + s * rho,
            phi * gap * min_u1 / (2.0 * sq2 * s),
            strict=False,
        ),
        _record(
            "cross_dual_max",
            noise_cross + q["max_cross"],
            rho,
            strict=True,
        ),
        _record(
            "cross_block_norm",
            (1.0 + xi) * (noise_cross + q["norm_cross"]) * (1.0 + math.sqrt(s)),
            phi * gap * (1.0 - min_u1 / sq2) / (2.0 * s),
            strict=False,
        ),
        _record(
            "tail_block_norm",
            (1.0 + xi) * q["norm_cc"],
            phi * gap * (1.0 - min_u1 / (2.0 * sq2)) / (2.0 * s),
            strict=False,
        ),
        _record(
            "tail_dual_max",
            noise_cc,
            rho,
            strict=True,
        ),
    )
    return ConditionReport(
        ineq=records,
        xi=xi,
        rescaled=_rescaled(q, sigma),
        spectral_gap=gap,
        min_abs_u1=min_u1,
    )
