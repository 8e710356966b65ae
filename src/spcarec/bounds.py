"""Executable forms of the deterministic-sampling auxiliary theorems.

The deterministic masking bound is checked directly on given inputs; the
sub-Gaussian tail bound is verified by Monte Carlo, drawing every trial
from one generator seeded by the caller, so the same seed gives the same
result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Disconnected
from .graph import (
    BipartiteSubgraph,
    ObservationGraph,
    _irregularity,
    algebraic_connectivity,
)
from .numerics import SymMatrix, _check_positive_finite, spectral_norm

__all__ = ["TailBoundCheck", "tau", "masking_difference_check", "tail_bound_montecarlo"]

_RANK_CUTOFF = 1e-10
# trials per draw and batched SVD in tail_bound_montecarlo; small and fixed
# so each block of draws stays small whatever the trial count
_TAIL_BLOCK = 32


def tau(y: SymMatrix) -> float:
    """Max row sum of squared eigenvector entries over the rank support.

    Eigenvalues with magnitude at most 1e-10 times the spectral norm do
    not count toward the rank.  Returns 0 for the zero matrix; otherwise
    the value lies in (0, 1].
    """
    y = SymMatrix(y)
    vals, vecs = np.linalg.eigh(y.a)
    scale = float(np.abs(vals).max(initial=0.0))
    if scale == 0.0:
        return 0.0
    keep = np.abs(vals) > _RANK_CUTOFF * scale
    return float((vecs[:, keep] ** 2).sum(axis=1).max())


def masking_difference_check(
    y: SymMatrix, g: ObservationGraph
) -> tuple[float, float, bool]:
    """Check ||Y - (n/phi) A o Y||_2 <= (n tau psi / phi) ||Y||_2.

    Both sides are evaluated exactly; `holds` allows 1e-8 relative slack.
    The inequality is a theorem, so a False result on valid input
    indicates a bug.
    """
    y = SymMatrix(y)
    if y.dim != g.n:
        raise ValueError("matrix and graph dimension mismatch")
    phi = algebraic_connectivity(g)
    if phi <= 0.0:
        raise Disconnected("graph is disconnected")
    psi = _irregularity(g.mask, phi)
    n = g.n
    lhs = spectral_norm(y.a - (n / phi) * (g.mask * y.a))
    rhs = (n * tau(y) * psi / phi) * spectral_norm(y)
    holds = lhs <= rhs + 1e-8 * max(1.0, rhs)
    return lhs, rhs, holds


@dataclass(frozen=True)
class TailBoundCheck:
    """Monte-Carlo comparison of an exceedance frequency to its tail bound."""

    t: float
    bound: float
    empirical: float
    trials: int
    holds: bool


def tail_bound_value(m: int, n: int, sigma: float, max_degree: int, t: float) -> float:
    """2(m+n) exp(-t^2 / (2 sigma^2 Dmax)); degenerates to 0 for an empty
    pattern with t > 0 (the matrix is identically zero)."""
    if max_degree == 0:
        return 2.0 * (m + n) if t <= 0 else 0.0
    return 2.0 * (m + n) * math.exp(-(t * t) / (2.0 * sigma * sigma * max_degree))


def tail_bound_montecarlo(
    sigma: float,
    s_pattern: BipartiteSubgraph,
    t: float,
    trials: int,
    rng_seed: int,
) -> TailBoundCheck:
    """Estimate P[||Z||_2 >= t] for Gaussian entries on the pattern and
    compare against the analytic tail bound.

    Gaussian noise attains the sub-Gaussian parameter with equality, which
    makes it the canonical test law.  `holds` allows three binomial
    standard errors on the empirical frequency.  All trials come from one
    generator seeded by `rng_seed`, in blocks of `_TAIL_BLOCK`: one draw
    and one batched SVD per block.
    """
    _check_positive_finite(sigma, "sigma")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    mask = s_pattern.pattern
    m, n = mask.shape
    dmax = s_pattern.max_degree()
    bound = tail_bound_value(m, n, sigma, dmax, t)

    if mask.size == 0:
        exceed = trials if 0.0 >= t else 0
    else:
        exceed = 0
        rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
        for start in range(0, trials, _TAIL_BLOCK):
            block = rng.standard_normal((min(_TAIL_BLOCK, trials - start), m, n))
            block *= sigma
            block[:, ~mask] = 0.0
            norms = np.linalg.svd(block, compute_uv=False)
            exceed += int(np.count_nonzero(norms[:, 0] >= t))
    empirical = exceed / trials
    se = math.sqrt(empirical * (1.0 - empirical) / trials)
    holds = empirical <= bound + 3.0 * se
    return TailBoundCheck(
        t=float(t), bound=bound, empirical=empirical, trials=trials, holds=holds
    )
