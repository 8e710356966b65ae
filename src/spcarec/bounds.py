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
# trials per draw in tail_bound_montecarlo, screened together and the open
# ones sent to one batched SVD; small and fixed so each block of draws and
# its temporaries stay small whatever the trial count
_TAIL_BLOCK = 32
# relative margin of the tail screen over the rounding of its sum of
# squares and of LAPACK's largest singular value
_TAIL_MARGIN = 1e-8
# the screen decides a trial only when its squared Frobenius norm is at
# least 2^-960, where underflowed squares are negligible
_TAIL_FLOOR = 2.0**-960


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
    """2(m+n) exp(-r^2 / (2 Dmax)) with r = t / sigma, which keeps an extreme
    sigma from squaring to 0 or inf; 0 for an empty pattern with t > 0 (the
    matrix is identically zero) and where r overflows."""
    if max_degree == 0:
        return 2.0 * (m + n) if t <= 0 else 0.0
    r = float(t) / float(sigma)
    return 2.0 * (m + n) * math.exp(-(r * r) / (2.0 * max_degree))


def _open_trials(block: np.ndarray, t: float) -> np.ndarray:
    """Mark the trials of a block (k, m, n) that the Frobenius bound leaves
    to the SVD; the rest are decided as ||Z||_2 < t.  See
    tail_bound_montecarlo for the rule."""
    fro2 = np.einsum("kij,kij->k", block, block)
    return ~((fro2 >= _TAIL_FLOOR) & (np.sqrt(fro2) < t * (1.0 - _TAIL_MARGIN)))


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
    per block, scaled by sigma and masked.

    Each trial only asks whether ||Z||_2 >= t, and ||Z||_F >= ||Z||_2
    (Golub & Van Loan, Matrix Computations, 2.3).  So `_open_trials`
    counts a trial as below t without an SVD when ||Z||_F < t (1 - eta),
    and only the trials it leaves open go to one batched SVD, compared
    with `>= t`.  eta = `_TAIL_MARGIN` = 1e-8 covers rounding: the sum of
    squares is accurate to about (m n) 2^-53 relative, and LAPACK's
    largest singular value to a small multiple of max(m, n) 2^-53
    relative, both below 1e-8 while m n < 9e7 (one trial under 700 MB).
    A trial whose squared Frobenius norm is below `_TAIL_FLOOR`, where
    underflowed squares could matter, is always left open, and one whose
    sum overflows reads inf, which is never below t.  So every trial
    counts exactly as its SVD would count it, and the result does not
    depend on the screen.
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
            open_ = _open_trials(block, t)
            if open_.any():
                norms = np.linalg.svd(block[open_], compute_uv=False)
                exceed += int(np.count_nonzero(norms[:, 0] >= t))
    empirical = exceed / trials
    se = math.sqrt(empirical * (1.0 - empirical) / trials)
    holds = empirical <= bound + 3.0 * se
    return TailBoundCheck(
        t=float(t), bound=bound, empirical=empirical, trials=trials, holds=holds
    )
