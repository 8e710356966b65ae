"""Acceptance gate: end-to-end checks with pinned tolerances.

Each test prints one PASS/FAIL line (visible with `pytest -s`).  The
pitprops check needs a user-supplied data file and is skipped when absent;
everything else runs unconditionally.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from spcarec.bounds import tail_bound_montecarlo, masking_difference_check
from spcarec.errors import Disconnected, IrregularityUndefined
from spcarec.graph import (
    BipartiteSubgraph,
    ObservationGraph,
    adjacency,
    algebraic_connectivity,
    complement,
    degrees,
    random_graph,
)
from spcarec.harness import (
    DEFAULT_MAX_TRIES,
    emit_csv,
    pitprops_experiment,
    run_bucket_experiment,
    _rep_task,
    _sdp_recoveries,
    _Spec,
)
from spcarec.numerics import SymMatrix, eigh, project_simplex
from spcarec.sdp import kkt_report, solve_sdp, witness_certificate

from helpers import _random_sym, _simple_top

PITPROPS_PATH = Path(
    os.environ.get("SPCAREC_PITPROPS", Path(__file__).parent.parent / "data" / "pitprops.csv")
)


def _report(num: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: {status}{extra}")


def test_01_solver_accuracy_unpenalized():
    """100 random matrices with a simple top eigenvalue: the unpenalized
    optimizer is the leading rank-one projector to 1e-3, under 1s each."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    slowest = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 21))
        m = _simple_top(rng, d)
        u1 = eigh(m).vectors[:, 0]
        t0 = time.perf_counter()
        sol = solve_sdp(m, 0.0)
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        err = float(np.linalg.norm(sol.x_hat.a - np.outer(u1, u1)))
        worst = max(worst, err)
        assert sol.converged
        assert err <= 1e-3
        assert elapsed < 1.0
    _report(1, "solver-accuracy", True, f"worst err {worst:.2e}, slowest {slowest:.3f}s")


def test_02_kkt_residuals_on_converged_solves():
    """Every converged solve in a mixed battery passes the first-order
    optimality check: stationarity <= 1e-5, feasibility <= 1e-6."""
    rng = np.random.default_rng(1002)
    checked = 0
    worst_st = worst_feas = 0.0
    for k in range(120):
        d = int(rng.integers(2, 21))
        m = _random_sym(rng, d)
        rho = float(rng.choice([0.0, 0.05, 0.2, 0.5, 1.0]))
        if k % 3 == 0:
            mask = adjacency(random_graph(d, int(0.7 * d * d), int(rng.integers(1e9)))).a
            m = SymMatrix(mask * m.a)
        sol = solve_sdp(m, rho)
        if not sol.converged:
            continue
        rep = kkt_report(m, rho, sol.x_hat, sol.z_dual)
        feas = max(rep.trace_violation, max(0.0, -rep.min_eigenvalue))
        worst_st = max(worst_st, rep.stationarity_residual)
        worst_feas = max(worst_feas, feas)
        assert rep.stationarity_residual <= 1e-5
        assert feas <= 1e-6
        checked += 1
    assert checked >= 100
    _report(
        2, "kkt-residuals", True,
        f"{checked} solves, worst stationarity {worst_st:.2e}, worst feas {worst_feas:.2e}",
    )


def test_03_certificate_soundness():
    """200 certified instances: the solver recovers the claimed support in
    every single one."""
    rng = np.random.default_rng(1003)
    certified = 0
    attempts = 0
    while certified < 200:
        attempts += 1
        assert attempts < 5000, "generator failed to produce certified instances"
        d = int(rng.integers(5, 13))
        s = int(rng.integers(1, 4))
        idx = np.sort(rng.choice(d, s, replace=False))
        u = np.zeros(d)
        u[idx] = rng.choice([-1.0, 1.0], s) / math.sqrt(s)
        gap = float(rng.uniform(2.0, 6.0))
        rest = 0.3 * rng.standard_normal(d - 1)
        basis = np.column_stack([u, rng.standard_normal((d, d - 1))])
        q, _ = np.linalg.qr(basis)
        q[:, 0] = u
        lams = np.concatenate([[np.max(rest) + gap], np.sort(rest)[::-1]])
        m_star = SymMatrix((q * lams) @ q.T)
        budget = int(rng.uniform(0.85, 1.0) * d * d)
        g = random_graph(d, budget, int(rng.integers(1e9)))
        sigma = float(rng.choice([0.0, 0.0, 0.02]))
        noisy = m_star.a
        if sigma > 0:
            upper = np.triu(rng.standard_normal((d, d)) * sigma)
            noisy = m_star.a + upper + np.triu(upper, 1).T
        m = SymMatrix(adjacency(g).a * noisy)
        rho = float(rng.uniform(0.15, 0.5))
        try:
            rep = witness_certificate(m_star, g, m, rho, idx)
        except ValueError:
            continue
        if not rep.certified:
            continue
        certified += 1
        sol = solve_sdp(m, rho)
        assert sol.converged
        assert sol.support == frozenset(int(i) for i in idx), (
            f"certified instance {certified} recovered {sorted(sol.support)} "
            f"instead of {idx.tolist()}"
        )
    _report(3, "certificate-soundness", True, f"200 certified of {attempts} draws")


def test_04_masking_difference_bound():
    """500 random (matrix, graph) pairs with a connected graph and defined
    irregularity satisfy the deterministic difference bound to 1e-8."""
    rng = np.random.default_rng(1004)
    done = 0
    tightest = math.inf
    while done < 500:
        n = int(rng.integers(3, 12))
        budget = int(rng.integers(n, n * n + 1))
        g = random_graph(n, budget, int(rng.integers(1e9)))
        y = _random_sym(rng, n)
        if rng.random() < 0.3:
            u = rng.standard_normal(n)
            y = SymMatrix(np.outer(u, u))
        try:
            lhs, rhs, holds = masking_difference_check(y, g)
        except (Disconnected, IrregularityUndefined):
            continue
        assert holds, f"difference bound violated: lhs={lhs}, rhs={rhs}"
        assert lhs <= rhs + 1e-8 * max(1.0, rhs)
        tightest = min(tightest, rhs - lhs)
        done += 1
    _report(4, "masking-difference-bound", True, f"500 cases, tightest margin {tightest:.3g}")


def test_05_tail_bound_reference_level():
    """Gaussian Monte Carlo at the reference threshold: the exceedance
    frequency over 1e4 trials stays within the analytic 2/(m+n) bound
    plus three binomial standard errors, in under 30s."""
    t0 = time.perf_counter()
    sigma = 1.0
    results = []
    for m_rows, n_cols, density, seed in ((5, 5, 1.0, 7), (6, 4, 0.6, 8)):
        rng = np.random.default_rng(seed)
        mask = rng.random((m_rows, n_cols)) < density
        if not mask.any():
            mask[0, 0] = True
        pattern = BipartiteSubgraph(mask)
        dmax = pattern.max_degree()
        t = 2.0 * sigma * math.sqrt(dmax * math.log(m_rows + n_cols))
        check = tail_bound_montecarlo(sigma, pattern, t, 10_000, seed)
        level = 2.0 / (m_rows + n_cols)
        se = math.sqrt(check.empirical * (1 - check.empirical) / check.trials)
        assert check.bound == pytest.approx(level, rel=1e-12)
        assert check.empirical <= level + 3.0 * se
        assert check.holds
        results.append(f"{m_rows}x{n_cols}: emp {check.empirical:.4f} vs {level:.4f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(5, "tail-bound", True, "; ".join(results) + f", {elapsed:.1f}s")


_TREND_GRID = tuple(round(0.1 * k, 6) for k in range(1, 11))


def test_06_recovery_trend_over_buckets():
    """Recovery rate decays as the support block worsens, and a larger
    spectral gap helps, at the benchmark scale (d=50, s=10, noiseless)."""
    t0 = time.perf_counter()
    buckets = [(0.0, 2.0), (8.0, 10.0), (16.0, 18.0)]
    rows10 = run_bucket_experiment(
        d=50, s=10, gap=10.0, sigma=0.0, budget=1250, buckets=buckets,
        reps=20, rho_grid=_TREND_GRID, a=0.5, rng_seed=2026,
    )
    rows1 = run_bucket_experiment(
        d=50, s=10, gap=1.0, sigma=0.0, budget=1250, buckets=buckets[:1],
        reps=20, rho_grid=_TREND_GRID, a=0.5, rng_seed=2026,
    )
    elapsed = time.perf_counter() - t0
    assert all(not r.skipped for r in rows10 + rows1)
    rates = [r.exact_recovery_rate for r in rows10]
    inversions = [
        rates[i + 1] - rates[i] for i in range(len(rates) - 1) if rates[i + 1] > rates[i]
    ]
    assert len(inversions) <= 1, f"rates {rates} increase more than once"
    assert all(v <= 0.1 + 1e-12 for v in inversions), f"inversion too large: {rates}"
    assert rows10[0].exact_recovery_rate >= rows1[0].exact_recovery_rate
    assert elapsed < 1800.0
    detail = (
        f"gap10 rates {rates}, gap1 rate {rows1[0].exact_recovery_rate}, {elapsed:.0f}s"
    )
    _report(6, "recovery-trend", True, detail)


def test_07_rescaled_parameter_collapse():
    """Rate-versus-rescaled curves for spectral gaps 1 and 10, binned at
    width 0.25: wherever both curves have a bin, rates differ by <= 0.25.

    The rescaled parameter takes values in the hundreds at this scale, so
    bins of width 0.25 rarely coincide across gaps; matched log-scale bins
    are reported alongside as supporting evidence of the collapse.
    """
    reps = 50
    rows10 = run_bucket_experiment(
        d=50, s=10, gap=10.0, sigma=0.0, budget=1250,
        buckets=[(0.0, 2.0), (4.0, 6.0), (8.0, 10.0)],
        reps=reps, rho_grid=_TREND_GRID, a=0.5, rng_seed=2027,
    )
    rows1 = run_bucket_experiment(
        d=50, s=10, gap=1.0, sigma=0.0, budget=1250,
        buckets=[(0.0, 2.0), (2.0, 4.0), (4.0, 6.0)],
        reps=reps, rho_grid=_TREND_GRID, a=0.5, rng_seed=2027,
    )
    assert all(not r.skipped for r in rows10 + rows1)

    def bins(rows, width):
        return {
            int(math.floor(r.mean_rescaled / width)): r.exact_recovery_rate
            for r in rows
        }

    b10, b1 = bins(rows10, 0.25), bins(rows1, 0.25)
    shared = sorted(set(b10) & set(b1))
    diffs = [abs(b10[k] - b1[k]) for k in shared]
    assert all(dv <= 0.25 for dv in diffs), f"collapse violated on bins {shared}"

    # informational: the same comparison on quarter-decade log bins
    def log_bins(rows):
        return {
            int(math.floor(math.log10(r.mean_rescaled) / 0.25)): r.exact_recovery_rate
            for r in rows
        }

    l10, l1 = log_bins(rows10), log_bins(rows1)
    lshared = sorted(set(l10) & set(l1))
    ldiffs = {k: round(abs(l10[k] - l1[k]), 3) for k in lshared}
    curves = [(r.spectral_gap, round(r.mean_rescaled, 1), r.exact_recovery_rate)
              for r in rows10 + rows1]
    _report(
        7, "rescaled-collapse", True,
        f"{len(shared)} matched width-0.25 bins, max diff "
        f"{max(diffs) if diffs else 0.0}; log-bin diffs {ldiffs}; curves {curves}",
    )


@pytest.mark.skipif(
    not PITPROPS_PATH.exists(),
    reason=f"pitprops data not found at {PITPROPS_PATH} "
    "(set SPCAREC_PITPROPS or see scripts/fetch_pitprops.py)",
)
def test_08_pitprops_pipeline():
    """Recovery of the classical six-variable support from the pitprops
    covariance under synthetic missingness, against the baselines."""
    buckets = [(0.0, 0.2)]
    common = dict(
        budget=100, buckets=buckets, sigma=0.1, reps=50, a=0.4, rng_seed=2028,
    )
    sdp_rows = pitprops_experiment(PITPROPS_PATH, method="sdp", **common)
    dt_rows = pitprops_experiment(PITPROPS_PATH, method="dtspca", **common)
    it_rows = pitprops_experiment(PITPROPS_PATH, method="itspca", **common)
    mc_rows = pitprops_experiment(PITPROPS_PATH, method="mc_sdp", **common)
    sdp_rate = sdp_rows[0].exact_recovery_rate
    dt_rate = dt_rows[0].exact_recovery_rate
    it_rate = it_rows[0].exact_recovery_rate
    mc_rate = mc_rows[0].exact_recovery_rate
    detail = f"sdp {sdp_rate}, dtspca {dt_rate}, itspca {it_rate}, mc+sdp {mc_rate}"
    ok = (
        sdp_rate >= 0.6 - 0.15
        and dt_rate <= 0.2 + 0.1
        and it_rate <= 0.2 + 0.1
        and 0.2 <= mc_rate <= 0.6
    )
    _report(8, "pitprops", ok, detail)
    assert sdp_rate >= 0.6 - 0.15, detail
    assert dt_rate <= 0.2 + 0.1, detail
    assert it_rate <= 0.2 + 0.1, detail
    assert 0.2 <= mc_rate <= 0.6, detail


def test_09_numerics_invariants():
    """Exact numeric invariants: eigendecomposition quality on 1000 random
    matrices, simplex projection against a grid oracle, complement
    involution, and the degree/connectivity sandwich on 500 graphs."""
    rng = np.random.default_rng(1009)
    for _ in range(1000):
        d = int(rng.integers(2, 31))
        m = _random_sym(rng, d)
        dec = eigh(m)
        rec = (dec.vectors * dec.values) @ dec.vectors.T
        assert np.abs(rec - m.a).max() <= 1e-8 * (1 + np.abs(m.a).max())
        assert np.abs(dec.vectors.T @ dec.vectors - np.eye(d)).max() <= 1e-10

    n1 = 1000
    i, j = np.meshgrid(np.arange(n1 + 1), np.arange(n1 + 1), indexing="ij")
    keep = (i + j) <= n1
    grid = np.column_stack(
        [i[keep] / n1, j[keep] / n1, 1.0 - i[keep] / n1 - j[keep] / n1]
    )
    for _ in range(30):
        v = rng.uniform(-1.5, 1.5, size=3)
        proj = project_simplex(v)
        best = grid[np.argmin(((grid - v) ** 2).sum(axis=1))]
        assert np.abs(proj - best).max() <= 2e-3

    for _ in range(200):
        n = int(rng.integers(1, 10))
        g = random_graph(n, int(rng.integers(0, n * n + 1)), int(rng.integers(1e9)))
        assert complement(complement(g)) == g
        np.testing.assert_array_equal(
            degrees(g) + degrees(complement(g)), np.full(n, n)
        )

    def ones_complement_basis(n):
        basis = np.column_stack([np.ones(n), np.eye(n)[:, : n - 1]])
        q, _ = np.linalg.qr(basis)
        return q[:, 1:]

    for _ in range(500):
        n = int(rng.integers(2, 12))
        g = random_graph(n, int(rng.integers(0, n * n + 1)), int(rng.integers(1e9)))
        a = adjacency(g).a
        q2 = ones_complement_basis(n)
        constrained = np.linalg.eigvalsh(q2.T @ a @ q2)[-1]
        deg = degrees(g)
        diff = deg.max() - algebraic_connectivity(g)
        assert constrained <= diff + 1e-8
        assert diff <= constrained + deg.max() - deg.min() + 1e-8
    _report(9, "numerics-invariants", True)


def test_10_determinism_across_schedules(tmp_path):
    """Identical seeds give byte-identical experiment CSVs, and each
    repetition gives the same result in forward, reversed and shuffled
    order, so no state passes from one repetition to the next."""
    buckets = [(0.0, 2.0), (2.0, 5.0)]
    kwargs = dict(
        d=20, s=4, gap=8.0, sigma=0.1, budget=200, buckets=buckets, reps=4,
        rho_grid=(0.1, 0.3, 0.6), a=0.5, rng_seed=2030,
    )
    p1 = tmp_path / "run1.csv"
    p2 = tmp_path / "run2.csv"
    emit_csv(run_bucket_experiment(**kwargs), p1)
    emit_csv(run_bucket_experiment(**kwargs), p2)
    spec = _Spec(
        d=20, s=4, gap=8.0, sigma=0.1, budget=200, reps=4, rng_seed=2030,
        max_tries=DEFAULT_MAX_TRIES, score=_sdp_recoveries,
        rho_grid=(0.1, 0.3, 0.6), a=0.5,
    )
    keys = [(b, bucket, rep) for b, bucket in enumerate(buckets) for rep in range(4)]
    shuffled = [keys[i] for i in np.random.default_rng(2030).permutation(len(keys))]
    runs = [
        {key: _rep_task(spec, *key) for key in order}
        for order in (keys, keys[::-1], shuffled)
    ]
    identical = p1.read_bytes() == p2.read_bytes() and runs[0] == runs[1] == runs[2]
    _report(10, "determinism", identical)
    assert identical
