#!/usr/bin/env python3
"""Count the ADMM iterations that three fixed solve batteries and one
completion battery take.

    PYTHONPATH=src python3 scripts/admm_iterations.py

For each battery it prints the number of solves, the total ADMM
iterations, the number of solves that stopped at max_iter without
converging, and the worst relative certified gap, gap / max(1, |objective|),
over all solves and over the converged ones.  Iteration counts do not
depend on the machine, so two commits can be compared by these numbers
alone.  The batteries are:

* ``mc-easy``: the 200 repetitions of the benchmark's ``mc-easy`` pool
  (``spcarec experiment`` at d=20, s=4, gap 8, sigma 0, budget 200,
  bucket 0:2, one repetition each), with the experiment seeds read from
  ``perfbench/reference.json`` and each repetition run by
  ``perfbench/workloads.py``'s ``McEasy``.  It also counts how many CSVs
  equal the recorded reference bytes, how many of the rho > 0 grid points
  the rank-one path witness certified without an ADMM solve, in how many
  witness windows (stacked evaluations over consecutive grid points), and
  how many of the remaining points' ADMM fallbacks started from the
  declined witness rather than from the previous grid point.
* ``acceptance-02``: the 120 cold solves of
  ``tests/test_acceptance.py::test_02_kkt_residuals_on_converged_solves``
  (d 2-20, rho in {0, 0.05, 0.2, 0.5, 1}, every third one masked).
* ``solve-d200``: the 60 cold solves of the benchmark's ``solve-d200``
  pool (20 instances at d=200 times rho in {0.1, 0.3, 0.6}), built and run
  by ``perfbench/workloads.py``'s ``SolveD200``.  Each solve is checked by
  its certificate: it converged, its relative certified gap is <= tol, its
  KKT stationarity is <= 1e-5, and its support equals the reference.
* ``completion``: the nuclear-norm completions of the first 20 ops of the
  benchmark's ``diagnose-hard`` workload at its reference seed (d=50,
  budget 1250), run by ``perfbench/workloads.py``'s ``DiagnoseHard``.  It
  prints the total completion iterations, how many completions stopped
  certified (residual test and relative dual gap <= tol), the worst
  relative gap, and how many of the 20 ops pass the workload's check and
  equal the recorded reference.  For the same 20 ops it also prints counts
  of the other two loops: the ``itspca`` runs, those that stopped at
  ``max_iter``, those that ended in an exact cycle (by period) and the
  power iterations computed; the bucketed sampler's tries and the
  complement connectivities they computed; and the tail Monte-Carlo
  trials, by how each was decided: below t by the Frobenius bound, or by
  SVD, and the Gaussian entries they drew.

``perfbench/`` is only read and imported from.  The script exits 1 when
any solve in any battery stops at max_iter without converging, when any
``mc-easy`` CSV differs from its reference bytes, or when a ``solve-d200``
solve fails its check, and 0 otherwise.  BLAS is pinned to one thread, as
in the benchmark, before numpy is imported.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import spcarec.baselines as baselines  # noqa: E402
import spcarec.bounds as bounds  # noqa: E402
import spcarec.graph as graph  # noqa: E402
import spcarec.sdp as sdp  # noqa: E402
import spcarec.spca as spca  # noqa: E402
from spcarec.graph import adjacency, random_graph  # noqa: E402
from spcarec.numerics import SymMatrix  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference.json"
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import REFERENCE_SEED, DiagnoseHard, McEasy, SolveD200  # noqa: E402


class _Recorder:
    """Wraps ``sdp._admm``, through which every solver path runs, and keeps
    (iterations, converged, relative gap) for each solve.  Also wraps
    ``sdp._witness_window`` where ``tune_rho`` calls it, and counts the
    witness windows, the rho > 0 grid points the witness was tried on,
    those it certified, and those it declined after building a candidate,
    which the ADMM fallback then starts from.  A window tries its
    certified points and, when it hands out a fallback start, the point
    after them; any later point of the window is tried again by the next
    window."""

    def __init__(self):
        self.solves = []
        self.windows = self.tried = self.certified = self.declined = 0
        self._admm = sdp._admm
        self._witness = spca._witness_window

    def __enter__(self):
        def admm(*args, **kwargs):
            sol = self._admm(*args, **kwargs)
            rel = sol.gap / max(1.0, abs(sol.objective))
            self.solves.append((sol.iterations, sol.converged, rel))
            return sol

        def witness(m, rhos, prev, tol):
            certified, start = self._witness(m, rhos, prev, tol)
            self.windows += 1
            self.certified += len(certified)
            # start is the declined candidate unless the walk already had it
            last = certified[-1] if certified else prev
            self.declined += start is not None and start is not last
            # a start is handed out for the point after the certified ones
            self.tried += len(certified) + (start is not None)
            return certified, start

        sdp._admm = admm
        spca._witness_window = witness
        return self

    def __exit__(self, *exc):
        sdp._admm = self._admm
        spca._witness_window = self._witness


def _summary(name: str, solves: list, extra: str = "") -> tuple[str, bool]:
    """The battery's summary line and whether every solve converged."""
    iters = sum(n for n, _, _ in solves)
    nonconverged = sum(1 for _, c, _ in solves if not c)
    worst = max(g for _, _, g in solves)
    worst_conv = max((g for _, c, g in solves if c), default=float("nan"))
    line = (
        f"{name}: {len(solves)} solves, {iters} iterations, "
        f"{nonconverged} not converged, worst relative gap {worst:.2e} "
        f"(converged solves {worst_conv:.2e}){extra}"
    )
    return line, nonconverged == 0


def mc_easy() -> tuple[str, bool]:
    """The battery's summary line and whether every solve converged and
    every CSV equals the reference."""
    pool = json.loads(REFERENCE.read_text())["mc-easy"]
    same = 0
    with _Recorder() as rec, tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "rows.csv")
        for member in pool:
            same += McEasy.experiment(member["seed"], out)["csv"] == member["csv"]
    fallbacks = rec.tried - rec.certified
    extra = (
        f", CSV equal to reference {same}/{len(pool)}, "
        f"witness certified {rec.certified}/{rec.tried} rho > 0 points "
        f"in {rec.windows} windows, "
        f"fallbacks started from a declined witness {rec.declined}/{fallbacks}"
    )
    line, converged = _summary("mc-easy", rec.solves, extra)
    return line, converged and same == len(pool)


def acceptance_02() -> tuple[str, bool]:
    rng = np.random.default_rng(1002)
    with _Recorder() as rec:
        for k in range(120):
            d = int(rng.integers(2, 21))
            a = rng.standard_normal((d, d))
            m = SymMatrix(a + a.T)
            rho = float(rng.choice([0.0, 0.05, 0.2, 0.5, 1.0]))
            if k % 3 == 0:
                g = random_graph(d, int(0.7 * d * d), int(rng.integers(1e9)))
                m = SymMatrix(adjacency(g).a * m.a)
            sdp.solve_sdp(m, rho)
    return _summary("acceptance-02", rec.solves)


def solve_d200() -> tuple[str, bool]:
    """The battery's summary line and whether every solve passed its
    certificate check."""
    pool = json.loads(REFERENCE.read_text())["solve-d200"]
    workload = SolveD200(REFERENCE_SEED, "", pool)
    same = 0
    stationarity = []
    with _Recorder() as rec:
        for member in pool:
            out = workload.run_member(member)
            same += out["support"] == member["support"]
            stationarity.append(out["stationarity"])
    worst = max(stationarity)
    extra = (
        f", supports equal to reference {same}/{len(pool)}, "
        f"worst KKT stationarity {worst:.2e}"
    )
    line, converged = _summary("solve-d200", rec.solves, extra)
    certified = all(g <= sdp.DEFAULT_TOL for _, _, g in rec.solves)
    passed = (
        converged and certified and same == len(pool)
        and worst <= SolveD200.stationarity_bound
    )
    return line, passed


class _DiagnoseRecorder:
    """Wraps ``baselines.itspca`` and keeps each run's diagnostics (None
    for a ThresholdTooLarge) and counts the power iterations computed, one
    ``_soft_threshold_arr`` call each; and wraps ``graph._in_bucket``, one
    call per sampler try, counting the tries and the complement
    connectivities, every ``_connectivity`` call of a try after the
    block's own; and wraps ``bounds._open_trials``, one call per block of
    tail trials, counting the trials, those the Frobenius bound leaves
    open for the SVD and the Gaussian entries the block drew."""

    def __init__(self):
        self.itspca = []
        self.steps = self.tries = self.complements = self._connectivities = 0
        self.tail_trials = self.tail_svd = self.tail_draws = 0
        self._saved = (baselines.itspca, baselines._soft_threshold_arr,
                       graph._in_bucket, graph._connectivity, bounds._open_trials)

    def __enter__(self):
        itspca, soft, in_bucket, connectivity, open_trials = self._saved

        def counted_soft(*args):
            self.steps += 1
            return soft(*args)

        def recorded_itspca(*args, **kwargs):
            res = None
            baselines._soft_threshold_arr = counted_soft
            try:
                res = itspca(*args, **kwargs)
                return res
            finally:
                baselines._soft_threshold_arr = soft
                self.itspca.append(res and res.diagnostics)

        def counted_connectivity(mask):
            self._connectivities += 1
            return connectivity(mask)

        def counted_in_bucket(block, ratio_lo, ratio_hi):
            before = self._connectivities
            accepted = in_bucket(block, ratio_lo, ratio_hi)
            self.tries += 1
            self.complements += max(self._connectivities - before - 1, 0)
            return accepted

        def counted_open_trials(block, t):
            open_ = open_trials(block, t)
            self.tail_trials += len(block)
            self.tail_svd += int(open_.sum())
            self.tail_draws += block.size
            return open_

        baselines.itspca = recorded_itspca
        graph._in_bucket = counted_in_bucket
        graph._connectivity = counted_connectivity
        bounds._open_trials = counted_open_trials
        return self

    def __exit__(self, *exc):
        (baselines.itspca, baselines._soft_threshold_arr,
         graph._in_bucket, graph._connectivity, bounds._open_trials) = self._saved

    def line(self) -> str:
        runs = [diag for diag in self.itspca if diag is not None]
        capped = sum(not diag["converged"] for diag in runs)
        periods = Counter(diag["cycle_period"] for diag in runs if diag["cycle_period"])
        cycles = ", ".join(f"period {p}: {periods[p]}" for p in sorted(periods)) or "none"
        return (
            f"diagnose-hard: {len(self.itspca)} itspca runs "
            f"({len(self.itspca) - len(runs)} ThresholdTooLarge), "
            f"{capped} stopped at max_iter, cycle exits {sum(periods.values())} "
            f"({cycles}), {self.steps} power iterations computed; "
            f"sampler {self.tries} tries, "
            f"{self.complements} complement connectivities computed\n"
            f"tail: {self.tail_trials} diagnose-hard tail trials, "
            f"{self.tail_trials - self.tail_svd} decided by the Frobenius bound, "
            f"{self.tail_svd} by SVD, {self.tail_draws} Gaussian entries drawn"
        )


def completion() -> tuple[str, bool]:
    """The battery's summary lines and whether every completion stopped
    certified and every op passed its check and reference."""
    pool = json.loads(REFERENCE.read_text())["diagnose-hard"]
    workload = DiagnoseHard(REFERENCE_SEED, "", pool)
    runs = []
    complete = baselines._complete_nuclear

    def recorded(m, observed, tol, max_iter):
        y, info = complete(m, observed, tol, max_iter)
        upper = float(np.abs(np.linalg.eigvalsh(y)).sum())
        runs.append((info["iterations"], info["converged"], info["gap"] / max(1.0, upper)))
        return y, info

    good = 0
    baselines._complete_nuclear = recorded
    try:
        with _DiagnoseRecorder() as rec:
            for k in range(20):
                out = workload.summarize(workload.op(k))
                good += not workload.check(out) and not workload.compare(out, pool[k])
    finally:
        baselines._complete_nuclear = complete
    certified = sum(1 for _, c, _ in runs if c)
    line = (
        f"completion: {len(runs)} diagnose-hard completions, "
        f"{sum(n for n, _, _ in runs)} iterations, {certified} certified, "
        f"worst relative gap {max(g for _, _, g in runs):.2e}, "
        f"ops passing check and reference {good}/20\n{rec.line()}"
    )
    return line, certified == len(runs) and good == 20


def main() -> int:
    ok = True
    for battery in (acceptance_02, mc_easy, solve_d200, completion):
        line, passed = battery()
        print(line, flush=True)
        ok &= passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
