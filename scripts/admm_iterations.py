#!/usr/bin/env python3
"""Count the ADMM iterations that three fixed solve batteries take.

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
  ``perfbench/reference.json``.  It also counts how many CSVs equal the
  recorded reference bytes, how many of the rho > 0 grid points the
  rank-one path witness certified without an ADMM solve, in how many
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

``perfbench/`` is only read and imported from.  The script exits 1 when
any solve in any battery stops at max_iter without converging, when any
``mc-easy`` CSV differs from its reference bytes, or when a ``solve-d200``
solve fails its check, and 0 otherwise.  BLAS is pinned to one thread, as
in the benchmark, before numpy is imported.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import spcarec.sdp as sdp  # noqa: E402
import spcarec.spca as spca  # noqa: E402
from spcarec import cli  # noqa: E402
from spcarec.graph import adjacency, random_graph  # noqa: E402
from spcarec.numerics import SymMatrix  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference.json"
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import REFERENCE_SEED, SolveD200  # noqa: E402


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
            argv = [
                "experiment", "--mode", "synthetic", "--d", "20", "--s", "4",
                "--gap", "8", "--sigma", "0", "--budget", "200",
                "--buckets", "0:2", "--reps", "1",
                "--seed", str(member["seed"]), "--out", out,
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    raise SystemExit(f"experiment failed for seed {member['seed']}")
            with open(out, newline="") as fh:
                same += fh.read() == member["csv"]
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


def main() -> int:
    ok = True
    for battery in (acceptance_02, mc_easy, solve_d200):
        line, passed = battery()
        print(line, flush=True)
        ok &= passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
