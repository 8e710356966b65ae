"""The three benchmark workloads.

Each workload takes its inputs from the benchmark seed, directly or as
the order in which it draws from a recorded pool, and runs numbered ops.
``op(k)`` returns a JSON-able record of what the program produced;
``check`` lists invariant violations that must hold for any seed,
``compare`` lists differences from reference.json, and ``failure`` names
a documented failure outcome (the op ran but did not do its job).

Ops call the program through module attributes (``sdp.solve_sdp``), so
the tracer sees them; checks use functions bound at import time, before
any tracer is installed, so they add no spans.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os

import numpy as np

import spcarec.baselines as baselines
import spcarec.bounds as bounds
import spcarec.cli as cli
import spcarec.graph as graph
import spcarec.harness as harness
import spcarec.sdp as sdp
import spcarec.spca as spca
from spcarec.errors import (
    Disconnected,
    IrregularityUndefined,
    ThresholdTooLarge,
)

# the default seed; reference outputs are recorded for it, and every
# workload's warm-up op is op 0 of this seed
REFERENCE_SEED = 0

_block_quantities = graph.block_quantities
_adjacency = graph.adjacency


def derive(seed: int, *parts: int) -> int:
    """Independent 32-bit seed for the input identified by ``parts``."""
    return int(np.random.SeedSequence((seed, *parts)).generate_state(1)[0])


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _valid_index_set(values, d: int) -> bool:
    return (
        isinstance(values, list)
        and len(set(values)) == len(values)
        and all(isinstance(i, int) and 0 <= i < d for i in values)
    )


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


class Workload:
    name: str
    d: int
    # ops per phase of a traced run at --seconds 30 (scaled with it); about
    # half the run each for the untraced and the traced phase
    trace_ops: int
    # the fields of an op's record kept in reference.json
    reference_keys: tuple
    params: dict

    def __init__(self, seed: int, scratch: str, reference: list):
        self.seed = seed
        self.reference = reference

    def warmup(self, scratch: str) -> tuple:
        """Run op 0 of the reference seed, the set-up's warm-up op; returns
        its record and reference."""
        w = type(self)(REFERENCE_SEED, scratch, self.reference)
        return w.summarize(w.op(0)), w.reference_for(0)

    def reference_for(self, k: int) -> dict | None:
        """Reference record of op k; reference.json holds the ops of the
        reference seed."""
        if self.seed == REFERENCE_SEED and k < len(self.reference):
            return self.reference[k]
        return None

    def summarize(self, out: dict) -> dict:
        """Finish an op's record outside the timed region."""
        return out

    def failure(self, out: dict) -> str | None:
        return None

    def set_aside(self) -> list[dict]:
        return []


def _van_der_corput_order(n: int) -> tuple:
    """0..n-1 in the order in which the base-2 van der Corput sequence
    first lands in each of n equal bins of [0, 1)."""
    order, k = [], 1
    while len(order) < n:
        x, f, j = 0.0, 0.5, k
        while j:
            x += f * (j & 1)
            j >>= 1
            f /= 2
        b = int(x * n)
        if b not in order:
            order.append(b)
        k += 1
    return tuple(order)


class PooledWorkload(Workload):
    """Ops drawn from a fixed pool, stratified by cost.

    The ADMM iteration count of one op varies several-fold between inputs
    (a few solves near a change of support dominate), so a run of a few
    dozen freely drawn ops would spread by tens of percent from seed to
    seed.  reference.json keeps a pool of ops recorded by make_reference.py
    with their iteration counts.  The timed pool is cut into ``strata`` bins of
    equal size by that count, the seed permutes each bin, and op k takes
    the next member of bin ``stratum_order[k % strata]``.  Every reference
    record is also the expected output of its op, on every seed.
    """

    strata = 20
    # bins in van der Corput order (10, 5, 15, 2, 12, ...): every prefix
    # spreads over the whole cost range, so wherever a run stops, its ops
    # have about the pool's mean and median cost
    stratum_order = _van_der_corput_order(strata)

    def __init__(self, seed: int, scratch: str, reference: list):
        super().__init__(seed, scratch, reference)
        self.bins = self._bins(seed)

    def timed_pool(self) -> list[int]:
        """Pool members the timed ops draw from: those whose solves all
        converged when the pool was recorded."""
        return [i for i, r in enumerate(self.reference) if not r["unconverged_solves"]]

    def set_aside(self) -> list[dict]:
        """Pool members with a solve that stopped at ``max_iter``.  They are
        kept out of the timed ops, which must not fail, and a traced run
        runs them once to count those solves (``sdp.nonconverged_set_aside``)."""
        return [r for r in self.reference if r["unconverged_solves"]]

    def _bins(self, seed: int) -> list:
        ref = self.reference
        order = sorted(self.timed_pool(), key=lambda i: (ref[i]["iterations"], i))
        rng = np.random.default_rng(derive(seed, 0))
        return [
            [int(i) for i in rng.permutation(part)]
            for part in np.array_split(np.asarray(order, dtype=int), self.strata)
        ]

    def member(self, k: int) -> dict:
        members = self.bins[self.stratum_order[k % self.strata]]
        return self.reference[members[(k // self.strata) % len(members)]]

    def op(self, k: int) -> dict:
        return self.run_member(self.member(k))

    def reference_for(self, k: int) -> dict | None:
        return self.member(k)

    def warmup(self, scratch: str) -> tuple:
        """The warm-up op is the reference seed's first member of the
        cheapest bin, so set-up stays short and does not depend on --seed."""
        first = self._bins(REFERENCE_SEED)[0][0]
        ref = self.reference[first]
        return self.summarize(self.run_member(ref)), ref

    @classmethod
    def pool_members(cls) -> list[dict]:
        """What identifies each pool op, before it is recorded."""
        raise NotImplementedError

    def run_member(self, spec: dict) -> dict:
        raise NotImplementedError


class McEasy(PooledWorkload):
    """``spcarec experiment`` in-process, one repetition per op; the pool
    is 200 repetitions (experiment seeds ``derive(0, i)``), 198 of them
    timed (see ``set_aside``)."""

    name = "mc-easy"
    d, s, gap, sigma, budget, bucket = 20, 4, 8.0, 0.0, 200, (0.0, 2.0)
    trace_ops = 8
    pool_size = 200
    reference_keys = ("csv",)
    params = {
        "entry": "spcarec.cli.main(['experiment', '--mode', 'synthetic', ...])",
        "d": d, "s": s, "gap": gap, "sigma": sigma, "budget": budget,
        "bucket": "0:2", "grid": "CLI default, 0.025:1.0:0.025 (40 points)",
        "reps_per_op": 1, "workers": 1,
        "op": "one pool repetition: 198 of 200 experiment seeds in 20 "
              "iteration-count strata, order permuted by the seed",
    }

    def __init__(self, seed: int, scratch: str, reference: list):
        super().__init__(seed, scratch, reference)
        self.path = os.path.join(scratch, f"mc-{os.getpid()}.csv")

    @classmethod
    def pool_members(cls) -> list[dict]:
        return [{"seed": derive(REFERENCE_SEED, i)} for i in range(cls.pool_size)]

    def run_member(self, spec: dict) -> dict:
        return self.experiment(spec["seed"], self.path)

    @classmethod
    def experiment(cls, cli_seed: int, path: str) -> dict:
        argv = [
            "experiment", "--mode", "synthetic", "--d", str(cls.d),
            "--s", str(cls.s), "--gap", f"{cls.gap:g}", "--sigma", f"{cls.sigma:g}",
            "--budget", str(cls.budget), "--buckets", "%g:%g" % cls.bucket,
            "--reps", "1", "--workers", "1", "--seed", str(cli_seed),
            "--out", path,
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"spcarec experiment exited with {code}")
        with open(path, newline="") as fh:
            return {"csv": fh.read()}

    @staticmethod
    def _row(out: dict) -> list[str]:
        rows = list(csv.reader(io.StringIO(out["csv"])))
        return rows[1] if len(rows) == 2 else []

    def failure(self, out: dict) -> str | None:
        row = self._row(out)
        if row and math.isnan(float(row[5])):
            return "skipped"
        return None

    def check(self, out: dict) -> list[str]:
        rows = list(csv.reader(io.StringIO(out["csv"])))
        if len(rows) != 2 or len(rows[1]) != 7:
            return [f"expected a header and one row, got {rows!r}"]
        header, row = rows
        problems = []
        if header != ["bucket_lo", "bucket_hi", "gap", "sigma", "reps", "rate",
                      "mean_rescaled"]:
            problems.append(f"unexpected header {header}")
        want = ["%g" % self.bucket[0], "%g" % self.bucket[1], f"{self.gap:g}",
                f"{self.sigma:g}", "1"]
        if row[:5] != want:
            problems.append(f"row echoes {row[:5]}, expected {want}")
        rate, rescaled = float(row[5]), float(row[6])
        if not math.isnan(rate):
            if not 0.0 <= rate <= 1.0:
                problems.append(f"rate {rate} outside [0, 1]")
            if not (math.isfinite(rescaled) and rescaled > 0):
                problems.append(f"mean_rescaled {rescaled} is not positive")
        return problems

    def compare(self, out: dict, ref: dict) -> list[str]:
        if out["csv"] != ref["csv"]:
            return [f"CSV bytes differ: {out['csv']!r} != {ref['csv']!r}"]
        return []


class SolveD200(PooledWorkload):
    """Cold ``solve_sdp`` at d=200 followed by ``kkt_report``; the pool is
    20 instances times 3 penalties."""

    name = "solve-d200"
    d, s, gap, sigma, budget = 200, 20, 10.0, 0.1, 20000
    rhos = (0.1, 0.3, 0.6)
    n_instances = 20
    trace_ops = 11
    reference_keys = ("instance", "rho", "support", "objective", "converged",
                      "stationarity")
    # the acceptance gate's levels for a converged solve
    feasibility_bound = 1e-6
    stationarity_bound = 1e-5
    params = {
        "entry": "spcarec.sdp.solve_sdp (default tol 1e-7), then kkt_report",
        "d": d, "s": s, "gap": gap, "sigma": sigma, "budget": budget,
        "rho": list(rhos), "instances": n_instances,
        "op": "one pool solve: 20 instances x 3 rho in 20 iteration-count "
              "strata, order permuted by the seed",
    }

    def __init__(self, seed: int, scratch: str, reference: list):
        super().__init__(seed, scratch, reference)
        self.instances = [self._instance(i) for i in range(self.n_instances)]

    def _instance(self, i: int):
        g = graph.random_graph(self.d, self.budget, derive(REFERENCE_SEED, i, 0))
        inst = harness.gen_instance(
            self.d, self.s, self.gap, self.sigma, g, derive(REFERENCE_SEED, i, 1)
        )
        return inst.m

    @classmethod
    def pool_members(cls) -> list[dict]:
        return [{"instance": i, "rho": rho}
                for i in range(cls.n_instances) for rho in cls.rhos]

    def run_member(self, spec: dict) -> dict:
        m, rho = self.instances[spec["instance"]], spec["rho"]
        sol = sdp.solve_sdp(m, rho)
        rep = sdp.kkt_report(m, rho, sol.x_hat, sol.z_dual)
        return {
            "instance": spec["instance"],
            "rho": rho,
            "support": sorted(sol.support),
            "objective": sol.objective,
            "converged": sol.converged,
            "iterations": sol.iterations,
            "stationarity": rep.stationarity_residual,
            "trace_violation": rep.trace_violation,
            "min_eigenvalue": rep.min_eigenvalue,
        }

    def failure(self, out: dict) -> str | None:
        return None if out["converged"] else "nonconverged"

    def check(self, out: dict) -> list[str]:
        problems = []
        if not out["support"] or not _valid_index_set(out["support"], self.d):
            problems.append(f"support {out['support']} is not a valid index set")
        if not math.isfinite(out["objective"]):
            problems.append("objective is not finite")
        if out["trace_violation"] > self.feasibility_bound:
            problems.append(f"trace(X) off by {out['trace_violation']:.3g}")
        if out["min_eigenvalue"] < -self.feasibility_bound:
            problems.append(f"X has eigenvalue {out['min_eigenvalue']:.3g}")
        if out["converged"] and out["stationarity"] > self.stationarity_bound:
            problems.append(f"KKT stationarity {out['stationarity']:.3g}")
        return problems

    def compare(self, out: dict, ref: dict) -> list[str]:
        problems = []
        for key in ("instance", "rho", "support", "converged"):
            if out[key] != ref[key]:
                problems.append(f"{key} {out[key]} != reference {ref[key]}")
        # residuals are normalized to 1e-7; the objective agrees to well
        # within 1e-6 of its scale
        if not _close(out["objective"], ref["objective"], 1e-6):
            problems.append(
                f"objective {out['objective']!r} != reference {ref['objective']!r}"
            )
        if out["stationarity"] > ref["stationarity_bound"]:
            problems.append(
                f"stationarity {out['stationarity']:.3g} above the reference "
                f"bound {ref['stationarity_bound']:.3g}"
            )
        return problems

    @staticmethod
    def reference_stationarity_bound(out: dict) -> float:
        """Bound stored with a reference op: two orders of magnitude of
        room over the recorded residual."""
        return max(100.0 * out["stationarity"], 1e-8)


class DiagnoseHard(Workload):
    """Instance generation plus every diagnostic and baseline; no ADMM solve."""

    name = "diagnose-hard"
    d, s, gap, sigma, budget, bucket = 50, 10, 10.0, 0.1, 1250, (10.0, 12.0)
    tail_trials = 1000
    dtspca_ks = tuple(range(1, 21))
    itspca_thresholds = tuple(round(0.05 * k, 6) for k in range(1, 21))
    trace_ops = 45
    reference_keys = ("support", "edges", "witness", "conditions",
                      "masking_holds", "tail_holds", "baselines")
    params = {
        "d": d, "s": s, "gap": gap, "sigma": sigma, "budget": budget,
        "bucket": "10:12",
        "op": [
            "random_graph_bucketed (max_tries = harness.DEFAULT_MAX_TRIES)",
            "gen_instance",
            "theoretical_rho; witness_certificate and "
            "sufficient_conditions_report at that rho",
            "masking_difference_check on the support block (M*_JJ, G_JJ)",
            "tail_bound_montecarlo on G_{J,Jc}, 1000 trials, t = CLI default "
            "2 sigma sqrt(max(Dmax, 1) log d)",
            "dtspca k=1..20; itspca thresholds 0.05..1.0 (20); complete_nuclear",
        ],
    }

    def op(self, k: int) -> dict:
        d, s, sigma = self.d, self.s, self.sigma
        rng = np.random.default_rng(derive(self.seed, k, 0))
        support = sorted(int(i) for i in rng.choice(d, size=s, replace=False))
        g = graph.random_graph_bucketed(
            d, self.budget, support, self.bucket[0], self.bucket[1],
            harness.DEFAULT_MAX_TRIES, derive(self.seed, k, 1),
        )
        inst = harness.gen_instance(
            d, s, self.gap, sigma, g, derive(self.seed, k, 2), support=support
        )
        rho = spca.theoretical_rho(inst.m_star, g, sigma, support)
        w = sdp.witness_certificate(inst.m_star, g, inst.m, rho, support)
        try:
            report = spca.sufficient_conditions_report(
                inst.m_star, g, sigma, rho, support
            )
            conditions = [r.holds for r in report.ineq]
        except (Disconnected, IrregularityUndefined) as exc:
            conditions = f"unavailable:{type(exc).__name__}"

        block = inst.m_star.a[np.ix_(support, support)]
        try:
            lhs, rhs, holds = bounds.masking_difference_check(
                block, graph.induced_subgraph(g, support)
            )
            masking = {"holds": bool(holds), "lhs": lhs, "rhs": rhs}
        except (Disconnected, IrregularityUndefined) as exc:
            masking = f"unavailable:{type(exc).__name__}"

        pattern = graph.bipartite_block(g, support)
        dmax = pattern.max_degree()
        t = 2.0 * sigma * math.sqrt(max(dmax, 1) * math.log(d))
        tail = bounds.tail_bound_montecarlo(
            sigma, pattern, t, self.tail_trials, derive(self.seed, k, 3)
        )

        dt = [sorted(baselines.dtspca(inst.m, kk).support) for kk in self.dtspca_ks]
        it = []
        for thr in self.itspca_thresholds:
            try:
                it.append(sorted(baselines.itspca(inst.m, thr).support))
            except ThresholdTooLarge:
                it.append("ThresholdTooLarge")
        filled = baselines.complete_nuclear(inst.m, g)
        return {
            "support": support,
            "theoretical_rho": rho,
            "witness": [w.cond_sign, w.cond_offblock, w.cond_eig, w.cond_gap,
                        w.certified],
            "conditions": conditions,
            "masking": masking,
            "tail": {"holds": tail.holds, "empirical": tail.empirical,
                     "bound": tail.bound, "trials": tail.trials},
            "masking_holds": masking["holds"] if isinstance(masking, dict) else masking,
            "tail_holds": tail.holds,
            "dtspca": dt,
            "itspca": it,
            "_objects": (g, inst.m.a, filled.a),
        }

    def summarize(self, out: dict) -> dict:
        g, m, filled = out.pop("_objects")
        observed = _adjacency(g).a.astype(bool)
        phi, psi = _block_quantities(g, out["support"])
        out.update({
            "edges": _digest(sorted(g.edges)),
            "baselines": _digest([out["dtspca"], out["itspca"]]),
            "ordered_entries": int(observed.sum()),
            "block_ratio": psi / phi,
            "completion_observed_err": float(
                np.abs(filled - m)[observed].max(initial=0.0)
            ),
            "completion_asymmetry": float(np.abs(filled - filled.T).max()),
        })
        return out

    def check(self, out: dict) -> list[str]:
        d, problems = self.d, []
        lo, hi = self.bucket
        if not lo <= out["block_ratio"] < hi:
            problems.append(f"support block ratio {out['block_ratio']} not in bucket")
        if not self.budget <= out["ordered_entries"] <= self.budget + 1:
            problems.append(f"{out['ordered_entries']} observed entries")
        for k, supp in zip(self.dtspca_ks, out["dtspca"]):
            if len(supp) != k or not _valid_index_set(supp, d):
                problems.append(f"dtspca k={k} support {supp} invalid")
        for supp in out["itspca"]:
            if supp != "ThresholdTooLarge" and not (
                supp and _valid_index_set(supp, d)
            ):
                problems.append(f"itspca support {supp} invalid")
        if out["completion_observed_err"] > 1e-12 or out["completion_asymmetry"] > 0:
            problems.append(
                "complete_nuclear disagrees with the observed entries "
                f"({out['completion_observed_err']:.3g}) or is asymmetric"
            )
        if isinstance(out["masking"], dict) and not out["masking"]["holds"]:
            problems.append(f"masking difference bound fails: {out['masking']}")
        tail = out["tail"]
        if not (0.0 <= tail["empirical"] <= 1.0 and tail["bound"] >= 0.0):
            problems.append(f"tail check out of range: {tail}")
        if not (math.isfinite(out["theoretical_rho"]) and out["theoretical_rho"] > 0):
            problems.append(f"theoretical rho {out['theoretical_rho']}")
        return problems

    def compare(self, out: dict, ref: dict) -> list[str]:
        return [
            f"{key} {out[key]} != reference {ref[key]}"
            for key in self.reference_keys
            if out[key] != ref[key]
        ]


WORKLOADS = {cls.name: cls for cls in (McEasy, SolveD200, DiagnoseHard)}
