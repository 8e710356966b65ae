"""Record the reference outputs into reference.json.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are the intended reference: the
benchmark fails any run whose outputs differ from what this writes.  For
``mc-easy`` and ``solve-d200`` it records the whole op pool, with each
op's ADMM iteration count, which the workloads use to stratify the pool;
for ``diagnose-hard`` the first ops of the reference seed.
"""

import json
import os
import sys

import run  # pins BLAS before numpy is imported

# ops of the reference seed recorded for diagnose-hard: more than a run at
# the reference commit completes, so a faster commit is still checked op
# by op
DIAGNOSE_OPS = 250


def _record(cls, out: dict) -> dict:
    ref = {key: out[key] for key in cls.reference_keys}
    if hasattr(cls, "reference_stationarity_bound"):
        ref["stationarity_bound"] = cls.reference_stationarity_bound(out)
    return ref


def _pool(workloads, tracing, cls) -> list:
    """Run every pool op once and record it with its ADMM iteration count."""
    w = cls(workloads.REFERENCE_SEED, run._scratch(), [])
    probe = tracing.Tracer(only={"sdp.solve_sdp"})
    probe.install()
    try:
        pool = []
        for i, spec in enumerate(cls.pool_members()):
            first = len(probe.spans)
            out = w.summarize(w.run_member(spec))
            solves = [s.info for s in probe.spans[first:]]
            problems = w.check(out)
            if problems or w.failure(out):
                raise SystemExit(f"{cls.name} pool op {i}: {w.failure(out)} {problems}")
            unconverged = sum(1 for _, c, _ in solves if not c)
            # recorded, but set aside from the timed ops (see PooledWorkload)
            if unconverged:
                print(f"{cls.name} pool op {i} {spec}: {unconverged} solve(s) "
                      "not converged", flush=True)
            pool.append({**spec, "iterations": sum(n for n, _, _ in solves),
                         "unconverged_solves": unconverged, **_record(cls, out)})
            print(cls.name, i, flush=True)
    finally:
        probe.uninstall()
    return pool


def main() -> int:
    sys.path.insert(0, run.SRC)
    import tracing
    import workloads

    reference = {
        cls.name: _pool(workloads, tracing, cls)
        for cls in (workloads.McEasy, workloads.SolveD200)
    }
    cls = workloads.DiagnoseHard
    w = cls(workloads.REFERENCE_SEED, run._scratch(), [])
    records = []
    for k in range(DIAGNOSE_OPS):
        out = w.summarize(w.op(k))
        problems = w.check(out)
        if problems or w.failure(out):
            raise SystemExit(f"{cls.name} op {k}: {w.failure(out)} {problems}")
        records.append(_record(cls, out))
        print(cls.name, k, flush=True)
    reference[cls.name] = records
    write(reference, os.path.join(run.HERE, "reference.json"))
    return 0


def write(reference: dict, path: str) -> None:
    """One record per line, so a re-recorded reference diffs by op."""
    with open(path, "w") as fh:
        fh.write("{\n")
        for n, (name, records) in enumerate(sorted(reference.items())):
            fh.write(f" {json.dumps(name)}: [\n")
            fh.write(",\n".join("  " + json.dumps(r, sort_keys=True) for r in records))
            fh.write("\n ]" + ("," if n < len(reference) - 1 else "") + "\n")
        fh.write("}\n")


if __name__ == "__main__":
    sys.exit(main())
