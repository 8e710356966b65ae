"""spcarec benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload mc-easy --seed 0 --seconds 50 --trace 0

With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json;
with ``--trace 1`` it runs a fixed number of ops untraced and then again
traced, and prints every per-layer metric.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 1 when an output fails a check or
differs from reference.json, and 2 when the program cannot be found or
imported.

Run from the root of a checkout; everything the run writes goes to
``.perfbench_out/`` there.
"""

import os

# pin BLAS to one thread before numpy is imported, here and in the
# set-up processes this run starts
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("mc-easy", "solve-d200", "diagnose-hard")
# set-up is timed this many times per run (this process plus child
# processes) and reported as the median
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
# the host-speed probe runs after an op once this much op time has passed
# since it last ran (about 5 % of the run); PROBE_REF_S is the fixed time
# that times are scaled to, about the probe's time on a 2-vCPU x86_64 VM
# with Python 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31 on one thread
# (0.13-0.16 s there)
PROBE_EVERY_S = 2.5
PROBE_REF_S = 0.140


class ProgramMissing(Exception):
    pass


def _setup(name: str, seed: int):
    """Import, input generation and one warm-up op.

    Returns the workload, the warm-up op's record and reference, and the
    seconds taken.
    """
    reference = _load_reference(name)
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    try:
        import workloads
    except ImportError as exc:
        raise ProgramMissing(f"cannot import the program: {exc}") from exc
    cls = workloads.WORKLOADS[name]
    w = cls(seed, _scratch(), reference)
    warm = w.warmup(_scratch())
    return w, warm, time.perf_counter() - t0


def _scratch() -> str:
    path = os.path.join(OUT, "tmp")
    os.makedirs(path, exist_ok=True)
    return path


def _child_setup_seconds(args) -> tuple[float, float]:
    """Set-up seconds in a fresh process, and the probe's seconds right
    after it."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "0", "--setup-only",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up process exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(out["setup_s"]), float(out["probe_s"])


def _load_reference(name: str) -> list:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)[name]


def _declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "spcarec")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_thread_pin": {v: os.environ.get(v) for v in _BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
    }


def _git_sha():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Ledger:
    """Outcome of every op: failures, check violations, reference diffs."""

    def __init__(self, w):
        self.w = w
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.records: dict = {}

    def record(self, label, out, failure, ref):
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            print(f"op {label}: failed ({failure})", file=sys.stderr)
        self.check(label, out, ref)

    def check(self, label, out, ref):
        if out is None:
            return
        self.records[label] = out
        issues = self.w.check(out)
        if ref is not None:
            issues += self.w.compare(out, ref)
        self.problems += [f"op {label}: {p}" for p in issues]


def _run_op(w, k, probe):
    """Run op k; returns (record, seconds, failure or None)."""
    probe.op = k
    first = len(probe.spans)
    t0 = time.perf_counter()
    try:
        out = w.op(k)
    except Exception as exc:  # an op that raises is a failed op; keep going
        dt = time.perf_counter() - t0
        traceback.print_exc()
        return None, dt, type(exc).__name__
    dt = time.perf_counter() - t0
    out = w.summarize(out)
    failure = w.failure(out)
    unconverged = sum(
        1 for s in probe.spans[first:]
        if s.name == "sdp.solve_sdp" and s.info and not s.info[1]
    )
    if failure is None and unconverged:
        failure = f"{unconverged} solve(s) not converged"
    return out, dt, failure


def _tail(durations):
    """Value at the highest percentile with at least ten samples beyond it
    (the smallest sample when there are ten or fewer), the percentile, n."""
    ordered = sorted(durations)
    n = len(ordered)
    i = max(0, n - 11)
    return ordered[i], 100.0 * (i + 1) / n, n


def _numerics_us(d: int, seed: int) -> dict:
    """Median microseconds per call of the public numerics kernels at d."""
    import numpy as np
    import spcarec.numerics as numerics
    from workloads import derive

    rng = np.random.default_rng(derive(seed, 99))
    a = rng.standard_normal((d, d))
    m = numerics.SymMatrix(a + a.T)
    out = {}
    for name, call in (
        ("eigh", lambda: numerics.eigh(m)),
        ("project_spectrahedron", lambda: numerics.project_spectrahedron(m)),
        ("soft_threshold", lambda: numerics.soft_threshold(m, 0.5)),
    ):
        times = []
        stop = time.perf_counter() + 0.3
        while len(times) < 20 or (time.perf_counter() < stop and len(times) < 2000):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        out[f"numerics.{name}_us"] = 1e6 * statistics.median(times)
    return out


def _probe_kernel():
    """The host-speed probe: a fixed mix of LAPACK and plain-Python work
    that calls nothing of the program.  Returns a function that runs it
    once and returns its seconds."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((200, 200))
    big = a + a.T
    small = big[:20, :20].copy()

    def probe() -> float:
        t0 = time.perf_counter()
        for _ in range(20):
            np.linalg.eigh(big)
        for _ in range(400):
            np.linalg.eigh(small)
        acc = 0
        for i in range(100_000):
            acc += i * i
        return time.perf_counter() - t0

    return probe


def _measure(args, declared) -> tuple[dict, dict, Ledger]:
    """Untraced run: set-up samples, then ops for --seconds seconds, with
    the host-speed probe between them."""
    from tracing import Tracer

    setups = [_child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
    w, (warm, warm_ref), seconds = _setup(args.workload, args.seed)
    host_probe = _probe_kernel()
    setups.append((seconds, host_probe()))

    ledger = Ledger(w)
    # the warm-up op (Workload.warmup) is checked, not counted
    if w.failure(warm) is not None:
        ledger.problems.append(f"warm-up op failed: {w.failure(warm)}")
    ledger.check("warmup", warm, warm_ref)

    # a probe on solve_sdp alone, to see convergence inside the CLI ops
    probe = Tracer(only={"sdp.solve_sdp"})
    probe.install()
    durations, probes = [], [setups[-1][1]]
    try:
        start = time.perf_counter()
        since_probe = 0.0
        k = 0
        while time.perf_counter() - start < args.seconds:
            out, dt, failure = _run_op(w, k, probe)
            durations.append(dt)
            since_probe += dt
            if since_probe >= PROBE_EVERY_S:
                probes.append(host_probe())
                since_probe = 0.0
            ledger.record(k, out, failure, w.reference_for(k))
            k += 1
    finally:
        probe.uninstall()

    # op times scaled to the reference host speed: the mean probe time
    # follows the mean slowdown over the run
    speed = PROBE_REF_S / statistics.fmean(probes)
    tail, pct, n = _tail(durations)
    metrics = {
        # each set-up sample scaled by the probe that ran right after it
        "setup_s": statistics.median(s * PROBE_REF_S / p for s, p in setups),
        "ops_per_s_norm": len(durations) / sum(durations) / speed,
        "op_s_p50_norm": statistics.median(durations) * speed,
        "op_s_tail_norm": tail * speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "op_seconds": durations,
        "probe_seconds": probes,
        "setup_samples_s": [s for s, _ in setups],
        "setup_probe_s": [p for _, p in setups],
        "host_speed": speed,
        "ops_per_s": len(durations) / sum(durations),
        "op_s_p50": statistics.median(durations),
        "op_s_tail": tail,
        "op_s_tail_percentile": pct,
        "ops": n,
        "failed_frac": ledger.failed / max(1, ledger.attempted),
    }
    missing = set(declared["end_to_end"]) ^ set(metrics)
    if missing:
        raise RuntimeError(f"end-to-end metrics out of step with BENCHMARK.json: {missing}")
    return metrics, extra, ledger


def _measure_traced(args, declared) -> tuple[dict, dict, Ledger]:
    """Traced run: the same fixed ops untraced, then traced."""
    from tracing import Tracer, layer_metrics

    w, (warm, warm_ref), _ = _setup(args.workload, args.seed)
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    ledger = Ledger(w)
    ledger.check("warmup", warm, warm_ref)
    # a fixed op count for a given --seconds, so span counts repeat exactly
    n_ops = max(1, round(cls.trace_ops * args.seconds / 30.0))

    # the untraced pass runs as in --trace 0, with the solve_sdp probe only
    probe = Tracer(only={"sdp.solve_sdp"})
    probe.install()
    plain = []
    try:
        for k in range(n_ops):
            out, dt, failure = _run_op(w, k, probe)
            plain.append(dt)
            ledger.record(("untraced", k), out, failure, w.reference_for(k))
    finally:
        probe.uninstall()

    tracer = Tracer()
    tracer.install()
    traced = []
    try:
        with tracer.root("setup", "setup"):
            w2 = cls(args.seed, _scratch(), w.reference)
        for k in range(n_ops):
            with tracer.root("op", k):
                out, dt, failure = _run_op(w2, k, tracer)
            traced.append(dt)
            ledger.record(("traced", k), out, failure, w2.reference_for(k))
    finally:
        tracer.uninstall()

    for k in range(n_ops):
        a = ledger.records.get(("untraced", k))
        b = ledger.records.get(("traced", k))
        if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True):
            ledger.problems.append(f"op {k}: traced output differs from untraced")

    all_metrics = layer_metrics(tracer.spans)
    all_metrics["sdp.nonconverged_set_aside"] = _run_set_aside(w, ledger)
    all_metrics.update(_numerics_us(cls.d, args.seed))
    all_metrics["trace.ops"] = n_ops
    all_metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
    missing = set(declared["per_layer"]) - set(all_metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
    metrics = {name: all_metrics[name] for name in declared["per_layer"]}
    extra = {
        "report_only": {
            k: v for k, v in sorted(all_metrics.items()) if k not in metrics
        },
        "untraced_ops_s": sum(plain),
        "traced_ops_s": sum(traced),
    }
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(spans_path, "w") as fh:
        for i, s in enumerate(tracer.spans):
            fh.write(json.dumps(s.as_dict(i)) + "\n")
    extra["spans_file"] = os.path.relpath(spans_path, ROOT)
    return metrics, extra, ledger


def _run_set_aside(w, ledger) -> int:
    """Run the pool members kept out of the timed ops because a solve in
    them stops at max_iter; check their outputs and count those solves."""
    from tracing import Tracer

    probe = Tracer(only={"sdp.solve_sdp"})
    probe.install()
    try:
        outs = [w.summarize(w.run_member(ref)) for ref in w.set_aside()]
    finally:
        probe.uninstall()
    for i, (out, ref) in enumerate(zip(outs, w.set_aside())):
        ledger.check(("set-aside", i), out, ref)
    return sum(1 for s in probe.spans if s.info and not s.info[1])


def _report_unit(name: str) -> str:
    if "us_per_" in name or name.endswith("_us"):
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", "_s_p50")):
        return "s"
    return "count"


def _units(metrics: dict, declared: dict) -> dict:
    return {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("need --seed >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(SRC, "spcarec", "__init__.py")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    try:
        if args.setup_only:
            *_, seconds = _setup(args.workload, args.seed)
            print(json.dumps({"setup_s": seconds, "probe_s": _probe_kernel()()}))
            return 0
        declared = _declared_metrics()
        if args.trace:
            metrics, extra, ledger = _measure_traced(args, declared)
            units = declared["per_layer"]
        else:
            metrics, extra, ledger = _measure(args, declared)
            units = declared["end_to_end"]
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    env = _environment()
    correct = not ledger.problems
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": _units(metrics, units),
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": WORKLOADS[args.workload].params,
        "environment": env, "result": result, "extra": extra,
        "problems": ledger.problems,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    ), "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    for problem in ledger.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(f"env {json.dumps(env)}")
    for key, value in extra.items():
        if key in ("op_seconds", "probe_seconds"):
            continue
        if key == "report_only":
            for name, v in value.items():
                print(f"  {name} = {v:.6g} {_report_unit(name)}")
        else:
            print(f"{key} {value}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
