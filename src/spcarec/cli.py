"""Command-line interface.

Exit codes: 0 on success, 2 on parse/validation errors, 3 when --strict is
set and a solve did not converge.  All indices on the command line and in
printed output are 0-based.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .bounds import tail_bound_montecarlo, masking_difference_check
from .errors import Disconnected, IrregularityUndefined
from .graph import BipartiteSubgraph, graph_from_mask, random_graph
from .harness import (
    _METHODS,
    emit_csv,
    gen_instance,
    load_matrix_csv,
    pitprops_experiment,
    run_bucket_experiment,
    write_mask_csv,
    write_matrix_csv,
)
from .numerics import SymMatrix
from .sdp import DEFAULT_MAX_ITER, DEFAULT_TOL, kkt_report, solve_sdp, witness_certificate
from .spca import _grid, sufficient_conditions_report, tune_rho

_EXIT_OK = 0
_EXIT_PARSE = 2
_EXIT_NOT_CONVERGED = 3
# experiment flags that only synthetic mode reads, with its values for them
_SYNTHETIC_DEFAULTS = {"d": 50, "s": 10, "gap": 10.0}


def _fmt_support(support) -> str:
    return ",".join(str(i) for i in sorted(support)) if support else "(empty)"


def _parse_support(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ValueError(f"cannot parse support list {text!r}") from None


def _parse_buckets(text: str) -> list[tuple[float, float]]:
    buckets = []
    for part in text.split(","):
        lo, _, hi = part.partition(":")
        try:
            buckets.append((float(lo), float(hi)))
        except ValueError:
            raise ValueError(f"cannot parse bucket {part!r}") from None
    return buckets


def _cmd_gen(args) -> int:
    graph = random_graph(args.d, args.budget, args.seed)
    inst = gen_instance(args.d, args.s, args.gap, args.sigma, graph, args.seed)
    write_matrix_csv(args.out, inst.m, graph=graph)
    if args.truth_out:
        write_matrix_csv(args.truth_out, inst.m_star)
    if args.mask_out:
        write_mask_csv(args.mask_out, graph)
    print(f"wrote {args.out} (d={args.d}, support={_fmt_support(inst.support)})")
    return _EXIT_OK


def _cmd_solve(args) -> int:
    m, _ = load_matrix_csv(args.infile, args.mask)
    sol = solve_sdp(m, args.rho, tol=args.tol, max_iter=args.max_iter)
    report = kkt_report(m, args.rho, sol.x_hat, sol.z_dual)
    print(f"support: {_fmt_support(sol.support)}")
    print(f"objective: {sol.objective:.8g}")
    print(
        f"iterations: {sol.iterations}  converged: {sol.converged}  "
        f"primal: {sol.primal_residual:.3g}  dual: {sol.dual_residual:.3g}  "
        f"gap: {sol.gap:.3g}"
    )
    print(
        f"kkt: mu={report.mu_hat:.8g}  stationarity={report.stationarity_residual:.3g}  "
        f"trace_violation={report.trace_violation:.3g}  min_eig={report.min_eigenvalue:.3g}"
    )
    if args.strict and not sol.converged:
        return _EXIT_NOT_CONVERGED
    return _EXIT_OK


def _cmd_tune(args) -> int:
    m, _ = load_matrix_csv(args.infile, args.mask)
    grid = _grid(args.grid_start, args.grid_stop, args.grid_step)
    trace = tune_rho(m, grid, args.a)
    print("rho,criterion,support")
    for rho, c, supp in zip(trace.grid, trace.criteria, trace.supports):
        print(f"{rho:.6g},{c:.6g},{_fmt_support(supp)}")
    print(f"chosen_rho: {trace.chosen_rho:.6g}")
    print(f"chosen_support: {_fmt_support(trace.chosen_support)}")
    return _EXIT_OK


def _cmd_certify(args) -> int:
    m_star, _ = load_matrix_csv(args.truth)
    m, graph = load_matrix_csv(args.infile, args.mask)
    support = _parse_support(args.support)
    # everything is computed before anything is printed, so a rejected
    # argument leaves stdout empty rather than holding half a report
    witness = witness_certificate(m_star, graph, m, args.rho, support)
    lines = [
        f"witness: sign={witness.cond_sign}  offblock={witness.cond_offblock} "
        f"(max {witness.offblock_max:.6g})  eig={witness.cond_eig} "
        f"(lambda1 {witness.lambda1_restricted:.6g} vs {witness.lambda1_full:.6g}, "
        f"tail max {witness.tailblock_max:.6g})  gap={witness.cond_gap} "
        f"({witness.eigengap:.6g})",
        f"certified: {witness.certified}",
    ]
    try:
        report = sufficient_conditions_report(
            m_star, graph, args.sigma, args.rho, support
        )
    except (Disconnected, IrregularityUndefined) as exc:
        # the recovery conditions cannot hold on such a graph; that is the answer
        lines.append(f"conditions: unavailable ({exc})")
    else:
        lines.append(
            f"conditions: xi={report.xi:.6g}  rescaled={report.rescaled:.6g}  "
            f"gap={report.spectral_gap:.6g}  min|u1|={report.min_abs_u1:.6g}"
        )
        for rec in report.ineq:
            op = "<" if rec.strict else "<="
            lines.append(
                f"  {rec.name}: {rec.lhs:.6g} {op} {rec.rhs:.6g} -> "
                f"{'holds' if rec.holds else 'fails'}"
            )
    print("\n".join(lines))
    return _EXIT_OK


def _cmd_experiment(args) -> int:
    buckets = _parse_buckets(args.buckets)
    # unset flags fall through to the library's defaults
    given = {"reps": args.reps, "a": args.a, "sigma": args.sigma}
    given = {k: v for k, v in given.items() if v is not None}
    grid_flags = (args.grid_start, args.grid_stop, args.grid_step)
    if grid_flags != (None, None, None):
        if None in grid_flags:
            raise ValueError("give --grid-start, --grid-stop and --grid-step together")
        given["rho_grid"] = _grid(*grid_flags)
    if args.mode == "synthetic":
        if args.matrix is not None:
            raise ValueError("--matrix applies only to pitprops mode")
        d, s, gap = (
            default if getattr(args, flag) is None else getattr(args, flag)
            for flag, default in _SYNTHETIC_DEFAULTS.items()
        )
        rows = run_bucket_experiment(
            d, s, gap, given.pop("sigma", 0.0), args.budget,
            buckets, rng_seed=args.seed, method=args.method, **given,
        )
    else:
        for flag in _SYNTHETIC_DEFAULTS:
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} applies only to synthetic mode")
        if not args.matrix:
            raise ValueError("--matrix is required for pitprops mode")
        rows = pitprops_experiment(
            args.matrix, args.budget, buckets, rng_seed=args.seed,
            method=args.method, **given,
        )
    emit_csv(rows, args.out)
    for r in rows:
        status = "skipped" if r.skipped else f"rate={r.exact_recovery_rate:.3f}"
        print(
            f"bucket [{r.bucket_lo:g},{r.bucket_hi:g}) gap={r.spectral_gap:g} "
            f"sigma={r.sigma:g}: {status}  mean_rescaled={r.mean_rescaled:.6g}"
        )
    print(f"wrote {args.out}")
    return _EXIT_OK


def _cmd_bounds(args) -> int:
    if args.check == "thm2":
        if not 0.0 <= args.density <= 1.0:
            raise ValueError("density must be in [0, 1]")
        for flag in ("m", "n"):
            if getattr(args, flag) < 1:
                raise ValueError(f"--{flag} must be at least 1")
        rng = np.random.default_rng(np.random.SeedSequence(args.pattern_seed))
        mask = rng.random((args.m, args.n)) < args.density
        pattern = BipartiteSubgraph(mask)
        dmax = pattern.max_degree()
        if args.t is not None:
            t = args.t
        else:
            t = 2.0 * args.sigma * math.sqrt(max(dmax, 1) * math.log(args.m + args.n))
        check = tail_bound_montecarlo(args.sigma, pattern, t, args.trials, args.seed)
        print(
            f"t={check.t:.6g}  bound={check.bound:.6g}  empirical={check.empirical:.6g}  "
            f"trials={check.trials}  holds={check.holds}"
        )
        return _EXIT_OK
    if args.cases < 1:
        raise ValueError("--cases must be at least 1")
    if args.n < 2:
        raise ValueError("--n must be at least 2")
    worst = None
    all_hold = True
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    done = 0
    attempts = 0
    while done < args.cases and attempts < 100 * args.cases:
        attempts += 1
        mask = rng.random((args.n, args.n)) < rng.uniform(0.3, 0.9)
        mask = np.triu(mask) | np.triu(mask).T
        g = graph_from_mask(mask)
        y = rng.standard_normal((args.n, args.n))
        try:
            lhs, rhs, holds = masking_difference_check(SymMatrix(y + y.T), g)
        except (Disconnected, IrregularityUndefined):
            continue
        done += 1
        all_hold &= holds
        margin = rhs - lhs
        if worst is None or margin < worst[0]:
            worst = (margin, lhs, rhs)
    if worst is None:
        raise ValueError(f"no valid cases sampled in {attempts} attempts")
    print(
        f"cases={done}  tightest margin={worst[0]:.6g} "
        f"(lhs={worst[1]:.6g}, rhs={worst[2]:.6g})  all_hold={all_hold}"
    )
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spcarec", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic instance CSV")
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--s", type=int, required=True)
    g.add_argument("--gap", type=float, required=True)
    g.add_argument("--sigma", type=float, default=0.0)
    g.add_argument("--budget", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--truth-out", default=None)
    g.add_argument("--mask-out", default=None)
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser("solve", help="solve one instance at a fixed penalty")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--mask", default=None)
    s.add_argument("--rho", type=float, required=True)
    s.add_argument("--tol", type=float, default=DEFAULT_TOL)
    s.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    s.add_argument("--strict", action="store_true")
    s.set_defaults(func=_cmd_solve)

    t = sub.add_parser("tune", help="grid-search the penalty")
    t.add_argument("--in", dest="infile", required=True)
    t.add_argument("--mask", default=None)
    t.add_argument("--grid-start", type=float, required=True)
    t.add_argument("--grid-stop", type=float, required=True)
    t.add_argument("--grid-step", type=float, required=True)
    t.add_argument("--a", type=float, default=0.5)
    t.set_defaults(func=_cmd_tune)

    c = sub.add_parser("certify", help="witness certificate and condition report")
    c.add_argument("--truth", required=True)
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--mask", default=None)
    c.add_argument("--rho", type=float, required=True)
    c.add_argument("--support", required=True, help="0-based, e.g. 0,1,4")
    c.add_argument("--sigma", type=float, default=0.0)
    c.set_defaults(func=_cmd_certify)

    e = sub.add_parser("experiment", help="bucketed Monte-Carlo recovery rates")
    e.add_argument("--mode", choices=["synthetic", "pitprops"], required=True)
    for flag, default in _SYNTHETIC_DEFAULTS.items():
        e.add_argument(f"--{flag}", type=type(default), default=None,
                       help=f"synthetic mode only; unset: {default:g}")
    e.add_argument("--sigma", type=float, default=None,
                   help="unset: 0 for synthetic, library default for pitprops")
    e.add_argument("--budget", type=int, default=1250)
    e.add_argument("--buckets", required=True, help="e.g. 0:2,8:10,16:18")
    e.add_argument("--reps", type=int, default=None, help="unset: library default")
    e.add_argument("--grid-start", type=float, default=None,
                   help="give all three grid flags or none; unset: library default")
    e.add_argument("--grid-stop", type=float, default=None)
    e.add_argument("--grid-step", type=float, default=None)
    e.add_argument("--a", type=float, default=None,
                   help="criterion weight; unset: library default")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--workers", type=int, choices=[1], default=1,
                   help="repetitions run serially; accepted only for "
                   "existing scripts")
    e.add_argument("--matrix", default=None, help="pitprops matrix CSV")
    e.add_argument("--method", choices=list(_METHODS), default="sdp")
    e.add_argument("--out", required=True)
    e.set_defaults(func=_cmd_experiment)

    b = sub.add_parser("bounds", help="check the auxiliary tail/difference bounds")
    b.add_argument("--check", choices=["thm2", "thm3"], required=True)
    b.add_argument("--sigma", type=float, default=1.0)
    b.add_argument("--m", type=int, default=5)
    b.add_argument("--n", type=int, default=5)
    b.add_argument("--density", type=float, default=1.0)
    b.add_argument("--pattern-seed", type=int, default=0)
    b.add_argument("--t", type=float, default=None)
    b.add_argument("--trials", type=int, default=10000)
    b.add_argument("--cases", type=int, default=100)
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(func=_cmd_bounds)
    return p


# main builds its parser once per process (about 1 ms, a fifth of a d=20
# experiment repetition); build_parser still returns a fresh one per call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for flag in ("seed", "pattern_seed"):
            if getattr(args, flag, 0) < 0:
                raise ValueError(f"--{flag.replace('_', '-')} must be nonnegative")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
