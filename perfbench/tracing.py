"""Outside-in span tracing of the spcarec modules.

The tracer wraps the public functions of each layer module (the names in
its ``__all__``; ``main`` and ``build_parser`` for the CLI, which has no
``__all__``) at every binding site in the ``spcarec`` package, so calls
made from one module into another are seen as well as calls made by the
benchmark.  Nothing under ``src/`` is edited: the wrappers are installed
by rebinding module attributes and removed again by ``uninstall``.

Every call records one span: name, start, end, parent span, op id, and
a small ``info`` tuple for the few functions whose results carry counts
(iterations, convergence, trials).  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import time

LAYERS = ("numerics", "graph", "sdp", "spca", "bounds", "baselines", "harness", "cli")
_CLI_PUBLIC = ("main", "build_parser")


def _solve_info(args, kwargs, result):
    warm = kwargs.get("warm_start", args[4] if len(args) > 4 else None)
    return (result.iterations, result.converged, warm is not None)


def _tail_info(args, kwargs, result):
    return (result.trials,)


# functions whose span keeps a summary of the call's result
_INFO = {
    "sdp.solve_sdp": _solve_info,
    "bounds.tail_bound_montecarlo": _tail_info,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info", "error")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.info = None
        self.error = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, index: int) -> dict:
        return {
            "id": index, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "op": self.op, "info": self.info,
            "error": self.error,
        }


def _public_functions():
    """{id(function): (qualified name, function)} over all layer modules."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"spcarec.{layer}")
        names = getattr(mod, "__all__", _CLI_PUBLIC)
        for attr in names:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj):
                found[id(obj)] = (f"{layer}.{attr}", obj)
    return found


class Tracer:
    """Span recorder; ``only`` restricts wrapping to the named functions."""

    def __init__(self, only=None):
        self.only = None if only is None else frozenset(only)
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info_of = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else -1, self.op)
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if info_of is not None:
                span.info = info_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        publics = _public_functions()
        wrappers = {}
        modules = [importlib.import_module("spcarec")]
        modules += [importlib.import_module(f"spcarec.{layer}") for layer in LAYERS]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                entry = publics.get(id(val))
                if entry is None:
                    continue
                name, fn = entry
                if self.only is not None and name not in self.only:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, fn)
                self._saved.append((mod, attr, val))
                setattr(mod, attr, wrappers[name])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    @contextlib.contextmanager
    def root(self, name: str, op):
        """A benchmark-level span (an op or the set-up); calls inside it
        are its children and carry its op id."""
        self.op = op
        span = Span(name, 0.0, self._stack[-1] if self._stack else -1, op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time covered by its direct children.

    Everything runs on one thread, so children never overlap each other.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def _p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from one traced run, keyed by metric name."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(name):
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def self_total(name):
        return sum(selfs[i] for i in by_name.get(name, ()))

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            selfs[i] for i, s in enumerate(spans) if s.name.startswith(layer + ".")
        )
        out[f"{layer}.calls"] = sum(
            1 for s in spans if s.name.startswith(layer + ".")
        )

    solves = [spans[i].info for i in by_name.get("sdp.solve_sdp", ()) if spans[i].info]
    iters = [info[0] for info in solves]
    warm = [info[0] for info in solves if info[2]]
    cold = [info[0] for info in solves if not info[2]]
    solve_s = total("sdp.solve_sdp")
    out.update({
        "sdp.solve_calls": len(solves),
        "sdp.iters": sum(iters),
        "sdp.iters_per_solve_p50": _p50(iters),
        "sdp.warm_iters_per_solve": sum(warm) / len(warm) if warm else 0.0,
        "sdp.cold_iters_per_solve": sum(cold) / len(cold) if cold else 0.0,
        "sdp.solve_s": solve_s,
        "sdp.us_per_iter": 1e6 * solve_s / sum(iters) if iters else 0.0,
        "sdp.nonconverged": sum(1 for info in solves if not info[1]),
        "sdp.kkt_s": total("sdp.kkt_report"),
        "sdp.witness_s": total("sdp.witness_certificate"),
    })

    tunes = [spans[i].duration for i in by_name.get("spca.tune_rho", ())]
    out.update({
        "spca.tune_calls": len(tunes),
        "spca.tune_s": sum(tunes),
        "spca.tune_s_p50": _p50(tunes),
        "spca.tune_self_s": self_total("spca.tune_rho"),
        "spca.rescaled_s": total("spca.rescaled_parameter"),
        "spca.conditions_s": total("spca.sufficient_conditions_report"),
        "spca.theoretical_rho_s": total("spca.theoretical_rho"),
    })

    bucketed = by_name.get("graph.random_graph_bucketed", ())
    bucketed_set = set(bucketed)
    tries = [
        i for i in by_name.get("graph.block_quantities", ())
        if spans[i].parent in bucketed_set
    ]
    draws = sum(1 for i in bucketed if spans[i].error is None)
    bucketed_s = sum(spans[i].duration for i in bucketed)
    out.update({
        "graph.bucketed_calls": len(bucketed),
        "graph.bucketed_s": bucketed_s,
        "graph.tries": len(tries),
        "graph.accept_ratio": draws / len(tries) if tries else 0.0,
        "graph.us_per_try": 1e6 * bucketed_s / len(tries) if tries else 0.0,
        "graph.block_quantities_s": sum(spans[i].duration for i in tries),
        "graph.bucket_exhausted": sum(
            1 for i in bucketed if spans[i].error == "BucketExhausted"
        ),
    })

    tail = by_name.get("bounds.tail_bound_montecarlo", ())
    trials = sum(spans[i].info[0] for i in tail if spans[i].info)
    tail_s = total("bounds.tail_bound_montecarlo")
    out.update({
        "bounds.masking_check_s": total("bounds.masking_difference_check"),
        "bounds.tail_mc_s": tail_s,
        "bounds.tail_trials": trials,
        "bounds.tail_trials_per_s": trials / tail_s if tail_s > 0 else 0.0,
        "baselines.dtspca_s": total("baselines.dtspca"),
        "baselines.itspca_s": total("baselines.itspca"),
        "baselines.complete_nuclear_s": total("baselines.complete_nuclear"),
        "harness.experiment_s": total("harness.run_bucket_experiment"),
        "harness.experiment_self_s": self_total("harness.run_bucket_experiment"),
        "harness.gen_instance_s": total("harness.gen_instance"),
        "harness.emit_csv_s": total("harness.emit_csv"),
        "cli.main_self_s": self_total("cli.main"),
    })
    return out
