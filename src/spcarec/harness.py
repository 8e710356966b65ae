"""Synthetic instance generation, CSV ingestion, and experiment runners.

Randomness is counter based: every (bucket, repetition) pair derives its
own integer seeds from the master seed, so a repetition's result does not
depend on which repetitions ran before it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .baselines import complete_nuclear, dtspca, itspca
from .errors import BucketExhausted, MatrixParseError, ThresholdTooLarge
from .graph import ObservationGraph, _node_set, graph_from_mask
from .graph import _check_bucket_args, random_graph_bucketed
from .numerics import SymMatrix, _check_nonnegative_finite
from .spca import DEFAULT_RHO_GRID, _checked_grid, _grid, rescaled_parameter, tune_rho

__all__ = [
    "ProblemInstance",
    "ExperimentRow",
    "gen_instance",
    "run_bucket_experiment",
    "pitprops_experiment",
    "load_matrix_csv",
    "emit_csv",
    "parse_rows_csv",
    "write_matrix_csv",
    "write_mask_csv",
    "PITPROPS_VARIABLES",
    "PITPROPS_SUPPORT_NAMES",
    "DEFAULT_MAX_TRIES",
]

DEFAULT_MAX_TRIES = 100_000

PITPROPS_VARIABLES = (
    "topdiam",
    "length",
    "moist",
    "testsg",
    "ovensg",
    "ringtop",
    "ringbut",
    "bowmax",
    "bowdist",
    "whorls",
    "clear",
    "knots",
    "diaknot",
)
PITPROPS_SUPPORT_NAMES = (
    "topdiam",
    "length",
    "ringbut",
    "bowmax",
    "bowdist",
    "whorls",
)

# step-0.05 grid to 1.0: itspca's thresholds, pitprops' default rho grid
_COARSE_GRID = _grid(0.05, 1.0, 0.05)


@dataclass(frozen=True)
class ProblemInstance:
    """Ground truth plus its observed, zero-imputed realization."""

    m_star: SymMatrix
    support: frozenset
    sigma: float
    graph: ObservationGraph
    m: SymMatrix


@dataclass(frozen=True)
class ExperimentRow:
    bucket_lo: float
    bucket_hi: float
    spectral_gap: float
    sigma: float
    reps: int
    exact_recovery_rate: float
    mean_rescaled: float

    @property
    def skipped(self) -> bool:
        """True when the bucket exhausted its rejection budget (NaN rate)."""
        return math.isnan(self.exact_recovery_rate)


def _child_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(tuple(parts)).generate_state(1)[0])


def _check_instance_args(d: int, s: int, gap: float, sigma: float) -> None:
    if not 1 <= s <= d:
        raise ValueError("need 1 <= s <= d")
    if not gap > 0:
        raise ValueError("spectral gap must be positive")
    _check_nonnegative_finite(sigma, "sigma")


def gen_instance(
    d: int,
    s: int,
    gap: float,
    sigma: float,
    graph: ObservationGraph,
    rng_seed: int,
    support=None,
) -> ProblemInstance:
    """Generate a planted-support instance.

    The leading eigenvector has s entries equal to 1/sqrt(s) on a uniformly
    chosen support (or the given one); the remaining eigenvectors are a
    random orthonormal completion.  Trailing eigenvalues are standard
    normal draws sorted descending, and the top one sits `gap` above the
    second.  Noise is N(0, sigma^2), drawn once per unordered pair, and
    only observed entries are kept (zero imputation elsewhere).
    """
    _check_instance_args(d, s, gap, sigma)
    if graph.n != d:
        raise ValueError("graph node count must equal d")
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    if support is None:
        idx = np.sort(rng.choice(d, size=s, replace=False))
    else:
        idx = np.asarray(_node_set(d, support, "support"), dtype=int)
        if idx.size != s:
            raise ValueError("support must contain s valid indices")
    u1 = np.zeros(d)
    u1[idx] = 1.0 / math.sqrt(s)
    basis = np.column_stack([u1, rng.standard_normal((d, d - 1))])
    q, _ = np.linalg.qr(basis)
    q[:, 0] = u1  # QR preserves the first column only up to sign
    lam_rest = np.sort(rng.standard_normal(d - 1))[::-1] if d > 1 else np.array([])
    lam1 = (lam_rest[0] if d > 1 else 0.0) + gap
    lams = np.concatenate([[lam1], lam_rest])
    m_star = SymMatrix((q * lams) @ q.T)
    return _observe(m_star, idx, sigma, graph, rng)


def _observe(
    m_star: SymMatrix,
    support,
    sigma: float,
    graph: ObservationGraph,
    rng: np.random.Generator,
) -> ProblemInstance:
    """Noisy masked observation of m_star; the noise is drawn from rng."""
    d = m_star.dim
    noisy = m_star.a
    if sigma > 0:
        upper = np.triu(rng.standard_normal((d, d)) * sigma)
        noisy = m_star.a + (upper + np.triu(upper, 1).T)
    return ProblemInstance(
        m_star=m_star,
        support=frozenset(int(i) for i in support),
        sigma=float(sigma),
        graph=graph,
        m=SymMatrix(graph.mask * noisy),
    )


@dataclass(frozen=True)
class _Spec:
    """What every repetition of one experiment shares.

    `score` maps an instance to one exact-recovery flag per value of the
    method's tuning grid; a fixed `m_star` and `support` replace the
    per-repetition planted instance.
    """

    d: int
    s: int
    gap: float
    sigma: float
    budget: int
    reps: int
    rng_seed: int
    max_tries: int
    score: Callable[[ProblemInstance, _Spec], tuple[bool, ...]]
    rho_grid: tuple
    a: float
    m_star: SymMatrix | None = None
    support: tuple[int, ...] | None = None


def _sdp_recoveries(inst: ProblemInstance, spec: _Spec) -> tuple[bool, ...]:
    trace = tune_rho(inst.m, spec.rho_grid, spec.a)
    return (trace.chosen_support == inst.support,)


def _mc_sdp_recoveries(inst: ProblemInstance, spec: _Spec) -> tuple[bool, ...]:
    return _sdp_recoveries(replace(inst, m=complete_nuclear(inst.m, inst.graph)), spec)


def _dtspca_recoveries(inst: ProblemInstance, spec: _Spec) -> tuple[bool, ...]:
    # a k-element set can equal the s-element support only when k = s
    return (dtspca(inst.m, spec.s).support == inst.support,)


def _itspca_recoveries(inst: ProblemInstance, spec: _Spec) -> tuple[bool, ...]:
    out = []
    for t in _COARSE_GRID:
        try:
            out.append(itspca(inst.m, t).support == inst.support)
        except ThresholdTooLarge:
            out.append(False)
    return tuple(out)


_METHODS = {
    "sdp": _sdp_recoveries,
    "mc_sdp": _mc_sdp_recoveries,
    "dtspca": _dtspca_recoveries,
    "itspca": _itspca_recoveries,
}


def _rep_task(spec: _Spec, bucket_idx: int, bucket: tuple[float, float], rep: int):
    seed = spec.rng_seed
    rng = np.random.default_rng(np.random.SeedSequence((seed, bucket_idx, rep, 0)))
    if spec.support is None:
        support = np.sort(rng.choice(spec.d, size=spec.s, replace=False))
    else:
        support = np.asarray(spec.support, dtype=int)
    graph = random_graph_bucketed(
        spec.d,
        spec.budget,
        support,
        bucket[0],
        bucket[1],
        spec.max_tries,
        _child_seed(seed, bucket_idx, rep, 1),
    )
    inst_seed = _child_seed(seed, bucket_idx, rep, 2)
    if spec.m_star is None:
        inst = gen_instance(
            spec.d, spec.s, spec.gap, spec.sigma, graph, inst_seed, support=support
        )
    else:
        rng = np.random.default_rng(np.random.SeedSequence(inst_seed))
        inst = _observe(spec.m_star, support, spec.sigma, graph, rng)
    rescaled = rescaled_parameter(inst.m_star, graph, spec.sigma, inst.support)
    return spec.score(inst, spec), rescaled


def _run_buckets(spec: _Spec, buckets) -> list[ExperimentRow]:
    if spec.reps < 1:
        raise ValueError("reps must be at least 1")
    # a bucket that exhausts its rejection budget draws no instance and
    # tunes nothing, so the inputs are checked here, before the first draw
    _check_instance_args(spec.d, spec.s, spec.gap, spec.sigma)
    _checked_grid(spec.rho_grid, spec.a)
    buckets = list(buckets)
    for lo, hi in buckets:
        _check_bucket_args(spec.d, spec.budget, lo, hi, spec.max_tries)
    reps = spec.reps
    rows = []
    for b, (lo, hi) in enumerate(buckets):
        try:
            results = [_rep_task(spec, b, (lo, hi), rep) for rep in range(reps)]
        except BucketExhausted:
            rate = mean_rescaled = math.nan
        else:
            # rate = best over the method's tuning grid of the per-value rate
            n_params = len(results[0][0])
            rate = max(
                sum(res[0][p] for res in results) / reps for p in range(n_params)
            )
            mean_rescaled = sum(res[1] for res in results) / reps
        rows.append(
            ExperimentRow(
                bucket_lo=float(lo),
                bucket_hi=float(hi),
                spectral_gap=float(spec.gap),
                sigma=float(spec.sigma),
                reps=reps,
                exact_recovery_rate=rate,
                mean_rescaled=mean_rescaled,
            )
        )
    return rows


def run_bucket_experiment(
    d: int,
    s: int,
    gap: float,
    sigma: float,
    budget: int,
    buckets,
    reps: int = 20,
    rho_grid=DEFAULT_RHO_GRID,
    a: float = 0.5,
    rng_seed: int = 0,
    max_tries: int = DEFAULT_MAX_TRIES,
) -> list[ExperimentRow]:
    """Monte-Carlo recovery rates over irregularity/connectivity buckets.

    Per repetition: draw a support, rejection-sample an observation graph
    whose support block lands in the bucket, generate the instance, tune
    the penalty on the criterion, and score exact support recovery
    (set equality, no partial credit).  A bucket that exhausts its
    rejection budget yields a row marked skipped with NaN rate.
    """
    spec = _Spec(
        d=d, s=s, gap=gap, sigma=sigma, budget=budget, reps=reps,
        rng_seed=rng_seed, max_tries=max_tries, score=_sdp_recoveries,
        rho_grid=rho_grid, a=a,
    )
    return _run_buckets(spec, buckets)


def pitprops_experiment(
    matrix_path,
    budget: int,
    buckets,
    sigma: float = 0.1,
    reps: int = 50,
    rho_grid=_COARSE_GRID,
    a: float = 0.4,
    rng_seed: int = 0,
    method: str = "sdp",
    max_tries: int = DEFAULT_MAX_TRIES,
) -> list[ExperimentRow]:
    """Recovery-rate experiment on the 13-variable pitprops covariance matrix.

    The loaded matrix is the fixed ground truth; missingness and noise are
    synthesized per repetition.  The true support is the classical
    six-variable set, located by name when the file has a header row and
    by the standard variable ordering otherwise.  For the thresholding
    baselines the rate reported per bucket is the best over their tuning
    grid, mirroring how such methods are usually scored.
    """
    score = _METHODS.get(method)
    if score is None:
        raise ValueError(f"unknown method {method!r}")
    m_star, graph, names = _load_matrix(matrix_path, None)
    if m_star.dim != 13:
        raise MatrixParseError(f"expected a 13x13 matrix, got {m_star.dim}")
    if not graph.mask.all():
        raise MatrixParseError("pitprops matrix must be complete (no NA cells)")
    if names is not None:
        lowered = [n.lower() for n in names]
        missing = [v for v in PITPROPS_SUPPORT_NAMES if v not in lowered]
        if missing:
            raise MatrixParseError(f"header lacks expected variables: {missing}")
        support = tuple(lowered.index(v) for v in PITPROPS_SUPPORT_NAMES)
    else:
        support = tuple(
            PITPROPS_VARIABLES.index(v) for v in PITPROPS_SUPPORT_NAMES
        )
    spec = _Spec(
        d=13, s=len(support), gap=_spectral_gap(m_star), sigma=sigma,
        budget=budget, reps=reps, rng_seed=rng_seed, max_tries=max_tries,
        score=score, rho_grid=rho_grid, a=a,
        m_star=m_star, support=tuple(sorted(support)),
    )
    return _run_buckets(spec, buckets)


def _spectral_gap(m: SymMatrix) -> float:
    vals = np.linalg.eigvalsh(m.a)
    return float(vals[-1] - vals[-2])


# ---------------------------------------------------------------------------
# CSV input/output


def _parse_cell(token: str, row: int, col: int) -> float | None:
    token = token.strip()
    if token == "NA":
        return None
    try:
        return float(token)
    except ValueError:
        raise MatrixParseError(
            f"row {row}, column {col}: cannot parse {token!r}"
        ) from None


def _read_rows(path) -> tuple[list[list[str]], list[str] | None]:
    with open(path, newline="") as fh:
        raw = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if not raw:
        raise MatrixParseError("file is empty")
    # the first row is a header unless every cell parses as a number or NA
    try:
        for j, tok in enumerate(raw[0]):
            _parse_cell(tok, 0, j)
    except MatrixParseError:
        return raw[1:], [tok.strip() for tok in raw[0]]
    return raw, None


def _parse_grid(raw, d: int, label: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse d rows of d cells into (values, observed); NA cells are unobserved."""
    values = np.zeros((d, d))
    observed = np.zeros((d, d), dtype=bool)
    for i, row in enumerate(raw):
        if len(row) != d:
            raise MatrixParseError(
                f"{label} {i}: expected {d} columns, found {len(row)}"
            )
        for j, tok in enumerate(row):
            cell = _parse_cell(tok, i, j)
            if cell is not None:
                values[i, j] = cell
                observed[i, j] = True
    return values, observed


def _raise_at_first(bad: np.ndarray, message: Callable[[int, int], str]) -> None:
    """Raise MatrixParseError(message(i, j)) at the first (row-major) True cell."""
    hits = np.argwhere(bad)
    if hits.size:
        i, j = hits[0]
        raise MatrixParseError(message(i, j))


def _load_matrix(path, mask_path):
    raw, names = _read_rows(path)
    d = len(raw)
    values, observed = _parse_grid(raw, d, "row")
    if names is not None and len(names) != d:
        raise MatrixParseError("header length does not match matrix dimension")

    if mask_path is not None:
        mraw, _ = _read_rows(mask_path)
        if len(mraw) != d:
            raise MatrixParseError("mask dimension does not match matrix")
        mvals, mobs = _parse_grid(mraw, d, "mask row")
        _raise_at_first(
            ~(mobs & ((mvals == 0.0) | (mvals == 1.0))),
            lambda i, j: f"mask row {i}, column {j}: entries must be 0 or 1",
        )
        mask = mvals == 1.0
        # NA cells, if any, must sit outside the mask
        _raise_at_first(
            mask & ~observed,
            lambda i, j: f"mask marks ({i}, {j}) observed "
            "but the matrix file has NA there",
        )
        observed = mask

    _raise_at_first(
        observed != observed.T,
        lambda i, j: f"observation pattern is asymmetric at ({i}, {j})",
    )
    sym_err = np.abs(np.where(observed, values, 0.0) - np.where(observed, values, 0.0).T)
    _raise_at_first(
        sym_err > 1e-9,
        lambda i, j: f"values are asymmetric at ({i}, {j}): "
        f"|difference| = {sym_err[i, j]:.3g}",
    )
    m = SymMatrix(np.where(observed, values, 0.0))
    return m, graph_from_mask(observed), names


def load_matrix_csv(path, mask_path=None) -> tuple[SymMatrix, ObservationGraph]:
    """Read a symmetric matrix CSV; NA cells (or a 0/1 mask file) define the
    unobserved pattern.  Unobserved entries are zero-imputed."""
    m, g, _ = _load_matrix(path, mask_path)
    return m, g


def write_matrix_csv(path, m: SymMatrix, graph: ObservationGraph | None = None,
                     names=None) -> None:
    """Write a matrix CSV, with NA at entries the graph marks unobserved."""
    observed = graph.mask if graph is not None else None
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if names is not None:
            writer.writerow(list(names))
        for i in range(m.dim):
            row = []
            for j in range(m.dim):
                if observed is not None and not observed[i, j]:
                    row.append("NA")
                else:
                    row.append(repr(float(m.a[i, j])))
            writer.writerow(row)


def write_mask_csv(path, graph: ObservationGraph) -> None:
    mask = graph.mask.astype(int)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i in range(graph.n):
            writer.writerow(mask[i].tolist())


def _fmt(v: float) -> str:
    return f"{v:.6g}"


# one (CSV header, ExperimentRow field, writer, reader) entry per column
_COLUMNS = (
    ("bucket_lo", "bucket_lo", _fmt, float),
    ("bucket_hi", "bucket_hi", _fmt, float),
    ("gap", "spectral_gap", _fmt, float),
    ("sigma", "sigma", _fmt, float),
    ("reps", "reps", str, int),
    ("rate", "exact_recovery_rate", _fmt, float),
    ("mean_rescaled", "mean_rescaled", _fmt, float),
)
_ROW_HEADER = [header for header, *_ in _COLUMNS]


def emit_csv(rows, path) -> None:
    """Write experiment rows (6 significant digits, ordered by bucket_lo)."""
    ordered = sorted(rows, key=lambda r: (r.bucket_lo, r.bucket_hi, r.spectral_gap))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_ROW_HEADER)
        for r in ordered:
            writer.writerow([write(getattr(r, f)) for _, f, write, _ in _COLUMNS])


def parse_rows_csv(path) -> list[ExperimentRow]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MatrixParseError("file is empty")
        if header != _ROW_HEADER:
            raise MatrixParseError(f"unexpected header {header}")
        rows = []
        for rec in reader:
            cells = zip(_COLUMNS, rec, strict=True)
            rows.append(ExperimentRow(**{f: read(tok) for (_, f, _, read), tok in cells}))
    return rows
