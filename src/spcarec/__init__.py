"""Sparse principal component support recovery from incomplete, noisy
symmetric matrices, via an l1-penalized spectrahedron relaxation.

Submodules:
  numerics   dense symmetric linear algebra and proximal maps
  graph      observation graphs, connectivity and irregularity
  sdp        the penalized spectrahedron solver and optimality certificates
  spca       support recovery, penalty tuning, and theory-side diagnostics
  bounds     executable checks of the auxiliary tail/difference bounds
  baselines  diagonal/iterative thresholding and nuclear-norm completion
  harness    instance generation, experiment runners, CSV I/O
"""

from .baselines import BaselineResult, complete_nuclear, dtspca, itspca
from .bounds import TailBoundCheck, tau, tail_bound_montecarlo, masking_difference_check
from .errors import (
    BucketExhausted,
    DegenerateBaseline,
    Disconnected,
    IrregularityUndefined,
    MatrixParseError,
    ThresholdTooLarge,
)
from .graph import (
    BipartiteSubgraph,
    ObservationGraph,
    adjacency,
    algebraic_connectivity,
    bipartite_block,
    complement,
    degrees,
    graph_from_mask,
    induced_subgraph,
    irregularity,
    random_graph,
    random_graph_bucketed,
)
from .harness import (
    ExperimentRow,
    ProblemInstance,
    emit_csv,
    gen_instance,
    load_matrix_csv,
    parse_rows_csv,
    pitprops_experiment,
    run_bucket_experiment,
)
from .numerics import (
    EigDecomp,
    SymMatrix,
    eigh,
    project_simplex,
    project_spectrahedron,
    soft_threshold,
    spectral_norm,
)
from .sdp import (
    KktReport,
    SdpSolution,
    WitnessReport,
    kkt_report,
    solve_sdp,
    support_of,
    witness_certificate,
)
from .spca import (
    ConditionReport,
    InequalityRecord,
    TuningTrace,
    rescaled_parameter,
    sufficient_conditions_report,
    theoretical_rho,
    tune_rho,
)

__version__ = "0.1.0"
