"""Robust PCA via iterated CUR decompositions.

Recovers a low-rank matrix L and a sparse outlier matrix S from their sum
D by alternating hard thresholding with CUR-based low-rank estimation on
a small set of sampled rows and columns, so no full-size intermediate is
ever formed.
"""

from .convert import cur_to_svd, factors_to_svd
from .matcore import (
    ALLOCATIONS,
    PinvFactor,
    SvdFactors,
    frob_norm,
    inf_norm,
    pinv_factor,
    qr_thin,
    submatrix,
    truncated_svd,
)
from .sampling import IndexSet, RngSeed, sample_count, sample_indices
from .solver import (
    CurFactors,
    SolverConfig,
    SolverTrace,
    SparseEstimate,
    cur_eval_cols,
    cur_eval_rows,
    hard_threshold,
    materialize,
    solve,
    step,
    threshold_at,
)
from .synth import (
    AssumptionReport,
    ProblemInstance,
    SyntheticSpec,
    assumption_report,
    gen_low_rank,
    gen_sparse,
    make_problem,
    success_check,
)

__all__ = [
    "ALLOCATIONS",
    "AssumptionReport",
    "CurFactors",
    "IndexSet",
    "PinvFactor",
    "ProblemInstance",
    "RngSeed",
    "SolverConfig",
    "SolverTrace",
    "SparseEstimate",
    "SvdFactors",
    "SyntheticSpec",
    "assumption_report",
    "cur_eval_cols",
    "cur_eval_rows",
    "cur_to_svd",
    "factors_to_svd",
    "frob_norm",
    "gen_low_rank",
    "gen_sparse",
    "hard_threshold",
    "inf_norm",
    "make_problem",
    "materialize",
    "pinv_factor",
    "qr_thin",
    "sample_count",
    "sample_indices",
    "solve",
    "step",
    "submatrix",
    "success_check",
    "threshold_at",
    "truncated_svd",
]

__version__ = "0.1.0"
