"""Robust PCA via iterated CUR decompositions.

Recovers a low-rank matrix L and a sparse outlier matrix S from their sum
D by alternating hard thresholding with CUR-based low-rank estimation on
a small set of sampled rows and columns, so no full-size intermediate is
ever formed.
"""

from .convert import cur_to_svd
# Not in __all__: bench/tests/test_bench.py checks ircur.submatrix is matcore.submatrix.
from .matcore import submatrix  # noqa: F401
from .sampling import RngSeed
from .solver import CurFactors, SolverConfig, SolverTrace, SparseEstimate, solve
from .synth import SyntheticSpec, make_problem, success_check

__all__ = [
    "CurFactors",
    "RngSeed",
    "SolverConfig",
    "SolverTrace",
    "SparseEstimate",
    "SyntheticSpec",
    "cur_to_svd",
    "make_problem",
    "solve",
    "success_check",
]

__version__ = "0.1.0"
