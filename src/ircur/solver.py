"""Iterated robust CUR solver for low-rank + sparse matrix recovery.

Given an observed matrix D assumed to be the sum of a rank-r matrix L and
a sparse outlier matrix S, the solver repeats one update, :func:`step`,
on D and L_k restricted to a handful of sampled rows (I) and columns (J):

  Phase I   threshold the residual D - L_k on the sampled slabs to get
            S_{k+1}, with a geometrically decaying cutoff
            zeta_k = gamma^(k-1) * zeta0;
  Phase II  rebuild L_{k+1} as a CUR decomposition of D - S_{k+1},
            rank-truncating only the small |I| x |J| core;

then evaluates L_{k+1} on the same slabs for the stopping statistic, the
relative slab residual of D - L_{k+1} - S_{k+1}; iteration stops when it
drops to ``eps``.  The full n x n estimates are never materialized.

L is evaluated in one way, :func:`cur_eval`: on rows x cols it is
(C[rows] V Sigma^+) (W^T R[:, cols]) with W, Sigma, V the rank-k SVD of
the core, costing O(k(|rows|*|J| + |I|*|cols| + |rows|*|cols|)).

Two index policies are provided: ``fixed`` keeps I, J for the whole run
(fastest, minimal data access); ``resampled`` redraws them every iteration
(more robust to an unlucky draw, slightly more work since each draw
gathers fresh slabs and evaluates L_k on them).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import matcore
from .matcore import (
    Matrix,
    PinvFactor,
    frob_norm,
    inf_norm,
    submatrix,
    tracked,
    truncated_svd,
)
from .sampling import IndexSet, RngSeed, sample_count, sample_indices

MODES = ("fixed", "resampled")

Observer = Callable[[int, float, "CurFactors", "SparseEstimate", float], None]


@dataclass
class SolverConfig:
    """All tunables of the solver.

    zeta0 = None means "use max |D|" at solve time: the ideal initial
    threshold is the max magnitude of the low-rank part, which is
    unobservable; max |D| dominates it and over-thresholding at step 0 is
    safe because the cutoff decays.  gamma is the decay rate of the
    threshold schedule; values in [0.6, 0.9] are recommended (larger is
    slower but more robust).  c_rows / c_cols scale the sampled index
    counts ceil(c * r * ln(n)).
    """

    rank: int
    eps: float = 1e-5
    zeta0: float | None = None
    gamma: float = 0.65
    c_rows: float = 4.0
    c_cols: float = 4.0
    mode: str = "fixed"
    max_iter: int = 200
    seed: RngSeed = field(default_factory=lambda: RngSeed(0))

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if not self.eps > 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if self.zeta0 is not None and not self.zeta0 > 0:
            raise ValueError(f"zeta0 must be > 0 (or None), got {self.zeta0}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not (0 < self.c_rows < math.inf and 0 < self.c_cols < math.inf):
            raise ValueError("sampling constants must be finite and > 0")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class CurFactors:
    """Low-rank estimate held as C * core_pinv * R without materializing it.

    C holds the sampled columns (n1 x |J|), R the sampled rows (|I| x n2),
    and core_pinv the factored pseudoinverse of the rank-truncated
    |I| x |J| core.
    """

    C: Matrix
    core_pinv: PinvFactor
    R: Matrix
    rows: IndexSet
    cols: IndexSet

    def __post_init__(self) -> None:
        if self.C.shape != (self.rows.bound, self.cols.size):
            raise ValueError("C shape inconsistent with index sets")
        if self.R.shape != (self.rows.size, self.cols.bound):
            raise ValueError("R shape inconsistent with index sets")
        if (self.core_pinv.rows, self.core_pinv.cols) != (self.rows.size, self.cols.size):
            raise ValueError("core factor shape inconsistent with index sets")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows.bound, self.cols.bound)


@dataclass
class SparseEstimate:
    """Sparse estimate stored only on the sampled slabs.

    row_values = S on rows I (|I| x n2); col_values = S on columns J
    (n1 x |J|).  The (I, J) intersection block of the two views agrees
    exactly.
    """

    row_values: Matrix
    col_values: Matrix
    rows: IndexSet
    cols: IndexSet


@dataclass
class SolverTrace:
    """Per-iteration history of a solver run.

    errors[i] and thresholds[i] belong to iteration i+1, so
    thresholds[i] == gamma**i * zeta0 and errors[-1] is the final
    stopping statistic.  ``allocated`` records the transient allocation
    (8-byte scalar units) per iteration as seen by the matcore meter;
    sampled_rows/sampled_cols record |I| and |J| per iteration.
    """

    errors: list[float] = field(default_factory=list)
    thresholds: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    seconds: list[float] = field(default_factory=list)
    allocated: list[int] = field(default_factory=list)
    sampled_rows: list[int] = field(default_factory=list)
    sampled_cols: list[int] = field(default_factory=list)


def hard_threshold(X: Matrix, zeta: float) -> Matrix:
    """In-place hard thresholding: zero every x with |x| <= zeta; returns X."""
    if zeta < 0:
        raise ValueError(f"zeta must be >= 0, got {zeta}")
    low = tracked(X <= zeta)
    high = tracked(X >= -zeta)
    low &= high
    X[low] = 0.0
    return X


def threshold_at(config: SolverConfig, k: int) -> float:
    """Threshold applied at iteration k+1: gamma**k * zeta0."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if config.zeta0 is None:
        raise ValueError("config.zeta0 is unresolved (None)")
    return config.gamma**k * config.zeta0


def cur_eval(
    cur: CurFactors, rows: IndexSet | None = None, cols: IndexSet | None = None,
    out: Matrix | None = None,
) -> Matrix:
    """The low-rank estimate C * U+ * R on rows x cols, written into ``out`` if given.

    None selects every row or column, and that side uses C or R without a
    copy; with both None the full matrix is allocated (test scale only).
    The product goes through :meth:`PinvFactor.apply_right`.
    """
    c = cur.C if rows is None else submatrix(cur.C, rows, None)
    r = cur.R if cols is None else submatrix(cur.R, None, cols)
    return cur.core_pinv.apply_right(c, r, out)


def _eval_slabs(cur: CurFactors, rows: IndexSet, cols: IndexSet, l_rows=None, l_cols=None):
    l_rows = cur_eval(cur, rows, None, l_rows)
    l_cols = cur_eval(cur, None, cols, l_cols)
    # The row and column slabs are separate GEMMs, so their (I, J) blocks can
    # differ in the last ulp.  Copy the row view into the column view so
    # downstream intersection blocks agree bitwise.
    block = tracked(l_rows[:, cols.indices])
    l_cols[rows.indices, :] = block
    return l_rows, l_cols


@dataclass
class Slabs:
    """D[I, :], D[:, J], the low-rank estimate L on the same slabs (with
    bitwise-equal (I, J) blocks) and den = ||D[I, :]||_F + ||D[:, J]||_F."""

    rows: IndexSet
    cols: IndexSet
    d_rows: Matrix
    d_cols: Matrix
    l_rows: Matrix
    l_cols: Matrix
    den: float


def sample_slabs(
    D: Matrix, rows: IndexSet, cols: IndexSet, cur: CurFactors | None = None
) -> Slabs:
    """Gather D on rows/cols and evaluate ``cur`` there (L = 0 if None)."""
    d_rows = submatrix(D, rows, None)
    d_cols = submatrix(D, None, cols)
    den = frob_norm(d_rows) + frob_norm(d_cols)
    if cur is None:
        l_rows = tracked(np.zeros((rows.size, D.shape[1])))
        l_cols = tracked(np.zeros((D.shape[0], cols.size)))
    else:
        l_rows, l_cols = _eval_slabs(cur, rows, cols)
    return Slabs(rows, cols, d_rows, d_cols, l_rows, l_cols, den)


def step(
    slabs: Slabs, zeta: float, rank: int, scratch: tuple[Matrix, Matrix] | None = None
) -> tuple[CurFactors, SparseEstimate, float]:
    """One iteration from L_k on the slabs: (L_{k+1} factors, S_{k+1}, e).

    S_{k+1} is D - L_k thresholded at ``zeta``; the core H_r([D - S]_{I,J})
    and its pseudoinverse share one SVD.  L_{k+1} is evaluated into the
    record's L slabs, so a fixed-index caller steps the same record again.
    e = (||[D-L-S]_{I,:}||_F + ||[D-L-S]_{:,J}||_F) / den (0 if den is 0);
    the residual goes into ``scratch`` (row- and column-slab buffers), by
    default into the D slabs, which leaves the record spent.
    """
    rows, cols = slabs.rows, slabs.cols

    # Phase I: sparse slab update.
    s_rows = hard_threshold(tracked(slabs.d_rows - slabs.l_rows), zeta)
    s_cols = hard_threshold(tracked(slabs.d_cols - slabs.l_cols), zeta)

    # Phase II: CUR update with rank-truncated core.
    c_new = tracked(slabs.d_cols - s_cols)
    r_new = tracked(slabs.d_rows - s_rows)
    core = submatrix(r_new, None, cols)
    fac = truncated_svd(core, rank)
    cur = CurFactors(
        C=c_new, core_pinv=PinvFactor.from_svd(fac), R=r_new, rows=rows, cols=cols
    )

    # Stopping statistic on the slabs that produced this iterate.
    _eval_slabs(cur, rows, cols, slabs.l_rows, slabs.l_cols)
    res_rows, res_cols = scratch or (slabs.d_rows, slabs.d_cols)
    np.subtract(slabs.d_rows, slabs.l_rows, out=res_rows)
    res_rows -= s_rows
    np.subtract(slabs.d_cols, slabs.l_cols, out=res_cols)
    res_cols -= s_cols
    e = (frob_norm(res_rows) + frob_norm(res_cols)) / slabs.den if slabs.den else 0.0
    return cur, SparseEstimate(s_rows, s_cols, rows, cols), e


def solve(
    D: Matrix,
    config: SolverConfig,
    observer: Observer | None = None,
) -> tuple[CurFactors, SparseEstimate, SolverTrace]:
    """Run the alternating threshold/CUR iteration on D.

    Returns the CUR factors of the low-rank estimate, the sparse estimate
    on the sampled slabs, and the iteration trace.  Halts when the sampled
    relative residual reaches ``config.eps`` or after ``config.max_iter``
    iterations (``trace.converged`` is False in the latter case).

    ``observer``, if given, is called after every iteration as
    ``observer(k, zeta_k, cur, sparse, e_k)`` with k starting at 1.
    """
    D = matcore.require_finite(D)
    if D.size == 0:
        raise ValueError("D must be nonempty")
    n1, n2 = D.shape
    cfg = config

    gen = cfg.seed.generator()
    m_rows = sample_count(n1, cfg.rank, cfg.c_rows)
    m_cols = sample_count(n2, cfg.rank, cfg.c_cols)
    rows = sample_indices(n1, m_rows, gen)
    cols = sample_indices(n2, m_cols, gen)
    slabs = sample_slabs(D, rows, cols)

    trace = SolverTrace()
    if slabs.den == 0.0:
        # Sampled slabs are identically zero: e_0 = 0, nothing to iterate.
        cur, sparse, _ = step(slabs, 0.0, cfg.rank)
        trace.errors.append(0.0)
        trace.converged = True
        return cur, sparse, trace
    if cfg.zeta0 is None:
        # den > 0 guarantees max |D| > 0, so this is a valid threshold.
        cfg = replace(cfg, zeta0=inf_norm(D))

    # With fixed indices the slab shapes never change, so the residual goes
    # into buffers allocated once.  Resampled mode writes it into each
    # draw's D slabs, which are dead once the step returns.
    fixed = cfg.mode == "fixed"
    scratch = None
    if fixed:
        scratch = (
            tracked(np.empty((rows.size, n2))),
            tracked(np.empty((n1, cols.size))),
        )

    for k in range(cfg.max_iter):
        t0 = time.perf_counter()
        alloc0 = matcore.ALLOCATIONS.count

        if not fixed and k > 0:
            rows = sample_indices(n1, m_rows, gen)
            cols = sample_indices(n2, m_cols, gen)
            slabs = None  # free the last draw's slabs before gathering new ones
            slabs = sample_slabs(D, rows, cols, cur)
        cur = sparse = None  # free the last iterate before step builds the next
        zeta = threshold_at(cfg, k)
        cur, sparse, e = step(slabs, zeta, cfg.rank, scratch)

        trace.errors.append(e)
        trace.thresholds.append(zeta)
        trace.seconds.append(time.perf_counter() - t0)
        trace.allocated.append(matcore.ALLOCATIONS.count - alloc0)
        trace.sampled_rows.append(rows.size)
        trace.sampled_cols.append(cols.size)
        trace.iterations = k + 1

        if observer is not None:
            observer(k + 1, zeta, cur, sparse, e)
        if e <= cfg.eps:
            trace.converged = True
            break

    return cur, sparse, trace
