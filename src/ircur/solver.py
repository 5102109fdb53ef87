"""Iterated robust CUR solver for low-rank + sparse matrix recovery.

Given an observed matrix D assumed to be the sum of a rank-r matrix L and
a sparse outlier matrix S, the solver repeats one update, :func:`step`,
on D and L_k restricted to a handful of sampled rows (I) and columns (J):

  Phase I   threshold the residual D - L_k on the sampled slabs to get
            S_{k+1}, with a geometrically decaying cutoff
            zeta_k = gamma^(k-1) * zeta0; :func:`hard_threshold` writes
            only D - S_{k+1}, and S_{k+1} is recovered from it on demand;
  Phase II  rebuild L_{k+1} as a CUR decomposition of D - S_{k+1},
            rank-truncating only the small |I| x |J| core;

then evaluates L_{k+1} on the same slabs for the stopping statistic, the
relative slab residual (D - S_{k+1}) - L_{k+1}, whose norm comes from one
blocked pass (:func:`matcore.frob_norm`); iteration stops when it drops
to ``eps``.  Per slab and step that is six slab-sized streams: the
threshold reads D and L and writes D - S, the norm reads D - S and L, and
the evaluation writes L.  The denominator den = ||D[I, :]||_F +
||D[:, J]||_F of that statistic and the norm scale that keeps it in the
float range are taken once per draw, by :func:`sample_slabs`.  The D slabs
are only read, so the two index policies below differ only in when I and
J are drawn.  The full n x n estimates are never materialized.

L is evaluated in one way, :func:`cur_eval`: on rows x cols it gathers
C[rows] and R[:, cols] and forms (C[rows] V Sigma^+) (W^T R[:, cols])
through :meth:`matcore.SvdFactors.apply_right`, with W, Sigma, V the
rank-k SVD of the core, costing
O(k(|rows|*|J| + |I|*|cols| + |rows|*|cols|)).  A draw and a step both
fill their L slabs through it (see :func:`_eval_slabs`).

Two index policies are provided: ``fixed`` keeps the I, J that step 1
draws for the whole run (fastest, minimal data access); ``resampled``
redraws them every iteration (more robust to an unlucky draw, slightly
more work since each draw gathers fresh slabs and evaluates L_k on them).

While the cutoff lies above every entry of the slab residual, a step
thresholds nothing.  In ``fixed`` mode such a step rebuilds the same
L = CUR(D) bitwise.  Step 1 starts from L_0 = 0, so :func:`solve` scans
the first draw's two D slabs and treats step 1 as idle exactly when their
maximum is <= zeta0.  It then scans m = max |D - L_1| on the slabs
(:func:`matcore.inf_norm`) and jumps to the first schedule index whose
cutoff lies below m (capped at max_iter);
every step in between would repeat step 1 bitwise, so the result equals
that of running every index.  A ``resampled`` step refits on a new draw,
so it runs every index.

Only zeta0 = None (max |D|) makes :func:`solve` read all of D.  With zeta0
given it reads only the slabs it gathers, and it validates each entry it
reads: a NaN or +-Inf in a draw's D slabs raises ValueError from
:func:`sample_slabs`, in either mode, before any step on that draw.  An
entry no draw samples is never read, so it cannot change the result.
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
    SvdFactors,
    frob_norm,
    frob_scale,
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

    zeta0 = None means "use max |D|" (1 for an all-zero D) at solve time,
    the one setting that scans all of D: the ideal initial threshold is the
    max magnitude of the low-rank part, which is unobservable; max |D|
    dominates it and over-thresholding at step 0 is safe because the cutoff
    decays.  In ``fixed`` mode a zeta0 at or above the first draw's slab
    maximum costs one step, not iterations (see :mod:`ircur.solver`).
    gamma is the decay rate of the threshold schedule; values in
    [0.6, 0.9] are recommended (larger is slower but more robust).
    c_rows / c_cols scale the sampled index counts ceil(c * r * ln(n)).
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
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")
        if self.zeta0 is not None and not 0 < self.zeta0 < math.inf:
            raise ValueError(f"zeta0 must be finite and > 0 (or None), got {self.zeta0}")
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
    core_pinv: SvdFactors
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


@dataclass
class SparseEstimate:
    """Sparse estimate on the sampled slabs, held as the D slabs and the
    D - S slabs that :func:`hard_threshold` returns.

    row_values = S on rows I (|I| x n2) and col_values = S on columns J
    (n1 x |J|) are computed as D - (D - S) on each access, so a caller that
    never reads S never pays for it.  The (I, J) intersection block of the
    two views agrees exactly.
    """

    d_rows: Matrix
    d_cols: Matrix
    rest_rows: Matrix
    rest_cols: Matrix
    rows: IndexSet
    cols: IndexSet

    @property
    def row_values(self) -> Matrix:
        return tracked(self.d_rows - self.rest_rows)

    @property
    def col_values(self) -> Matrix:
        return tracked(self.d_cols - self.rest_cols)


@dataclass
class SolverTrace:
    """History of a solver run, one list entry per executed step.

    steps[i] is the schedule index of the i-th executed step, so
    thresholds[i] == gamma**steps[i] * zeta0, and errors[-1] is the final
    stopping statistic, the slab residual (D - S) - L of :func:`step`.
    ``iterations`` is the schedule position reached: steps[-1] + 1 on
    convergence, else max_iter.  In ``fixed`` mode the skipped indices of
    an idle head (see :mod:`ircur.solver`) have no entry; in ``resampled``
    mode steps == list(range(iterations)).  ``seconds`` and ``allocated``
    cover the step's draw, which is step 1 in both modes and every step
    in ``resampled``.  ``allocated`` records the allocation (8-byte
    scalar units) per step as seen by the matcore meter: per slab, D - S
    and two block-sized buffers (threshold and residual norm), plus the
    L evaluation with its gathers of C[I] and R[:, J] (and, on a step that
    draws, the draw's gathers, including the block temporaries of a gather
    across D's memory order, see :func:`matcore.submatrix`); no S slab,
    residual slab or boolean array.
    sampled_rows/sampled_cols record |I| and |J| per step.
    """

    steps: list[int] = field(default_factory=list)
    errors: list[float] = field(default_factory=list)
    thresholds: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    seconds: list[float] = field(default_factory=list)
    allocated: list[int] = field(default_factory=list)
    sampled_rows: list[int] = field(default_factory=list)
    sampled_cols: list[int] = field(default_factory=list)


def hard_threshold(D: Matrix, L: Matrix, zeta: float) -> Matrix:
    """D - S, where S = D - L with every entry of magnitude <= zeta zeroed.

    Each block (:func:`matcore.blocks`) computes d - s * keep while it is in
    cache: s = d - l goes to the blocks' shared block-sized buffer, and the
    keep mask is formed as 0.0/1.0 floats in the output, so neither S nor a
    boolean array of the slab's size is allocated.  The output takes D's
    memory order.  S itself is D - (D - S) (see :class:`SparseEstimate`).
    """
    if zeta < 0:
        raise ValueError(f"zeta must be >= 0, got {zeta}")
    rest = tracked(np.empty_like(D))
    for d, l, keep, s in matcore.blocks(D, L, rest, buffer=True):
        np.subtract(d, l, out=s)
        np.abs(s, out=keep)
        np.greater(keep, zeta, out=keep)
        s *= keep
        np.subtract(d, s, out=keep)
    return rest


def cur_eval(
    cur: CurFactors,
    rows: IndexSet | None = None,
    cols: IndexSet | None = None,
    out: Matrix | None = None,
) -> Matrix:
    """The low-rank estimate C * U+ * R on rows x cols, written into ``out``
    if given.

    None selects every row or column, and that side uses C or R without a
    copy; with both None the full matrix is allocated (test scale only).
    The product goes through :meth:`SvdFactors.apply_right`.
    """
    c = cur.C if rows is None else submatrix(cur.C, rows, None)
    r = cur.R if cols is None else submatrix(cur.R, None, cols)
    return cur.core_pinv.apply_right(c, r, out)


@dataclass
class Slabs:
    """D[I, :], D[:, J], the low-rank estimate L on the same slabs (with
    bitwise-equal (I, J) blocks), and den = (||D[I, :]||_F + ||D[:, J]||_F)
    / scale from :func:`matcore.frob_scale`: scale is 1 unless the plain
    sum leaves [FROB_RESCALE_BELOW, inf), and then a power of two."""

    rows: IndexSet
    cols: IndexSet
    d_rows: Matrix
    d_cols: Matrix
    l_rows: Matrix
    l_cols: Matrix
    den: float
    scale: float


def _eval_slabs(cur: CurFactors, slabs: Slabs) -> None:
    """L on the draw's rows and columns into ``slabs.l_rows`` and
    ``slabs.l_cols``, by :func:`cur_eval`."""
    rows, cols = slabs.rows, slabs.cols
    cur_eval(cur, rows, None, slabs.l_rows)
    cur_eval(cur, None, cols, slabs.l_cols)
    # The row and column slabs are separate GEMMs, so their (I, J) blocks can
    # differ in the last ulp.  Copy the row view into the column view so
    # downstream intersection blocks agree bitwise.
    slabs.l_cols[rows.indices, :] = tracked(slabs.l_rows[:, cols.indices])


def sample_slabs(
    D: Matrix, rows: IndexSet, cols: IndexSet, cur: CurFactors | None = None
) -> Slabs:
    """Gather D on rows/cols, take den, and evaluate ``cur`` there (L = 0 if None).

    Every draw of :func:`solve` comes through here, and so does its check:
    :func:`matcore.frob_scale` rejects a NaN or +-Inf in a D slab with
    ValueError.  Each L slab takes the memory order of its D slab (a column
    gather is F-order), so the slab passes of :func:`step` read both
    contiguously.
    """
    d_rows = submatrix(D, rows, None)
    d_cols = submatrix(D, None, cols)
    den, scale = frob_scale(d_rows, d_cols)
    slabs = Slabs(rows, cols, d_rows, d_cols, tracked(np.zeros_like(d_rows)),
                  tracked(np.zeros_like(d_cols)), den, scale)
    if cur is not None:
        _eval_slabs(cur, slabs)
    return slabs


def step(slabs: Slabs, zeta: float, rank: int) -> tuple[CurFactors, SparseEstimate, float]:
    """One iteration from L_k on the slabs: (L_{k+1} factors, S_{k+1}, e).

    S_{k+1} is D - L_k thresholded at ``zeta``; the core H_r([D - S]_{I,J})
    and its pseudoinverse are one :class:`matcore.SvdFactors`.  L_{k+1} is
    evaluated into the record's L slabs, so a fixed-index caller steps the
    same record again; the D slabs are only read.
    e = (||[D-S-L]_{I,:}||_F + ||[D-S-L]_{:,J}||_F) / den (0 if den is 0),
    taken from the D - S slabs that also serve as the new R and C, on the
    draw's ``slabs.scale`` as den = ``slabs.den`` is.  The returned
    :class:`SparseEstimate` holds the D and D - S slabs, so S is only
    formed when read.
    """
    rows, cols = slabs.rows, slabs.cols

    # Phase I: sparse slab update, held as the D - S slabs.
    r_new = hard_threshold(slabs.d_rows, slabs.l_rows, zeta)
    c_new = hard_threshold(slabs.d_cols, slabs.l_cols, zeta)

    # Phase II: CUR update with rank-truncated core.
    core_pinv = truncated_svd(submatrix(r_new, None, cols), rank)
    cur = CurFactors(C=c_new, core_pinv=core_pinv, R=r_new, rows=rows, cols=cols)

    # Stopping statistic on the slabs that produced this iterate.
    _eval_slabs(cur, slabs)
    s = slabs.scale
    num = frob_norm(r_new, slabs.l_rows, s) + frob_norm(c_new, slabs.l_cols, s)
    e = num / slabs.den if slabs.den else 0.0
    sparse = SparseEstimate(slabs.d_rows, slabs.d_cols, r_new, c_new, rows, cols)
    return cur, sparse, e


def solve(
    D: Matrix,
    config: SolverConfig,
    observer: Observer | None = None,
) -> tuple[CurFactors, SparseEstimate, SolverTrace]:
    """Run the alternating threshold/CUR iteration on D.

    Returns the CUR factors of the low-rank estimate, the sparse estimate
    on the sampled slabs, and the iteration trace.  Halts when the sampled
    relative residual reaches ``config.eps`` or after ``config.max_iter``
    iterations (``trace.converged`` is False in the latter case).  Step 1
    draws I and J, as does every ``resampled`` step.  In ``fixed`` mode
    with zeta0 at or above the first draw's slab maximum it skips the
    schedule indices that would repeat an idle step 1.

    Only zeta0 = None scans all of D, and so rejects any non-finite entry.
    With zeta0 given, a NaN or +-Inf raises ValueError only where a draw
    samples it, when :func:`sample_slabs` gathers that draw; an entry
    outside every draw is never read (see :mod:`ircur.solver`).  A core
    spectrum beyond the float range raises ValueError where each step's
    :func:`matcore.truncated_svd` makes its :class:`matcore.SvdFactors`.

    ``observer``, if given, is called after every executed step as
    ``observer(k, zeta_k, cur, sparse, e_k)`` with k = schedule index + 1,
    starting at 1; k jumps over skipped steps.
    """
    D = np.asarray(D, dtype=np.float64)
    if D.ndim != 2 or D.size == 0:
        raise ValueError(f"D must be a nonempty 2-D matrix, got shape {D.shape}")
    n1, n2 = D.shape
    cfg = config
    if cfg.zeta0 is None:
        # The only scan of all of D, which also rejects non-finite entries.
        # max |D| is 0 only for an all-zero D, where no cutoff thresholds
        # anything, so any positive zeta0 gives the same result there.
        cfg = replace(cfg, zeta0=inf_norm(D) or 1.0)

    gen = cfg.seed.generator()
    m_rows = sample_count(n1, cfg.rank, cfg.c_rows)
    m_cols = sample_count(n2, cfg.rank, cfg.c_cols)

    trace = SolverTrace()
    cur = sparse = slabs = None

    k = 0
    while k < cfg.max_iter:
        t0 = time.perf_counter()
        alloc0 = matcore.ALLOCATIONS.count

        if slabs is None or cfg.mode == "resampled":
            rows = sample_indices(n1, m_rows, gen)
            cols = sample_indices(n2, m_cols, gen)
            # Free the last draw's slabs (sparse holds its D slabs too)
            # before gathering new ones.
            slabs = sparse = None
            slabs = sample_slabs(D, rows, cols, cur)
        cur = sparse = None  # free the last iterate before step builds the next
        zeta = cfg.gamma**k * cfg.zeta0
        # L_0 = 0, so step 1 thresholds nothing when the slab maximum is <= zeta.
        idle = (k == 0 and cfg.mode == "fixed"
                and max(inf_norm(slabs.d_rows), inf_norm(slabs.d_cols)) <= zeta)
        cur, sparse, e = step(slabs, zeta, cfg.rank)
        k_next = k + 1
        if idle and e > cfg.eps:
            # Step 1 thresholded nothing, so L_1 = CUR(D) and D - S = D; a
            # step at any cutoff >= m = max |D - L_1| on the slabs would
            # threshold nothing and rebuild L_1 bitwise.
            m = max(inf_norm(cur.R, slabs.l_rows), inf_norm(cur.C, slabs.l_cols))
            while k_next < cfg.max_iter and cfg.gamma**k_next * cfg.zeta0 >= m:
                k_next += 1

        trace.steps.append(k)
        trace.errors.append(e)
        trace.thresholds.append(zeta)
        trace.seconds.append(time.perf_counter() - t0)
        trace.allocated.append(matcore.ALLOCATIONS.count - alloc0)
        trace.sampled_rows.append(rows.size)
        trace.sampled_cols.append(cols.size)
        trace.iterations = k_next

        if observer is not None:
            observer(k + 1, zeta, cur, sparse, e)
        if e <= cfg.eps:
            trace.converged = True
            break
        k = k_next

    return cur, sparse, trace
