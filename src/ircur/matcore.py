"""Dense linear-algebra kernels: norms, row and column gathers, thin QR,
truncated SVD, and pseudoinverse application.

This is the only module that performs factorizations.  The rank-r core
truncation computes only the triplets it keeps, by a randomized range
finder with power iteration (Halko, Martinsson and Tropp, *Finding
structure with randomness*, SIAM Review 2011) whose test matrix comes from
a fixed seed, so every kernel stays deterministic; matrices too small for
it to pay off use an exact dense SVD.  All kernels are pure
functions of their inputs; matrices are treated as immutable carriers
(2-D float64 ndarrays).  Every kernel that materializes a new array reports
it to the module-level :data:`ALLOCATIONS` meter so that callers can assert
memory bounds on top of these primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

# Type alias for the universal numeric carrier: a 2-D float64 ndarray.
Matrix = np.ndarray

# Relative singular-value cutoff below which pseudoinversion treats a
# singular value as zero.  Machine-precision guard.
PINV_CUTOFF = 1e-12

# Randomized range finder of truncated_svd: oversampling columns beyond the
# rank, power steps, and the seed of its Gaussian test matrix.  It is used
# when 2 * (r + RANGE_OVERSAMPLE) <= min(M.shape).  Per call at r = 5 on
# 2-core OpenBLAS, exact SVD against range finder: 0.066 against 0.066 ms
# at 25 x 25, 0.077 against 0.110 at 30 x 30, 0.148 against 0.125 at
# 40 x 40, 1.36 against 0.18 at 100 x 100 and 4.6 against 0.30 at 179 x 179.
RANGE_OVERSAMPLE = 10
RANGE_POWER_STEPS = 2
RANGE_SEED = 0

# A Frobenius norm at or above this has normal squares in its largest
# entries; below it frob_norm's plain sum loses bits (entries near 1e-160)
# or reads 0, so frob_scale rescales, as it does when that sum overflows.
FROB_RESCALE_BELOW = 1e-140

# Bytes of each operand per block of a blocked pass over a slab or matrix
# (see blocks): four operands of this size stay in a 2 MB L2 cache.
BLOCK_BYTES = 256 * 1024

# Lines per block of a gather across a matrix's memory order (see
# submatrix).  Medians of 60 interleaved calls on a 2-core machine, rows of
# an F-order D at n=6000, |I| = 172: 22.2 ms in blocks of 512 lines, 23.6 ms
# of 1024, with quartiles 20-26 ms for both; columns of a C-order D at
# n=8000, |J| = 178: 32.1 and 33.7 ms, quartiles 29-35 ms.  Blocks of 256
# and 2048 read the same, and numpy indexing in blocks of 1024 took 36 and
# 46 ms.  No block size is better beyond noise, so 1024 stays.
GATHER_LINES = 1024


class AllocationMeter:
    """Cumulative allocated-elements counter.

    Counts in 8-byte scalar units (one float64 == one element; smaller
    dtypes such as boolean masks are charged at their byte weight).  Not
    thread-safe; intended for single-threaded measurement runs.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add_array(self, arr: np.ndarray) -> np.ndarray:
        self.count += (arr.nbytes + 7) // 8
        return arr

    def reset(self) -> None:
        self.count = 0


ALLOCATIONS = AllocationMeter()


def tracked(arr: np.ndarray) -> np.ndarray:
    """Register a freshly allocated array with the allocation meter."""
    return ALLOCATIONS.add_array(arr)


def require_finite(M: Matrix) -> Matrix:
    """Validate an existing 2-D float64 array without copying it.

    The entries are checked by :func:`inf_norm`'s one min/max pair.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={M.ndim}")
    inf_norm(M)
    return M


def frob_norm(A: Matrix, B: Matrix | None = None, scale: float = 1.0) -> float:
    """||A - B||_F / scale (B = None means 0), from one pass over A's blocks.

    Each block of (A - B) / scale goes to a block-sized buffer and its
    squares are summed there by ``np.einsum``, which calls no BLAS (a
    threaded ``ddot`` can stall for milliseconds on a busy machine), so no
    temporary of A's size is allocated.  The sum is plain: it loses bits or
    reads 0 below ``FROB_RESCALE_BELOW`` and overflows to inf above about
    1e154; :func:`frob_scale` gives a scale that keeps it in range.
    """
    total = 0.0
    for t in _diff_blocks(A, B, scale):
        total += float(np.einsum("ij,ij->", t, t))
    return math.sqrt(total)


def _diff_blocks(A: Matrix, B: Matrix | None, scale: float = 1.0) -> Iterator[Matrix]:
    # (A - B) / scale block by block, through one reused buffer where needed.
    arrays = (A,) if B is None else (A, B)
    for blk in blocks(*arrays, buffer=B is not None or scale != 1.0):
        t = blk[0]
        if B is not None:
            t = np.subtract(t, blk[1], out=blk[-1])
        if scale != 1.0:
            t = np.divide(t, scale, out=blk[-1])
        yield t


def frob_scale(*Ms: Matrix) -> tuple[float, float]:
    """(den, scale) with den = (sum of ||M||_F over ``Ms``) / scale.

    The plain sum of :func:`frob_norm` passes is returned with scale 1 when
    it lies in [``FROB_RESCALE_BELOW``, inf).  Otherwise scale is 2^(p-1),
    with max |M| over ``Ms`` (from :func:`inf_norm`, which rejects a NaN or
    +-Inf there) in [2^(p-1), 2^p), or 1 for all-zero ``Ms``, and the sum is
    retaken on it.  Division by a power of two is exact, so
    ``frob_norm(A, B, scale) / den`` is the ratio of the unscaled norms even
    where those overflow or underflow.
    """
    den = sum(frob_norm(M) for M in Ms)
    if FROB_RESCALE_BELOW <= den < math.inf:
        return den, 1.0
    peak = max(inf_norm(M) for M in Ms)
    scale = math.ldexp(1.0, math.frexp(peak)[1] - 1) if peak else 1.0
    return sum(frob_norm(M, None, scale) for M in Ms), scale


def blocks(*arrays: Matrix, buffer: bool = False) -> Iterator[tuple[Matrix, ...]]:
    """Matching views of the equally shaped ``arrays``, cut into blocks of
    about ``BLOCK_BYTES`` of the first one along the leading axis of its
    memory order (rows, or columns for an F-order array), so that a pass
    doing several operations per block reads each block from cache.

    With ``buffer``, each tuple ends with one more view, shaped like the
    block, into a single block-sized float64 array that every block reuses.
    """
    if arrays[0].flags.f_contiguous and not arrays[0].flags.c_contiguous:
        arrays = tuple(A.T for A in arrays)
    first = arrays[0]
    if first.size == 0:
        return
    width = first.size // first.shape[0]
    step = max(1, BLOCK_BYTES // (first.itemsize * width))
    buf = tracked(np.empty(min(step, first.shape[0]) * width)) if buffer else None
    for start in range(0, first.shape[0], step):
        views = tuple(A[start:start + step] for A in arrays)
        if buffer:
            views += (buf[: views[0].size].reshape(views[0].shape),)
        yield views


def inf_norm(M: Matrix, B: Matrix | None = None) -> float:
    """max |M - B| (B = None means 0), from one pass over M's :func:`blocks`
    (no temporary of M's size).

    Each block of M - B gives its max and min while it is in cache.  NaN and
    +-Inf propagate through a block's min and max, so a non-finite entry of
    M - B raises ValueError.
    """
    peak = 0.0
    for t in _diff_blocks(M, B):
        b = max(np.max(t), -np.min(t))  # NaN where t holds a NaN
        if not np.isfinite(b):
            raise ValueError("matrix contains non-finite entries")
        peak = max(peak, b)
    return float(peak)


def submatrix(M: Matrix, rows=None, cols=None) -> Matrix:
    """Gather the selected rows or the selected columns of M as a new matrix.

    Exactly one of ``rows``/``cols`` is an IndexSet or a raw index array,
    else ValueError.  Output order follows the selection order.
    Out-of-range indices raise IndexError; negative ones count from the end.
    So does a non-empty selection of a dtype that is not integer (a boolean
    mask, floats).  The values are those of numpy indexing, and a row gather
    is C-order and a column gather F-order, whatever M's order.  A gather
    across M's memory order (rows of an F-order M, columns of a C-order one)
    of more than GATHER_LINES lines runs ``np.take`` along GATHER_LINES
    contiguous lines at a time into one reused block buffer (metered as
    GATHER_LINES * len(selection)) and copies each block's transpose out.
    """
    if (rows is None) == (cols is None):
        raise ValueError("submatrix gathers rows or columns: give exactly one of them")
    # A column gather is the transpose of a row gather from M.T.
    T, sel = (M, rows) if cols is None else (M.T, cols)
    idx = np.asarray(getattr(sel, "indices", sel))  # IndexSet or array
    if idx.size and idx.dtype.kind not in "iu":
        raise IndexError(f"indices must be integers, got dtype {idx.dtype}")
    idx = idx.astype(np.int64, copy=False)
    m, n = T.shape
    if T.flags.c_contiguous or not T.flags.f_contiguous or n <= GATHER_LINES:
        out = tracked(T[idx, :])
    else:
        if idx.size and not (-m <= idx.min() and idx.max() < m):
            raise IndexError(f"index out of bounds for axis 0 with size {m}")
        out = tracked(np.empty((idx.size, n), dtype=T.dtype))
        buf = tracked(np.empty((GATHER_LINES, idx.size), dtype=T.dtype))
        lines = T.T  # C-order: each of its rows is one line of M's memory
        for start in range(0, n, GATHER_LINES):
            block = buf[: min(GATHER_LINES, n - start)]
            # In bounds, so "wrap" maps negatives as numpy does; "raise" buffers out.
            np.take(lines[start:start + GATHER_LINES], idx, axis=1, out=block, mode="wrap")
            out[:, start:start + GATHER_LINES] = block.T
    return out if cols is None else out.T


@dataclass
class SvdFactors:
    """SVD factors of a small matrix U, which also hold its pseudoinverse U+.

    W and V have orthonormal columns and sigma is nonincreasing and >= 0,
    so ``dense()`` gives W diag(sigma) V^T.  ``inv_sigma`` holds 1/sigma
    where sigma > ``PINV_CUTOFF * sigma_max`` and 0 elsewhere, and U+ =
    V diag(inv_sigma) W^T is applied on either side without being formed.
    The spectrum is checked here, so no factors beyond the float range
    exist: a sigma that is not finite, or a kept sigma whose reciprocal
    overflows (one below 2^-1024), raises ValueError.
    """

    W: Matrix
    sigma: np.ndarray
    V: Matrix
    inv_sigma: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not np.isfinite(self.sigma).all():
            raise ValueError("singular values overflow the float range")
        smax = self.sigma[0] if self.sigma.size else 0.0
        inv = np.zeros_like(self.sigma)
        kept = self.sigma > PINV_CUTOFF * smax  # none when smax == 0
        with np.errstate(over="ignore"):  # an inf is rejected below
            inv[kept] = 1.0 / self.sigma[kept]
        if not np.isfinite(inv).all():
            raise ValueError("a kept singular value's reciprocal overflows the float range")
        self.inv_sigma = inv

    @property
    def rows(self) -> int:
        return self.W.shape[0]

    @property
    def cols(self) -> int:
        return self.V.shape[0]

    @property
    def effective_rank(self) -> int:
        return int(np.count_nonzero(self.inv_sigma))

    def dense(self) -> Matrix:
        """Materialize W * diag(sigma) * V^T (small factors only)."""
        return tracked((self.W * self.sigma) @ self.V.T)

    # No caller in ircur; kept because bench/shims.py wraps it and its tests check that.
    def apply_left(self, X: Matrix) -> Matrix:
        """U+ @ X for X with rows(U) rows."""
        T = tracked(self.W.T @ X)
        T *= self.inv_sigma[:, None]
        return tracked(self.V @ T)

    def apply_right(self, X: Matrix, Y: Matrix, out: Matrix | None = None) -> Matrix:
        """X @ U+ @ Y for X with cols(U) columns and Y with rows(U) rows.

        Evaluated as (X V diag(inv_sigma)) (W^T Y), so no intermediate is
        wider than the rank k of the factor.  Written into ``out`` if given.
        For an X that is not C-contiguous (an F-order column slab), X V is
        taken as (V^T X^T)^T with a C-order copy of V, which reads X along
        its memory order; a C-order X keeps X @ V, whose last bits differ.
        """
        if X.flags.c_contiguous:
            T = tracked(X @ self.V)
        else:
            T = tracked((tracked(self.V.copy(order="C")).T @ X.T).T)
        T *= self.inv_sigma
        Z = tracked(self.W.T @ Y)
        if out is None:
            return tracked(T @ Z)
        return np.matmul(T, Z, out=out)


PinvFactor = SvdFactors  # the name bench/shims.py wraps apply_left and apply_right under


def truncated_svd(M: Matrix, r: int) -> SvdFactors:
    """Best rank-r approximation factors of M, with its pseudoinverse.

    Returns min(r, min(M.shape)) singular triplets; if rank(M) < r the
    trailing sigma entries are (numerically) zero.  When
    2 * (r + RANGE_OVERSAMPLE) <= min(M.shape), only those triplets are
    computed: Y = M Omega for a fixed-seed Gaussian Omega with
    r + RANGE_OVERSAMPLE columns, then RANGE_POWER_STEPS times
    Y = M (M^T orth(Y)), and the SVD of the small Q^T M with Q = orth(Y)
    rotates into W = Q w.  The error in the kept subspace shrinks like
    (sigma_{r+RANGE_OVERSAMPLE+1} / sigma_r)^(2 RANGE_POWER_STEPS + 1).
    M (M^T Q) squares M's magnitude, so that path runs on M times the power
    of two that brings max|M| into [0.5, 1) and divides sigma by it after;
    a power of two scales every entry exactly, so W, V and sigma are
    bitwise those of the unscaled path wherever its products neither
    overflow nor underflow.  Smaller matrices (and every ``pinv_factor``,
    where r = min(M.shape)) take an exact dense SVD.  Either path returns
    :class:`SvdFactors`, which checks the spectrum: a singular value beyond
    the float range (M's entries near its top), or a kept one too small to
    invert (M's entries near its bottom), raises ValueError.
    """
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    width = r + RANGE_OVERSAMPLE
    if 2 * width > min(M.shape):
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        tracked(U), tracked(s), tracked(Vt)
        k = min(r, s.size)
        return SvdFactors(W=U[:, :k], sigma=s[:k], V=Vt[:k, :].T)
    # max and min, not inf_norm: the benchmark counts inf_norm as an entry scan.
    shift = -math.frexp(max(float(M.max()), -float(M.min())))[1]  # 0 for M == 0
    M = tracked(np.ldexp(M, shift))
    omega = np.random.default_rng(RANGE_SEED).standard_normal((M.shape[1], width))
    Y = tracked(M @ tracked(omega))
    for _ in range(RANGE_POWER_STEPS):
        Q = tracked(np.linalg.qr(Y)[0])
        Y = tracked(M @ tracked(M.T @ Q))
    Q = tracked(np.linalg.qr(Y)[0])
    w, s, Vt = np.linalg.svd(tracked(Q.T @ M), full_matrices=False)
    tracked(w), tracked(s), tracked(Vt)
    with np.errstate(over="ignore"):  # an overflow is an inf, rejected by SvdFactors
        np.ldexp(s, -shift, out=s)
    return SvdFactors(W=tracked(Q @ w[:, :r]), sigma=s[:r], V=Vt[:r, :].T)


def pinv_factor(M: Matrix) -> SvdFactors:
    """Factored Moore-Penrose pseudoinverse of M.

    Singular values at or below ``PINV_CUTOFF * sigma_max`` are treated as
    zero.  An all-zero M yields a factor that maps everything to zero.
    """
    return truncated_svd(M, min(M.shape))


def qr_thin(M: Matrix) -> tuple[Matrix, Matrix]:
    """Thin QR of a tall matrix: Q (rows x cols, orthonormal columns) and
    upper-triangular Rfac (cols x cols) with Q @ Rfac == M."""
    rows, cols = M.shape
    if rows < cols:
        raise ValueError(f"qr_thin needs rows >= cols, got {rows}x{cols}")
    Q, Rfac = np.linalg.qr(M, mode="reduced")
    return tracked(Q), tracked(Rfac)
