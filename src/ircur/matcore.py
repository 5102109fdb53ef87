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
from dataclasses import dataclass
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
# entries; below it frob_norm rescales (entries near 1e-160 lose bits), as
# it does when the sum of squares overflows.
FROB_RESCALE_BELOW = 1e-140

# Bytes of each operand per block of a blocked pass over a slab or matrix
# (see blocks): four operands of this size stay in a 2 MB L2 cache.
BLOCK_BYTES = 256 * 1024

# Lines per block of a gather across a matrix's memory order (see
# submatrix).  Rows I of an F-order D at n=6000, |I| = 174, 2-core machine:
# 14.0-14.7 ms in one call, 12.4-12.6 ms in blocks of 1024 columns, the best
# of 256, 512, 1024 and 2048.
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


def frob_norm(
    A: Matrix, B: Matrix | None = None, with_max: bool = False
) -> float | tuple[float, float]:
    """||A - B||_F as a float (B = None means 0), or with ``with_max`` the
    pair (||A - B||_F, max |A - B|) from the same pass.

    One pass over A's :func:`blocks`: each block of A - B goes to a
    block-sized buffer and its squares are summed there by ``np.einsum``,
    which calls no BLAS (a threaded ``ddot`` can stall for milliseconds on a
    busy machine).  So no temporary of A's size is allocated.  Below
    ``FROB_RESCALE_BELOW`` the squares of the largest entries may be
    subnormal or zero, and above about 1e154 their sum may overflow, so in
    either case the norm is taken again from (A - B) / max|A - B|.
    """
    total, peak = _block_sums(A, B, 1.0, with_max)
    f = math.sqrt(total)
    if not FROB_RESCALE_BELOW <= f < math.inf:
        if not with_max:
            peak = _block_sums(A, B, 1.0, True)[1]
        if 0.0 < peak < math.inf:
            f = peak * math.sqrt(_block_sums(A, B, peak, False)[0])
    return (f, peak) if with_max else f


def _block_sums(A: Matrix, B: Matrix | None, scale: float, with_max: bool) -> tuple[float, float]:
    # Sum of squares of (A - B) / scale, and max |A - B| if with_max.
    total, peak = 0.0, 0.0
    arrays = (A,) if B is None else (A, B)
    for blk in blocks(*arrays, buffer=B is not None or scale != 1.0):
        t = blk[0]
        if B is not None:
            t = np.subtract(t, blk[1], out=blk[-1])
        if scale != 1.0:
            t = np.divide(t, scale, out=blk[-1])
        total += float(np.einsum("ij,ij->", t, t))
        if with_max:  # np.max, unlike max(), keeps a NaN entry's NaN
            peak = float(np.max((peak, np.max(t), -np.min(t))))
    return total, peak


def frob_ratio(nums, dens) -> float:
    """(sum of ||A - B||_F over the (A, B) pairs ``nums``) / (sum of ||A||_F
    over the matrices ``dens``), 0 if the denominator is 0, for norms that
    leave the float range.

    Every entry is divided by one power of two, 2^(p-1) with max |A| over
    ``dens`` in [2^(p-1), 2^p), before it is squared.  That division is
    exact, so the ratio is that of the unscaled norms even where those
    overflow; :func:`frob_norm`'s rescale by the max itself is not exact and
    its norm can still overflow.
    """
    peak = max(_block_sums(A, None, 1.0, True)[1] for A in dens)
    scale = math.ldexp(1.0, math.frexp(peak)[1] - 1)
    num = sum(math.sqrt(_block_sums(A, B, scale, False)[0]) for A, B in nums)
    den = sum(math.sqrt(_block_sums(A, None, scale, False)[0]) for A in dens)
    return num / den if den else 0.0


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


def inf_norm(M: Matrix) -> float:
    """Maximum absolute entry, from one pass over M (no temporary of M's size).

    Each of M's :func:`blocks` gives its max and min while it is in cache.
    NaN and +-Inf propagate through a block's min and max, so a non-finite
    entry raises ValueError.
    """
    if M.size == 0:
        return 0.0
    hi, lo = -np.inf, np.inf
    for (block,) in blocks(M):
        b_hi, b_lo = np.max(block), np.min(block)
        if not (np.isfinite(b_hi) and np.isfinite(b_lo)):
            raise ValueError("matrix contains non-finite entries")
        hi, lo = max(hi, b_hi), min(lo, b_lo)
    return float(max(hi, -lo))


def submatrix(M: Matrix, rows=None, cols=None) -> Matrix:
    """Gather the selected rows or the selected columns of M as a new matrix.

    Exactly one of ``rows``/``cols`` is an IndexSet or a raw index array,
    else ValueError.  Output order follows the selection order.
    Out-of-range indices raise IndexError.  A row gather is C-order and a
    column gather F-order, whatever M's order.  A gather across M's memory
    order (rows of an F-order M, columns of a C-order one) copies
    GATHER_LINES lines at a time into the output, so each block's reads
    stay within fewer pages; the block temporaries add one output's size
    to the meter.
    """
    if (rows is None) == (cols is None):
        raise ValueError("submatrix gathers rows or columns: give exactly one of them")
    # A column gather is the transpose of a row gather from M.T.
    T, sel = (M, rows) if cols is None else (M.T, cols)
    idx = np.asarray(getattr(sel, "indices", sel), dtype=np.int64)  # IndexSet or array
    n = T.shape[1]
    if T.flags.c_contiguous or not T.flags.f_contiguous or n <= GATHER_LINES:
        out = tracked(T[idx, :])
    else:
        out = tracked(np.empty((idx.size, n), dtype=T.dtype))
        for start in range(0, n, GATHER_LINES):
            out[:, start:start + GATHER_LINES] = tracked(T[idx, start:start + GATHER_LINES])
    return out if cols is None else out.T


@dataclass
class SvdFactors:
    """Compact SVD triple: orthonormal W, nonincreasing sigma >= 0, orthonormal V."""

    W: Matrix
    sigma: np.ndarray
    V: Matrix

    def dense(self) -> Matrix:
        """Materialize W * diag(sigma) * V^T (small factors only)."""
        return tracked((self.W * self.sigma) @ self.V.T)


def truncated_svd(M: Matrix, r: int) -> SvdFactors:
    """Best rank-r approximation factors of M.

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
    where r = min(M.shape)) take an exact dense SVD.  A singular value
    beyond the float range (M's entries near it) raises ValueError on
    either path.
    """
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    width = r + RANGE_OVERSAMPLE
    if 2 * width > min(M.shape):
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        tracked(U), tracked(s), tracked(Vt)
        k = min(r, s.size)
        return _finite_sigma(SvdFactors(W=U[:, :k], sigma=s[:k], V=Vt[:k, :].T))
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
    with np.errstate(over="ignore"):  # an overflow is an inf, rejected below
        np.ldexp(s, -shift, out=s)
    return _finite_sigma(SvdFactors(W=tracked(Q @ w[:, :r]), sigma=s[:r], V=Vt[:r, :].T))


def _finite_sigma(fac: SvdFactors) -> SvdFactors:
    if not np.isfinite(fac.sigma).all():
        raise ValueError("singular values overflow the float range")
    return fac


@dataclass
class PinvFactor(SvdFactors):
    """Pseudoinverse of a small matrix U, held in factored form.

    Holds the SVD factors of U (so ``dense()`` rebuilds the rank-truncated
    U itself), with singular values at or below ``PINV_CUTOFF * sigma_max``
    zeroed in ``inv_sigma``, and applies U+ on either side without ever
    materializing U+ densely.
    """

    inv_sigma: np.ndarray  # k, 1/sigma where kept, else 0

    @classmethod
    def from_svd(cls, fac: SvdFactors) -> "PinvFactor":
        smax = fac.sigma[0] if fac.sigma.size else 0.0
        inv = np.zeros_like(fac.sigma)
        kept = fac.sigma > PINV_CUTOFF * smax  # none when smax == 0
        inv[kept] = 1.0 / fac.sigma[kept]
        return cls(W=fac.W, sigma=fac.sigma, V=fac.V, inv_sigma=inv)

    @property
    def rows(self) -> int:
        return self.W.shape[0]

    @property
    def cols(self) -> int:
        return self.V.shape[0]

    @property
    def effective_rank(self) -> int:
        return int(np.count_nonzero(self.inv_sigma))

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
        """
        T = tracked(X @ self.V)
        T *= self.inv_sigma
        Z = tracked(self.W.T @ Y)
        if out is None:
            return tracked(T @ Z)
        return np.matmul(T, Z, out=out)


def pinv_factor(M: Matrix) -> PinvFactor:
    """Factored Moore-Penrose pseudoinverse of M.

    Singular values at or below ``PINV_CUTOFF * sigma_max`` are treated as
    zero.  An all-zero M yields a factor that maps everything to zero.
    """
    fac = truncated_svd(M, min(M.shape))
    return PinvFactor.from_svd(fac)


def qr_thin(M: Matrix) -> tuple[Matrix, Matrix]:
    """Thin QR of a tall matrix: Q (rows x cols, orthonormal columns) and
    upper-triangular Rfac (cols x cols) with Q @ Rfac == M."""
    rows, cols = M.shape
    if rows < cols:
        raise ValueError(f"qr_thin needs rows >= cols, got {rows}x{cols}")
    Q, Rfac = np.linalg.qr(M, mode="reduced")
    return tracked(Q), tracked(Rfac)
