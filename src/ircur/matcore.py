"""Dense linear-algebra kernels: norms, submatrix extraction, thin QR,
truncated SVD, and pseudoinverse application.

This is the only module that performs factorizations.  All kernels are pure
functions of their inputs; matrices are treated as immutable carriers
(2-D float64 ndarrays).  Every kernel that materializes a new array reports
it to the module-level :data:`ALLOCATIONS` meter so that callers can assert
memory bounds on top of these primitives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Type alias for the universal numeric carrier: a 2-D float64 ndarray.
Matrix = np.ndarray

# Relative singular-value cutoff below which pseudoinversion treats a
# singular value as zero.  Machine-precision guard.
PINV_CUTOFF = 1e-12


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

    NaN and +-Inf propagate through min and max, so checking those two
    reductions finds any non-finite entry without a temporary of M's size.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={M.ndim}")
    if M.size and not (np.isfinite(M.min()) and np.isfinite(M.max())):
        raise ValueError("matrix contains non-finite entries")
    return M


def frob_norm(M: Matrix) -> float:
    """Frobenius norm: sqrt of the sum of squared entries."""
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, "fro"))


def inf_norm(M: Matrix) -> float:
    """Maximum absolute entry (no temporary of M's size is allocated)."""
    if M.size == 0:
        return 0.0
    return float(max(np.max(M), -np.min(M)))


def _index_array(sel) -> np.ndarray:
    # Accepts an IndexSet-like object (``.indices``) or a raw index array.
    return np.asarray(getattr(sel, "indices", sel), dtype=np.int64)


def submatrix(M: Matrix, rows=None, cols=None) -> Matrix:
    """Extract selected rows/columns as a new matrix.

    ``rows``/``cols`` may be an IndexSet, a raw index array, or None for
    "all".  Output order follows the selection order.  Out-of-range
    indices raise IndexError.
    """
    if rows is None and cols is None:
        return tracked(M.copy())
    if rows is None:
        return tracked(M[:, _index_array(cols)])
    if cols is None:
        return tracked(M[_index_array(rows), :])
    return tracked(M[np.ix_(_index_array(rows), _index_array(cols))])


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
    """Best rank-r approximation factors of M via an exact dense SVD.

    Returns min(r, min(M.shape)) singular triplets; if rank(M) < r the
    trailing sigma entries are (numerically) zero.
    """
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    tracked(U), tracked(s), tracked(Vt)
    k = min(r, s.size)
    return SvdFactors(W=U[:, :k], sigma=s[:k], V=Vt[:k, :].T)


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
