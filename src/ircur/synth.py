"""Synthetic problem generation and recovery diagnostics.

Instances follow the standard random model: L = A @ B.T with Gaussian
factors, and S supported on round(alpha * n^2) uniformly chosen cells
with values i.i.d. uniform on [-a, a], where a is the mean absolute entry
of the realized L (the empirical estimator of E|L_ij|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import Matrix, frob_norm, inf_norm
from .sampling import RngSeed
from .solver import CurFactors, cur_eval

# A recovery counts as successful when the low-rank estimate is within
# this relative Frobenius error of the ground truth.
SUCCESS_TOL = 1e-3


@dataclass(frozen=True)
class SyntheticSpec:
    """Generation parameters for a square instance."""

    n: int
    rank: int
    alpha: float
    seed: RngSeed

    def __post_init__(self) -> None:
        if self.n < 1 or self.rank < 1 or self.rank > self.n:
            raise ValueError(f"need 1 <= rank <= n, got rank={self.rank}, n={self.n}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")
        if self.alpha * self.n**2 > self.n**2 - 1:
            raise ValueError("alpha leaves no uncorrupted entry")


@dataclass
class ProblemInstance:
    """A generated (D, L, S) triple with D = L + S exactly."""

    D: Matrix
    L: Matrix
    S: Matrix


@dataclass
class AssumptionReport:
    """Diagnostics for the incoherence of L and the spread of S.

    mu_estimate uses the compact SVD of L; alpha_rowcol is the largest
    fraction of nonzeros in any single row or column of S.  degenerate is
    set (and mu_estimate is NaN) when L is identically zero.
    """

    mu_estimate: float
    max_row_nnz: int
    max_col_nnz: int
    alpha_rowcol: float
    degenerate: bool = False


def _generator(rng: RngSeed | np.random.Generator) -> np.random.Generator:
    return rng.generator() if isinstance(rng, RngSeed) else rng


def gen_low_rank(
    n: int, rank: int, rng: RngSeed | np.random.Generator, n_cols: int | None = None
) -> Matrix:
    """Rank-``rank`` matrix A @ B.T from i.i.d. standard normal factors."""
    if rank > min(n, n if n_cols is None else n_cols):
        raise ValueError("rank exceeds matrix dimensions")
    gen = _generator(rng)
    A = gen.standard_normal((n, rank))
    B = gen.standard_normal((n if n_cols is None else n_cols, rank))
    return A @ B.T


def _support_sample(gen: np.random.Generator, total: int, k: int) -> np.ndarray:
    """Uniform k-subset of [0, total) as a sorted int64 array.

    Draws with replacement and keeps first appearances until k distinct
    cells are collected; the first k distinct values of an i.i.d. uniform
    stream form a uniform random k-subset.
    """
    if k == 0:
        return np.empty(0, dtype=np.int64)
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < k:
        short = k - chosen.size
        batch = gen.integers(0, total, size=short + short // 4 + 16)
        merged = np.concatenate([chosen, batch])
        uniq, first_pos = np.unique(merged, return_index=True)
        chosen = uniq[np.argsort(first_pos)]
    return np.sort(chosen[:k])


def _sparse_parts(
    L: Matrix, alpha: float, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    n1, n2 = L.shape
    nnz = int(round(alpha * n1 * n2))
    support = _support_sample(gen, n1 * n2, nnz)
    amplitude = float(np.mean(np.abs(L)))
    values = gen.uniform(-amplitude, amplitude, size=nnz)
    return support, values


def gen_sparse(L: Matrix, alpha: float, rng: RngSeed | np.random.Generator) -> Matrix:
    """Sparse outlier matrix matched to L's entry scale.

    Exactly round(alpha * n1 * n2) cells, chosen uniformly without
    replacement, receive values i.i.d. uniform on [-a, a] with a the mean
    absolute entry of L.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    support, values = _sparse_parts(L, alpha, _generator(rng))
    S = np.zeros(L.shape)
    S.flat[support] = values
    return S


def make_problem(spec: SyntheticSpec) -> ProblemInstance:
    """Full instance with D, L, S all materialized (desk scale)."""
    gen = spec.seed.generator()
    L = gen_low_rank(spec.n, spec.rank, gen)
    S = gen_sparse(L, spec.alpha, gen)
    D = L + S
    return ProblemInstance(D=D, L=L, S=S)


def make_data_matrix(spec: SyntheticSpec) -> tuple[Matrix, float]:
    """Memory-lean instance for large-n benchmarks: only D plus max |L|.

    Produces bitwise the same D as ``make_problem(spec).D`` but corrupts
    the low-rank buffer in place instead of holding L, S, D separately.
    """
    gen = spec.seed.generator()
    D = gen_low_rank(spec.n, spec.rank, gen)
    l_inf = inf_norm(D)
    support, values = _sparse_parts(D, spec.alpha, gen)
    D.flat[support] += values
    return D, l_inf


def assumption_report(L: Matrix, S: Matrix, rank: int) -> AssumptionReport:
    """Measure incoherence of L and per-row/column sparsity of S."""
    n1, n2 = L.shape
    row_nnz = np.count_nonzero(S, axis=1)
    col_nnz = np.count_nonzero(S, axis=0)
    max_row = int(row_nnz.max()) if row_nnz.size else 0
    max_col = int(col_nnz.max()) if col_nnz.size else 0
    alpha_rowcol = max(max_row / n2, max_col / n1)
    if not L.any():
        return AssumptionReport(float("nan"), max_row, max_col, alpha_rowcol, degenerate=True)
    U, s, Vt = np.linalg.svd(L, full_matrices=False)
    k = int(np.count_nonzero(s > 1e-10 * s[0]))
    W, V = U[:, :k], Vt[:k, :].T
    mu = max(
        (n1 / rank) * float(np.max(np.einsum("ij,ij->i", W, W))),
        (n2 / rank) * float(np.max(np.einsum("ij,ij->i", V, V))),
    )
    return AssumptionReport(mu, max_row, max_col, alpha_rowcol)


def success_check(cur: CurFactors, L_true: Matrix) -> bool:
    """True iff the materialized low-rank estimate is within SUCCESS_TOL
    relative Frobenius error of L_true (absolute error if L_true == 0).

    Test-scale only: materializes the CUR product.
    """
    err = frob_norm(cur_eval(cur) - L_true)
    base = frob_norm(L_true)
    if base == 0.0:
        return err <= SUCCESS_TOL
    return err / base <= SUCCESS_TOL


def make_video(
    width: int = 160,
    height: int = 120,
    n_frames: int = 200,
    seed: RngSeed = RngSeed(7),
    blob_size: int = 14,
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int, int, int]]]:
    """Synthetic grayscale sequence: static background plus a moving blob.

    Returns (frames, background, boxes): frames is (n_frames, height,
    width) uint8, background is the (height, width) uint8 ground truth,
    and boxes[t] = (y0, y1, x0, x1) bounds the blob in frame t.  Blob
    pixels take the value farthest from the local background (255 where
    the background is dark, 0 where it is bright), so they are genuine
    outliers at every position.
    """
    gen = seed.generator()
    yy, xx = np.mgrid[0:height, 0:width]
    base = 120.0 + 60.0 * np.sin(2 * np.pi * xx / width) * np.cos(2 * np.pi * yy / height)
    texture = gen.uniform(-25.0, 25.0, size=(height, width))
    background = np.clip(np.rint(base + texture), 20, 230).astype(np.uint8)

    frames = np.empty((n_frames, height, width), dtype=np.uint8)
    boxes: list[tuple[int, int, int, int]] = []
    for t in range(n_frames):
        y0 = (11 + 2 * t) % (height - blob_size)
        x0 = (5 + 3 * t) % (width - blob_size)
        frame = background.copy()
        patch = background[y0 : y0 + blob_size, x0 : x0 + blob_size]
        frame[y0 : y0 + blob_size, x0 : x0 + blob_size] = np.where(patch < 128, 255, 0)
        frames[t] = frame
        boxes.append((y0, y0 + blob_size, x0, x0 + blob_size))
    return frames, background, boxes
