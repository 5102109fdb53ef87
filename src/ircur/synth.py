"""Synthetic problem generation and recovery diagnostics.

Instances follow the standard random model: L = A @ B.T with Gaussian
factors, and S supported on round(alpha * n^2) uniformly chosen cells
with values i.i.d. uniform on [-a, a], where a is the mean absolute entry
of the realized L (the empirical estimator of E|L_ij|).

A spec (and :func:`make_video`'s ``seed``) holds an ``RngSeed`` and starts
a fresh stream from it; a function that draws from a given stream takes a
numpy ``Generator`` and advances it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import Matrix, frob_norm, frob_ratio, inf_norm
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


def gen_low_rank(n: int, rank: int, gen: np.random.Generator) -> Matrix:
    """Rank-``rank`` n x n matrix A @ B.T from i.i.d. standard normal factors."""
    if rank > n:
        raise ValueError("rank exceeds matrix dimensions")
    A = gen.standard_normal((n, rank))
    B = gen.standard_normal((n, rank))
    return A @ B.T


def _support_sample(gen: np.random.Generator, total: int, k: int) -> np.ndarray:
    """Uniform k-subset of [0, total) as a sorted int64 array.

    Draws with replacement and keeps first appearances until k distinct
    cells are collected; the first k distinct values of an i.i.d. uniform
    stream form a uniform random k-subset.  Each round sorts the stream
    once, by value and then position (the key value * m + position), so
    the first entry of each run of equal values is its first appearance.
    """
    if k == 0:
        return np.empty(0, dtype=np.int64)
    chosen = np.empty(0, dtype=np.int64)
    while True:
        short = k - chosen.size
        batch = gen.integers(0, total, size=short + short // 4 + 16)
        merged = np.concatenate([chosen, batch])
        m = merged.size
        if int(total) * m < 2**63:
            vals, pos = np.divmod(np.sort(merged * m + np.arange(m)), m)
            first = np.diff(vals, prepend=-1) != 0  # values are >= 0
            uniq, first_pos = vals[first], pos[first]
        else:  # the key would overflow int64
            uniq, first_pos = np.unique(merged, return_index=True)
        if uniq.size >= k:
            # uniq is sorted; keep the values of the k earliest first appearances.
            return uniq[first_pos <= np.partition(first_pos, k - 1)[k - 1]]
        chosen = merged[np.sort(first_pos)]  # stream order for the next round


def _sparse_parts(
    L: Matrix, alpha: float, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    n1, n2 = L.shape
    nnz = int(round(alpha * n1 * n2))
    support = _support_sample(gen, n1 * n2, nnz)
    amplitude = float(np.mean(np.abs(L)))
    values = gen.uniform(-amplitude, amplitude, size=nnz)
    return support, values


def gen_sparse(L: Matrix, alpha: float, gen: np.random.Generator) -> Matrix:
    """Sparse outlier matrix matched to L's entry scale.

    Exactly round(alpha * n1 * n2) cells, chosen uniformly without
    replacement, receive values i.i.d. uniform on [-a, a] with a the mean
    absolute entry of L.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    support, values = _sparse_parts(L, alpha, gen)
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


def success_check(cur: CurFactors, L_true: Matrix) -> bool:
    """True iff the materialized low-rank estimate is within SUCCESS_TOL
    relative Frobenius error of L_true (absolute error if L_true == 0).

    Test-scale only: materializes the CUR product, but not its difference
    from L_true.  The ratio comes from :func:`matcore.frob_ratio`, so it
    holds where the norms leave the float range, and a NaN or +-Inf in
    L_true raises ValueError.
    """
    est = cur_eval(cur)
    err = frob_ratio(((est, L_true),), (L_true,)) if L_true.any() else frob_norm(est)
    return err <= SUCCESS_TOL


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
