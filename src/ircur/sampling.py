"""Uniform row/column index sampling and reproducible RNG plumbing.

Index sets are drawn uniformly with replacement and then deduplicated:
duplicate rows or columns add no rank information to the sampled core and
only inflate kernel cost.  Sampled sizes follow ceil(c * r * ln(n)),
clamped to [r, n].

Randomness is derived from counter-style (seed, stream) pairs through
numpy's SeedSequence so that independent trials in the benchmark harness
are reproducible regardless of execution order.  Configs and specs hold an
``RngSeed``; a function that draws takes a numpy ``Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngSeed:
    """A reproducible randomness source: 64-bit seed plus a stream id.

    The same (seed, stream) pair always reproduces the identical sample
    sequence.  Distinct stream ids (or distinct ``spawn`` keys) give
    statistically independent streams.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0 or self.stream < 0:
            raise ValueError("seed and stream must be nonnegative")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        )

    def derive(self, *key: int) -> "RngSeed":
        """Independent child seed for a derived stream, e.g. (cell, trial).

        Distinct keys give statistically independent streams; the mapping
        is deterministic, so concurrent harness trials are reproducible.
        """
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream, *key))
        return RngSeed(int(ss.generate_state(1, np.uint64)[0]), 0)


@dataclass
class IndexSet:
    """Sorted, deduplicated selection of row or column indices.

    ``indices`` is strictly increasing int64 (from integers, else
    ValueError); every index lies in [0, bound).  At least one index is
    required.
    """

    indices: np.ndarray
    bound: int

    def __post_init__(self) -> None:
        if np.asarray(self.indices).dtype.kind not in "iu":
            raise ValueError("indices must be integers")
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indices.ndim != 1 or self.indices.size < 1:
            raise ValueError("an IndexSet needs at least one index")
        if self.indices[0] < 0 or self.indices[-1] >= self.bound:
            raise ValueError(f"indices out of range for bound {self.bound}")
        if self.indices.size > 1 and not (np.diff(self.indices) > 0).all():
            raise ValueError("indices must be strictly increasing")

    @property
    def size(self) -> int:
        return int(self.indices.size)


def sample_count(n: int, r: int, c: float) -> int:
    """Number of indices to sample: min(n, max(r, ceil(c * r * ln(n))))."""
    if n < 1 or r < 1 or c <= 0:
        raise ValueError(f"need n >= 1, r >= 1, c > 0; got n={n}, r={r}, c={c}")
    if n == 1:
        return 1  # c * r may overflow to inf, and inf * log(1) is NaN
    # Clamp at n before ceil, which cannot take an overflowed product.
    return min(n, max(r, math.ceil(min(c * r * math.log(n), n))))


def sample_indices(n: int, m: int, gen: np.random.Generator) -> IndexSet:
    """Draw m indices uniformly with replacement from [0, n), then
    deduplicate and sort.  The result has size <= m (and >= 1).

    The draw advances ``gen``, which is how sequential redraws are made.
    """
    if m < 1 or m > n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return IndexSet(np.unique(gen.integers(0, n, size=m)), n)
