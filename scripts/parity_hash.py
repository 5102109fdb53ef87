"""Bitwise parity check of the solver: one SHA-256 over a fixed set of solves.

Run as ``python scripts/parity_hash.py`` with ``src/`` on the import path
(or the package installed).  It takes no flags and prints
``<count> <sha256>``: the number of solves and one hash over their results.
Two trees that print the same line give bitwise the same C, R, core sigma,
S slabs and trace fields (steps, errors, thresholds, iterations, converged,
sampled sizes) on every solve of the set, so a change meant to keep results
bitwise can be checked against its parent.

The set: rank 5, n=300 with seeds 0-7 and (c, alpha) in {(4, .1), (2, .2),
(1, .1), (4, .3)}, plus (4, .1) at n=1000 with seeds 0-2 and at n=1500 with
seeds 0-1; both modes; zeta0 = 2 max|L| on even seeds and None (max |D|) on
odd ones; max_iter 60.  That is 74 problems, and each is solved on a C-order
and an F-order copy of D (the F-order one is the layout ``ircur solve`` reads
from a BIN file), so 148 solves.  The n=1500 problems gather more than
``matcore.GATHER_LINES`` lines across D's memory order, so the blocked
gather is hashed too.  Timings and allocation counts are not hashed.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

import numpy as np

from ircur.matcore import inf_norm
from ircur.sampling import RngSeed
from ircur.solver import MODES, SolverConfig, solve
from ircur.synth import SyntheticSpec, make_problem

RANK = 5
MAX_ITER = 60
CELLS = ((4.0, 0.1), (2.0, 0.2), (1.0, 0.1), (4.0, 0.3))

Case = tuple[int, int, float, float, str]  # n, seed, c, alpha, mode


def parity_cases() -> Iterator[Case]:
    """The 74 problems of the set, as (n, seed, c, alpha, mode)."""
    for n, seeds, cells in ((300, range(8), CELLS), (1000, range(3), CELLS[:1]),
                             (1500, range(2), CELLS[:1])):
        for seed in seeds:
            for c, alpha in cells:
                for mode in MODES:
                    yield n, seed, c, alpha, mode


def parity_hash(cases: Iterable[Case]) -> tuple[int, str]:
    """(number of solves, SHA-256 hex digest) over each case solved on a
    C-order and an F-order copy of its D."""
    digest = hashlib.sha256()
    count = 0
    for n, seed, c, alpha, mode in cases:
        inst = make_problem(SyntheticSpec(n, RANK, alpha, RngSeed(seed)))
        cfg = SolverConfig(
            rank=RANK, zeta0=None if seed % 2 else 2 * inf_norm(inst.L),
            c_rows=c, c_cols=c, mode=mode, max_iter=MAX_ITER, seed=RngSeed(seed, 1),
        )
        for order in "CF":
            cur, sparse, trace = solve(np.asarray(inst.D, order=order), cfg)
            for arr in (cur.C, cur.R, cur.core_pinv.sigma,
                        sparse.row_values, sparse.col_values):
                digest.update(repr(arr.shape).encode())
                digest.update(np.ascontiguousarray(arr).tobytes())
            fields = (trace.steps, trace.errors, trace.thresholds, trace.iterations,
                      trace.converged, trace.sampled_rows, trace.sampled_cols)
            digest.update(repr(fields).encode())
            count += 1
    return count, digest.hexdigest()


def main() -> None:
    count, hexdigest = parity_hash(parity_cases())
    print(count, hexdigest)


if __name__ == "__main__":
    main()
