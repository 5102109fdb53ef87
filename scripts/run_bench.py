#!/usr/bin/env python3
"""Runtime scaling of the solver over problem size.

Writes bench_<mode>.csv with columns n,iterations,total_seconds,
seconds_per_iteration,final_e and prints the fitted log-log exponent of
per-iteration time versus n (near-linear is expected; a dense solver
would sit near 2).
"""

import argparse
import sys

import numpy as np

from ircur.experiments import bench_specs, run_bench
from ircur.sampling import RngSeed
from ircur.solver import SolverConfig


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="1000,2000,4000,8000")
    ap.add_argument("--rank", type=int, default=5)
    ap.add_argument("--alpha", type=float, default=0.1)
    ap.add_argument("--c", type=float, default=4.0)
    ap.add_argument("--modes", default="fixed,resampled")
    ap.add_argument("--seed", type=int, default=99)
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    for mode in args.modes.split(","):
        cfg = SolverConfig(
            rank=args.rank, c_rows=args.c, c_cols=args.c, mode=mode, seed=RngSeed(args.seed)
        )
        rows = run_bench(bench_specs(sizes, args.alpha, cfg), cfg)
        out = f"bench_{mode}.csv"
        with open(out, "w") as fh:
            fh.write("n,iterations,total_seconds,seconds_per_iteration,final_e\n")
            for row in rows:
                fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
        slope = np.polyfit(np.log([r[0] for r in rows]), np.log([r[3] for r in rows]), 1)[0]
        print(f"{mode}: wrote {out}; per-iteration log-log slope {slope:.3f}")
        for n, iters, total, per, e in rows:
            print(f"  n={n}: {iters} iterations, {total:.2f}s total, {per * 1000:.2f}ms/iter, e={e:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
