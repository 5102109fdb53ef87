#!/usr/bin/env python3
"""Success-probability grid over sampling constant and corruption rate.

Runs the desk-scale grid (n=300, r=5, 50 trials per cell) for both index
policies and writes phase_fixed.csv / phase_resampled.csv.  Pass --n 1000
for the full-scale grid.
"""

import argparse
import sys

from ircur.cli import main as ircur_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=300)
    ap.add_argument("--rank", type=int, default=5)
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--c-grid", default="1,2,3,4,5")
    ap.add_argument("--alpha-grid", default="0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out-prefix", default="phase")
    args = ap.parse_args()

    for mode in ("fixed", "resampled"):
        out = f"{args.out_prefix}_{mode}.csv"
        code = ircur_main([
            "phase-transition",
            "--n", str(args.n),
            "--rank", str(args.rank),
            "--trials", str(args.trials),
            "--c-grid", args.c_grid,
            "--alpha-grid", args.alpha_grid,
            "--mode", mode,
            "--max-iter", "60",
            "--seed", str(args.seed),
            "--out", out,
        ])
        if code != 0:
            return code
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
