#!/usr/bin/env python3
"""Background subtraction demo on the bundled synthetic video.

Generates a static-background + moving-blob PGM sequence, separates it,
and reports the background recovery error against the known ground truth.
Output frames land in <out-dir>/background and <out-dir>/foreground.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from ircur.experiments import run_video
from ircur.mio import read_frame_dir, write_frame_dir
from ircur.sampling import RngSeed
from ircur.solver import SolverConfig
from ircur.synth import make_video


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--width", type=int, default=160)
    ap.add_argument("--height", type=int, default=120)
    ap.add_argument("--frames", type=int, default=200)
    ap.add_argument("--rank", type=int, default=2)
    ap.add_argument("--c", type=float, default=4.0)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out-dir", default="video_demo")
    args = ap.parse_args()

    out = Path(args.out_dir)
    try:
        frames, background, _ = make_video(
            args.width, args.height, args.frames, RngSeed(args.seed)
        )
    except ValueError as exc:  # a frame too small for the blob
        ap.error(str(exc))
    frame_dir = out / "frames"
    write_frame_dir(frames, frame_dir)
    print(f"wrote {args.frames} input frames to {frame_dir}")

    cfg = SolverConfig(
        rank=args.rank, c_rows=args.c, c_cols=args.c, mode="resampled",
        seed=RngSeed(args.seed + 1),
    )
    run_video(frame_dir, out, cfg)

    recovered = read_frame_dir(out / "background")
    err = np.abs(recovered.astype(float) - background.astype(float))
    print(f"background mean abs error {err.mean():.4f}, max {err.max():.1f} gray levels")
    return 0


if __name__ == "__main__":
    sys.exit(main())
