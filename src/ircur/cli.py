"""Command-line harness: solve, experiment grids, and CUR-to-SVD conversion.

Subcommands
-----------
solve             decompose a matrix file, writing C/core/R factors and a
                  per-iteration trace CSV (k,zeta,e,millis)
phase-transition  success-count grid over sampling constant c and
                  corruption rate alpha; CSV rows c,alpha,successes,trials
bench             runtime scaling over problem sizes; CSV rows
                  n,iterations,total_seconds,seconds_per_iteration,final_e
video             background/foreground separation of a PGM frame directory
cur2svd           convert stored CUR factors to compact SVD factors

All commands are deterministic given --seed.  The IRCUR_THREADS
environment variable caps harness parallelism (0 = serial, the default);
parallel execution changes neither results nor row order.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .convert import cur_to_svd
from .matcore import inf_norm, pinv_factor
from .mio import (
    FormatError,
    frames_to_matrix,
    matrix_to_frames,
    read_frame_dir,
    read_matrix,
    write_matrix,
    write_pgm,
)
from .sampling import IndexSet, RngSeed
from .solver import SolverConfig, cur_eval_cols, solve
from .synth import SyntheticSpec, gen_low_rank, gen_sparse, make_data_matrix, success_check

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2


@dataclass(frozen=True)
class ExperimentGrid:
    """A phase-transition grid: sampling constants x corruption rates."""

    c_values: tuple[float, ...]
    alpha_values: tuple[float, ...]
    trials: int
    base_seed: RngSeed
    rank: int
    n: int

    def __post_init__(self) -> None:
        if not self.c_values or not self.alpha_values:
            raise ValueError("grids must be nonempty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def harness_threads() -> int:
    try:
        return max(0, int(os.environ.get("IRCUR_THREADS", "0") or 0))
    except ValueError:
        return 0


def _run_trial(
    grid: ExperimentGrid, mode: str, cell: int, c: float, alpha: float, trial: int,
    gamma: float, eps: float, max_iter: int,
) -> bool:
    # Streams derive from (base seed, cell, trial), so execution order and
    # concurrency cannot alter any result.
    gen = grid.base_seed.derive(cell, trial, 0).generator()
    L = gen_low_rank(grid.n, grid.rank, gen)
    D = L + gen_sparse(L, alpha, gen)
    cfg = SolverConfig(
        rank=grid.rank,
        eps=eps,
        zeta0=2.0 * inf_norm(L),
        gamma=gamma,
        c_rows=c,
        c_cols=c,
        mode=mode,
        max_iter=max_iter,
        seed=grid.base_seed.derive(cell, trial, 1),
    )
    cur, _, _ = solve(D, cfg)
    return success_check(cur, L)


def run_phase_transition(
    grid: ExperimentGrid,
    mode: str = "fixed",
    gamma: float = 0.65,
    eps: float = 1e-5,
    max_iter: int = 60,
    threads: int | None = None,
) -> list[tuple[float, float, int, int]]:
    """Success counts per (c, alpha) cell, in grid order."""
    cells = [
        (c, alpha) for c in grid.c_values for alpha in grid.alpha_values
    ]
    tasks = [
        (ci, c, alpha, t)
        for ci, (c, alpha) in enumerate(cells)
        for t in range(grid.trials)
    ]
    workers = harness_threads() if threads is None else threads
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(
                pool.map(
                    lambda args: _run_trial(grid, mode, *args, gamma, eps, max_iter),
                    tasks,
                )
            )
    else:
        outcomes = [_run_trial(grid, mode, *args, gamma, eps, max_iter) for args in tasks]
    wins = [0] * len(cells)
    for (ci, _, _, _), ok in zip(tasks, outcomes):
        wins[ci] += ok
    return [
        (c, alpha, wins[ci], grid.trials) for ci, (c, alpha) in enumerate(cells)
    ]


def run_bench(
    sizes: list[int],
    rank: int,
    alpha: float,
    c: float,
    mode: str,
    base_seed: RngSeed,
    gamma: float = 0.65,
    eps: float = 1e-5,
    max_iter: int = 200,
) -> list[tuple[int, int, float, float, float]]:
    """One solve per size; seconds_per_iteration is the minimum over the
    run excluding the first (warm-up) iteration, which estimates the
    deterministic per-iteration cost with scheduler noise removed."""
    rows = []
    for idx, n in enumerate(sizes):
        spec = SyntheticSpec(n, rank, alpha, base_seed.derive(idx, 0))
        D, l_inf = make_data_matrix(spec)
        cfg = SolverConfig(
            rank=rank,
            eps=eps,
            zeta0=2.0 * l_inf,
            gamma=gamma,
            c_rows=c,
            c_cols=c,
            mode=mode,
            max_iter=max_iter,
            seed=base_seed.derive(idx, 1),
        )
        t0 = time.perf_counter()
        _, _, trace = solve(D, cfg)
        total = time.perf_counter() - t0
        per_iter = min(trace.seconds[1:] or trace.seconds)
        rows.append((n, trace.iterations, total, per_iter, trace.errors[-1]))
    return rows


def run_video(
    frame_dir,
    out_dir,
    rank: int = 2,
    c: float = 4.0,
    c_cols: float | None = None,
    gamma: float = 0.65,
    eps: float = 1e-5,
    mode: str = "resampled",
    max_iter: int = 200,
    seed: RngSeed = RngSeed(0),
    chunk: int = 64,
    log=print,
):
    """Separate a frame directory into background and foreground frames.

    The background is the low-rank estimate clamped to [0, 255]; the
    foreground is |D - background| rescaled to [0, 255] per frame.  Only
    per-chunk column slices of the estimates are ever materialized.

    Index resampling is the default here: frames sit in memory, so the
    extra data access is free and it prevents an unlucky fixed draw from
    folding foreground pixels into the background estimate.
    """
    seq = read_frame_dir(frame_dir)
    log(
        f"video: {seq.frame_count} frames of {seq.width}x{seq.height}, "
        f"rank={rank}, c={c}, mode={mode}"
    )
    D = frames_to_matrix(seq)
    cfg = SolverConfig(
        rank=rank, eps=eps, gamma=gamma, c_rows=c,
        c_cols=c if c_cols is None else c_cols,
        mode=mode, max_iter=max_iter, seed=seed,
    )
    cur, _, trace = solve(D, cfg)
    log(
        f"video: {'converged' if trace.converged else 'stopped'} after "
        f"{trace.iterations} iterations, e={trace.errors[-1]:.3e}"
    )
    bg_dir = Path(out_dir) / "background"
    fg_dir = Path(out_dir) / "foreground"
    bg_dir.mkdir(parents=True, exist_ok=True)
    fg_dir.mkdir(parents=True, exist_ok=True)
    n_frames = seq.frame_count
    for start in range(0, n_frames, chunk):
        stop = min(start + chunk, n_frames)
        cols = IndexSet(np.arange(start, stop, dtype=np.int64), n_frames)
        low = cur_eval_cols(cur, cols)
        resid = np.abs(D[:, start:stop] - low)
        peaks = resid.max(axis=0)
        peaks[peaks == 0.0] = 1.0
        fg = resid * (255.0 / peaks)
        bg_frames = matrix_to_frames(low, seq.width, seq.height)
        fg_frames = matrix_to_frames(fg, seq.width, seq.height)
        for t in range(start, stop):
            write_pgm(bg_frames.pixels[t - start], bg_dir / f"frame_{t:05d}.pgm")
            write_pgm(fg_frames.pixels[t - start], fg_dir / f"frame_{t:05d}.pgm")
    return trace


def _write_csv(path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _parse_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _add_solver_flags(p: argparse.ArgumentParser, rank_default=5) -> None:
    p.add_argument("--rank", type=int, default=rank_default, help="target rank r")
    p.add_argument("--eps", type=float, default=1e-5, help="stopping precision")
    p.add_argument("--zeta0", type=float, default=None,
                   help="initial threshold (default: max |D|)")
    p.add_argument("--gamma", type=float, default=0.65,
                   help="threshold decay in (0,1); [0.6,0.9] recommended")
    p.add_argument("--c-rows", type=float, default=4.0, help="row sampling constant")
    p.add_argument("--c-cols", type=float, default=4.0, help="column sampling constant")
    p.add_argument("--mode", choices=("fixed", "resampled"), default="fixed",
                   help="index policy: keep one draw or redraw per iteration")
    p.add_argument("--max-iter", type=int, default=200, help="iteration cap")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")


def _write_factors(args, **factors) -> Path:
    """Write each named matrix as ``<name>.<format>`` into ``args.out_dir``."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, M in factors.items():
        write_matrix(M, out / f"{name}.{args.format}", args.format)
    return out


def cmd_solve(args) -> int:
    D = read_matrix(args.input)
    cfg = SolverConfig(
        rank=args.rank,
        eps=args.eps,
        zeta0=args.zeta0,
        gamma=args.gamma,
        c_rows=args.c_rows,
        c_cols=args.c_cols,
        mode=args.mode,
        max_iter=args.max_iter,
        seed=RngSeed(args.seed),
    )
    cur, _, trace = solve(D, cfg)
    factors = {"C": cur.C, "core": cur.core_pinv.dense(), "R": cur.R}
    if args.svd:
        fac = cur_to_svd(cur.C, cur.core_pinv, cur.R)
        factors.update(W=fac.W, sigma=fac.sigma.reshape(-1, 1), V=fac.V)
    out = _write_factors(args, **factors)
    _write_csv(
        out / "trace.csv",
        "k,zeta,e,millis",
        [
            (k + 1, trace.thresholds[k], trace.errors[k], trace.seconds[k] * 1000.0)
            for k in range(trace.iterations)
        ],
    )
    print(
        f"solve: {'converged' if trace.converged else 'max_iter reached'} "
        f"after {trace.iterations} iterations, e={trace.errors[-1]:.3e}"
    )
    return EXIT_OK if trace.converged else EXIT_NOT_CONVERGED


def cmd_phase_transition(args) -> int:
    grid = ExperimentGrid(
        c_values=_parse_floats(args.c_grid),
        alpha_values=_parse_floats(args.alpha_grid),
        trials=args.trials,
        base_seed=RngSeed(args.seed),
        rank=args.rank,
        n=args.n,
    )
    rows = run_phase_transition(
        grid, mode=args.mode, gamma=args.gamma, eps=args.eps, max_iter=args.max_iter
    )
    _write_csv(args.out, "c,alpha,successes,trials", rows)
    return EXIT_OK


def cmd_bench(args) -> int:
    rows = run_bench(
        sizes=_parse_ints(args.sizes),
        rank=args.rank,
        alpha=args.alpha,
        c=args.c_rows,
        mode=args.mode,
        base_seed=RngSeed(args.seed),
        gamma=args.gamma,
        eps=args.eps,
        max_iter=args.max_iter,
    )
    _write_csv(args.out, "n,iterations,total_seconds,seconds_per_iteration,final_e", rows)
    return EXIT_OK


def cmd_video(args) -> int:
    run_video(
        args.frames,
        args.out_dir,
        rank=args.rank,
        c=args.c_rows,
        c_cols=args.c_cols,
        gamma=args.gamma,
        eps=args.eps,
        mode=args.mode,
        max_iter=args.max_iter,
        seed=RngSeed(args.seed),
    )
    return EXIT_OK


def cmd_cur2svd(args) -> int:
    C = read_matrix(args.c_file)
    core = read_matrix(args.core_file)
    R = read_matrix(args.r_file)
    fac = cur_to_svd(C, pinv_factor(core), R)
    _write_factors(args, W=fac.W, sigma=fac.sigma.reshape(-1, 1), V=fac.V)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ircur",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decompose a matrix file into CUR factors")
    p.add_argument("input", help="matrix file (.bin or .csv)")
    _add_solver_flags(p)
    p.add_argument("--out-dir", default=".", help="directory for output factors")
    p.add_argument("--format", choices=("bin", "csv"), default="bin",
                   help="output matrix format")
    p.add_argument("--svd", action="store_true",
                   help="also write converted SVD factors W/sigma/V")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "phase-transition",
        help="success-count grid over (c, alpha); CSV: c,alpha,successes,trials",
    )
    _add_solver_flags(p)
    p.add_argument("--n", type=int, default=300,
                   help="problem size (300 keeps a 50-trial grid desk-sized; "
                        "use 1000 for the full-scale grid)")
    p.add_argument("--c-grid", default="1,2,3,4", help="comma-separated c values")
    p.add_argument("--alpha-grid", default="0.1,0.2,0.3",
                   help="comma-separated corruption rates")
    p.add_argument("--trials", type=int, default=50, help="random tests per cell")
    p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    p.set_defaults(func=cmd_phase_transition)

    p = sub.add_parser(
        "bench",
        help="runtime scaling; CSV: n,iterations,total_seconds,"
             "seconds_per_iteration,final_e",
    )
    _add_solver_flags(p)
    p.add_argument("--sizes", default="1000,2000,4000,8000",
                   help="comma-separated problem sizes")
    p.add_argument("--alpha", type=float, default=0.1, help="corruption rate")
    p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("video", help="background/foreground separation of PGM frames")
    p.add_argument("frames", help="directory of .pgm frames")
    _add_solver_flags(p, rank_default=2)
    p.add_argument("--out-dir", default="out",
                   help="output directory (background/ and foreground/ inside)")
    p.set_defaults(func=cmd_video, mode="resampled")

    p = sub.add_parser("cur2svd", help="convert stored CUR factors to a compact SVD")
    p.add_argument("--c-file", required=True)
    p.add_argument("--core-file", required=True)
    p.add_argument("--r-file", required=True)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--format", choices=("bin", "csv"), default="bin")
    p.set_defaults(func=cmd_cur2svd)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; unreadable or malformed files exit with EXIT_ERROR."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
