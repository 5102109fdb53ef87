"""Command-line harness: solve, the paper's experiments, and CUR-to-SVD conversion.

Subcommands
-----------
solve             decompose a matrix file, writing C/core/R factors and a
                  trace CSV (k,zeta,e,millis) with one row per executed
                  step; k is the schedule position, so it can jump (the
                  idle-head skip of fixed mode, see ircur.solver)
phase-transition  success-count grid over sampling constant c and
                  corruption rate alpha; CSV rows c,alpha,successes,trials
bench             runtime scaling over problem sizes; CSV rows
                  n,iterations,total_seconds,seconds_per_iteration,final_e,
                  and with two or more distinct sizes one stderr line with
                  the log-log slope of seconds_per_iteration against n
video             background/foreground separation of a PGM frame directory
cur2svd           convert stored CUR factors to compact SVD factors

A subcommand accepts only the solver flags it uses.  phase-transition and
bench generate their instances, so zeta0 is 2*max|L| there and takes no
--zeta0; phase-transition also sets c_rows = c_cols = c from --c-grid and
takes no --c-rows/--c-cols.

All commands are deterministic given --seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .convert import cur_to_svd
from .experiments import (
    bench_specs, phase_trials, run_bench, run_phase_transition, run_video, scaling_slope,
)
from .matcore import pinv_factor
from .mio import read_matrix, write_matrix
from .sampling import RngSeed
from .solver import MODES, SolverConfig, SolverTrace, solve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 3


def _write_csv(path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _add_solver_flags(p: argparse.ArgumentParser, zeta0=True, sampling=True) -> None:
    """Register the solver flags, defaulting to SolverConfig's (rank 5); ``zeta0`` /
    ``sampling`` = False leaves out --zeta0 / --c-rows and --c-cols (set per trial)."""
    cfg = SolverConfig(rank=5)
    p.add_argument("--rank", type=int, default=cfg.rank, help="target rank r")
    p.add_argument("--eps", type=float, default=cfg.eps, help="stopping precision")
    if zeta0:
        p.add_argument("--zeta0", type=float, default=cfg.zeta0,
                       help="initial threshold (default: max |D|)")
    p.add_argument("--gamma", type=float, default=cfg.gamma,
                   help="threshold decay in (0,1); [0.6,0.9] recommended")
    if sampling:
        p.add_argument("--c-rows", type=float, default=cfg.c_rows, help="row sampling constant")
        p.add_argument("--c-cols", type=float, default=cfg.c_cols, help="column sampling constant")
    p.add_argument("--mode", choices=MODES, default=cfg.mode,
                   help="index policy: keep one draw or redraw per iteration")
    p.add_argument("--max-iter", type=int, default=cfg.max_iter, help="iteration cap")
    p.add_argument("--seed", type=int, default=cfg.seed.seed, help="base RNG seed")


def _from_flags(build, *args, **kwargs):
    """Build a command input before any solve runs; a ValueError is a bad flag value."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _config(args) -> SolverConfig:
    """The SolverConfig of every solver flag the subcommand registered;
    fields without a flag keep their SolverConfig defaults."""
    names = {f.name for f in fields(SolverConfig)}
    given = {k: v for k, v in vars(args).items() if k in names}
    return _from_flags(lambda: SolverConfig(**{**given, "seed": RngSeed(args.seed)}))


def _write_factors(args, **factors) -> Path:
    """Write each named matrix as ``<name>.<format>`` into ``args.out_dir``."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, M in factors.items():
        write_matrix(M, out / f"{name}.{args.format}")
    return out


def _report(command: str, trace: SolverTrace) -> int:
    """Print how a solve ended as one ``<command>: ...`` line; the exit
    code is EXIT_OK if it converged, else EXIT_NOT_CONVERGED."""
    print(
        f"{command}: {'converged' if trace.converged else 'max_iter reached'} "
        f"after {trace.iterations} iterations, e={trace.errors[-1]:.3e}"
    )
    return EXIT_OK if trace.converged else EXIT_NOT_CONVERGED


def cmd_solve(args) -> int:
    cfg = _config(args)
    D = read_matrix(args.input)
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
            (k + 1, zeta, e, seconds * 1000.0)
            for k, zeta, e, seconds in zip(
                trace.steps, trace.thresholds, trace.errors, trace.seconds
            )
        ],
    )
    return _report("solve", trace)


def cmd_phase_transition(args) -> int:
    cfg = _config(args)
    trials = _from_flags(phase_trials, args.c_grid, args.alpha_grid, args.trials, args.n, cfg)
    _write_csv(args.out, "c,alpha,successes,trials", run_phase_transition(trials))
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _config(args)
    rows = run_bench(_from_flags(bench_specs, args.sizes, args.alpha, cfg), cfg)
    _write_csv(args.out, "n,iterations,total_seconds,seconds_per_iteration,final_e", rows)
    if len(set(args.sizes)) >= 2:
        print(f"bench: per-iteration log-log slope {scaling_slope(rows):.3f}", file=sys.stderr)
    return EXIT_OK


def cmd_video(args) -> int:
    return _report("video", run_video(args.frames, args.out_dir, _config(args)))


def cmd_cur2svd(args) -> int:
    C, core, R = map(read_matrix, (args.c_file, args.core_file, args.r_file))
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
    _add_solver_flags(p, zeta0=False, sampling=False)
    p.add_argument("--n", type=int, default=300,
                   help="problem size (300 keeps a 50-trial grid desk-sized; "
                        "use 1000 for the full-scale grid)")
    p.add_argument("--c-grid", default="1,2,3,4", type=float_list,
                   help="comma-separated c values")
    p.add_argument("--alpha-grid", default="0.1,0.2,0.3", type=float_list,
                   help="comma-separated corruption rates")
    p.add_argument("--trials", type=int, default=50, help="random tests per cell")
    p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    p.set_defaults(func=cmd_phase_transition)

    p = sub.add_parser(
        "bench",
        help="runtime scaling; CSV: n,iterations,total_seconds,"
             "seconds_per_iteration,final_e",
    )
    _add_solver_flags(p, zeta0=False)
    p.add_argument("--sizes", default="1000,2000,4000,8000", type=int_list,
                   help="comma-separated problem sizes")
    p.add_argument("--alpha", type=float, default=0.1, help="corruption rate")
    p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("video", help="background/foreground separation of PGM frames")
    p.add_argument("frames", help="directory of .pgm frames")
    _add_solver_flags(p)
    p.add_argument("--out-dir", default="out",
                   help="output directory (background/ and foreground/ inside)")
    # Frames sit in memory, so redrawing indices costs no extra data access,
    # and it keeps an unlucky fixed draw from folding foreground pixels into
    # the background estimate.
    p.set_defaults(func=cmd_video, rank=2, mode="resampled")

    p = sub.add_parser("cur2svd", help="convert stored CUR factors to a compact SVD")
    p.add_argument("--c-file", required=True)
    p.add_argument("--core-file", required=True)
    p.add_argument("--r-file", required=True)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--format", choices=("bin", "csv"), default="bin")
    p.set_defaults(func=cmd_cur2svd)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; a bad flag value exits 2 as a usage error,
    unreadable, malformed or empty input files and a ValueError from the
    solve or conversion (a NaN or +-Inf the solve samples; a spectrum
    beyond the float range, checked where each matcore.SvdFactors is made
    and on cur_to_svd's middle factor) exit with EXIT_ERROR before any
    write, and a solve or video run that stops at --max-iter exits with
    EXIT_NOT_CONVERGED."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:  # from _from_flags
        parser.error(str(exc))
    except (ValueError, OSError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
