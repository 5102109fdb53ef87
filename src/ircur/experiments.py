"""The paper's experiments: phase-transition grids, runtime scaling, video.

Each experiment starts from one :class:`~ircur.solver.SolverConfig` and
overrides, per trial, only what the experiment itself decides: the seed
stream derived for that trial, ``zeta0 = 2 * max|L|`` on synthetic
instances (where the true L is known), and ``c_rows = c_cols = c`` in each
grid cell.  Every other field reaches :func:`~ircur.solver.solve` as given.
The instances and configs are built (:func:`bench_specs`,
:func:`phase_trials`) before the first solve, so a bad value fails first.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .matcore import inf_norm
from .mio import frames_to_matrix, matrix_to_frames, read_frame_dir, write_frame_dir
from .sampling import IndexSet
from .solver import SolverConfig, cur_eval, solve
from .synth import SyntheticSpec, make_data_matrix, make_problem, success_check

# Frames whose background/foreground estimates are materialized at once.
VIDEO_CHUNK = 64


def phase_trials(
    c_values: tuple[float, ...], alpha_values: tuple[float, ...], trials: int, n: int,
    cfg: SolverConfig,
) -> list[tuple[int, SyntheticSpec, SolverConfig]]:
    """Every trial of the (c, alpha) grid as (cell index, instance spec,
    solver config), ``trials`` per cell on n x n instances, cells in grid
    order; each config sets ``c_rows = c_cols = c``.

    Streams derive from (base seed, cell, trial), so execution order cannot
    alter any result.
    """
    if not c_values or not alpha_values:
        raise ValueError("grids must be nonempty")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cells = [(c, alpha) for c in c_values for alpha in alpha_values]
    return [
        (ci, SyntheticSpec(n, cfg.rank, alpha, cfg.seed.derive(ci, t, 0)),
         replace(cfg, c_rows=c, c_cols=c, seed=cfg.seed.derive(ci, t, 1)))
        for ci, (c, alpha) in enumerate(cells)
        for t in range(trials)
    ]


def run_phase_transition(
    trials: list[tuple[int, SyntheticSpec, SolverConfig]],
) -> list[tuple[float, float, int, int]]:
    """Success counts per cell of the ``trials`` that :func:`phase_trials`
    builds, as (c, alpha, successes, trials) rows with cells in the order
    they first appear (grid order for :func:`phase_trials`); each trial
    solves with ``zeta0 = 2 * max|L|`` of its instance."""
    rows: dict[int, tuple[float, float, int, int]] = {}
    for ci, spec, cfg in trials:
        inst = make_problem(spec)
        cur, _, _ = solve(inst.D, replace(cfg, zeta0=2.0 * inf_norm(inst.L)))
        c, alpha, wins, count = rows.get(ci, (cfg.c_rows, spec.alpha, 0, 0))
        rows[ci] = (c, alpha, wins + success_check(cur, inst.L), count + 1)
    return list(rows.values())


def bench_specs(sizes: list[int], alpha: float, cfg: SolverConfig) -> list[SyntheticSpec]:
    """The instances :func:`run_bench` solves, one per size, on seed streams of ``cfg``."""
    if not sizes:
        raise ValueError("sizes must be nonempty")
    return [SyntheticSpec(n, cfg.rank, alpha, cfg.seed.derive(idx, 0))
            for idx, n in enumerate(sizes)]


def run_bench(
    specs: list[SyntheticSpec], cfg: SolverConfig
) -> list[tuple[int, int, float, float, float]]:
    """One solve per spec; seconds_per_iteration is the minimum over the
    executed steps excluding the first (warm-up) one, which estimates the
    deterministic per-iteration cost with scheduler noise removed.  Each
    solve sets its own ``zeta0`` and seed stream of ``cfg``."""
    rows = []
    for idx, spec in enumerate(specs):
        D, l_inf = make_data_matrix(spec)
        run_cfg = replace(cfg, zeta0=2.0 * l_inf, seed=cfg.seed.derive(idx, 1))
        t0 = time.perf_counter()
        _, _, trace = solve(D, run_cfg)
        total = time.perf_counter() - t0
        per_iter = min(trace.seconds[1:] or trace.seconds)
        rows.append((spec.n, trace.iterations, total, per_iter, trace.errors[-1]))
    return rows


def scaling_slope(rows: list[tuple[int, int, float, float, float]]) -> float:
    """Log-log slope of seconds_per_iteration against n over :func:`run_bench`
    rows (near 1 for the paper's O(r^2 n log^2 n) step; a dense step sits
    near 2).  Needs at least two distinct sizes."""
    return float(np.polyfit(np.log([r[0] for r in rows]), np.log([r[3] for r in rows]), 1)[0])


def run_video(frame_dir, out_dir, cfg: SolverConfig, log=print):
    """Separate a frame directory into background and foreground frames.

    The background is the low-rank estimate clamped to [0, 255]; the
    foreground is |D - background| rescaled to [0, 255] per frame.  Only
    per-chunk column slices of the estimates are ever materialized.  The
    ``frame_*.pgm`` files already in ``background/`` and ``foreground/``
    are removed first, so no frame of an earlier run stays; other files stay.
    One header line goes to ``log``; the solve's trace is returned, and how
    the solve ended is left to the caller to report.
    """
    frames = read_frame_dir(frame_dir)
    n_frames, height, width = frames.shape
    log(
        f"video: {n_frames} frames of {width}x{height}, "
        f"rank={cfg.rank}, c={cfg.c_rows}/{cfg.c_cols}, mode={cfg.mode}"
    )
    D = frames_to_matrix(frames)
    del frames  # D holds the pixels from here on
    cur, _, trace = solve(D, cfg)
    background, foreground = Path(out_dir) / "background", Path(out_dir) / "foreground"
    for stale in [*background.glob("frame_*.pgm"), *foreground.glob("frame_*.pgm")]:
        stale.unlink()
    for start in range(0, n_frames, VIDEO_CHUNK):
        stop = min(start + VIDEO_CHUNK, n_frames)
        cols = IndexSet(np.arange(start, stop, dtype=np.int64), n_frames)
        low = cur_eval(cur, cols=cols)
        resid = np.abs(D[:, start:stop] - low)
        peaks = resid.max(axis=0)
        peaks[peaks == 0.0] = 1.0
        fg = resid * (255.0 / peaks)
        write_frame_dir(matrix_to_frames(low, width, height), background, start)
        write_frame_dir(matrix_to_frames(fg, width, height), foreground, start)
    return trace
