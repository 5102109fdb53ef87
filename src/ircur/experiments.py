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

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .matcore import inf_norm
from .mio import frames_to_matrix, matrix_to_frames, read_frame_dir, write_pgm
from .sampling import IndexSet
from .solver import SolverConfig, cur_eval, solve
from .synth import SyntheticSpec, make_data_matrix, make_problem, success_check

# Frames whose background/foreground estimates are materialized at once.
VIDEO_CHUNK = 64


@dataclass(frozen=True)
class ExperimentGrid:
    """A phase-transition grid: sampling constants x corruption rates."""

    c_values: tuple[float, ...]
    alpha_values: tuple[float, ...]
    trials: int
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


def phase_trials(
    grid: ExperimentGrid, cfg: SolverConfig
) -> list[tuple[int, SyntheticSpec, SolverConfig]]:
    """Every trial of the grid as (cell index, instance spec, solver config),
    cells in (c, alpha) grid order; each config sets ``c_rows = c_cols = c``.

    Streams derive from (base seed, cell, trial), so execution order and
    concurrency cannot alter any result.
    """
    cells = [(c, alpha) for c in grid.c_values for alpha in grid.alpha_values]
    return [
        (ci, SyntheticSpec(grid.n, cfg.rank, alpha, cfg.seed.derive(ci, t, 0)),
         replace(cfg, c_rows=c, c_cols=c, seed=cfg.seed.derive(ci, t, 1)))
        for ci, (c, alpha) in enumerate(cells)
        for t in range(grid.trials)
    ]


def _run_trial(trial: tuple[int, SyntheticSpec, SolverConfig]) -> bool:
    _, spec, cfg = trial
    inst = make_problem(spec)
    cur, _, _ = solve(inst.D, replace(cfg, zeta0=2.0 * inf_norm(inst.L)))
    return success_check(cur, inst.L)


def run_phase_transition(
    trials: list[tuple[int, SyntheticSpec, SolverConfig]], threads: int | None = None
) -> list[tuple[float, float, int, int]]:
    """Success counts per cell of the ``trials`` that :func:`phase_trials`
    builds, as (c, alpha, successes, trials) rows in grid order; each trial
    solves with ``zeta0 = 2 * max|L|`` of its instance."""
    workers = harness_threads() if threads is None else threads
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_trial, trials))
    else:
        outcomes = list(map(_run_trial, trials))
    rows: dict[int, tuple[float, float, int, int]] = {}
    for (ci, spec, cfg), ok in zip(trials, outcomes):
        c, alpha, wins, count = rows.get(ci, (cfg.c_rows, spec.alpha, 0, 0))
        rows[ci] = (c, alpha, wins + ok, count + 1)
    return list(rows.values())


def bench_specs(sizes: list[int], alpha: float, cfg: SolverConfig) -> list[SyntheticSpec]:
    """The instances :func:`run_bench` solves, one per size, on seed streams of ``cfg``."""
    return [SyntheticSpec(n, cfg.rank, alpha, cfg.seed.derive(idx, 0))
            for idx, n in enumerate(sizes)]


def run_bench(
    specs: list[SyntheticSpec], cfg: SolverConfig
) -> list[tuple[int, int, float, float, float]]:
    """One solve per spec; seconds_per_iteration is the minimum over the
    run excluding the first (warm-up) iteration, which estimates the
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


def run_video(frame_dir, out_dir, cfg: SolverConfig, log=print):
    """Separate a frame directory into background and foreground frames.

    The background is the low-rank estimate clamped to [0, 255]; the
    foreground is |D - background| rescaled to [0, 255] per frame.  Only
    per-chunk column slices of the estimates are ever materialized.
    """
    seq = read_frame_dir(frame_dir)
    log(
        f"video: {seq.frame_count} frames of {seq.width}x{seq.height}, "
        f"rank={cfg.rank}, c={cfg.c_rows}/{cfg.c_cols}, mode={cfg.mode}"
    )
    D = frames_to_matrix(seq)
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
    for start in range(0, n_frames, VIDEO_CHUNK):
        stop = min(start + VIDEO_CHUNK, n_frames)
        cols = IndexSet(np.arange(start, stop, dtype=np.int64), n_frames)
        low = cur_eval(cur, cols=cols)
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
