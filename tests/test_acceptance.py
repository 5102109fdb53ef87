"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line with its
measured runtime so the whole gate can be read off `pytest -s` output.
"""

import time

import numpy as np

from ircur.convert import cur_to_svd
from ircur.experiments import (
    ExperimentGrid,
    bench_specs,
    run_bench,
    phase_trials,
    run_phase_transition,
    run_video,
)
from ircur.matcore import frob_norm, inf_norm
from ircur.mio import (
    FrameSequence,
    frames_to_matrix,
    read_frame_dir,
    read_matrix,
    write_frame_dir,
    write_matrix,
)
from ircur.sampling import RngSeed, sample_indices
from ircur.solver import SolverConfig, cur_eval, sample_slabs, solve, step
from ircur.synth import SyntheticSpec, gen_low_rank, make_data_matrix, make_problem, make_video


def report(num: int, ok: bool, t0: float, detail: str) -> None:
    line = (
        f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} "
        f"({time.perf_counter() - t0:.1f}s) {detail}"
    )
    print(line)
    assert ok, line


def exact_cur(L, r, m, seed):
    n1, n2 = L.shape
    rows = sample_indices(n1, min(n1, m), RngSeed(seed, 0))
    cols = sample_indices(n2, min(n2, m), RngSeed(seed, 1))
    # At zeta = max |L| the sparse update stays 0: the CUR factors of L.
    cur, _, _ = step(sample_slabs(L, rows, cols), inf_norm(L), r)
    return cur


def test_criterion_1_cur_identity():
    # 100 seeded rank-r matrices at n=30: sampled factors reproduce L.
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(100):
        r = case % 5 + 1
        L = gen_low_rank(30, r, RngSeed(1000 + case))
        cur = exact_cur(L, r, m=3 * r + 10, seed=case)
        assert cur.core_pinv.effective_rank == r
        rel = frob_norm(cur_eval(cur) - L) / frob_norm(L)
        worst = max(worst, rel)
    report(1, worst <= 1e-9, t0, f"worst relative error {worst:.2e} over 100 cases")


def test_criterion_2_clean_recovery():
    # alpha = 0 instances converge to e <= 1e-5 within 60 iterations with
    # recovery error <= 1e-5, 50/50 trials at each size.
    t0 = time.perf_counter()
    failures = []
    worst_err, worst_iters = 0.0, 0
    for n in (100, 300):
        for trial in range(50):
            inst = make_problem(SyntheticSpec(n, 5, 0.0, RngSeed(2000 + trial, n)))
            cfg = SolverConfig(
                rank=5, eps=1e-5, gamma=0.65, c_rows=4, c_cols=4,
                seed=RngSeed(2500 + trial, n),
            )
            cur, _, trace = solve(inst.D, cfg)
            err = frob_norm(cur_eval(cur) - inst.L) / frob_norm(inst.L)
            worst_err = max(worst_err, err)
            worst_iters = max(worst_iters, trace.iterations)
            if not (trace.converged and trace.iterations <= 60 and err <= 1e-5):
                failures.append((n, trial, trace.iterations, err))
    report(
        2,
        not failures,
        t0,
        f"100/100 clean trials, worst error {worst_err:.2e}, "
        f"worst iterations {worst_iters}" if not failures else f"failures: {failures[:5]}",
    )


def test_criterion_3_phase_transition():
    # Desk-scale success grid at n=300, r=5, gamma=0.65, zeta0=2*max|L|.
    t0 = time.perf_counter()
    grid = ExperimentGrid(
        c_values=(1.0, 2.0, 3.0, 4.0),
        alpha_values=(0.1, 0.3),
        trials=50,
        n=300,
    )
    wins = {}
    for mode in ("fixed", "resampled"):
        cfg = SolverConfig(
            rank=5, eps=1e-5, gamma=0.65, mode=mode, max_iter=60, seed=RngSeed(42)
        )
        for c, alpha, successes, trials in run_phase_transition(phase_trials(grid, cfg)):
            wins[(mode, c, alpha)] = successes

    problems = []
    # (a) at (c=4, alpha=0.1) at least 45/50 in both modes
    for mode in ("fixed", "resampled"):
        if wins[(mode, 4.0, 0.1)] < 45:
            problems.append(f"(a) {mode} {wins[(mode, 4.0, 0.1)]}/50 at c=4 alpha=0.1")
    # (b) success at (1, 0.3) strictly below (4, 0.3)
    for mode in ("fixed", "resampled"):
        if not wins[(mode, 1.0, 0.3)] < wins[(mode, 4.0, 0.3)]:
            problems.append(
                f"(b) {mode} not increasing: {wins[(mode, 1.0, 0.3)]} !< {wins[(mode, 4.0, 0.3)]}"
            )
    # (c) nondecreasing in c at fixed alpha, up to 2 trials of noise
    for mode in ("fixed", "resampled"):
        for alpha in (0.1, 0.3):
            seq = [wins[(mode, c, alpha)] for c in (1.0, 2.0, 3.0, 4.0)]
            if any(seq[i + 1] < seq[i] - 2 for i in range(3)):
                problems.append(f"(c) {mode} alpha={alpha} not monotone: {seq}")
    # (d) resampled at least fixed - 3 in every cell
    for c in (1.0, 2.0, 3.0, 4.0):
        for alpha in (0.1, 0.3):
            if wins[("resampled", c, alpha)] < wins[("fixed", c, alpha)] - 3:
                problems.append(
                    f"(d) resampled worse at c={c} alpha={alpha}: "
                    f"{wins[('resampled', c, alpha)]} vs {wins[('fixed', c, alpha)]}"
                )
    table = {f"{m[0]}{c:g}a{a:g}": w for (m, c, a), w in wins.items()}
    report(3, not problems, t0, f"cells {table}" if not problems else "; ".join(problems))


def test_criterion_4_linear_convergence():
    # n=1000 corrupted instance: log-linear error decay, converged <= 60.
    t0 = time.perf_counter()
    inst = make_problem(SyntheticSpec(1000, 5, 0.1, RngSeed(77)))
    cfg = SolverConfig(
        rank=5, eps=1e-5, zeta0=2.0 * inf_norm(inst.L), gamma=0.65,
        c_rows=4, c_cols=4, seed=RngSeed(78),
    )
    _, _, trace = solve(inst.D, cfg)
    e = np.array(trace.errors)
    slope = np.polyfit(np.arange(1, e.size + 1), np.log(e), 1)[0]
    ratios = e[1:] / e[:-1]
    med = float(np.median(ratios))
    ok = trace.converged and trace.iterations <= 60 and slope < 0 and med <= 0.9
    report(
        4, ok, t0,
        f"converged in {trace.iterations} iters, slope {slope:.3f}, median ratio {med:.3f}",
    )


def test_criterion_5_scaling_exponent():
    # Per-iteration time grows like n log^2(n), far from quadratic.
    t0 = time.perf_counter()
    cfg = SolverConfig(rank=5, c_rows=4.0, c_cols=4.0, mode="fixed", seed=RngSeed(99))
    rows = run_bench(bench_specs([1000, 2000, 4000, 8000], 0.1, cfg), cfg)
    ns = np.log([r[0] for r in rows])
    ts = np.log([r[3] for r in rows])
    slope = float(np.polyfit(ns, ts, 1)[0])
    per_ms = [round(r[3] * 1000, 2) for r in rows]
    ok = slope <= 1.3 and all(r[4] <= 1e-5 for r in rows)
    report(5, ok, t0, f"log-log slope {slope:.3f} (per-iter ms {per_ms})")


def test_criterion_6_no_materialization():
    # Transient allocation per iteration stays within 8 (|I|+|J|) n at
    # n=4000 in both index modes; nothing n^2-sized is ever created.
    t0 = time.perf_counter()
    n = 4000
    D, l_inf = make_data_matrix(SyntheticSpec(n, 5, 0.1, RngSeed(5).derive(0, 0)))
    worst_ratio = 0.0
    for mode in ("fixed", "resampled"):
        cfg = SolverConfig(
            rank=5, zeta0=2.0 * l_inf, mode=mode, max_iter=4,
            seed=RngSeed(5).derive(0, 1),
        )
        _, _, trace = solve(D, cfg)
        for alloc, isize, jsize in zip(
            trace.allocated, trace.sampled_rows, trace.sampled_cols
        ):
            budget = 8 * (isize + jsize) * n
            worst_ratio = max(worst_ratio, alloc / budget)
            assert alloc < n * n  # no quadratic transient, ever
    report(
        6, worst_ratio <= 1.0, t0,
        f"worst per-iteration allocation at {worst_ratio:.2f} of the 8(|I|+|J|)n budget",
    )


def test_criterion_7_cur_to_svd():
    # Conversion reproduces the product, keeps factors orthonormal, and
    # matches a dense SVD oracle of the materialized product.
    t0 = time.perf_counter()
    worst_recon, worst_orth, worst_sig = 0.0, 0.0, 0.0
    for case in range(50):
        n = 60 + (case * 7) % 141  # sizes spread over [60, 200]
        r = case % 6 + 1
        L = gen_low_rank(n, r, RngSeed(7000 + case))
        cur = exact_cur(L, r, m=4 * r + 10, seed=case + 31)
        fac = cur_to_svd(cur.C, cur.core_pinv, cur.R)
        product = cur_eval(cur)
        scale = frob_norm(product)
        recon = frob_norm((fac.W * fac.sigma) @ fac.V.T - product) / scale
        k = fac.sigma.size
        orth = max(
            frob_norm(fac.W.T @ fac.W - np.eye(k)),
            frob_norm(fac.V.T @ fac.V - np.eye(k)),
        )
        oracle = np.linalg.svd(product, compute_uv=False)[:k]
        sig = float(np.max(np.abs(fac.sigma - oracle) / oracle))
        worst_recon = max(worst_recon, recon)
        worst_orth = max(worst_orth, orth)
        worst_sig = max(worst_sig, sig)
    ok = worst_recon <= 1e-10 and worst_orth <= 1e-10 and worst_sig <= 1e-9
    report(
        7, ok, t0,
        f"worst reconstruction {worst_recon:.2e}, orthonormality {worst_orth:.2e}, "
        f"sigma vs oracle {worst_sig:.2e}",
    )


def test_criterion_8_threshold_schedule_and_support():
    # Recorded thresholds follow gamma^(k-1) zeta0 exactly; while the decay
    # dominates the dense estimation error, the sparse support never leaves
    # the true outlier support.
    t0 = time.perf_counter()
    qualifying, contained = 0, 0
    exact_schedules = True
    for s in range(10):
        inst = make_problem(SyntheticSpec(100, 5, 0.05, RngSeed(800 + s)))
        zeta0 = 2.0 * inf_norm(inst.L)
        cfg = SolverConfig(
            rank=5, eps=1e-5, zeta0=zeta0, gamma=0.8, seed=RngSeed(900 + s)
        )
        history = []
        _, _, trace = solve(
            inst.D, cfg, observer=lambda k, z, cur, sp, e: history.append((z, cur, sp))
        )
        exact_schedules &= all(
            trace.thresholds[i] == cfg.gamma**i * zeta0
            for i in range(trace.iterations)
        )
        prev_dense = np.zeros_like(inst.L)
        holds, supp_ok = True, True
        for zeta, cur, sp in history:
            if zeta < np.abs(inst.L - prev_dense).max():
                holds = False
                break
            on_rows = inst.S[sp.rows.indices, :] != 0
            on_cols = inst.S[:, sp.cols.indices] != 0
            supp_ok &= bool(
                np.all((sp.row_values != 0) <= on_rows)
                and np.all((sp.col_values != 0) <= on_cols)
            )
            prev_dense = cur_eval(cur)
        if holds:
            qualifying += 1
            contained += supp_ok
    ok = exact_schedules and qualifying >= 5 and contained == qualifying
    report(
        8, ok, t0,
        f"schedules exact={exact_schedules}, support contained on "
        f"{contained}/{qualifying} qualifying of 10 instances",
    )


def test_criterion_9_video_pipeline(tmp_path):
    # Bundled synthetic sequence: background recovered to <= 2 gray levels
    # mean error, blob localized to the foreground, I/O bit-exact.
    t0 = time.perf_counter()
    frames, background, boxes = make_video(160, 120, 200, RngSeed(7))
    frame_dir = tmp_path / "frames"
    write_frame_dir(FrameSequence(frames), frame_dir)
    seq = read_frame_dir(frame_dir)
    assert np.array_equal(seq.pixels, frames)  # PGM round trip bit-exact
    D = frames_to_matrix(seq)
    write_matrix(D, tmp_path / "D.bin")
    assert np.array_equal(read_matrix(tmp_path / "D.bin"), D)  # BIN bit-exact

    out = tmp_path / "separated"
    cfg = SolverConfig(rank=2, c_rows=4.0, c_cols=4.0, mode="resampled", seed=RngSeed(3))
    trace = run_video(frame_dir, out, cfg, log=lambda *a: None)
    bg = read_frame_dir(out / "background")
    fg = read_frame_dir(out / "foreground")
    mae = float(np.abs(bg.pixels.astype(float) - background.astype(float)).mean())

    pad = 3
    misplaced = 0
    leaked = 0
    for t, (y0, y1, x0, x1) in enumerate(boxes):
        f = fg.pixels[t].astype(float)
        yy, xx = np.unravel_index(np.argmax(f), f.shape)
        if not (y0 - pad <= yy < y1 + pad and x0 - pad <= xx < x1 + pad):
            misplaced += 1
        outside = f.copy()
        outside[max(0, y0 - pad) : y1 + pad, max(0, x0 - pad) : x1 + pad] = 0.0
        leaked += int((outside > 128).sum())
        inside_bg = np.abs(
            bg.pixels[t, y0:y1, x0:x1].astype(float) - background[y0:y1, x0:x1]
        ).max()
        assert inside_bg <= 64.0  # no blob ghost in the background frames
    ok = (
        trace.converged
        and mae <= 2.0
        and misplaced == 0
        and leaked == 0
    )
    report(
        9, ok, t0,
        f"background MAE {mae:.3f}, blob localized in 200/200 frames, "
        f"{leaked} bright foreground pixels outside the blob",
    )
