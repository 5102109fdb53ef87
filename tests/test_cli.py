import struct
from dataclasses import replace

import numpy as np
import pytest

from ircur import cli, experiments
from ircur.cli import main
from ircur.experiments import bench_specs, phase_trials, run_bench, run_phase_transition
from ircur.matcore import frob_norm, inf_norm
from ircur.mio import BIN_MAGIC, read_frame_dir, read_matrix, write_frame_dir, write_matrix
from ircur.sampling import RngSeed
from ircur.solver import SolverConfig, solve
from ircur.synth import (
    SyntheticSpec,
    gen_low_rank,
    make_data_matrix,
    make_problem,
    make_video,
)

# Every solver flag, each off its default, and the config it must produce.
SOLVER_FLAGS = {
    "--rank": "3", "--eps": "1e-4", "--zeta0": "50.0", "--gamma": "0.7",
    "--c-rows": "3.0", "--c-cols": "5.0", "--mode": "resampled",
    "--max-iter": "2", "--seed": "13",
}
FLAGGED = SolverConfig(
    rank=3, eps=1e-4, zeta0=50.0, gamma=0.7, c_rows=3.0, c_cols=5.0,
    mode="resampled", max_iter=2, seed=RngSeed(13),
)


def solver_flags(*omit):
    return [arg for flag, value in SOLVER_FLAGS.items() if flag not in omit
            for arg in (flag, value)]


@pytest.fixture
def clean_matrix(tmp_path):
    L = gen_low_rank(80, 5, RngSeed(11).generator())
    p = tmp_path / "clean.bin"
    write_matrix(L, p)
    return p, L


@pytest.fixture
def solve_configs(monkeypatch):
    """Record the SolverConfig of every solve a command runs."""
    seen = []

    def recording(D, cfg, *args, **kwargs):
        seen.append(cfg)
        return solve(D, cfg, *args, **kwargs)

    monkeypatch.setattr(cli, "solve", recording)
    monkeypatch.setattr(experiments, "solve", recording)
    return seen


def test_solve_flags_reach_solve(tmp_path, clean_matrix, solve_configs):
    p, _ = clean_matrix
    main(["solve", str(p), "--out-dir", str(tmp_path / "out"), *solver_flags()])
    assert solve_configs == [FLAGGED]


def test_video_flags_reach_solve(tmp_path, solve_configs):
    frames, _, _ = make_video(16, 12, 6, RngSeed(4), blob_size=4)
    write_frame_dir(frames, tmp_path / "frames")
    argv = ["video", str(tmp_path / "frames"), "--out-dir", str(tmp_path / "out")]
    assert main(argv + solver_flags()) == 0
    assert solve_configs == [FLAGGED]


def test_bench_flags_reach_solve(tmp_path, solve_configs):
    argv = ["bench", "--sizes", "60", "--alpha", "0.1", "--out", str(tmp_path / "b.csv")]
    assert main(argv + solver_flags("--zeta0")) == 0
    _, l_inf = make_data_matrix(SyntheticSpec(60, 3, 0.1, RngSeed(13).derive(0, 0)))
    assert solve_configs == [
        replace(FLAGGED, zeta0=2.0 * l_inf, seed=RngSeed(13).derive(0, 1))
    ]


def test_phase_transition_flags_reach_solve(tmp_path, solve_configs):
    argv = [
        "phase-transition", "--n", "40", "--trials", "1", "--c-grid", "2",
        "--alpha-grid", "0.1", "--out", str(tmp_path / "p.csv"),
    ]
    assert main(argv + solver_flags("--zeta0", "--c-rows", "--c-cols")) == 0
    L = gen_low_rank(40, 3, RngSeed(13).derive(0, 0, 0).generator())
    assert solve_configs == [
        replace(
            FLAGGED, zeta0=2.0 * inf_norm(L), c_rows=2.0, c_cols=2.0,
            seed=RngSeed(13).derive(0, 0, 1),
        )
    ]


def test_commands_without_solver_flags_use_the_solver_config_defaults(
    tmp_path, clean_matrix, solve_configs
):
    # Each command hands solve SolverConfig's defaults, apart from the
    # fields it sets itself: the CLI's rank, video's mode, and the zeta0,
    # sampling constants and seeds of the generated experiments.
    p, _ = clean_matrix
    frames, _, _ = make_video(16, 12, 6, RngSeed(4), blob_size=4)
    write_frame_dir(frames, tmp_path / "frames")
    main(["solve", str(p), "--out-dir", str(tmp_path / "out")])
    main(["video", str(tmp_path / "frames"), "--out-dir", str(tmp_path / "sep")])
    main(["bench", "--sizes", "60", "--out", str(tmp_path / "b.csv")])
    main(["phase-transition", "--n", "40", "--trials", "1", "--c-grid", "2",
          "--alpha-grid", "0.1", "--out", str(tmp_path / "p.csv")])
    base = SolverConfig(rank=5)
    _, l_inf = make_data_matrix(SyntheticSpec(60, 5, 0.1, RngSeed(0).derive(0, 0)))
    L = gen_low_rank(40, 5, RngSeed(0).derive(0, 0, 0).generator())
    assert solve_configs == [
        base,
        replace(base, rank=2, mode="resampled"),
        replace(base, zeta0=2.0 * l_inf, seed=RngSeed(0).derive(0, 1)),
        replace(base, zeta0=2.0 * inf_norm(L), c_rows=2.0, c_cols=2.0,
                seed=RngSeed(0).derive(0, 0, 1)),
    ]


@pytest.mark.parametrize("argv", [
    ["bench", "--zeta0", "0.001"],
    ["phase-transition", "--zeta0", "1e-9"],
    ["phase-transition", "--c-rows", "9"],
    ["phase-transition", "--c-cols", "0.5"],
])
def test_flags_an_experiment_sets_itself_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["phase-transition", "--seed", "-1"],
    ["bench", "--rank", "0"],
    ["phase-transition", "--trials", "0"],
    ["phase-transition", "--c-grid", ""],
    ["bench", "--alpha", "1.5"],
    ["solve", "{matrix}", "--gamma", "1.5"],
    ["phase-transition", "--alpha-grid", "1.5"],
    ["phase-transition", "--n", "0"],
    ["phase-transition", "--n", "3", "--rank", "5"],
    ["phase-transition", "--c-grid", "0"],
    ["solve", "{matrix}", "--c-rows", "nan"],
    ["solve", "{matrix}", "--c-cols", "inf"],
    ["solve", "{matrix}", "--zeta0", "inf"],
    ["solve", "{matrix}", "--eps", "inf"],
    ["bench", "--sizes", ""],
])
def test_out_of_range_flag_value_is_a_usage_error(argv, clean_matrix, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the flags were checked")

    monkeypatch.setattr(cli, "solve", no_solve)
    monkeypatch.setattr(experiments, "solve", no_solve)
    with pytest.raises(SystemExit) as exc:
        main([arg.format(matrix=clean_matrix[0]) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ircur")
    assert [line for line in err.splitlines() if "error:" in line] == [
        err.splitlines()[-1]
    ]


def write_empty_bin(M, path):
    """The BIN file of M with a zero dimension, which write_matrix refuses."""
    path.write_bytes(BIN_MAGIC + struct.pack("<ii", *M.shape))


def test_solve_empty_bin_matrix_exit_one(tmp_path, capsys):
    p = tmp_path / "e.bin"
    write_empty_bin(np.zeros((0, 3)), p)
    assert main(["solve", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip().endswith("empty matrix")


def test_solve_clean_exit_zero(tmp_path, clean_matrix, capsys):
    p, L = clean_matrix
    out = tmp_path / "out"
    code = main(["solve", str(p), "--rank", "5", "--out-dir", str(out)])
    assert code == 0
    trace = (out / "trace.csv").read_text().strip().splitlines()
    assert trace[0] == "k,zeta,e,millis"
    assert float(trace[-1].split(",")[2]) <= 1e-5
    C = read_matrix(out / "C.bin")
    core = read_matrix(out / "core.bin")
    R = read_matrix(out / "R.bin")
    recon = C @ np.linalg.pinv(core) @ R
    assert frob_norm(recon - L) <= 1e-6 * frob_norm(L)


def test_solve_huge_sampling_constant_exits_cleanly(tmp_path, capsys):
    p = tmp_path / "m.bin"
    write_matrix(gen_low_rank(30, 5, RngSeed(12).generator()), p)
    code = main(["solve", str(p), "--c-rows", "1e308", "--out-dir", str(tmp_path / "out")])
    assert code in (0, 2)
    assert capsys.readouterr().err == ""


def test_solve_corrupt_file_exit_one(tmp_path):
    p = tmp_path / "garbage.bin"
    p.write_bytes(b"not a matrix at all")
    assert main(["solve", str(p)]) == 1


def test_solve_missing_file_exit_one(tmp_path, capsys):
    # A path without a suffix is opened to sniff its format; one that cannot
    # be opened (missing, or a directory) fails there with the same error.
    for name in ("absent.bin", "absent", "."):
        assert main(["solve", str(tmp_path / name)]) == 1, name
        err = capsys.readouterr().err
        assert single_error_line(err) and "[Errno" in err, name


def test_solve_core_beyond_the_float_range_exits_one(tmp_path, capsys):
    # At 2^1018 the core's singular values overflow: an error, not a
    # "converged" run with wrong factors.
    inst = make_problem(SyntheticSpec(300, 5, 0.1, RngSeed(3)))
    p = tmp_path / "huge.bin"
    write_matrix(np.ldexp(inst.D, 1018), p)
    for mode in ("fixed", "resampled"):
        out = tmp_path / mode
        assert main(["solve", str(p), "--rank", "5", "--mode", mode, "--seed", "1",
                     "--out-dir", str(out)]) == 1, mode
        err = capsys.readouterr().err
        assert single_error_line(err) and "singular values overflow" in err, mode
        assert not out.exists()


@pytest.mark.parametrize("power, flags", [(-1040, []), (1016, ["--svd"])],
                         ids=["tiny-core", "huge-conversion"])
def test_solve_spectrum_beyond_the_float_range_exits_one(tmp_path, capsys, power, flags):
    # At 2^-1040 a kept core singular value is subnormal, so its reciprocal
    # in U+ overflows; at 2^1016 the solve converges but L's own singular
    # values overflow in the conversion.  Both are errors before any write.
    inst = make_problem(SyntheticSpec(300, 5, 0.1, RngSeed(3)))
    p = tmp_path / "scaled.bin"
    write_matrix(np.ldexp(inst.D, power), p)
    for mode in ("fixed", "resampled"):
        out = tmp_path / mode
        assert main(["solve", str(p), "--rank", "5", "--mode", mode, "--seed", "1",
                     "--out-dir", str(out), *flags]) == 1, mode
        err = capsys.readouterr().err
        assert single_error_line(err) and "float range" in err, (mode, err)
        assert not out.exists()


def test_solve_max_iter_cap_exit_three(tmp_path):
    inst = make_problem(SyntheticSpec(60, 3, 0.2, RngSeed(21)))
    p = tmp_path / "hard.bin"
    write_matrix(inst.D, p)
    out = tmp_path / "out"
    code = main(["solve", str(p), "--rank", "3", "--max-iter", "1", "--out-dir", str(out)])
    assert code == 3
    rows = (out / "trace.csv").read_text().strip().splitlines()
    assert len(rows) == 2  # header + one iteration
    with pytest.raises(SystemExit) as exc:  # a bad flag value stays a usage error
        main(["solve", str(p), "--rank", "0", "--out-dir", str(out)])
    assert exc.value.code == 2


def test_solve_corrupted_fixed_trace_has_one_row_per_executed_step(tmp_path):
    inst = make_problem(SyntheticSpec(300, 5, 0.1, RngSeed(22)))
    p = tmp_path / "corrupted.bin"
    write_matrix(inst.D, p)
    out = tmp_path / "out"
    code = main(["solve", str(p), "--rank", "5", "--out-dir", str(out)])
    assert code in (0, 2)
    _, _, trace = solve(inst.D, SolverConfig(rank=5, seed=RngSeed(0)))
    rows = [r.split(",") for r in (out / "trace.csv").read_text().split()[1:]]
    assert len(rows) == len(trace.errors)
    ks = [int(r[0]) for r in rows]
    assert all(a < b for a, b in zip(ks, ks[1:]))
    assert any(b - a > 1 for a, b in zip(ks, ks[1:]))
    zeta0 = inf_norm(inst.D)
    assert [float(r[1]) for r in rows] == [0.65 ** (k - 1) * zeta0 for k in ks]


def test_solve_csv_format_outputs(tmp_path, clean_matrix):
    p, _ = clean_matrix
    out = tmp_path / "csvout"
    code = main(["solve", str(p), "--rank", "5", "--format", "csv", "--out-dir", str(out)])
    assert code == 0
    assert (out / "C.csv").exists() and (out / "core.csv").exists() and (out / "R.csv").exists()


def test_solve_svd_flag_reconstructs(tmp_path, clean_matrix):
    p, L = clean_matrix
    out = tmp_path / "svdout"
    code = main(["solve", str(p), "--rank", "5", "--svd", "--out-dir", str(out)])
    assert code == 0
    W = read_matrix(out / "W.bin")
    sigma = read_matrix(out / "sigma.bin").ravel()
    V = read_matrix(out / "V.bin")
    assert frob_norm((W * sigma) @ V.T - L) <= 1e-6 * frob_norm(L)
    assert frob_norm(W.T @ W - np.eye(W.shape[1])) <= 1e-9


def test_cur2svd_command(tmp_path, clean_matrix):
    p, L = clean_matrix
    out = tmp_path / "factors"
    main(["solve", str(p), "--rank", "5", "--out-dir", str(out)])
    conv = tmp_path / "converted"
    code = main([
        "cur2svd",
        "--c-file", str(out / "C.bin"),
        "--core-file", str(out / "core.bin"),
        "--r-file", str(out / "R.bin"),
        "--out-dir", str(conv),
    ])
    assert code == 0
    W = read_matrix(conv / "W.bin")
    sigma = read_matrix(conv / "sigma.bin").ravel()
    V = read_matrix(conv / "V.bin")
    assert frob_norm((W * sigma) @ V.T - L) <= 1e-6 * frob_norm(L)


def test_wide_matrix_svd_through_solve_and_cur2svd(tmp_path):
    # |J| exceeds the 3 rows of D, so C is wide; the conversion factors are
    # n x k at the core's kept rank and stay tall.
    g = np.random.default_rng(31)
    L = np.outer(g.standard_normal(3), g.standard_normal(200))
    p = tmp_path / "wide.bin"
    write_matrix(L, p)
    out = tmp_path / "solved"
    assert main(["solve", str(p), "--rank", "1", "--svd", "--out-dir", str(out)]) == 0
    conv = tmp_path / "converted"
    assert main([
        "cur2svd", "--c-file", str(out / "C.bin"), "--core-file", str(out / "core.bin"),
        "--r-file", str(out / "R.bin"), "--out-dir", str(conv),
    ]) == 0
    for d in (out, conv):
        W = read_matrix(d / "W.bin")
        sigma = read_matrix(d / "sigma.bin").ravel()
        V = read_matrix(d / "V.bin")
        assert frob_norm((W * sigma) @ V.T - L) <= 1e-10 * frob_norm(L)
        assert frob_norm(W.T @ W - np.eye(W.shape[1])) <= 1e-12


def single_error_line(err):
    return err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("shapes", [
    {"C": (6, 3), "core": (4, 4), "R": (3, 6)},
    {"C": (6, 3), "core": (0, 0), "R": (3, 6)},
])
def test_cur2svd_bad_factor_files_exit_one(tmp_path, shapes, capsys):
    paths = {}
    for name, shape in shapes.items():
        paths[name] = tmp_path / f"{name}.bin"
        (write_empty_bin if 0 in shape else write_matrix)(np.ones(shape), paths[name])
    code = main([
        "cur2svd", "--c-file", str(paths["C"]), "--core-file", str(paths["core"]),
        "--r-file", str(paths["R"]), "--out-dir", str(tmp_path / "o"),
    ])
    assert code == 1
    assert single_error_line(capsys.readouterr().err)


def test_phase_transition_csv_deterministic(tmp_path):
    args = [
        "phase-transition", "--n", "60", "--rank", "2", "--trials", "3",
        "--c-grid", "1,3", "--alpha-grid", "0,0.2", "--max-iter", "40",
        "--seed", "5",
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_text() == p2.read_text()
    lines = p1.read_text().strip().splitlines()
    assert lines[0] == "c,alpha,successes,trials"
    assert len(lines) == 5
    for line in lines[1:]:
        c, alpha, wins, trials = line.split(",")
        assert 0 <= int(wins) <= int(trials) == 3


def test_phase_transition_writes_csv_to_stdout(capsys):
    argv = ["phase-transition", "--n", "40", "--rank", "2", "--trials", "1",
            "--c-grid", "2", "--alpha-grid", "0", "--out", "-"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == ["c,alpha,successes,trials", "2.0,0.0,1,1"]


def test_phase_transition_clean_column_always_succeeds(tmp_path):
    cfg = SolverConfig(rank=2, mode="fixed", max_iter=40, seed=RngSeed(7))
    rows = run_phase_transition(phase_trials((1.0, 2.0), (0.0,), 4, 60, cfg))
    assert all(wins == trials for _, _, wins, trials in rows)


def test_phase_transition_rows_do_not_depend_on_trial_order():
    cfg = SolverConfig(rank=2, mode="fixed", max_iter=30, seed=RngSeed(9))
    trials = phase_trials((1.0, 2.0), (0.0, 0.2), 3, 50, cfg)
    forward = run_phase_transition(trials)
    assert len(forward) == 4
    assert sorted(run_phase_transition(trials[::-1])) == sorted(forward)


def test_bench_single_size(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main([
        "bench", "--sizes", "300", "--rank", "3", "--alpha", "0.1",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,iterations,total_seconds,seconds_per_iteration,final_e"
    assert len(lines) == 2
    assert lines[1].startswith("300,")
    assert capsys.readouterr().err == ""  # no slope from one size


def test_bench_prints_one_slope_line(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    argv = ["bench", "--sizes", "60,120", "--rank", "3", "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,iterations,total_seconds,seconds_per_iteration,final_e"
    cfg = SolverConfig(rank=3, seed=RngSeed(3))
    expected = run_bench(bench_specs([60, 120], 0.1, cfg), cfg)
    for line, (n, iterations, _, _, final_e) in zip(lines[1:], expected, strict=True):
        fields = line.split(",")
        assert (int(fields[0]), int(fields[1]), float(fields[4])) == (n, iterations, final_e)
        assert float(fields[2]) >= float(fields[3]) > 0.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("bench: per-iteration log-log slope ")
    assert np.isfinite(float(err[0].rsplit(" ", 1)[1]))


def test_video_command(tmp_path, capsys):
    frames, background, boxes = make_video(48, 36, 20, RngSeed(31), blob_size=8)
    frame_dir = tmp_path / "frames"
    write_frame_dir(frames, frame_dir)
    out = tmp_path / "video_out"
    code = main(["video", str(frame_dir), "--out-dir", str(out), "--seed", "2"])
    assert code == 0
    header = capsys.readouterr().out
    assert "rank=2" in header and "c=4.0" in header
    bg = read_frame_dir(out / "background")
    fg = read_frame_dir(out / "foreground")
    assert bg.shape[0] == 20 and fg.shape[0] == 20
    err = np.abs(bg.astype(float) - background.astype(float)).mean()
    assert err <= 2.0


@pytest.mark.parametrize("max_iter,code,ending", [
    ("1", 3, "max_iter reached after 1 iterations, e="),
    ("200", 0, "converged after "),
], ids=["max_iter", "converged"])
@pytest.mark.parametrize("command", ["solve", "video"])
def test_solve_and_video_end_with_one_report_line(
    tmp_path, capsys, command, max_iter, code, ending
):
    if command == "solve":
        source = tmp_path / "hard.bin"
        write_matrix(make_problem(SyntheticSpec(60, 3, 0.2, RngSeed(21))).D, source)
        flags = ["--rank", "3"]
    else:
        frames, _, _ = make_video(48, 36, 20, RngSeed(31), blob_size=8)
        source = tmp_path / "frames"
        write_frame_dir(frames, source)
        flags = []
    out = tmp_path / "out"
    argv = [command, str(source), *flags, "--max-iter", max_iter, "--out-dir", str(out)]
    assert main(argv) == code
    lines = capsys.readouterr().out.splitlines()
    endings = [line for line in lines if " after " in line]
    assert endings == lines[-1:] and endings[0].startswith(f"{command}: {ending}")
    if command == "video":  # the frames are written either way
        assert read_frame_dir(out / "foreground").shape[0] == 20


def test_video_rerun_into_one_out_dir_leaves_only_its_frames(tmp_path):
    frames, _, _ = make_video(32, 24, 20, RngSeed(31), blob_size=6)
    write_frame_dir(frames, tmp_path / "long")
    write_frame_dir(frames[:12], tmp_path / "short")
    out = tmp_path / "sep"
    (out / "background").mkdir(parents=True)
    (out / "background" / "notes.txt").write_text("kept")
    for name in ("long", "short"):
        assert main(["video", str(tmp_path / name), "--out-dir", str(out)]) == 0
    for part in ("background", "foreground"):
        assert len(list((out / part).glob("frame_*.pgm"))) == 12
        assert read_frame_dir(out / part).shape[0] == 12
    assert (out / "background" / "notes.txt").read_text() == "kept"


def test_video_single_frame_background_is_the_frame(tmp_path):
    rng = np.random.default_rng(5)
    frame = rng.integers(0, 256, size=(24, 32)).astype(np.uint8)
    frame_dir = tmp_path / "one"
    write_frame_dir(frame[None], frame_dir)
    out = tmp_path / "sep"
    assert main(["video", str(frame_dir), "--out-dir", str(out), "--seed", "1"]) == 0
    bg = read_frame_dir(out / "background")
    np.testing.assert_array_equal(bg[0], frame)


def test_video_inconsistent_frames_exit_one(tmp_path):
    d = tmp_path / "mixed"
    d.mkdir()
    from ircur.mio import write_pgm

    write_pgm(np.zeros((8, 8), dtype=np.uint8), d / "a.pgm")
    write_pgm(np.zeros((9, 8), dtype=np.uint8), d / "b.pgm")
    assert main(["video", str(d), "--out-dir", str(tmp_path / "o")]) == 1


def test_video_zero_size_frames_exit_one(tmp_path, capsys):
    d = tmp_path / "empty_frames"
    d.mkdir()
    for name in ("a.pgm", "b.pgm"):
        (d / name).write_bytes(b"P5\n0 0\n255\n")
    assert main(["video", str(d), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert single_error_line(err)
    assert "zero frame size 0x0 (byte offset 3)" in err


def test_experiment_grid_validation():
    cfg = SolverConfig(rank=2)
    with pytest.raises(ValueError):
        phase_trials((), (0.1,), 5, 50, cfg)
    with pytest.raises(ValueError):
        phase_trials((1.0,), (), 5, 50, cfg)
    with pytest.raises(ValueError):
        phase_trials((1.0,), (0.1,), 0, 50, cfg)


def test_fixed_mode_cheaper_per_iteration():
    # Fixed indices skip the per-iteration slab extraction and slab-norm
    # recomputation, so their best-case iteration is cheaper; compare
    # minima to keep scheduler noise out of the comparison.
    wins = 0
    for t in range(10):
        inst = make_problem(SyntheticSpec(600, 5, 0.1, RngSeed(600 + t)))
        z = 2 * inf_norm(inst.L)
        per_iter = {}
        for mode in ("fixed", "resampled"):
            cfg = SolverConfig(rank=5, zeta0=z, mode=mode, seed=RngSeed(700 + t))
            _, _, trace = solve(inst.D, cfg)
            per_iter[mode] = min(trace.seconds[1:])
        wins += per_iter["fixed"] <= per_iter["resampled"]
    assert wins >= 8
