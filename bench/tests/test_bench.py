"""Smoke tests of the benchmark itself (tiny sizes, a fraction of a second each).

    python -m pytest bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import shims  # noqa: E402
from run import Sizes  # noqa: E402

SMOKE = {
    "large-fixed": Sizes(300, ladder=(100, 200), setups=2),
    "file-resampled": Sizes(300, setups=2),
    "grid-small": Sizes(40, setups=1),
}
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def smoke_sizes(monkeypatch):
    monkeypatch.setattr(run, "SIZES", SMOKE)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_emitted_or_not_applicable(workload, traced):
    res = run.run_workload(workload, seed=5, seconds=0.2, traced=traced)
    catalogue = dict(run.END_TO_END, **(run.PER_LAYER if traced else {}))
    for name in catalogue:
        value = res.metrics.get(name)
        if run.applicable(workload, name):
            assert value is not None and math.isfinite(value), name
        else:
            assert value is None, name
    assert res.missing == {}
    assert res.tally.attempted >= 1 and res.tally.failed == 0


def test_declared_metrics_apply_to_every_workload_with_catalogue_units():
    for key, catalogue in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        for metric in DECLARED[key]:
            assert catalogue[metric["name"]] == metric["unit"]
            assert all(run.applicable(w, metric["name"]) for w in run.WORKLOADS)
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_holds_every_declared_metric(capsys, trace):
    code = run.main(["--workload", "grid-small", "--seed", "3", "--seconds", "0.2",
                     "--trace", trace])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def _corrupting_solve(monkeypatch):
    from ircur import solver

    real = solver.solve

    def corrupted(D, cfg, observer=None):
        cur, sparse, trace = real(D, cfg, observer)
        cur.C[:, 0] += 1.0
        return cur, sparse, trace

    monkeypatch.setattr(solver, "solve", corrupted)


def test_corrupted_factor_is_a_failed_operation(monkeypatch):
    _corrupting_solve(monkeypatch)
    res = run.run_workload("large-fixed", seed=5, seconds=0.1, traced=False)
    assert res.tally.attempted >= 1
    assert res.tally.failed == res.tally.attempted
    assert res.metrics["recovery_rate"] == 0.0


def test_corrupted_output_file_is_a_failed_operation(monkeypatch):
    real = run.read_bin

    def corrupted(path):
        M = real(path).copy()
        if Path(path).name == "sigma.bin":
            M[0, 0] *= 1.01
        return M

    monkeypatch.setattr(run, "read_bin", corrupted)
    res = run.run_workload("file-resampled", seed=5, seconds=0.1, traced=False)
    assert res.tally.failed == res.tally.attempted >= 1


def test_non_finite_factor_is_a_failed_operation_even_on_the_grid():
    tally = run.Tally()
    D = np.full((2, 2), np.nan)
    run.guarded(tally, lambda: (bool(np.isfinite(D).all()), False, True), miss_fails=False)
    run.guarded(tally, lambda: (True, False, True), miss_fails=False)  # a plain miss
    assert (tally.attempted, tally.failed, tally.false_converged) == (2, 1, 1)


def test_shim_targets_resolve_and_wrap_imported_names():
    import ircur
    from ircur import matcore, solver

    for name, spec in shims.TARGETS.items():
        assert callable(shims.resolve(spec)), name
    assert shims.resolve(shims.METER) is matcore.ALLOCATIONS

    original = matcore.submatrix
    apply_left = matcore.PinvFactor.apply_left
    tracer = shims.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert solver.submatrix is matcore.submatrix is ircur.submatrix
        assert solver.submatrix is not original
        assert matcore.PinvFactor.apply_left is not apply_left
        D = np.arange(12.0).reshape(3, 4)
        matcore.submatrix(D, [0, 2], None)
    finally:
        tracer.uninstall()
    assert solver.submatrix is original and matcore.PinvFactor.apply_left is apply_left
    (span,) = tracer.spans
    assert span[0] == "matcore.submatrix" and span[7] == {"kind": "rows", "bytes": 64}


def test_missing_target_is_named_not_fatal(monkeypatch):
    monkeypatch.setitem(shims.TARGETS, "matcore.qr_thin", "ircur.matcore:qr_gone")
    tracer = shims.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["matcore.qr_thin (ircur.matcore:qr_gone)"]
    assert tracer.missing_metrics() == {"matcore.qr_thin.ms": ["matcore.qr_thin"]}


def test_self_time_subtracts_covered_child_time():
    spans = [
        ["solver.solve", 0.0, 10.0, -1, 0, 0, 40, {"iterations": 4, "effective_rank": 5}],
        ["matcore.frob_norm", 1.0, 3.0, 0, 0, 0, 0, None],
        ["matcore.truncated_svd", 5.0, 6.0, 0, 0, 0, 0, None],
    ]
    assert shims.self_times(spans) == [7.0, 2.0, 1.0]
    m = shims.per_run(spans)[0]
    assert m["solver.self_ms_per_iter"] == pytest.approx(7e3 / 4)
    assert m["solver.children_ms"] == pytest.approx(3e3)
    assert m["matcore.alloc_units_per_iter"] == 10


def test_bin_writer_matches_program_reader(tmp_path):
    from ircur.mio import read_matrix, write_matrix

    Dt, _, _, _ = run.low_rank_data(Sizes(7), seed=1, transpose=True)
    run.write_bin(tmp_path / "d.bin", Dt)
    assert np.array_equal(read_matrix(tmp_path / "d.bin"), Dt.T)
    write_matrix(Dt, tmp_path / "e.bin")
    assert np.array_equal(run.read_bin(tmp_path / "e.bin"), Dt)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
