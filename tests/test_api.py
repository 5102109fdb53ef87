"""Guards on the names other code reaches into the package by.

The benchmark's timing shims find the functions they wrap by
``"module:qualified.name"``; a renamed target, or a kernel that drops off
the solve path, does not fail there, it only leaves per-layer metrics
missing, so the names and the metrics of one traced solve are checked
here.  README's "Library use" example is run as written, so the
documented API cannot drift from the code.
"""

import importlib.util
import re
from pathlib import Path

import ircur

ROOT = Path(__file__).resolve().parents[1]
SHIMS = ROOT / "bench" / "shims.py"

# Per-layer metrics every solve with zeta0 = None must report.
SOLVE_METRICS = [
    "matcore.gather_rows.ms", "matcore.gather_cols.ms",
    "matcore.truncated_svd.ms", "matcore.frob_norm.ms", "matcore.pinv_apply.ms",
    "matcore.entry_scan.ms", "matcore.alloc_units_per_iter",
    "sampling.sample_indices.ms",
]


def load_shims():
    spec = importlib.util.spec_from_file_location("ircur_bench_shims", SHIMS)
    shims = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shims)
    return shims


def test_package_exports_resolve():
    for name in ircur.__all__:
        assert getattr(ircur, name, None) is not None, name


def test_package_exports_are_the_library_surface():
    assert sorted(ircur.__all__) == sorted([
        "solve", "SolverConfig", "RngSeed", "CurFactors", "SparseEstimate",
        "SolverTrace", "cur_to_svd", "SyntheticSpec", "make_problem", "success_check",
    ])


def test_readme_library_use_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert blocks, "README has no python block under 'Library use'"
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    inst, cur, fac = namespace["inst"], namespace["cur"], namespace["fac"]
    assert ircur.success_check(cur, inst.L)
    assert fac.sigma.size == 5


def test_bench_shim_targets_resolve():
    shims = load_shims()
    specs = [*shims.TARGETS.values(), shims.METER]
    assert [s for s in specs if shims.resolve(s) is None] == []


def test_traced_solve_reports_every_kernel_metric():
    shims = load_shims()
    D = ircur.make_problem(ircur.SyntheticSpec(80, 2, 0.05, ircur.RngSeed(3))).D
    tracer = shims.Tracer()
    tracer.install()
    try:
        ircur.solve(D, ircur.SolverConfig(rank=2, max_iter=5, seed=ircur.RngSeed(4)))
    finally:
        tracer.uninstall()
    metrics = shims.per_run(tracer.spans)[0]
    assert [m for m in SOLVE_METRICS if m not in metrics] == []
