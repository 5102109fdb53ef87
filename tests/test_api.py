"""Guards on the names other code reaches into the package by.

The benchmark's timing shims find the functions they wrap by
``"module:qualified.name"``; a renamed target does not fail there, it only
leaves per-layer metrics missing, so the names are checked here.
"""

import importlib.util
from pathlib import Path

import ircur

SHIMS = Path(__file__).resolve().parents[1] / "bench" / "shims.py"


def test_package_exports_resolve():
    for name in ircur.__all__:
        assert getattr(ircur, name, None) is not None, name


def test_bench_shim_targets_resolve():
    spec = importlib.util.spec_from_file_location("ircur_bench_shims", SHIMS)
    shims = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shims)
    specs = [*shims.TARGETS.values(), shims.METER]
    assert [s for s in specs if shims.resolve(s) is None] == []
