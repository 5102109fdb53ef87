"""Smoke runs of the experiment scripts at small sizes.

Each script runs in a fresh interpreter in a temporary directory, with
the package's ``src/`` on the import path, and must exit 0 after writing
its outputs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, outputs", [
    ("run_bench.py", ["--sizes", "200,300"], ["bench_fixed.csv", "bench_resampled.csv"]),
    (
        "run_phase_transition.py",
        ["--n", "40", "--trials", "2", "--c-grid", "1,3", "--alpha-grid", "0.1"],
        ["phase_fixed.csv", "phase_resampled.csv"],
    ),
    (
        "run_video_demo.py",
        ["--width", "32", "--height", "24", "--frames", "12"],
        ["video_demo/background/frame_00011.pgm", "video_demo/foreground/frame_00011.pgm"],
    ),
])
def test_script_runs(tmp_path, script, args, outputs):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for name in outputs:
        assert (tmp_path / name).is_file(), name
