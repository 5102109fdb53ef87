"""Smoke runs of the scripts under ``scripts/`` at a small size.

The video demo runs in a fresh interpreter in a temporary directory, with
the package's ``src/`` on the import path, and must exit 0 after writing
its outputs.  The parity hash is imported and run on two tiny cases.  The
other experiments are ``ircur`` subcommands, tested in test_cli.py.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_video_demo(tmp_path, *flags):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_video_demo.py"), *flags],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )


def test_video_demo_script_runs(tmp_path):
    done = run_video_demo(tmp_path, "--width", "32", "--height", "24", "--frames", "12")
    assert done.returncode == 0, done.stderr
    for name in ("background", "foreground"):
        assert (tmp_path / "video_demo" / name / "frame_00011.pgm").is_file(), name


@pytest.mark.parametrize("flags", [("--height", "14"), ("--width", "10", "--height", "10")])
def test_video_demo_frame_too_small_for_the_blob_is_a_usage_error(tmp_path, flags):
    # The default blob is 14 pixels wide: a side of 14 divided by zero, and
    # a side of 10 clipped the blob; both now end in one usage error line.
    done = run_video_demo(tmp_path, *flags, "--frames", "3")
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    errors = [line for line in done.stderr.splitlines() if "error:" in line]
    assert errors == [done.stderr.splitlines()[-1]] and "blob_size" in errors[0]
    assert not (tmp_path / "video_demo").exists()


def test_parity_hash_is_deterministic():
    spec = importlib.util.spec_from_file_location(
        "parity_hash", ROOT / "scripts" / "parity_hash.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    cases = [(40, 0, 4.0, 0.1, "fixed"), (40, 1, 2.0, 0.2, "resampled")]
    count, digest = script.parity_hash(cases)
    assert count == 4 and len(digest) == 64  # each case on a C- and an F-order D
    assert script.parity_hash(cases) == (count, digest)
    assert script.parity_hash(cases[:1]) != (count, digest)
    assert len(list(script.parity_cases())) == 74
