"""Smoke run of the video demo script at a small size.

The script runs in a fresh interpreter in a temporary directory, with the
package's ``src/`` on the import path, and must exit 0 after writing its
outputs.  The other experiments are ``ircur`` subcommands, tested in
test_cli.py.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_video_demo_script_runs(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_video_demo.py"),
         "--width", "32", "--height", "24", "--frames", "12"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for name in ("background", "foreground"):
        assert (tmp_path / "video_demo" / name / "frame_00011.pgm").is_file(), name
