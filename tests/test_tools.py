"""Smoke test of tools/interleave_frames.py, which the fit and frame
timings of perf changes rely on: run on the package against itself, it
must exit 0 and find the two trees' models identical."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_interleave_frames_runs_a_tree_against_itself():
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "interleave_frames.py"), src,
         src, "gray8-exact", "--reps", "1"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "fitted and final models identical" in done.stdout
    assert "fit stages: kmeanspp_s" in done.stdout
