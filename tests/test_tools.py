"""Smoke tests of the timing tools perf changes rely on:
tools/interleave_frames.py, run on the package against itself, must exit 0
and find the two trees' models identical; tools/run_phases.py must exit 0
and split each call of the chain into its phases and page faults."""

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


def test_run_phases_splits_each_call():
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "run_phases.py"), src,
         "gray8-exact"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = {line.split(":")[0]: line for line in done.stdout.splitlines()}
    assert lines["fit"].startswith("fit: exit 0")
    run = lines["run0"]
    assert run.startswith("run0: exit 0") and "400 frames" in run
    for phase in ("decode", "start", "process_frame", "write", "close",
                  "load", "save", "rest"):
        assert f" {phase} " in run, phase
    assert "400 sends" in run
    for line in (lines["fit"], run):
        assert line.endswith(" minor faults") and \
            int(line.split("; ")[-1].split()[0]) > 0, line
