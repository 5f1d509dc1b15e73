"""Shows that the benchmark's checks reject wrong outputs.  One small round
runs through the real pipeline; its outputs must pass, and copies with one
fault planted each must be rejected:

    python3 -m pytest -q perfbench/selftest.py

The file is named so that the repository's own test run does not collect it.
"""

import json
import os
import shutil
import tempfile

import numpy as np
import pytest

import checks
import run
from scenes import Scene, crossing_events, frame_name, read_pgm, render, write_pgm

SCENE = Scene("selftest", 8, 6, 256, 30, (100.0, 3.0), (5, 3, 3, 3, 140.0, 3.0),
              (180.0, 6.0), crossing_events(8, 6, 30, (5, 3), (("lr", 0), ("tb", 3))), kmax=2,
              mode="approx", tail_pct=50.0, freeze=(3, 29))


@pytest.fixture(scope="module")
def clean_round():
    os.makedirs(run.WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    frames, gt = render(SCENE, 7)
    paths = run._write_inputs(SCENE, frames, gt, work)
    out = run._round(SCENE, paths, work, 0, traced=False)
    yield frames, gt, out
    shutil.rmtree(work, ignore_errors=True)


@pytest.fixture
def tampered(clean_round):
    """A copy of the round's outputs that a test may damage."""
    frames, gt, out = clean_round
    copy_dir = out["dir"] + "-copy"
    shutil.copytree(out["dir"], copy_dir)
    copy = {k: v.replace(out["dir"], copy_dir) if isinstance(v, str) else v
            for k, v in out.items()}
    yield frames, gt, copy
    shutil.rmtree(copy_dir, ignore_errors=True)


def _check(frames, gt, out):
    return checks.check_round(SCENE, frames, gt, out)


def test_clean_round_passes(clean_round):
    result = _check(*clean_round)
    assert result.failed == 0 and not result.problems
    assert result.attempted == 8 * 6 + 30 + 2


def _flip(path, y=0, x=0):
    mask = read_pgm(path)
    mask[y, x] = 255 - mask[y, x]
    write_pgm(mask, path)


def test_mask_with_one_pixel_flipped_is_rejected(tampered):
    frames, gt, out = tampered
    _flip(os.path.join(out["masks"], frame_name(SCENE.history + 5)))
    result = _check(frames, gt, out)
    assert result.failed_frames == {5}


def test_frozen_mask_with_one_pixel_flipped_is_rejected(tampered):
    frames, gt, out = tampered
    _flip(os.path.join(out["freeze_out"], frame_name(SCENE.history + 29)))
    result = _check(frames, gt, out)
    assert result.failed_frames == {SCENE.stream + 1}


def test_model_whose_weights_sum_to_1_01_is_rejected(tampered):
    frames, gt, out = tampered
    with open(out["final"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    tok = lines[1 + 7].split()
    for i in range(1, len(tok), 3):
        tok[i] = repr(float(tok[i]) * 1.01)
    lines[1 + 7] = " ".join(tok)
    with open(out["final"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    result = _check(frames, gt, out)
    assert 7 in result.failed_pixels


def test_eval_report_off_by_one_count_is_rejected(tampered):
    frames, gt, out = tampered
    with open(out["eval_json"], encoding="utf-8") as fh:
        report = json.load(fh)
    report["tn"] += 1
    with open(out["eval_json"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    assert _check(frames, gt, out).problems


def test_eval_frame_row_off_by_one_count_is_rejected(tampered):
    frames, gt, out = tampered
    with open(out["eval_csv"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[1].split(",")
    cells[-1] = str(int(cells[-1]) + 1)  # fn of the first frame
    lines[1] = ",".join(cells)
    with open(out["eval_csv"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert _check(frames, gt, out).failed_frames == {0}


def test_own_labelling_finds_8_connected_blobs():
    fg = np.zeros((5, 6), dtype=bool)
    fg[0, 0] = fg[1, 1] = fg[2, 2] = True   # one diagonal blob of 3
    fg[4, 5] = True                         # a single pixel
    fg[0, 4:6] = True                       # a pair
    assert sorted(checks.blob_areas(fg)) == [1, 2, 3]
    kept = checks.drop_small_blobs(fg, 3)
    assert kept.sum() == 3 and kept[2, 2] and not kept[4, 5]
