import csv
import json
import shutil

import numpy as np
import pytest

from thermobg.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from thermobg.engine import load_grid
from thermobg.fit import FitConfig, fit
from thermobg.frameio import read_mask, read_pgm_sequence, write_pgm

HISTORY = 12


def write_video(directory, n_frames, seed=0, shape=(2, 3)):
    rng = np.random.default_rng(seed)
    directory.mkdir()
    for t in range(n_frames):
        frame = np.rint(rng.normal(30000.0, 8.0, shape)).astype(np.uint16)
        write_pgm(frame, directory / f"frame_{t:04d}.pgm")
    return directory


def fit_argv(video, out, *extra):
    return ["fit", "--input", str(video), "--history", str(HISTORY),
            "--kmax", "2", "--out", str(out), "--workers", "1", *extra]


def run_argv(video, model, outdir, out_model, *extra):
    return ["run", "--input", str(video), "--model", str(model),
            "--outdir", str(outdir), "--out-model", str(out_model), *extra]


def fitted_video(tmp_path, n_frames):
    """A video with a bright event on its last frames and the model fitted
    to its first HISTORY frames."""
    video = write_video(tmp_path / "video", n_frames)
    for t in range(n_frames - 4, n_frames):
        frame = np.full((2, 3), 31000, dtype=np.uint16)
        write_pgm(frame, video / f"frame_{t:04d}.pgm")
    fitted = tmp_path / "fitted.vimm"
    assert main(fit_argv(video, fitted)) == EXIT_OK
    return video, fitted


class TestFit:
    def test_decodes_only_the_history(self, tmp_path):
        video = write_video(tmp_path / "video", HISTORY + 3)
        bad = video / f"frame_{HISTORY:04d}.pgm"
        bad.write_bytes(bad.read_bytes()[:-1])  # truncated payload
        out = tmp_path / "model.vimm"
        assert main(fit_argv(video, out)) == EXIT_OK
        assert out.read_text().split("\n", 1)[0] == f"VIMM1 3 2 {HISTORY} 65536"

    def test_too_few_frames_is_a_data_error(self, tmp_path):
        video = write_video(tmp_path / "video", HISTORY - 1)
        assert main(fit_argv(video, tmp_path / "m.vimm")) == EXIT_DATA

    def test_raw_input_fits_its_history(self, tmp_path):
        rng = np.random.default_rng(1)
        frames = np.rint(rng.normal(30000.0, 8.0, (HISTORY + 4, 2, 3)))
        raw = tmp_path / "video.raw"
        frames.astype(">u2").tofile(raw)
        out = tmp_path / "model.vimm"
        argv = fit_argv(raw, out, "--raw-size", "3x2", "--endian", "big")
        assert main(argv) == EXIT_OK
        assert out.read_text().split("\n", 1)[0] == f"VIMM1 3 2 {HISTORY} 65536"

    def test_workers_flag_is_ignored(self, tmp_path):
        video = write_video(tmp_path / "video", HISTORY)
        one, two = tmp_path / "one.vimm", tmp_path / "two.vimm"
        assert main(fit_argv(video, one)) == EXIT_OK
        argv = fit_argv(video, two)
        argv[argv.index("--workers") + 1] = "2"
        assert main(argv) == EXIT_OK
        assert one.read_bytes() == two.read_bytes()

    def test_unknown_flag_is_a_usage_error(self, tmp_path):
        video = write_video(tmp_path / "video", HISTORY)
        argv = fit_argv(video, tmp_path / "m.vimm", "--no-such-flag")
        assert main(argv) == EXIT_USAGE

    def test_manifest_counts_the_fit(self, tmp_path):
        # two pixels: the totals are the sums of the one-pixel fits, seeded
        # as the grid seeds each pixel
        video = write_video(tmp_path / "video", HISTORY, shape=(1, 2))
        out = tmp_path / "model.vimm"
        argv = fit_argv(video, out)
        argv[argv.index("--kmax") + 1] = "6"
        assert main(argv) == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        frames = read_pgm_sequence(str(video / "*.pgm"))[0].frames
        seeds = np.random.SeedSequence(0).spawn(2)
        results = [
            fit(frames[:, 0, i],
                FitConfig(k_max=6, history_len=HISTORY,
                          rng_seed=int(seeds[i].generate_state(1, np.uint64)[0])),
                intensity_levels=65536)
            for i in range(2)]
        outputs = manifest["outputs"]
        assert outputs["em_iters"] == sum(r.em_iters for r in results)
        assert outputs["death_trials"] == sum(r.death_trials for r in results)
        assert outputs["death_accepts"] == sum(r.death_accepts for r in results)
        assert outputs["unconverged_pixels"] == sum(not r.converged
                                                    for r in results)
        assert min(r.death_trials for r in results) > 0
        assert "workers_env" not in manifest and "default_workers" not in manifest


class TestRun:
    def test_fit_then_run_models_load(self, tmp_path):
        video = write_video(tmp_path / "video", HISTORY + 5)
        fitted = tmp_path / "fitted.vimm"
        assert main(fit_argv(video, fitted)) == EXIT_OK
        final = tmp_path / "final.vimm"
        argv = ["run", "--input", str(video), "--model", str(fitted),
                "--outdir", str(tmp_path / "masks"), "--out-model", str(final)]
        assert main(argv) == EXIT_OK
        for path in (fitted, final):
            grid = load_grid(path)
            assert (grid.width, grid.height) == (3, 2)
        assert len(list((tmp_path / "masks").glob("*.pgm"))) == HISTORY + 5

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_writes_a_mask_per_frame_and_a_model(self, tmp_path, mode):
        video, fitted = fitted_video(tmp_path, HISTORY + 6)
        out, final = tmp_path / "out", tmp_path / "final.vimm"
        assert main(run_argv(video, fitted, out, final, "--mode", mode)) == EXIT_OK
        names = sorted(p.name for p in video.glob("*.pgm"))
        assert sorted(p.name for p in out.glob("*.pgm")) == names
        for name in names:
            assert read_mask(out / name).shape == (2, 3)
        grid = load_grid(final)
        assert (grid.width, grid.height) == (3, 2)
        # the event's frames spawned components
        assert final.read_bytes() != fitted.read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"]["frames"] == len(names)
        assert manifest["outputs"]["fps"] > 0 and manifest["elapsed_sec"] > 0

    def test_chained_runs_continue_from_the_saved_model(self, tmp_path):
        # memory-efficient mode keeps no stream state but the model, so two
        # run calls over the halves of a stream equal one call over all of it
        video, fitted = fitted_video(tmp_path, HISTORY + 8)
        halves = [tmp_path / "first", tmp_path / "second"]
        for d in halves:
            d.mkdir()
        for i, path in enumerate(sorted(video.glob("*.pgm"))):
            shutil.copy(path, halves[i * 2 // (HISTORY + 8)])
        whole = tmp_path / "whole.vimm"
        assert main(run_argv(video, fitted, tmp_path / "all", whole)) == EXIT_OK
        middle, last = tmp_path / "middle.vimm", tmp_path / "last.vimm"
        assert main(run_argv(halves[0], fitted, tmp_path / "parts", middle)) == EXIT_OK
        assert main(run_argv(halves[1], middle, tmp_path / "parts", last)) == EXIT_OK
        assert middle.read_bytes() != fitted.read_bytes()
        assert last.read_bytes() == whole.read_bytes()
        for path in sorted((tmp_path / "all").glob("*.pgm")):
            assert path.read_bytes() == (tmp_path / "parts" / path.name).read_bytes()

    def test_freeze_leaves_the_model_unchanged(self, tmp_path):
        video, fitted = fitted_video(tmp_path, HISTORY + 6)
        frozen = tmp_path / "frozen.vimm"
        argv = run_argv(video, fitted, tmp_path / "out", frozen, "--freeze")
        assert main(argv) == EXIT_OK
        assert frozen.read_bytes() == fitted.read_bytes()

    def test_model_and_frame_size_mismatch_is_a_data_error(self, tmp_path):
        _, fitted = fitted_video(tmp_path, HISTORY)
        other = write_video(tmp_path / "other", 3, shape=(2, 2))
        argv = run_argv(other, fitted, tmp_path / "out", tmp_path / "m.vimm")
        assert main(argv) == EXIT_DATA
        assert not (tmp_path / "m.vimm").exists()


class TestEval:
    def test_counts_a_hand_made_pair(self, tmp_path):
        pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        # frame a: tp, fn, fp / tn, ignored (128), tp; frame b: fn, 5 tn
        frames = {
            "a.pgm": ([[255, 0, 255], [0, 0, 255]], [[255, 255, 0], [0, 128, 255]]),
            "b.pgm": ([[0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 255]]),
        }
        for name, (pred, gt) in frames.items():
            write_pgm(np.array(pred, dtype=np.uint8), pred_dir / name)
            write_pgm(np.array(gt, dtype=np.uint8), gt_dir / name)
        out = tmp_path / "eval.json"
        argv = ["eval", "--pred", str(pred_dir), "--gt", str(gt_dir),
                "--out", str(out)]
        assert main(argv) == EXIT_OK
        report = json.loads(out.read_text())
        assert {k: report[k] for k in ("tp", "fp", "tn", "fn", "frames")} == \
            {"tp": 2, "fp": 1, "tn": 6, "fn": 2, "frames": 2}
        assert report["precision"] == 2 / 3 and report["recall"] == 0.5
        assert report["pwc"] == 100.0 * 3 / 11
        with open(tmp_path / "eval_frames.csv", newline="") as fh:
            rows = {r["frame"]: r for r in csv.DictReader(fh)}
        assert [(rows[n]["tp"], rows[n]["fp"], rows[n]["tn"], rows[n]["fn"])
                for n in ("a.pgm", "b.pgm")] == [("2", "1", "1", "1"),
                                                 ("0", "0", "5", "1")]
