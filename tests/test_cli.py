import csv
import functools
import json
import os
import shutil

import numpy as np
import pytest
import scalar_reference as ref

from thermobg import cli
from thermobg.adapt import SamplePool
from thermobg.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from thermobg.engine import load_grid
from thermobg.fit import FIT_STAGES, FitConfig, fit
from thermobg.frameio import (encode_pgm, read_mask, read_pgm_sequence,
                              write_pgm)
from thermobg.synth import (GaussianSpec, adaptation_demo_specs,
                            gen_mixture_samples, gen_video, load_scenario,
                            parse_scenario, quantize_frames)

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


def assert_no_child():
    """No process started by the call is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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

    def test_strict_exits_3_when_a_pixel_is_unconverged(self, tmp_path,
                                                        monkeypatch):
        # three overlapping modes per pixel: their death moves end at the
        # iteration cap, and one final EM iteration does not settle them
        rng = np.random.default_rng(0)
        n = 120
        video = tmp_path / "video"
        video.mkdir()
        frames = np.rint(rng.normal(100.0, 2.0, (n, 2, 3)))
        frames[1::3] += 6.0
        frames[2::3] += 12.0
        for t in range(n):
            write_pgm(frames[t].astype(np.uint8), video / f"frame_{t:04d}.pgm")
        argv = fit_argv(video, tmp_path / "m.vimm", "--strict")
        argv[argv.index("--history") + 1] = str(n)
        argv[argv.index("--kmax") + 1] = "10"
        assert main(argv) == EXIT_OK
        monkeypatch.setattr(cli, "FitConfig",
                            functools.partial(FitConfig, max_iters=1))
        assert main(argv) == EXIT_NUMERICAL
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"]["unconverged_pixels"] > 0
        argv.remove("--strict")
        assert main(argv) == EXIT_OK

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
                FitConfig(k_max=6,
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

    def test_manifest_times_the_fit_stages(self, tmp_path):
        video = write_video(tmp_path / "video", HISTORY)
        assert main(fit_argv(video, tmp_path / "model.vimm")) == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        seconds = [manifest["outputs"][name] for name in FIT_STAGES]
        assert min(seconds) >= 0.0
        assert seconds[FIT_STAGES.index("em_s")] > 0.0
        assert sum(seconds) <= manifest["elapsed_sec"]

    def test_manifest_records_the_argv_given_to_main(self, tmp_path):
        video = write_video(tmp_path / "video", HISTORY)
        argv = fit_argv(video, tmp_path / "model.vimm")
        assert main(argv) == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["argv"] == argv
        assert "argv" not in manifest["args"]

    def test_creates_the_model_directory(self, tmp_path):
        video = write_video(tmp_path / "video", HISTORY)
        out = tmp_path / "new" / "dir" / "m.vimm"
        assert main(fit_argv(video, out)) == EXIT_OK
        assert load_grid(out).width == 3
        assert (out.parent / "manifest.json").is_file()

    @pytest.mark.parametrize("history, kmax", [(50, 60), (0, 2), (-1, 2)])
    def test_kmax_above_the_history_is_a_data_error(self, tmp_path, history,
                                                    kmax):
        video = write_video(tmp_path / "video", 60)
        out = tmp_path / "m.vimm"
        argv = fit_argv(video, out)
        argv[argv.index("--history") + 1] = str(history)
        argv[argv.index("--kmax") + 1] = str(kmax)
        assert main(argv) == EXIT_DATA
        assert not out.exists()

    def test_model_path_under_a_file_is_a_data_error(self, tmp_path):
        video = write_video(tmp_path / "video", HISTORY)
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "m.vimm"
        assert main(fit_argv(video, out)) == EXIT_DATA


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

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_creates_the_out_model_directory(self, tmp_path, mode):
        video, fitted = fitted_video(tmp_path, HISTORY + 2)
        final = tmp_path / "other" / "dir" / "m.vimm"
        argv = run_argv(video, fitted, tmp_path / "out", final, "--mode", mode)
        assert main(argv) == EXIT_OK
        assert load_grid(final).width == 3

    def test_out_model_under_a_file_fails_before_any_frame(self, tmp_path):
        video, fitted = fitted_video(tmp_path, HISTORY + 2)
        (tmp_path / "taken").write_text("")
        out = tmp_path / "out"
        argv = run_argv(video, fitted, out, tmp_path / "taken" / "m.vimm")
        assert main(argv) == EXIT_DATA
        assert not list(out.glob("*.pgm"))

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_masks_and_posteriors_match_the_frames(self, tmp_path, mode):
        # the writer process creates what the frame pass computed: the
        # same run in this process, frame by frame, gives the same bytes
        video, fitted = fitted_video(tmp_path, HISTORY + 6)
        out = tmp_path / "out"
        argv = run_argv(video, fitted, out, tmp_path / "m.vimm", "--mode",
                        mode, "--save-posterior")
        assert main(argv) == EXIT_OK
        assert_no_child()
        grid = load_grid(fitted)
        if mode == "exact":
            grid.pool = SamplePool(6, grid.state.history_len)
        seq, paths = read_pgm_sequence(str(video))
        for frame, path in zip(seq.frames, paths):
            mask = cli.process_frame(grid, frame)
            name = os.path.basename(path)
            labels = np.where(mask.labels > 0, 255, 0).astype(np.uint8)
            posterior = np.rint(mask.posterior * 65535.0).astype(np.uint16)
            assert (out / name).read_bytes() == encode_pgm(labels)
            assert (out / "posterior" / name).read_bytes() == \
                encode_pgm(posterior)

    def test_unwritable_mask_is_a_data_error(self, tmp_path, capsys):
        # a directory where a mask goes: exit 2 naming the path, no model,
        # and no process left behind
        video, fitted = fitted_video(tmp_path, HISTORY + 2)
        out = tmp_path / "out"
        taken = out / f"frame_{HISTORY:04d}.pgm"
        taken.mkdir(parents=True)
        final = tmp_path / "final.vimm"
        capsys.readouterr()
        assert main(run_argv(video, fitted, out, final)) == EXIT_DATA
        assert str(taken) in capsys.readouterr().err
        assert not final.exists()
        assert_no_child()

    def test_failing_frame_leaves_earlier_masks_and_no_model(
            self, tmp_path, monkeypatch):
        video, fitted = fitted_video(tmp_path, HISTORY + 6)
        process_frame = cli.process_frame
        calls = []

        def fails_at_frame_5(*args, **kwargs):
            calls.append(1)
            if len(calls) == 6:
                raise RuntimeError("frame 5")
            return process_frame(*args, **kwargs)

        monkeypatch.setattr(cli, "process_frame", fails_at_frame_5)
        out, final = tmp_path / "out", tmp_path / "final.vimm"
        with pytest.raises(RuntimeError, match="frame 5"):
            main(run_argv(video, fitted, out, final))
        assert_no_child()
        names = sorted(p.name for p in video.glob("*.pgm"))
        assert sorted(p.name for p in out.glob("*.pgm")) == names[:5]
        assert not final.exists()

    def test_two_frames_with_one_output_name_are_a_data_error(
            self, tmp_path, capsys):
        # a glob over two directories of like-named frames: exit 2 naming
        # both, before any mask is written
        _, fitted = fitted_video(tmp_path, HISTORY)
        (tmp_path / "dirs").mkdir()
        for name in ("a", "b"):
            write_video(tmp_path / "dirs" / name, 3)
        out, final = tmp_path / "out", tmp_path / "m.vimm"
        capsys.readouterr()
        pattern = str(tmp_path / "dirs" / "*" / "*.pgm")
        assert main(run_argv(pattern, fitted, out, final)) == EXIT_DATA
        err = capsys.readouterr().err
        assert "a/frame_0000.pgm" in err and "b/frame_0000.pgm" in err
        assert not list(out.glob("*.pgm"))
        assert not final.exists()

    @pytest.mark.parametrize("target", ["masks", "posteriors", "model"])
    def test_output_over_an_input_frame_is_a_data_error(self, tmp_path,
                                                         capsys, target):
        # masks, posteriors or the model written over the frames read:
        # exit 2 naming the file, and every frame left as it was
        (tmp_path / "fit").mkdir()
        video, fitted = fitted_video(tmp_path / "fit", HISTORY + 2)
        if target == "posteriors":
            video = video.rename(tmp_path / "posterior")
        frames = {p: p.read_bytes() for p in video.glob("*.pgm")}
        first = min(frames)
        out = {"masks": video, "posteriors": tmp_path,
               "model": tmp_path / "out"}[target]
        final = first if target == "model" else tmp_path / "m.vimm"
        capsys.readouterr()
        argv = run_argv(video, fitted, out, final, "--save-posterior")
        assert main(argv) == EXIT_DATA
        assert "is an input file" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in video.glob("*.pgm")} == frames
        if out != video:
            assert not list(out.glob("*.pgm"))

    @pytest.mark.parametrize("target", ["mask", "posterior"])
    def test_model_over_an_own_output_is_a_data_error(self, tmp_path,
                                                      capsys, target):
        # --out-model named like one of the run's masks or posteriors:
        # exit 2 naming the file, before any mask is written
        video, fitted = fitted_video(tmp_path, HISTORY + 2)
        out = tmp_path / "out"
        name = f"frame_{HISTORY:04d}.pgm"
        final = out / name if target == "mask" else out / "posterior" / name
        capsys.readouterr()
        argv = run_argv(video, fitted, out, final, "--save-posterior")
        assert main(argv) == EXIT_DATA
        assert f"{final}' is a {target} and the model" in \
            capsys.readouterr().err
        assert not list(out.rglob("*.pgm"))

    def test_model_and_frame_size_mismatch_is_a_data_error(self, tmp_path):
        _, fitted = fitted_video(tmp_path, HISTORY)
        other = write_video(tmp_path / "other", 3, shape=(2, 2))
        argv = run_argv(other, fitted, tmp_path / "out", tmp_path / "m.vimm")
        assert main(argv) == EXIT_DATA
        assert not (tmp_path / "m.vimm").exists()

    def test_model_and_frame_depth_mismatch_is_a_data_error(self, tmp_path,
                                                            capsys):
        # a model fitted on 8-bit frames, run on 16-bit frames of its size:
        # exit 2 before any mask or model is written
        rng = np.random.default_rng(0)
        video = tmp_path / "video8"
        video.mkdir()
        for t in range(HISTORY):
            frame = rng.integers(90, 110, (2, 3)).astype(np.uint8)
            write_pgm(frame, video / f"frame_{t:04d}.pgm")
        fitted = tmp_path / "fitted.vimm"
        assert main(fit_argv(video, fitted)) == EXIT_OK
        other = write_video(tmp_path / "other", 3)
        out, final = tmp_path / "out", tmp_path / "m.vimm"
        capsys.readouterr()
        assert main(run_argv(other, fitted, out, final)) == EXIT_DATA
        assert "intensity levels" in capsys.readouterr().err
        assert not list(out.glob("*.pgm"))
        assert not final.exists()


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


    @pytest.mark.parametrize("sample", [0, -3])
    def test_sample_below_one_is_a_usage_error(self, tmp_path, sample,
                                               capsys):
        for name in ("pred", "gt"):
            (tmp_path / name).mkdir()
            write_pgm(np.zeros((2, 2), dtype=np.uint8),
                      tmp_path / name / "a.pgm")
        argv = ["eval", "--pred", str(tmp_path / "pred"), "--gt",
                str(tmp_path / "gt"), "--sample", str(sample)]
        assert main(argv) == EXIT_USAGE
        assert "--sample" in capsys.readouterr().err


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestSynth:
    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_update_demo_streams_like_the_scalar_reference(self, tmp_path,
                                                          mode):
        # every stage's model, to the CSV's 17 digits, is the scalar
        # reference's adapt stream over the same samples from the same fit
        seed = 3
        argv = ["synth", "update-demo", "--seed", str(seed), "--mode", mode,
                "--outdir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        specs, novel = adaptation_demo_specs()
        data = gen_mixture_samples(specs, seed)
        model = fit(data, FitConfig(k_max=10, rng_seed=seed)).model
        pool = (ref.HistoryPool(data, maxlen=data.size) if mode == "exact"
                else None)
        stages = [("t0", model)]
        samples = gen_mixture_samples(
            [GaussianSpec(novel.mean, novel.stddev, 50)], seed + 1)
        spawned = 0
        for i, x in enumerate(samples, start=1):
            model, matched = ref.adapt(model, float(x), pool)
            spawned += not matched
            if i in (25, 50):
                stages.append((f"t{i}", model))
        assert spawned > 0  # the stream did more than update in place
        want = [["stage", "component", "weight", "mean", "variance"]]
        want += [[name, str(k), f"{w:.17g}", f"{mu:.17g}", f"{var:.17g}"]
                 for name, m in stages
                 for k, (w, mu, var) in enumerate(zip(m.weights, m.means,
                                                      m.variances))]
        assert read_rows(tmp_path / "update_demo_components.csv") == want

    def test_fit_demo_recovers_three_components(self, tmp_path):
        assert main(["synth", "fit-demo", "--outdir", str(tmp_path)]) == EXIT_OK
        rows = read_rows(tmp_path / "fit_demo_components.csv")[1:]
        assert len(rows) == 3
        means = sorted(float(r[3]) for r in rows)
        assert means == pytest.approx([30.0, 110.0, 200.0], abs=2.0)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"]["k"] == 3

    def test_video_writes_frames_and_ground_truth(self, tmp_path):
        config = tmp_path / "scene.txt"
        config.write_text("width = 6\nheight = 4\nframes = 7\nseed = 2\n"
                          "background = 100 3\n"
                          "event = 1 1 2 2 2 5 200 5  # frames 2, 3 and 4\n")
        out = tmp_path / "out"
        argv = ["synth", "video", "--config", str(config), "--outdir", str(out)]
        assert main(argv) == EXIT_OK
        names = [f"frame_{t:06d}.pgm" for t in range(7)]
        assert sorted(p.name for p in (out / "frames").iterdir()) == names
        assert sorted(p.name for p in (out / "gt").iterdir()) == names
        event = np.zeros((4, 6), dtype=np.uint8)
        event[1:3, 1:3] = 1
        for t, name in enumerate(names):
            want = event if 2 <= t < 5 else np.zeros_like(event)
            assert np.array_equal(read_mask(out / "gt" / name), want)
        frames, _ = read_pgm_sequence(str(out / "frames" / "*.pgm"))
        assert frames.intensity_levels == 256 and frames.n_frames == 7
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"]["frames"] == 7
        assert_no_child()
        # byte for byte what the frames and masks encode to
        seq, gt = gen_video(load_scenario(str(config)))
        quant = quantize_frames(seq)
        for t, name in enumerate(names):
            assert (out / "frames" / name).read_bytes() == \
                encode_pgm(quant[t], 255)
            assert (out / "gt" / name).read_bytes() == encode_pgm(
                np.where(gt[t] > 0, 255, 0).astype(np.uint8))


@pytest.mark.parametrize("line", [
    "width = 3.7", "height = 4.5", "frames = 10.5", "seed = 0.5",
    "levels = 256.5", "bimodal = 0.5 0 1 1 50 2", "bimodal = 0 0 1 1.5 50 2",
    "event = 0.5 0 1 1 0 2 200 5", "event = 0 0 1 1 0 2.7 200 5",
    "event = 0 0 1 1 0 2 200 5 0.5 0", "event = 0 0 1 1 0 2 200 5 0 -1.5"])
def test_scenario_integer_fields_reject_fractions(line):
    text = ("width = 6\nheight = 4\nframes = 12\nbackground = 100 3\n"
            + line + "\n")
    with pytest.raises(ValueError, match="scenario line 5"):
        parse_scenario(text)


def test_scenario_integer_fields_accept_whole_floats():
    scenario = parse_scenario("width = 6.0\nheight = 4\nframes = 1e1\n"
                              "background = 100 3\n"
                              "event = 1 1 2.0 2 0 3 200 5 1 0\n")
    assert (scenario.width, scenario.frames) == (6, 10)
    assert type(scenario.width) is int
    event = scenario.events[0]
    assert (event.width, event.t1, event.vx) == (2, 3, 1)
    assert type(event.width) is int


class TestBench:
    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_small_grid_writes_its_manifest(self, tmp_path, mode):
        argv = ["bench", "--size", "8x6", "--frames", "3", "--mode", mode,
                "--outdir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["args"]["mode"] == mode
        [row] = manifest["outputs"]["results"]
        assert (row["size"], row["frames"]) == ("8x6", 3)
        assert row["fps"] > 0 and row["us_per_pixel"] > 0

    @pytest.mark.parametrize("frames", [0, -1])
    def test_frames_below_one_is_a_usage_error(self, tmp_path, frames,
                                               capsys):
        argv = ["bench", "--size", "8x5", "--frames", str(frames),
                "--outdir", str(tmp_path / "out")]
        assert main(argv) == EXIT_USAGE
        assert "--frames" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, size", [
    ("bench", "--size=0x5"), ("bench", "--size=-3x4"), ("bench", "--size=5x0"),
    ("fit", "--raw-size=0x4"), ("fit", "--raw-size=-2x4"),
    ("run", "--raw-size=4x0")])
def test_size_below_one_is_a_usage_error(tmp_path, capsys, command, size):
    # the input and model do not exist: the size is checked before any read
    missing = str(tmp_path / "missing")
    argv = {"bench": ["bench", size, "--frames", "2", "--outdir", missing],
            "fit": ["fit", "--input", missing, size, "--out",
                    str(tmp_path / "out" / "m.vimm")],
            "run": ["run", "--input", missing, size, "--model", missing,
                    "--outdir", str(tmp_path / "out")]}[command]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert size.split("=")[0] in err and "at least 1" in err
    assert not (tmp_path / "out").exists() and not os.path.exists(missing)
