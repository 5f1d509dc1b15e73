import json

import numpy as np

from thermobg.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from thermobg.engine import load_grid
from thermobg.fit import FitConfig, fit
from thermobg.frameio import read_pgm_sequence, write_pgm

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
