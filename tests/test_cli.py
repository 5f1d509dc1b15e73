import numpy as np

from thermobg.cli import EXIT_DATA, EXIT_OK, main
from thermobg.frameio import write_pgm

HISTORY = 12


def write_video(directory, n_frames, seed=0):
    rng = np.random.default_rng(seed)
    directory.mkdir()
    for t in range(n_frames):
        frame = np.rint(rng.normal(30000.0, 8.0, (2, 3))).astype(np.uint16)
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
