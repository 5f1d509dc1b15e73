import numpy as np
import pytest

from thermobg.adapt import AdaptationConfig
from thermobg.engine import (initialize_grid, load_grid, process_frame,
                             save_grid)
from thermobg.fit import FitConfig
from thermobg.frameio import FrameSequence
from thermobg.segment import SegmentationConfig, posterior_bg

HEIGHT, WIDTH, HISTORY = 4, 5, 30
SEG = SegmentationConfig(min_blob_area=4)  # keeps the 6-pixel event


def small_video(seed=3, stream=12, base=100.0, sigma=3.0, levels=256):
    """Integer frames: unimodal background, a bimodal 2x2 corner and a
    bright 2x3 event on the streamed frames."""
    rng = np.random.default_rng(seed)
    n = HISTORY + stream
    frames = np.rint(rng.normal(base, sigma, (n, HEIGHT, WIDTH)))
    frames[1::2, :2, :2] += 12.0 * sigma
    frames[HISTORY + 2:, 1:3, 2:5] = np.rint(
        rng.normal(base + 60.0 * sigma, sigma, (stream - 2, 2, 3)))
    return FrameSequence(frames, intensity_levels=levels)


def fit_config():
    return FitConfig(k_max=4, history_len=HISTORY, rng_seed=11)


def stream(mode, workers):
    video = small_video()
    history = FrameSequence(video.frames[:HISTORY], video.intensity_levels)
    grid = initialize_grid(history, fit_config(),
                           adapt_config=AdaptationConfig(mode=mode),
                           seg_config=SEG, workers=workers)
    fitted = [m.copy() for m in grid.models]
    masks = [process_frame(grid, frame, workers=workers)
             for frame in video.frames[HISTORY:]]
    return grid, fitted, masks


class TestWorkerInvariance:
    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_one_and_two_workers_agree(self, mode):
        g1, fit1, masks1 = stream(mode, workers=1)
        g2, fit2, masks2 = stream(mode, workers=2)
        assert fit1 == fit2
        assert g1.unconverged_pixels == g2.unconverged_pixels
        for a, b in zip(masks1, masks2):
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.posterior, b.posterior)
        assert g1.models == g2.models
        if mode == "exact":
            assert [p.values for p in g1.pools] == [p.values for p in g2.pools]
        # The stream did reach both labels, so the comparison is not vacuous.
        labels = np.stack([m.labels for m in masks1])
        assert labels.min() == 0 and labels.max() == 1


class TestSingleModelPath:
    def test_process_frame_posterior_is_posterior_bg(self):
        video = small_video()
        history = FrameSequence(video.frames[:HISTORY], video.intensity_levels)
        grid = initialize_grid(history, fit_config(), seg_config=SEG,
                               workers=1)
        for frame in video.frames[HISTORY:]:
            before = [m.copy() for m in grid.models]
            mask = process_frame(grid, frame, workers=1)
            expected = np.array([posterior_bg(m, x, SEG)
                                 for m, x in zip(before, frame.ravel())])
            assert np.array_equal(mask.posterior.ravel(), expected)

    def test_save_load_round_trip_is_bit_exact(self, tmp_path):
        grid, _, _ = stream("approx", workers=1)
        path = tmp_path / "grid.vimm"
        save_grid(grid, path)
        back = load_grid(path)
        assert (back.width, back.height) == (grid.width, grid.height)
        assert back.intensity_levels == grid.intensity_levels
        assert back.fit_config.history_len == HISTORY
        for a, b in zip(grid.models, back.models):
            assert a.weights == b.weights
            assert a.means == b.means
            assert a.variances == b.variances
        save_grid(back, tmp_path / "again.vimm")
        assert path.read_bytes() == (tmp_path / "again.vimm").read_bytes()


class TestInitializeGrid:
    def test_sixteen_bit_history_keeps_its_depth(self, tmp_path):
        video = small_video(base=30000.0, sigma=8.0, levels=65536)
        history = FrameSequence(video.frames[:HISTORY], 65536)
        grid = initialize_grid(history, fit_config(), workers=1)
        assert grid.intensity_levels == 65536
        assert {m.intensity_levels for m in grid.models} == {65536}
        path = tmp_path / "g16.vimm"
        save_grid(grid, path)
        assert path.read_text().split("\n", 1)[0].split()[-1] == "65536"

    def test_bare_array_rejected(self):
        frames = small_video().frames[:HISTORY]
        with pytest.raises(TypeError, match="FrameSequence"):
            initialize_grid(frames, fit_config(), workers=1)

    def test_progress_called_once_per_pixel(self):
        video = small_video()
        history = FrameSequence(video.frames[:HISTORY], video.intensity_levels)
        calls = []
        initialize_grid(history, fit_config(), workers=2,
                        progress=lambda: calls.append(1))
        assert len(calls) == HEIGHT * WIDTH
