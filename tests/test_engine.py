import math

import numpy as np
import pytest

from thermobg.adapt import MAX_HISTORY_LEN, SamplePool
from thermobg.core import MixtureModel, MixtureState
from thermobg.engine import (ModelFormatError, PixelGrid, initialize_grid,
                             load_grid, process_frame, save_grid)
from thermobg.fit import FitConfig
from thermobg.frameio import FrameSequence
from thermobg.segment import SegmentationConfig, posterior_bg_rows

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
    return FitConfig(k_max=4, rng_seed=11)


def fitted_grid(history, mode, seg_config):
    """The grid fitted to the history, with a pool of it in exact mode."""
    grid = initialize_grid(history, fit_config(), seg_config=seg_config)
    if mode == "exact":
        grid.pool = SamplePool.from_history(
            history.frames.reshape(HISTORY, -1), HISTORY)
    return grid


def stream(mode):
    """Fit the history, then stream the rest of the video."""
    video = small_video()
    history = FrameSequence(video.frames[:HISTORY], video.intensity_levels)
    grid = fitted_grid(history, mode, SEG)
    fitted = grid.state.models()
    masks = [process_frame(grid, frame) for frame in video.frames[HISTORY:]]
    return grid, fitted, masks


def assert_same_state(a, b):
    for name in ("weights", "means", "variances", "k"):
        assert np.array_equal(getattr(a.state, name), getattr(b.state, name))
    if a.pool is None or b.pool is None:
        assert a.pool is None and b.pool is None
    else:
        for name in ("samples", "pushed"):
            assert np.array_equal(getattr(a.pool, name), getattr(b.pool, name))


class TestRepeatability:
    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_fit_and_stream_repeat(self, mode):
        # two runs of the batched fit and of the vectorised frame pass
        g1, fit1, masks1 = stream(mode)
        g2, fit2, masks2 = stream(mode)
        assert fit1 == fit2
        assert g1.unconverged_pixels == g2.unconverged_pixels
        for a, b in zip(masks1, masks2):
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.posterior, b.posterior)
        assert_same_state(g1, g2)
        assert (g1.pool is not None) == (mode == "exact")
        # The stream did reach both labels, so the comparison is not vacuous.
        labels = np.stack([m.labels for m in masks1])
        assert labels.min() == 0 and labels.max() == 1


class TestSingleModelPath:
    def test_process_frame_posterior_is_posterior_bg(self):
        video = small_video()
        history = FrameSequence(video.frames[:HISTORY], video.intensity_levels)
        grid = initialize_grid(history, fit_config(), seg_config=SEG)
        for frame in video.frames[HISTORY:]:
            before = grid.state.models()
            mask = process_frame(grid, frame)
            # each pixel's posterior on its own, as a one-pixel state
            expected = np.array([
                posterior_bg_rows(MixtureState.from_models([m]), [x], SEG)[0]
                for m, x in zip(before, frame.ravel())])
            assert np.array_equal(mask.posterior.ravel(), expected)

    def test_save_load_round_trip_is_bit_exact(self, tmp_path):
        grid, _, _ = stream("approx")
        path = tmp_path / "grid.vimm"
        save_grid(grid, path)
        back = load_grid(path)
        assert (back.width, back.height) == (grid.width, grid.height)
        assert back.intensity_levels == grid.intensity_levels
        assert back.state.history_len == HISTORY
        for a, b in zip(grid.state.models(), back.state.models()):
            assert a.weights == b.weights
            assert a.means == b.means
            assert a.variances == b.variances
        save_grid(back, tmp_path / "again.vimm")
        assert path.read_bytes() == (tmp_path / "again.vimm").read_bytes()

    def test_round_trip_keeps_the_history_length_of_the_state(self, tmp_path):
        # N is the state's: a 50-frame history fitted with the default
        # FitConfig saves and loads with N = 50, arrays bit-identical
        video = small_video(stream=50 - HISTORY)
        history = FrameSequence(video.frames, video.intensity_levels)
        grid = initialize_grid(history, FitConfig())
        assert grid.state.history_len == 50
        path = tmp_path / "n50.vimm"
        save_grid(grid, path)
        assert path.read_text().split("\n", 1)[0] == \
            f"VIMM1 {WIDTH} {HEIGHT} 50 256"
        back = load_grid(path)
        assert back.state.history_len == 50
        for name in ("weights", "means", "variances", "k"):
            assert np.array_equal(getattr(back.state, name),
                                  getattr(grid.state, name))


class TestInitializeGrid:
    def test_sixteen_bit_history_keeps_its_depth(self, tmp_path):
        video = small_video(base=30000.0, sigma=8.0, levels=65536)
        history = FrameSequence(video.frames[:HISTORY], 65536)
        grid = initialize_grid(history, fit_config())
        assert grid.intensity_levels == 65536
        assert {m.intensity_levels for m in grid.state.models()} == {65536}
        path = tmp_path / "g16.vimm"
        save_grid(grid, path)
        assert path.read_text().split("\n", 1)[0].split()[-1] == "65536"

    def test_bare_array_rejected(self):
        frames = small_video().frames[:HISTORY]
        with pytest.raises(TypeError, match="FrameSequence"):
            initialize_grid(frames, fit_config())

    def test_progress_counts_every_pixel(self):
        video = small_video()
        history = FrameSequence(video.frames[:HISTORY], video.intensity_levels)
        calls = []
        initialize_grid(history, fit_config(), progress=calls.append)
        assert sum(calls) == HEIGHT * WIDTH
        assert min(calls) >= 1


class TestLoadGrid:
    @pytest.mark.parametrize("record", ["2 0.5 10 1 0.6 50 1",
                                        "2 0.995 10 1 0.005 50 1",
                                        "1 1 10 1e-08"])
    def test_weight_invariants_are_enforced(self, tmp_path, record):
        # weights summing to 1.1, a weight below 1/N at N = 100, and a
        # variance below VARIANCE_FLOOR
        path = tmp_path / "bad.vimm"
        path.write_text(f"VIMM1 2 1 100 256\n1 1 10 1\n{record}\n")
        with pytest.raises(ModelFormatError, match="pixel 1") as info:
            load_grid(path)
        assert info.value.pixel_index == 1

    @pytest.mark.parametrize("record, message", [
        ("", "component count missing"),
        ("   ", "component count missing"),
        ("0", "component count '0' is not a positive integer"),
        ("-1 1 10 1", "component count '-1' is not a positive integer"),
        ("1.0 1 10 1", "component count '1.0' is not a positive integer"),
        ("one 1 10 1", "component count 'one' is not a positive integer")])
    def test_bad_component_count_is_named(self, tmp_path, record, message):
        path = tmp_path / "bad.vimm"
        path.write_text(f"VIMM1 2 1 100 256\n1 1 10 1\n{record}\n")
        with pytest.raises(ModelFormatError, match=message) as info:
            load_grid(path)
        assert str(info.value).startswith("pixel 1 (line 3): ")
        assert info.value.pixel_index == 1

    def test_history_length_above_the_supported_one_is_rejected(
            self, tmp_path):
        # N = MAX_HISTORY_LEN loads; one more fails at the header, before
        # a stream could reach prune_renormalize_rows
        path = tmp_path / "long.vimm"
        path.write_text(f"VIMM1 1 1 {MAX_HISTORY_LEN} 256\n1 1 10 1\n")
        assert load_grid(path).state.history_len == MAX_HISTORY_LEN
        path.write_text(f"VIMM1 1 1 {MAX_HISTORY_LEN + 1} 256\n1 1 10 1\n")
        with pytest.raises(ModelFormatError,
                           match="header fields out of range"):
            load_grid(path)


class TestPool:
    """A sample pool is checked as it is attached: one row per pixel, N
    slots per row."""

    def grid(self, pool=None):
        model = MixtureModel([1.0], [100.0], [9.0], 100)
        return PixelGrid(WIDTH, HEIGHT, MixtureState.from_models(
            [model] * (WIDTH * HEIGHT)), pool=pool)

    @pytest.mark.parametrize("pixels, maxlen, match", [
        (WIDTH * HEIGHT, 7, "holds 7 samples per pixel"),
        (WIDTH * HEIGHT + 1, 100, "width \\* height")])
    def test_mismatched_pool_is_rejected(self, pixels, maxlen, match):
        with pytest.raises(ValueError, match=match):
            self.grid(SamplePool(pixels, maxlen))
        grid = self.grid()
        with pytest.raises(ValueError, match=match):
            grid.pool = SamplePool(pixels, maxlen)
        assert grid.pool is None

    def test_matching_pool_attaches_and_detaches(self):
        grid = self.grid(SamplePool(WIDTH * HEIGHT, 100))
        assert grid.pool.maxlen == grid.state.history_len
        grid.pool = None
        grid.pool = SamplePool(WIDTH * HEIGHT, 100)
        assert grid.pool is not None


class TestNonFinite:
    @pytest.mark.parametrize("field", [1, 2, 3])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_load_grid_names_the_pixel(self, tmp_path, field, bad):
        grid, _, _ = stream("approx")
        path = tmp_path / "grid.vimm"
        save_grid(grid, path)
        lines = path.read_text().splitlines()
        tokens = lines[1 + 7].split()  # pixel 7
        tokens[field] = bad
        lines[1 + 7] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match="pixel 7") as info:
            load_grid(path)
        assert info.value.pixel_index == 7

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_process_frame_labels_foreground_and_skips_adapt(self, mode):
        video = small_video()
        history = FrameSequence(video.frames[:HISTORY], video.intensity_levels)
        seg = SegmentationConfig(min_blob_area=0)
        grid = fitted_grid(history, mode, seg)
        frame = video.frames[HISTORY].copy()
        bad = {3: math.nan, 8: math.inf, 12: -math.inf}
        for idx, value in bad.items():
            frame.flat[idx] = value
        before = grid.state.models()
        pool_before = ([grid.pool.values(i) for i in range(HEIGHT * WIDTH)]
                       if grid.pool is not None else None)

        mask = process_frame(grid, frame)
        for idx in bad:
            assert mask.labels.flat[idx] == 1
            assert mask.posterior.flat[idx] == 0.0
            assert grid.state.model(idx) == before[idx]
            if pool_before is not None:
                assert grid.pool.values(idx) == pool_before[idx]

        # every other pixel adapted as if the frame had no bad samples
        twin = fitted_grid(history, mode, seg)
        clean = video.frames[HISTORY]
        twin_mask = process_frame(twin, clean)
        for idx in range(HEIGHT * WIDTH):
            if idx in bad:
                continue
            assert grid.state.model(idx) == twin.state.model(idx)
            assert mask.labels.flat[idx] == twin_mask.labels.flat[idx]
            if pool_before is not None:
                assert grid.pool.values(idx) == twin.pool.values(idx)
