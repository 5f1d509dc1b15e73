"""engine.process_frame's whole-frame pass against the scalar per-pixel
path it replaced (tests/scalar_reference.py), pixel by pixel and frame by
frame: equal labels, component counts, weights, means, variances and pool
contents."""

import math

import numpy as np
import pytest
import scalar_reference as ref

from thermobg.adapt import (AdaptationConfig, SamplePool,
                            epsilon_star_approx_rows, epsilon_star_exact_rows,
                            fsum_rows)
from thermobg.core import MixtureModel, MixtureState
from thermobg.engine import PixelGrid, initialize_grid, process_frame
from thermobg.fit import FitConfig
from thermobg.frameio import FrameSequence
from thermobg.segment import SegmentationConfig

HEIGHT, WIDTH, HISTORY, STREAM = 4, 5, 30, 60
SEG = SegmentationConfig(min_blob_area=0)  # compare the raw labels
DEPTHS = {8: (256, 100.0, 3.0), 16: (65536, 30000.0, 8.0)}


def video(depth, seed, stream=STREAM):
    """Integer frames of the given depth: unimodal background, a bimodal
    2x2 corner, a bright event on the stream, a few samples at the ends of
    the intensity range, and a stretch of repeated frames."""
    levels, base, sigma = DEPTHS[depth]
    rng = np.random.default_rng(seed)
    n = HISTORY + stream
    frames = np.rint(rng.normal(base, sigma, (n, HEIGHT, WIDTH)))
    frames[1::2, :2, :2] += 12.0 * sigma
    frames[HISTORY + 5:HISTORY + 25, 1:3, 2:5] = np.rint(
        rng.normal(base + 25.0 * sigma, 2.0 * sigma, (20, 2, 3)))
    far = rng.random((n, HEIGHT, WIDTH)) < 0.02
    frames[far] = rng.choice([0.0, levels - 1.0], size=int(far.sum()))
    frames[HISTORY + 30:HISTORY + 36] = frames[HISTORY + 29]
    return FrameSequence(np.clip(frames, 0, levels - 1), levels)


def fitted_grid(depth, mode, seed, stream=STREAM):
    seq = video(depth, seed, stream)
    history = FrameSequence(seq.frames[:HISTORY], seq.intensity_levels)
    grid = initialize_grid(history, FitConfig(k_max=4, history_len=HISTORY,
                                              rng_seed=seed),
                           adapt_config=AdaptationConfig(mode=mode),
                           seg_config=SEG)
    return grid, seq.frames[HISTORY:]


def stream_both(grid, frames):
    """Stream frames through process_frame and the scalar reference and
    assert they agree after every frame; returns the largest K seen."""
    models = grid.state.models()
    pools = None
    if grid.pool is not None:
        pools = [ref.HistoryPool(grid.pool.values(i), maxlen=grid.pool.maxlen)
                 for i in range(grid.state.n_pixels)]
    k_max = 0
    for t, frame in enumerate(frames):
        mask = process_frame(grid, frame)
        labels, posterior = ref.stream_frame(models, pools, frame, SEG,
                                             grid.adapt_config)
        where = f"frame {t}"
        assert np.array_equal(mask.labels.ravel(), labels), where
        # numpy's exp and math.exp may differ in the last bit
        assert np.max(np.abs(mask.posterior.ravel() - posterior)) <= 1e-15
        assert grid.state.k.tolist() == [m.n_components for m in models], where
        for i, m in enumerate(models):
            got = grid.state.model(i)
            assert got.weights == m.weights, (where, i)
            assert got.means == m.means, (where, i)
            assert got.variances == m.variances, (where, i)
            if pools is not None:
                assert grid.pool.values(i) == pools[i].values, (where, i)
        k_max = max(k_max, int(grid.state.k.max()))
    return k_max


class TestScalarEquivalence:
    @pytest.mark.parametrize("depth", [8, 16])
    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_fitted_grid_streams_like_the_scalar_path(self, mode, depth):
        grid, frames = fitted_grid(depth, mode, seed=depth)
        stream_both(grid, frames)

    @pytest.mark.parametrize("depth", [8, 16])
    def test_exact_mode_from_empty_pools_grows_k_past_eight(self, depth):
        # as `run --mode exact` starts: every pool empty, so the first frame
        # matches everywhere and the pools then drive many spawns
        grid, frames = fitted_grid(depth, "exact", seed=5, stream=150)
        grid.pool = SamplePool(grid.state.n_pixels, HISTORY)
        assert stream_both(grid, frames) > 8

    def test_continuous_samples(self):
        # non-integer frames take the searched window counts of exact mode
        rng = np.random.default_rng(9)
        levels = 256
        model = MixtureModel([0.7, 0.3], [100.0, 140.0], [9.0, 16.0], HISTORY)
        for mode in ("approx", "exact"):
            grid = PixelGrid(WIDTH, HEIGHT,
                             MixtureState.from_models([model] * (WIDTH * HEIGHT)),
                             FitConfig(k_max=4, history_len=HISTORY),
                             AdaptationConfig(mode=mode), SEG)
            if mode == "exact":
                grid.pool = SamplePool.from_history(
                    rng.normal(100.0, 3.0, (HISTORY, WIDTH * HEIGHT)), HISTORY)
            frames = rng.normal(100.0, 3.0, (40, HEIGHT, WIDTH))
            frames[10:20, :2] = rng.uniform(0.0, levels, (10, 2, WIDTH))
            frames[25:30] = 100.5  # samples on window boundaries
            # v - x an integer in exact arithmetic but not in floating point
            frames[30:40] = 100.1 + (np.arange(10) % 4)[:, None, None]
            stream_both(grid, frames)


class TestEpsilonStar:
    def test_exact_rows_on_rounding_boundaries(self):
        # x + eps and v - x round: samples an integer (or a bit more or
        # less) from a non-integer x, where the floating-point window
        # comparisons and exact arithmetic disagree
        rng = np.random.default_rng(21)
        cfg = AdaptationConfig(mode="exact")
        pixels, n = 300, 40
        x = (rng.integers(0, 300, pixels)
             + rng.choice([0.1, 0.2, 0.3, 0.35, 0.7, 1.0 / 3.0], pixels))
        values = x[:, None] + rng.integers(-6, 7, (pixels, n))
        nudge = rng.random((pixels, n)) < 0.3
        values[nudge] = np.nextafter(values[nudge],
                                     values[nudge] + rng.choice([-1, 1], nudge.sum()))
        pool = SamplePool.from_history(values.T, n)
        eps, p, log_p = epsilon_star_exact_rows(pool, x, cfg)
        for i in range(pixels):
            want = ref.epsilon_star_exact(values[i].tolist(), float(x[i]), cfg)
            assert (int(eps[i]), float(p[i])) == (want.epsilon, want.p), i
            assert log_p[i] == pytest.approx(want.log_p, rel=1e-15)

    def test_approx_rows_match_the_scalar_path(self):
        rng = np.random.default_rng(22)
        cfg = AdaptationConfig()
        rows = 400
        w = rng.uniform(0.01, 1.0, rows)
        mu = rng.uniform(0.0, 65535.0, rows)
        var = rng.uniform(1e-4, 400.0, rows) ** rng.choice([1.0, 2.0], rows)
        x = mu + rng.normal(0.0, 1.0, rows) * np.sqrt(var) * rng.choice(
            [0.5, 3.0, 40.0], rows)
        eps, p, log_p = epsilon_star_approx_rows(w, mu, var, x, cfg)
        for i in range(rows):
            m = MixtureModel([w[i]], [mu[i]], [var[i]], 100, 65536)
            want = ref.epsilon_star_approx(m, 0, float(x[i]), cfg)
            assert int(eps[i]) == want.epsilon, i
            # log w is numpy's log here and math.log there
            assert log_p[i] == pytest.approx(want.log_p, rel=1e-15, abs=1e-300)


class TestExactTotal:
    # Weights (N = 100) whose first spawn renormalizes the last one to a
    # double next to 1/99; the second spawn scales it by 0.99 and the 1/100
    # floor then decides on its last bit.  The rounding of the first total
    # picks that bit, so only a total that equals math.fsum keeps K with the
    # scalar path.
    WEIGHTS = [0.518307595306964, 0.4714893641869652, 0.010203040506070809]

    def test_prune_boundary_follows_the_exactly_rounded_total(self):
        model = MixtureModel(self.WEIGHTS, [10.0, 60.0, 110.0], [1.0, 1.0, 1.0],
                             100)
        grid = PixelGrid(1, 1, MixtureState.from_models([model]),
                         FitConfig(k_max=4, history_len=100),
                         AdaptationConfig(), SEG)
        stream_both(grid, [np.array([[1000.0]])])  # spawns: K = 4
        w = grid.state.weights[0, 2]
        assert w * 0.99 < 0.01 <= np.nextafter(w, 1.0) * 0.99
        # spawns, then prunes w and the first newcomer, both now below 1/100
        stream_both(grid, [np.array([[2000.0]])])
        assert grid.state.k.tolist() == [3]

    def test_fsum_rows_is_math_fsum(self):
        rng = np.random.default_rng(13)
        rows = [rng.dirichlet(np.ones(k)) for k in rng.integers(1, 40, 300)]
        rows += [rng.dirichlet(np.ones(5)) * 0.99 for _ in range(100)]
        rows += [np.full(k, 1.0 / 3.0) for k in range(1, 30)]
        rows += [np.array([1.0, 2.0 ** -52, 2.0 ** -53, 2.0 ** -53])]
        rows += [np.array([0.1] * 10 + [1e-7] * 7)]
        width = max(len(r) for r in rows)
        table = np.zeros((len(rows), width))
        for i, r in enumerate(rows):
            table[i, :len(r)] = r
        got = fsum_rows(table)
        want = [math.fsum(r) for r in rows]
        assert got.tolist() == want
