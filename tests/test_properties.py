"""Property test: random frame sequences, far outliers and repeated values
included, streamed through random grids in both adaptation modes keep every
pixel's model invariants after every frame."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from thermobg.adapt import AdaptationConfig, SamplePool
from thermobg.core import VARIANCE_FLOOR, MixtureModel, MixtureState
from thermobg.engine import PixelGrid, process_frame
from thermobg.fit import FitConfig
from thermobg.segment import SegmentationConfig


@st.composite
def models(draw, n, levels):
    """A mixture whose weights are at least 1/n: K <= 4 shares of a
    total of at most 11 K <= n units, one unit or more each."""
    k = draw(st.integers(1, 4))
    units = draw(st.lists(st.integers(1, 11), min_size=k, max_size=k))
    means = draw(st.lists(st.floats(0.0, levels - 1.0), min_size=k, max_size=k))
    variances = draw(st.lists(st.floats(VARIANCE_FLOOR, 400.0),
                              min_size=k, max_size=k))
    total = sum(units)
    return MixtureModel([u / total for u in units], means, variances, n, levels)


@st.composite
def scenarios(draw):
    mode = draw(st.sampled_from(["approx", "exact"]))
    levels = draw(st.sampled_from([256, 65536]))
    n = draw(st.integers(44, 100))
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    pixels = width * height
    grid_models = draw(st.lists(models(n, levels), min_size=pixels,
                                max_size=pixels))
    centre = grid_models[0].means[0]
    near = st.floats(centre - 20.0, centre + 20.0)
    far = st.sampled_from([0.0, levels - 1.0, -float(levels), 2.0 * levels])
    level = st.integers(0, levels - 1).map(float)
    sample = st.one_of(near, near.map(round), far, level)
    frame = st.lists(sample, min_size=pixels, max_size=pixels)
    frames = draw(st.lists(frame, min_size=1, max_size=8))
    repeats = draw(st.integers(1, 3))  # every frame arrives this many times
    stored = None
    if mode == "exact":
        stored = draw(st.lists(st.lists(sample, min_size=pixels,
                                        max_size=pixels), max_size=n))
    return (mode, n, width, height, grid_models, stored,
            [f for f in frames for _ in range(repeats)])


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios())
def test_invariants_hold_after_every_frame(scenario):
    mode, n, width, height, grid_models, stored, frames = scenario
    grid = PixelGrid(width, height, MixtureState.from_models(grid_models),
                     FitConfig(k_max=4, history_len=n),
                     AdaptationConfig(mode=mode), SegmentationConfig())
    if mode == "exact":
        grid.pool = (SamplePool.from_history(stored, n) if stored
                     else SamplePool(width * height, n))
    for frame in frames:
        process_frame(grid, np.array(frame).reshape(height, width))
        for m in grid.state.models():
            m.check()  # weights sum to 1 and each is >= 1/N, within 1e-9
            assert np.all(np.isfinite(m.means))
            assert np.all(np.isfinite(m.variances))
            assert min(m.variances) >= VARIANCE_FLOOR
        k = grid.state.k
        padding = np.arange(grid.state.capacity) >= k[:, None]
        assert k.min() >= 1
        assert np.all(grid.state.weights[padding] == 0.0)
