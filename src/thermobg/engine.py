"""Full-frame orchestration: one mixture model per pixel, batch
initialization from a frame history, then streaming classify-and-adapt.

Pixels are independent, so the grid can be partitioned across workers in any
way without changing a single output bit; blob filtering runs after all
pixels of a frame are done.  In memory-efficient mode no sample history is
kept anywhere.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .adapt import MODE_EXACT, AdaptationConfig, HistoryPool, adapt
from .core import MixtureModel
from .fit import FitConfig, fit
from .frameio import FrameSequence
from .segment import (FOREGROUND, MaskFrame, SegmentationConfig, blob_filter,
                      posterior_bg)

_FORMAT_MAGIC = "VIMM1"


class ModelFormatError(ValueError):
    """Raised for malformed model files; carries the offending pixel index."""

    def __init__(self, message: str, pixel_index: int | None = None):
        super().__init__(message)
        self.pixel_index = pixel_index


@dataclass
class PixelGrid:
    """Row-major per-pixel models plus the configuration bundle."""

    width: int
    height: int
    models: list[MixtureModel]
    fit_config: FitConfig
    adapt_config: AdaptationConfig = field(default_factory=AdaptationConfig)
    seg_config: SegmentationConfig = field(default_factory=SegmentationConfig)
    intensity_levels: int = 256
    pools: list[HistoryPool] | None = None  # exact-history mode only
    unconverged_pixels: int = 0

    def __post_init__(self):
        if len(self.models) != self.width * self.height:
            raise ValueError("model list does not match width * height")

    def model_at(self, x: int, y: int) -> MixtureModel:
        return self.models[y * self.width + x]

    def component_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for m in self.models:
            hist[m.n_components] = hist.get(m.n_components, 0) + 1
        return dict(sorted(hist.items()))


def default_workers() -> int:
    env = os.environ.get("THERMOBG_WORKERS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def initialize_grid(history: FrameSequence, fit_config: FitConfig,
                    adapt_config: AdaptationConfig | None = None,
                    seg_config: SegmentationConfig | None = None,
                    workers: int | None = None,
                    progress=None) -> PixelGrid:
    """Fit every pixel's model from the first N frames.

    ``history`` is a FrameSequence, which carries the intensity depth the
    models are fitted at; its frame count must equal fit_config.history_len.
    Per-pixel RNG substreams are spawned from fit_config.rng_seed, so results
    do not depend on the worker count.  ``progress()`` is called once per
    finished pixel.
    """
    if not isinstance(history, FrameSequence):
        raise TypeError(
            f"history must be a FrameSequence (it carries the intensity "
            f"depth), got {type(history).__name__}")
    frames = history.frames
    levels = history.intensity_levels
    n_frames, height, width = frames.shape
    if n_frames != fit_config.history_len:
        raise ValueError(
            f"history has {n_frames} frames but history_len is "
            f"{fit_config.history_len}")

    adapt_config = adapt_config or AdaptationConfig()
    seg_config = seg_config or SegmentationConfig()
    workers = workers or default_workers()
    n_pixels = width * height
    seeds = np.random.SeedSequence(fit_config.rng_seed).spawn(n_pixels)

    models: list[MixtureModel | None] = [None] * n_pixels
    unconverged = [0] * n_pixels
    columns = frames.reshape(n_frames, n_pixels)

    def fit_range(lo: int, hi: int) -> None:
        for idx in range(lo, hi):
            seed = int(seeds[idx].generate_state(1, dtype=np.uint64)[0])
            cfg = replace(fit_config, rng_seed=seed)
            result = fit(columns[:, idx], cfg, intensity_levels=levels)
            models[idx] = result.model
            unconverged[idx] = int(not result.converged)
            if progress is not None:
                progress()

    _run_partitioned(fit_range, n_pixels, workers)

    pools = None
    if adapt_config.mode == MODE_EXACT:
        pools = [HistoryPool(columns[:, idx], maxlen=fit_config.history_len)
                 for idx in range(n_pixels)]
    return PixelGrid(width=width, height=height, models=models,
                     fit_config=fit_config, adapt_config=adapt_config,
                     seg_config=seg_config, intensity_levels=levels,
                     pools=pools, unconverged_pixels=sum(unconverged))


def process_frame(grid: PixelGrid, frame, update: bool = True,
                  workers: int | None = None) -> MaskFrame:
    """Classify every pixel of one frame, then adapt its model.

    The raw per-pixel labels are assembled first (classification uses the
    pre-update model), the frame-global blob filter runs after the barrier.
    Returns the filtered MaskFrame with the background posterior attached;
    grid models (and pools, in exact mode) are updated in place unless
    ``update`` is False.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != (grid.height, grid.width):
        raise ValueError(
            f"frame shape {frame.shape} does not match grid "
            f"{(grid.height, grid.width)}")
    workers = workers or default_workers()
    n_pixels = grid.width * grid.height
    flat = frame.reshape(n_pixels)
    posterior = np.empty(n_pixels, dtype=np.float64)
    labels = np.empty(n_pixels, dtype=np.uint8)

    seg_cfg = grid.seg_config
    threshold = seg_cfg.decision_threshold
    adapt_cfg = grid.adapt_config
    models = grid.models
    pools = grid.pools

    def process_range(lo: int, hi: int) -> None:
        for idx in range(lo, hi):
            x = flat[idx]
            model = models[idx]
            p = posterior_bg(model, x, seg_cfg)
            posterior[idx] = p
            labels[idx] = 0 if p >= threshold else FOREGROUND
            if update:
                pool = pools[idx] if pools is not None else None
                models[idx], _ = adapt(model, x, adapt_cfg, pool)

    _run_partitioned(process_range, n_pixels, workers)

    raw = MaskFrame(grid.width, grid.height,
                    labels.reshape(grid.height, grid.width),
                    posterior.reshape(grid.height, grid.width))
    return blob_filter(raw, grid.seg_config)


def save_grid(grid: PixelGrid, path) -> None:
    """Write the grid's model state in the textual VIMM1 format.

    Header ``VIMM1 <width> <height> <N> <levels>``, then one line per pixel
    in row-major order: the component count followed by weight, mean and
    variance triples, each printed with 17 significant digits so the
    round-trip is bit-exact.
    """
    lines = [f"{_FORMAT_MAGIC} {grid.width} {grid.height} "
             f"{grid.fit_config.history_len} {grid.intensity_levels}"]
    for m in grid.models:
        parts = [str(m.n_components)]
        for w, mu, var in zip(m.weights, m.means, m.variances):
            parts.extend((f"{w:.17g}", f"{mu:.17g}", f"{var:.17g}"))
        lines.append(" ".join(parts))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_grid(path, fit_config: FitConfig | None = None,
              adapt_config: AdaptationConfig | None = None,
              seg_config: SegmentationConfig | None = None) -> PixelGrid:
    """Read a VIMM1 model file back into a PixelGrid.

    Corrupt input raises ModelFormatError naming the offending pixel.
    Configurations are not part of the format; absent ones get defaults
    consistent with the stored history length.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ModelFormatError("empty model file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != _FORMAT_MAGIC:
        raise ModelFormatError(
            f"bad header {lines[0]!r}: expected "
            f"'{_FORMAT_MAGIC} <width> <height> <N> <levels>'")
    try:
        width, height, n_hist, levels = (int(v) for v in header[1:])
    except ValueError as exc:
        raise ModelFormatError(f"non-integer header field: {exc}") from exc
    if min(width, height, n_hist) < 1 or levels < 2:
        raise ModelFormatError("header fields out of range")

    n_pixels = width * height
    body = lines[1:]
    if len(body) < n_pixels:
        raise ModelFormatError(
            f"truncated model file: expected {n_pixels} pixel records, "
            f"found {len(body)} (file ends at pixel {len(body)})",
            pixel_index=len(body))
    if len(body) > n_pixels and any(s.strip() for s in body[n_pixels:]):
        raise ModelFormatError(
            f"trailing data after pixel {n_pixels - 1}", pixel_index=n_pixels)

    models: list[MixtureModel] = []
    for idx in range(n_pixels):
        tokens = body[idx].split()
        try:
            k = int(tokens[0])
            if k < 1 or len(tokens) != 1 + 3 * k:
                raise ValueError(f"expected {1 + 3 * k} fields, got {len(tokens)}")
            values = [float(t) for t in tokens[1:]]
            model = MixtureModel(weights=values[0::3], means=values[1::3],
                                 variances=values[2::3], history_len=n_hist,
                                 intensity_levels=levels)
        except (ValueError, IndexError) as exc:
            raise ModelFormatError(
                f"pixel {idx} (line {idx + 2}): {exc}", pixel_index=idx) from exc
        models.append(model)

    fit_config = fit_config or FitConfig(history_len=n_hist,
                                         k_max=min(50, n_hist))
    if fit_config.history_len != n_hist:
        fit_config = replace(fit_config, history_len=n_hist,
                             k_max=min(fit_config.k_max, n_hist))
    return PixelGrid(width=width, height=height, models=models,
                     fit_config=fit_config,
                     adapt_config=adapt_config or AdaptationConfig(),
                     seg_config=seg_config or SegmentationConfig(),
                     intensity_levels=levels)


def _run_partitioned(fn, n_items: int, workers: int) -> None:
    """Run fn(lo, hi) over disjoint contiguous ranges covering n_items."""
    workers = max(1, min(workers, n_items)) if n_items else 1
    if workers == 1:
        fn(0, n_items)
        return
    bounds = np.linspace(0, n_items, workers + 1, dtype=int)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, int(lo), int(hi))
                   for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        for fut in futures:
            fut.result()
