"""Full-frame orchestration: one mixture model per pixel, batch
initialization from a frame history, then streaming classify-and-adapt.

The grid's models are one MixtureState (and, in exact-history mode, one
SamplePool).  Fitting runs every pixel at once in one lock-step batch, and a
pixel's model does not depend on the others; streaming runs each frame as
one vectorised pass over all pixels.  In memory-efficient mode no sample
history is kept anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .adapt import adapt  # noqa: F401  perfbench/pipeline.py wraps engine.adapt
from .adapt import MODE_EXACT, AdaptationConfig, SamplePool, adapt_rows
from .core import MixtureModel, MixtureState
from .fit import fit  # noqa: F401  perfbench/pipeline.py wraps engine.fit
from .fit import FitConfig, fit_rows
from .frameio import FrameSequence
from .segment import (FOREGROUND, MaskFrame, SegmentationConfig, blob_filter,
                      posterior_bg_rows)

_FORMAT_MAGIC = "VIMM1"


class ModelFormatError(ValueError):
    """Raised for malformed model files; carries the offending pixel index."""

    def __init__(self, message: str, pixel_index: int | None = None):
        super().__init__(message)
        self.pixel_index = pixel_index


@dataclass
class PixelGrid:
    """Row-major per-pixel model state plus the configuration bundle."""

    width: int
    height: int
    state: MixtureState
    fit_config: FitConfig
    adapt_config: AdaptationConfig = field(default_factory=AdaptationConfig)
    seg_config: SegmentationConfig = field(default_factory=SegmentationConfig)
    pool: SamplePool | None = None  # exact-history mode only
    unconverged_pixels: int = 0
    # totals over the fitted pixels: em_iters, death_trials, death_accepts
    fit_counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        n_pixels = self.width * self.height
        if self.state.n_pixels != n_pixels:
            raise ValueError("model state does not match width * height")
        if self.pool is not None and self.pool.n_pixels != n_pixels:
            raise ValueError("sample pool does not match width * height")

    @property
    def intensity_levels(self) -> int:
        return self.state.intensity_levels

    def model_at(self, x: int, y: int) -> MixtureModel:
        return self.state.model(y * self.width + x)

    def component_histogram(self) -> dict[int, int]:
        ks, counts = np.unique(self.state.k, return_counts=True)
        return {int(k): int(c) for k, c in zip(ks, counts)}


def initialize_grid(history: FrameSequence, fit_config: FitConfig,
                    adapt_config: AdaptationConfig | None = None,
                    seg_config: SegmentationConfig | None = None,
                    progress=None) -> PixelGrid:
    """Fit every pixel's model from the first N frames.

    ``history`` is a FrameSequence, which carries the intensity depth the
    models are fitted at; its frame count must equal fit_config.history_len.
    Per-pixel RNG substreams are spawned from fit_config.rng_seed.
    ``progress(n)`` is called as n more pixels finish.
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
    n_pixels = width * height
    seeds = [int(s.generate_state(1, dtype=np.uint64)[0]) for s in
             np.random.SeedSequence(fit_config.rng_seed).spawn(n_pixels)]
    columns = frames.reshape(n_frames, n_pixels)
    fitted = fit_rows(columns.T, fit_config, seeds, intensity_levels=levels,
                      progress=progress)

    pool = None
    if adapt_config.mode == MODE_EXACT:
        pool = SamplePool.from_history(columns, fit_config.history_len)
    counts = {name: int(getattr(fitted, name).sum())
              for name in ("em_iters", "death_trials", "death_accepts")}
    return PixelGrid(width=width, height=height, state=fitted.state,
                     fit_config=fit_config, adapt_config=adapt_config,
                     seg_config=seg_config, pool=pool,
                     unconverged_pixels=int((~fitted.converged).sum()),
                     fit_counts=counts)


def process_frame(grid: PixelGrid, frame, update: bool = True) -> MaskFrame:
    """Classify every pixel of one frame, then adapt its model, as one
    vectorised pass over the grid.

    Classification uses the pre-update models; the frame-global blob filter
    runs on the raw labels.  A non-finite sample is labelled foreground
    (posterior 0) and its pixel's model and pool are left untouched.
    Returns the filtered MaskFrame with the background posterior attached;
    the grid state (and pool, in exact mode) is updated in place unless
    ``update`` is False.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != (grid.height, grid.width):
        raise ValueError(
            f"frame shape {frame.shape} does not match grid "
            f"{(grid.height, grid.width)}")
    flat = frame.reshape(-1)
    finite = np.isfinite(flat)
    all_finite = bool(finite.all())
    posterior = posterior_bg_rows(grid.state, flat, grid.seg_config)
    if not all_finite:
        posterior[~finite] = 0.0
    labels = np.where(posterior >= grid.seg_config.decision_threshold,
                      0, FOREGROUND).astype(np.uint8)
    raw = MaskFrame(grid.width, grid.height,
                    labels.reshape(grid.height, grid.width),
                    posterior.reshape(grid.height, grid.width))
    mask = blob_filter(raw, grid.seg_config)

    if update and all_finite:
        adapt_rows(grid.state, flat, grid.adapt_config, grid.pool)
    elif update:
        rows = np.flatnonzero(finite)
        state = grid.state.take(rows)
        pool = grid.pool.take(rows) if grid.pool is not None else None
        adapt_rows(state, flat[rows], grid.adapt_config, pool)
        grid.state.put(rows, state)
        if pool is not None:
            grid.pool.put(rows, pool)
    return mask


def save_grid(grid: PixelGrid, path) -> None:
    """Write the grid's model state in the textual VIMM1 format.

    Header ``VIMM1 <width> <height> <N> <levels>``, then one line per pixel
    in row-major order: the component count followed by weight, mean and
    variance triples, each printed with 17 significant digits so the
    round-trip is bit-exact.
    """
    lines = [f"{_FORMAT_MAGIC} {grid.width} {grid.height} "
             f"{grid.fit_config.history_len} {grid.intensity_levels}"]
    state = grid.state
    triples = np.stack([state.weights, state.means, state.variances],
                       axis=2).reshape(state.n_pixels, -1).tolist()
    for k, row in zip(state.k.tolist(), triples):
        lines.append(" ".join([str(k)] + [f"{v:.17g}" for v in row[:3 * k]]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_grid(path, fit_config: FitConfig | None = None,
              adapt_config: AdaptationConfig | None = None,
              seg_config: SegmentationConfig | None = None) -> PixelGrid:
    """Read a VIMM1 model file back into a PixelGrid.

    Corrupt input raises ModelFormatError naming the offending pixel,
    weights that do not sum to 1 or fall below 1/N included.
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

    models = []
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
            model.check()
        except (ValueError, IndexError, AssertionError) as exc:
            raise ModelFormatError(
                f"pixel {idx} (line {idx + 2}): {exc}", pixel_index=idx) from exc
        models.append(model)

    fit_config = fit_config or FitConfig(history_len=n_hist,
                                         k_max=min(50, n_hist))
    if fit_config.history_len != n_hist:
        fit_config = replace(fit_config, history_len=n_hist,
                             k_max=min(fit_config.k_max, n_hist))
    return PixelGrid(width=width, height=height,
                     state=MixtureState.from_models(models),
                     fit_config=fit_config,
                     adapt_config=adapt_config or AdaptationConfig(),
                     seg_config=seg_config or SegmentationConfig())
