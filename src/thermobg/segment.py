"""Background/foreground decision per pixel plus mask post-filtering.

The background posterior follows the unnormalized Bayes form

    p(bg | x) = p(x | bg) * p_bg / (p(x | bg) + p(x | fg))

with a uniform foreground model p(x | fg) = 1/L over the L intensity levels.
The denominator is kept exactly in this form (no prior weighting inside it);
the result is clamped to [0, 1] defensively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .core import MixtureModel, MixtureState

BACKGROUND = 0
FOREGROUND = 1

_STRUCTURE_4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_STRUCTURE_8 = np.ones((3, 3), dtype=bool)


@dataclass
class SegmentationConfig:
    p_bg: float = 0.6
    decision_threshold: float = 0.5
    min_blob_area: int = 15
    connectivity: int = 8

    def __post_init__(self):
        if not (0.5 < self.p_bg < 1.0):
            raise ValueError("p_bg must lie in (0.5, 1)")
        if not (0.0 < self.decision_threshold < 1.0):
            raise ValueError("decision_threshold must lie in (0, 1)")
        if self.min_blob_area < 0:
            raise ValueError("min_blob_area must be nonnegative")
        if self.connectivity not in (4, 8):
            raise ValueError("connectivity must be 4 or 8")


@dataclass
class MaskFrame:
    """Binary labels for one frame, optionally with the background posterior."""

    width: int
    height: int
    labels: np.ndarray                 # (height, width) uint8, 0=bg 1=fg
    posterior: np.ndarray | None = None  # (height, width) float64 in [0, 1]

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if self.labels.shape != (self.height, self.width):
            raise ValueError("label array does not match the declared size")
        if self.posterior is not None:
            self.posterior = np.asarray(self.posterior, dtype=np.float64)
            if self.posterior.shape != (self.height, self.width):
                raise ValueError("posterior array does not match the declared size")

    def foreground_count(self) -> int:
        return int(self.labels.sum())


def posterior_bg_rows(state: MixtureState, x: np.ndarray,
                      cfg: SegmentationConfig) -> np.ndarray:
    """Background posterior of sample x[p] under pixel p's mixture, for
    every pixel of the state at once, in [0, 1].

    The density is summed component by component in model order, one
    column at a time, so every pixel's sum rounds the same way whatever the
    other pixels hold.  A padding slot adds weight 0 times a finite density.
    """
    x = np.asarray(x, dtype=np.float64)[:, None]
    var = state.variances
    pdf = np.exp(-0.5 * (x - state.means) * (x - state.means) / var) \
        / np.sqrt(2.0 * math.pi * var)
    terms = state.weights * pdf
    d = np.zeros(state.n_pixels)
    for col in terms.T:
        d += col
    p = cfg.p_bg * d / (d + 1.0 / state.intensity_levels)
    return np.clip(p, 0.0, 1.0)


def posterior_bg(model: MixtureModel, x: float, cfg: SegmentationConfig) -> float:
    """Background posterior for one sample, in [0, 1]: the one-pixel case of
    posterior_bg_rows."""
    state = MixtureState.from_models([model])
    return float(posterior_bg_rows(state, [x], cfg)[0])


def blob_filter(mask: MaskFrame, cfg: SegmentationConfig) -> MaskFrame:
    """Relabel connected foreground blobs smaller than min_blob_area as
    background.  Idempotent; never adds foreground."""
    labels = np.asarray(mask.labels, dtype=np.uint8)
    if cfg.min_blob_area <= 1 or not labels.any():
        return MaskFrame(mask.width, mask.height, labels.copy(), mask.posterior)
    structure = _STRUCTURE_8 if cfg.connectivity == 8 else _STRUCTURE_4
    blobs, n_blobs = ndimage.label(labels == FOREGROUND, structure=structure)
    if n_blobs == 0:
        return MaskFrame(mask.width, mask.height, labels.copy(), mask.posterior)
    areas = np.bincount(blobs.ravel(), minlength=n_blobs + 1)
    small = areas < cfg.min_blob_area
    small[0] = False  # index 0 is the background
    out = labels.copy()
    out[small[blobs]] = BACKGROUND
    return MaskFrame(mask.width, mask.height, out, mask.posterior)
