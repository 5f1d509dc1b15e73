"""Background/foreground decision per pixel plus mask post-filtering.

The background posterior follows the unnormalized Bayes form

    p(bg | x) = p(x | bg) * p_bg / (p(x | bg) + p(x | fg))

with a uniform foreground model p(x | fg) = 1/L over the L intensity levels.
The denominator is kept exactly in this form (no prior weighting inside it),
so the posterior lies in [0, p_bg).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .core import MixtureState

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


class MaskFrame(NamedTuple):
    """Binary labels for one frame, optionally with the background
    posterior, both (height, width) arrays as process_frame builds them."""

    labels: np.ndarray                 # uint8, 0=bg 1=fg
    posterior: np.ndarray | None = None  # float64 in [0, p_bg)


def posterior_bg_rows(state: MixtureState, x: np.ndarray,
                      cfg: SegmentationConfig, distances=None) -> np.ndarray:
    """Background posterior of sample x[p] under pixel p's mixture, for
    every pixel of the state at once, in [0, p_bg).

    The densities exp(-0.5 d2) / sqrt(2 pi var) read the squared distances
    d2 of ``state.distances(x)``, or ``distances`` when given; -0.5 d2 has
    the bits of -0.5 (x - mu)^2 / var wherever exp can tell them apart.
    The weighted densities are added column by column in model order, so
    a pixel's sum does not depend on the other pixels; padding adds 0.
    """
    d2 = state.distances(x) if distances is None else distances
    pdf = np.exp(-0.5 * d2) / np.sqrt(2.0 * math.pi * state.variances)
    d = functools.reduce(np.add, (state.weights * pdf).T)
    return cfg.p_bg * d / (d + 1.0 / state.intensity_levels)


def blob_filter(mask: MaskFrame, cfg: SegmentationConfig) -> MaskFrame:
    """Relabel connected foreground blobs smaller than min_blob_area as
    background.  Idempotent; never adds foreground.  Fewer foreground
    pixels than min_blob_area make only small blobs: no labelling pass."""
    labels = np.asarray(mask.labels, dtype=np.uint8)
    if cfg.min_blob_area <= 1:
        return mask._replace(labels=labels.copy())
    foreground = labels == FOREGROUND
    if np.count_nonzero(foreground) < cfg.min_blob_area:
        return mask._replace(labels=np.where(foreground, BACKGROUND, labels))
    structure = _STRUCTURE_8 if cfg.connectivity == 8 else _STRUCTURE_4
    blobs, n_blobs = ndimage.label(foreground, structure=structure)
    areas = np.bincount(blobs.ravel(), minlength=n_blobs + 1)
    small = areas < cfg.min_blob_area
    small[0] = False  # index 0 is the background
    out = labels.copy()
    out[small[blobs]] = BACKGROUND
    return mask._replace(labels=out)
