"""Scalar Gaussian mixture primitives shared by fitting, adaptation and segmentation.

Pixel intensities are modeled as 1-D Gaussian mixtures.  Everything here is
pure and value-like; models are cheap to copy and safe to share read-only
between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma as _scipy_digamma
from scipy.special import erfc

# Smallest variance a component may carry (intensity^2 units).  A component
# trained on identical samples would otherwise collapse to a spike.
VARIANCE_FLOOR = 1e-4

_LOG_2PI = math.log(2.0 * math.pi)


def gaussian_pdf(x, mu, var):
    """Density of N(mu, var) at x.  var must be strictly positive."""
    _check_var(var)
    x = np.asarray(x, dtype=np.float64)
    out = np.exp(-0.5 * (x - mu) ** 2 / var) / np.sqrt(2.0 * np.pi * var)
    return float(out) if out.ndim == 0 else out


def log_gaussian_pdf(x, mu, var):
    """log N(x | mu, var); survives far tails where the density underflows."""
    _check_var(var)
    x = np.asarray(x, dtype=np.float64)
    out = -0.5 * (_LOG_2PI + np.log(var)) - 0.5 * (x - mu) ** 2 / var
    return float(out) if out.ndim == 0 else out


def gaussian_cdf(x, mu, var):
    """Cumulative distribution of N(mu, var) at x, via the complementary
    error function (absolute error below 1e-12 everywhere)."""
    _check_var(var)
    x = np.asarray(x, dtype=np.float64)
    z = (mu - x) / np.sqrt(2.0 * var)
    out = 0.5 * erfc(z)
    return float(out) if out.ndim == 0 else out


def digamma(a):
    """Digamma function for a > 0: scipy.special.digamma behind a domain
    check that raises ValueError for a <= 0 or a non-finite argument."""
    a = np.asarray(a, dtype=np.float64)
    if np.any(a <= 0.0) or not np.all(np.isfinite(a)):
        raise ValueError("digamma requires a > 0")
    out = _scipy_digamma(a)
    return float(out) if out.ndim == 0 else out


@dataclass
class MixtureModel:
    """Per-pixel background model: K weighted Gaussians plus the history
    length N and the intensity quantization L (256 or 65536).

    ``weights``/``means``/``variances`` are parallel lists of floats; keeping
    them as plain lists makes the per-sample streaming path much faster than
    small ndarray indexing.
    """

    weights: list[float]
    means: list[float]
    variances: list[float]
    history_len: int
    intensity_levels: int = 256
    unconverged: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not (len(self.weights) == len(self.means) == len(self.variances)):
            raise ValueError("weights/means/variances length mismatch")
        if len(self.weights) < 1:
            raise ValueError("model needs at least one component")
        if self.history_len < 1:
            raise ValueError("history_len must be positive")
        if self.intensity_levels < 2:
            raise ValueError("intensity_levels must be at least 2")

    @property
    def n_components(self) -> int:
        return len(self.weights)

    def copy(self) -> "MixtureModel":
        return MixtureModel(list(self.weights), list(self.means),
                            list(self.variances), self.history_len,
                            self.intensity_levels, self.unconverged)

    def check(self, tol: float = 1e-9) -> None:
        """Assert the maintenance invariants: weights sum to 1 and every
        surviving weight is at least 1/N."""
        s = math.fsum(self.weights)
        if abs(s - 1.0) > tol:
            raise AssertionError(f"weights sum to {s}, expected 1")
        lo = 1.0 / self.history_len
        if any(w < lo - tol for w in self.weights):
            raise AssertionError("component below the 1/N weight floor survived")


def mixture_density(model: MixtureModel, x):
    """p(x | background): weighted sum of the component densities."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x, dtype=np.float64)
    for w, mu, var in zip(model.weights, model.means, model.variances):
        out = out + w * np.exp(-0.5 * (x - mu) ** 2 / var) / math.sqrt(2.0 * math.pi * var)
    return float(out) if out.ndim == 0 else out


def log_mixture_density(model: MixtureModel, x):
    """log p(x | background) via log-sum-exp; usable deep in 16-bit tails."""
    x = np.asarray(x, dtype=np.float64)
    logs = np.stack([
        math.log(w) + log_gaussian_pdf(x, mu, var) if w > 0.0
        else np.full(x.shape, -np.inf)
        for w, mu, var in zip(model.weights, model.means, model.variances)
    ])
    top = np.max(logs, axis=0)
    with np.errstate(invalid="ignore"):
        out = top + np.log(np.sum(np.exp(logs - top), axis=0))
    out = np.where(np.isneginf(top), -np.inf, out)
    return float(out) if out.ndim == 0 else out


# Scalar fast paths for the streaming engine (math.* beats ndarray scalars).

def _pdf_scalar(x: float, mu: float, var: float) -> float:
    return math.exp(-0.5 * (x - mu) * (x - mu) / var) / math.sqrt(2.0 * math.pi * var)


def _logpdf_scalar(x: float, mu: float, var: float) -> float:
    return -0.5 * (_LOG_2PI + math.log(var)) - 0.5 * (x - mu) * (x - mu) / var


def _check_var(var) -> None:
    if np.any(np.asarray(var) <= 0.0):
        raise ValueError("variance must be strictly positive")
