"""Gaussian mixture primitives shared by fitting, adaptation and segmentation.

Pixel intensities are modeled as 1-D Gaussian mixtures.  A single pixel's
model is the value-like MixtureModel; a whole grid's models live in one
MixtureState, a structure of arrays that the streaming stages update for all
pixels at once.
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

    ``weights``/``means``/``variances`` are parallel lists of floats.  Every
    field must be finite and every variance positive.
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
        fields = (*self.weights, *self.means, *self.variances)
        if not all(map(math.isfinite, fields)):
            raise ValueError("weights, means and variances must be finite")
        if any(v <= 0.0 for v in self.variances):
            raise ValueError("variances must be strictly positive")

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


@dataclass
class MixtureState:
    """The mixtures of a whole pixel grid as a structure of arrays.

    Row p of the (P, K_cap) ``weights``, ``means`` and ``variances`` holds
    pixel p's ``k[p]`` components in model order, followed by padding slots
    with weight 0, mean 0 and variance 1.  K_cap grows when a pixel needs
    room for another component.  All pixels share the history length N and
    the intensity quantization L.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    k: np.ndarray
    history_len: int
    intensity_levels: int = 256

    @classmethod
    def from_models(cls, models) -> "MixtureState":
        """Stack per-pixel models, which share N and L, into one state."""
        models = list(models)
        if not models:
            raise ValueError("a state needs at least one pixel")
        n, levels = models[0].history_len, models[0].intensity_levels
        if any((m.history_len, m.intensity_levels) != (n, levels)
               for m in models):
            raise ValueError("models disagree on history_len or intensity_levels")
        k = np.array([m.n_components for m in models], dtype=np.int64)
        shape = (len(models), int(k.max()))
        state = cls(np.zeros(shape), np.zeros(shape), np.ones(shape), k, n,
                    levels)
        rows = np.repeat(np.arange(len(models)), k)
        cols = np.arange(rows.size) - np.repeat(np.cumsum(k) - k, k)
        for name in ("weights", "means", "variances"):
            getattr(state, name)[rows, cols] = [
                v for m in models for v in getattr(m, name)]
        return state

    @property
    def n_pixels(self) -> int:
        return self.k.size

    @property
    def capacity(self) -> int:
        return self.weights.shape[1]

    def model(self, i: int) -> MixtureModel:
        """Pixel i's mixture as a MixtureModel (a copy)."""
        k = int(self.k[i])
        return MixtureModel(self.weights[i, :k].tolist(),
                            self.means[i, :k].tolist(),
                            self.variances[i, :k].tolist(),
                            self.history_len, self.intensity_levels)

    def models(self) -> list[MixtureModel]:
        return [self.model(i) for i in range(self.n_pixels)]

    def reserve(self, capacity: int) -> None:
        """Grow K_cap to at least ``capacity`` slots per pixel."""
        extra = capacity - self.capacity
        if extra > 0:
            pad = ((0, 0), (0, extra))
            self.weights = np.pad(self.weights, pad)
            self.means = np.pad(self.means, pad)
            self.variances = np.pad(self.variances, pad, constant_values=1.0)

    def take(self, rows) -> "MixtureState":
        """A new state holding copies of the given pixel rows."""
        return MixtureState(self.weights[rows], self.means[rows],
                            self.variances[rows], self.k[rows],
                            self.history_len, self.intensity_levels)

    def put(self, rows, other: "MixtureState") -> None:
        """Overwrite the given pixel rows with the rows of ``other``."""
        self.reserve(other.capacity)
        cap = other.capacity
        self.weights[rows] = 0.0
        self.means[rows] = 0.0
        self.variances[rows] = 1.0
        self.weights[rows, :cap] = other.weights
        self.means[rows, :cap] = other.means
        self.variances[rows, :cap] = other.variances
        self.k[rows] = other.k


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


def _check_var(var) -> None:
    if np.any(np.asarray(var) <= 0.0):
        raise ValueError("variance must be strictly positive")
