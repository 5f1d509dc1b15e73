"""The scalar per-pixel classify-and-adapt path, verbatim from before the
pixel state became structure-of-arrays.  It is the oracle the equivalence
tests stream grids through, pixel by pixel; the package never imports it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from thermobg.core import VARIANCE_FLOOR, MixtureModel

_LOG_2PI = math.log(2.0 * math.pi)

# the eps grid, which a configuration set before it was fixed
EPSILON_MIN, EPSILON_STEP, EPSILON_MAX_SIGMAS = 1, 1, 6.0


def _pdf_scalar(x: float, mu: float, var: float) -> float:
    return math.exp(-0.5 * (x - mu) * (x - mu) / var) / math.sqrt(2.0 * math.pi * var)


def _logpdf_scalar(x: float, mu: float, var: float) -> float:
    return -0.5 * (_LOG_2PI + math.log(var)) - 0.5 * (x - mu) * (x - mu) / var


def posterior_bg(model: MixtureModel, x: float, cfg: SegmentationConfig) -> float:
    """Background posterior for one sample, in [0, 1].

    The streaming engine classifies every pixel through this function.  The
    density is summed component by component in model order with scalar
    math, so the result does not depend on numpy's vectorised rounding.
    """
    d = 0.0
    for w, mu, var in zip(model.weights, model.means, model.variances):
        d += w * _pdf_scalar(x, mu, var)
    p = cfg.p_bg * d / (d + 1.0 / model.intensity_levels)
    return 0.0 if p < 0.0 else (1.0 if p > 1.0 else p)


class HistoryPool:
    """Sliding ring buffer of the last N samples (exact-history mode only)."""

    def __init__(self, values=(), maxlen: int = 100):
        if maxlen < 1:
            raise ValueError("pool length must be positive")
        self._buf = deque((float(v) for v in values), maxlen=maxlen)

    def push(self, x: float) -> None:
        self._buf.append(float(x))

    @property
    def values(self) -> list[float]:
        return list(self._buf)

    @property
    def maxlen(self) -> int:
        return self._buf.maxlen

    def __len__(self) -> int:
        return len(self._buf)


@dataclass(frozen=True)
class EpsilonResult:
    """Optimal neighborhood half-width and the probability there."""

    epsilon: int
    p: float
    log_p: float


def match_component(model: MixtureModel, x: float) -> tuple[int, float]:
    """Index of the component minimizing the Mahalanobis distance
    |x - mu_k| / sigma_k, plus that distance.  Ties keep the lowest index."""
    best = 0
    best_d2 = math.inf
    for k, (mu, var) in enumerate(zip(model.means, model.variances)):
        d2 = (x - mu) * (x - mu) / var
        if d2 < best_d2:
            best = k
            best_d2 = d2
    return best, math.sqrt(best_d2)


def epsilon_star_exact(pool, x: float) -> EpsilonResult:
    """Maximize p(x; eps) = (N_eps / N) / (2 eps) over the integer eps grid,
    where N_eps counts stored samples within +-eps of x.

    N_eps counts a sample strictly inside the window in full and a sample
    exactly eps from x as one half.  On integer intensities the closed
    window [x - eps, x + eps] holds 2 eps + 1 levels; halving its two end
    levels leaves exactly 2 eps, the width that the 2 eps normaliser, the
    CDF window of epsilon_star_approx and the spawned uniform variance all
    assume.  The count then equals the histogram mass of [x - eps, x + eps]
    with unit bins, and on continuous data (no sample on a boundary) it is
    the plain count.

    The grid runs from EPSILON_MIN to the ceiling of the pool's value
    range; the smallest eps wins ties.  An empty neighborhood everywhere
    yields (EPSILON_MIN, 0).
    """
    values = pool.values if isinstance(pool, HistoryPool) else list(pool)
    if not values:
        raise ValueError("exact-history pool is empty")
    arr = np.sort(np.asarray(values, dtype=np.float64))
    n = arr.size
    top = max(EPSILON_MIN, math.ceil(float(arr[-1] - arr[0])))
    grid = np.arange(EPSILON_MIN, top + 1, EPSILON_STEP)
    closed = (np.searchsorted(arr, x + grid, side="right")
              - np.searchsorted(arr, x - grid, side="left"))
    inside = (np.searchsorted(arr, x + grid, side="left")
              - np.searchsorted(arr, x - grid, side="right"))
    counts = 0.5 * (closed + inside)
    p = counts / (n * 2.0 * grid)
    best = int(np.argmax(p))  # first maximum = smallest eps
    if p[best] <= 0.0:
        return EpsilonResult(int(EPSILON_MIN), 0.0, -math.inf)
    return EpsilonResult(int(grid[best]), float(p[best]), math.log(p[best]))


def epsilon_star_approx(model: MixtureModel, c: int,
                        x: float) -> EpsilonResult:
    """Memory-efficient neighborhood probability via the matched component's
    cumulative distribution:

        p~(x; eps) = w_c * (G_c(x + eps) - G_c(x - eps)) / (2 eps)

    maximized over the integer grid up to ceil(EPSILON_MAX_SIGMAS * sigma_c).
    Computed in the log domain so far-tail samples keep a meaningful value
    instead of underflowing to zero.
    """
    w = model.weights[c]
    mu = model.means[c]
    sigma = math.sqrt(model.variances[c])
    top = max(EPSILON_MIN, math.ceil(EPSILON_MAX_SIGMAS * sigma))
    grid = np.arange(EPSILON_MIN, top + 1, EPSILON_STEP, dtype=np.float64)

    za = (x - grid - mu) / sigma
    zb = (x + grid - mu) / sigma
    if x <= mu:  # keep both endpoints in the lower tail for accuracy
        l_lo, l_hi = log_ndtr(za), log_ndtr(zb)
    else:
        l_lo, l_hi = log_ndtr(-zb), log_ndtr(-za)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mass = l_hi + np.log1p(-np.exp(np.minimum(l_lo - l_hi, -0.0)))
    log_mass = np.where(l_lo < l_hi, log_mass, -np.inf)
    log_w = math.log(w) if w > 0.0 else -math.inf
    log_p = log_w + log_mass - np.log(2.0 * grid)

    best = int(np.argmax(log_p))
    lp = float(log_p[best])
    if lp == -math.inf:
        return EpsilonResult(int(EPSILON_MIN), 0.0, -math.inf)
    return EpsilonResult(int(grid[best]), float(math.exp(lp)) if lp > -745.0 else 0.0, lp)


def decide(model: MixtureModel, c: int, x: float, p_eps_star: float,
           log_p_eps_star: float | None = None) -> bool:
    """True when the sample is already represented by the model: the matched
    component's density at x is at least the eps-neighborhood probability.

    The comparison runs in the log domain, so a density that underflows in
    the far tail still loses to a nonzero neighborhood mass.
    """
    if log_p_eps_star is None:
        log_p_eps_star = math.log(p_eps_star) if p_eps_star > 0.0 else -math.inf
    logpdf = _logpdf_scalar(x, model.means[c], model.variances[c])
    return logpdf >= log_p_eps_star


def update_matched(model: MixtureModel, c: int, x: float) -> MixtureModel:
    """Following-the-leader update of the matched component.

    All right-hand sides use the pre-update parameter values.  Afterwards,
    weights below 1/N are pruned and the remainder renormalized.
    """
    n = model.history_len
    w_c = model.weights[c]
    denom = w_c * n + 1.0

    weights = [w + ((1.0 if k == c else 0.0) - w) / n
               for k, w in enumerate(model.weights)]
    means = list(model.means)
    variances = list(model.variances)
    diff = x - means[c]
    means[c] = means[c] + diff / denom
    var_c = variances[c] + w_c * n * diff * diff / (denom * denom) \
        - variances[c] / denom
    variances[c] = max(var_c, VARIANCE_FLOOR)

    return _prune_renormalize(weights, means, variances, model)


def spawn_component(model: MixtureModel, x: float, eps_star: int) -> MixtureModel:
    """Create a component at the unexplained sample.

    The newcomer gets weight 1/N, mean x and the variance of a discrete
    uniform spanning 2*eps_star, ((2 eps)^2 - 1) / 12; existing weights are
    scaled to sum (N-1)/N before the usual prune-and-renormalize pass.
    """
    if eps_star < 1:
        raise ValueError("eps_star must be a positive integer")
    n = model.history_len
    scale = (n - 1.0) / n
    weights = [w * scale for w in model.weights] + [1.0 / n]
    means = list(model.means) + [float(x)]
    var_new = ((2.0 * eps_star) ** 2 - 1.0) / 12.0
    variances = list(model.variances) + [max(var_new, VARIANCE_FLOOR)]
    return _prune_renormalize(weights, means, variances, model)


def adapt(model: MixtureModel, x: float,
          pool: HistoryPool | None = None) -> tuple[MixtureModel, bool]:
    """Match, evaluate the eps-neighborhood probability, decide, update.

    Given a ``pool``, exact-history mode reads the neighborhood from it and
    pushes x into it afterwards; without one, memory-efficient mode needs no
    stored samples.
    """
    x = float(x)
    c, _ = match_component(model, x)
    if pool is not None:
        eps = (epsilon_star_exact(pool, x) if len(pool)
               else EpsilonResult(EPSILON_MIN, 0.0, -math.inf))
    else:
        eps = epsilon_star_approx(model, c, x)

    matched = decide(model, c, x, eps.p, eps.log_p)
    if matched:
        out = update_matched(model, c, x)
    else:
        out = spawn_component(model, x, eps.epsilon)
    if pool is not None:
        pool.push(x)
    return out, matched


def _prune_renormalize(weights, means, variances,
                       model: MixtureModel) -> MixtureModel:
    n = model.history_len
    lo = 1.0 / n
    kept = [(w, m, v) for w, m, v in zip(weights, means, variances) if w >= lo]
    if not kept:  # keep the heaviest component rather than an empty model
        k = max(range(len(weights)), key=lambda i: weights[i])
        kept = [(weights[k], means[k], variances[k])]
    total = math.fsum(w for w, _, _ in kept)
    return MixtureModel(
        weights=[w / total for w, _, _ in kept],
        means=[m for _, m, _ in kept],
        variances=[v for _, _, v in kept],
        history_len=n,
        intensity_levels=model.intensity_levels,
    )


def stream_frame(models, pools, frame, seg_cfg):
    """One frame through the per-pixel loop of the former
    engine.process_frame, on one thread: the raw labels and posteriors;
    ``models`` (and ``pools``, which given select exact-history mode) are
    updated in place."""
    flat = np.asarray(frame, dtype=np.float64).reshape(-1)
    posterior = np.empty(flat.size, dtype=np.float64)
    labels = np.empty(flat.size, dtype=np.uint8)
    for idx in range(flat.size):
        x = flat[idx]
        model = models[idx]
        p = posterior_bg(model, x, seg_cfg)
        posterior[idx] = p
        labels[idx] = 0 if p >= seg_cfg.decision_threshold else 1
        pool = pools[idx] if pools is not None else None
        models[idx], _ = adapt(model, x, pool)
    return labels, posterior
