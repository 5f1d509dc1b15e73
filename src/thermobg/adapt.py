"""Threshold-independent online model update.

A new sample is matched to the closest component by Mahalanobis distance and
then either absorbed by a following-the-leader parameter update, or a new
component is spawned.  The match decision compares the matched component's
density against the probability of observing the sample inside an optimal
+-epsilon neighborhood; the neighborhood term is computed either from a
stored sample pool (exact-history mode) or from the matched component's
cumulative distribution (memory-efficient mode, the default).

Every stage runs on all pixels of a grid at once: the ``*_rows`` functions
take a MixtureState, a SamplePool or the matched components' parameters,
with one sample per pixel, and contain no per-pixel Python loop.  The
per-model functions (match_component, epsilon_star_exact, ..., adapt) and
HistoryPool are the one-pixel case of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .core import _LOG_2PI, VARIANCE_FLOOR, MixtureModel, MixtureState

MODE_EXACT = "exact-history"
MODE_APPROX = "memory-efficient"
_MODE_ALIASES = {
    "exact": MODE_EXACT, "exact-history": MODE_EXACT,
    "approx": MODE_APPROX, "memory-efficient": MODE_APPROX,
}

# epsilon grid points (plus stored samples, in exact-history mode) that one
# vectorised pass holds; larger grids are split into row ranges.  Passes of
# at most 128 KiB float64 temporaries reuse the allocator's heap instead of
# mapping fresh pages: on 16x16 exact-mode frames (about 37000 points) this
# size was faster and kept a lower peak RSS than one pass of 1 << 17.
_CHUNK_POINTS = 1 << 14

# integer samples below this magnitude span less than 2**52, so they, their
# differences and their sums with any eps of the grid are exact in float64
_EXACT_BELOW = 2.0 ** 51

# relative margin by which the eps cut-offs of _capped_length err on the
# side of evaluating more; far above the few-ulp rounding they guard against
_CEILING_MARGIN = 2.0 ** -20
# the cut-off's log bound is clipped here, so exp cannot overflow
_LOG_EPS_CAP = 700.0

# fsum_rows is exact for row sums below 2**51 / K times the smallest weight;
# weights of at least 1/N meet that up to this history length
MAX_HISTORY_LEN = 1 << 25


@dataclass
class AdaptationConfig:
    mode: str = MODE_APPROX
    epsilon_min: int = 1   # >= 1 keeps the spawned variance (4*eps^2 - 1)/12 positive
    epsilon_max_sigmas: float = 6.0
    epsilon_step: int = 1

    def __post_init__(self):
        if self.mode not in _MODE_ALIASES:
            raise ValueError(f"unknown adaptation mode {self.mode!r}")
        self.mode = _MODE_ALIASES[self.mode]
        if self.epsilon_min < 1:
            raise ValueError("epsilon_min must be at least 1")
        if self.epsilon_step < 1:
            raise ValueError("epsilon_step must be at least 1")
        if not (self.epsilon_max_sigmas > 0.0):
            raise ValueError("epsilon_max_sigmas must be positive")


class SamplePool:
    """Ring buffers of the last N samples of each of P pixels
    (exact-history mode only).

    ``pushed[p]`` counts the samples pixel p has received; its stored
    samples are the first ``count[p]`` slots of ``samples[p]``, and its next
    sample goes to slot ``pushed[p] % N``, which once the buffer is full
    holds its oldest sample.
    """

    def __init__(self, n_pixels: int, maxlen: int):
        if maxlen < 1:
            raise ValueError("pool length must be positive")
        self.samples = np.zeros((n_pixels, maxlen))
        self.pushed = np.zeros(n_pixels, dtype=np.int64)

    @classmethod
    def from_history(cls, history, maxlen: int) -> "SamplePool":
        """Pools holding the last ``maxlen`` rows of a (T, P) history."""
        history = np.asarray(history, dtype=np.float64)
        pool = cls(history.shape[1], maxlen)
        kept = history[max(0, history.shape[0] - maxlen):]
        pool.samples[:, :kept.shape[0]] = kept.T
        pool.pushed[:] = kept.shape[0]
        return pool

    @property
    def n_pixels(self) -> int:
        return self.pushed.size

    @property
    def maxlen(self) -> int:
        return self.samples.shape[1]

    @property
    def count(self) -> np.ndarray:
        return np.minimum(self.pushed, self.maxlen)

    def push(self, x) -> None:
        """Store x[p] as pixel p's newest sample, dropping its oldest when
        the buffer is full."""
        self.samples[np.arange(self.n_pixels), self.pushed % self.maxlen] = x
        self.pushed = self.pushed + 1

    def values(self, p: int) -> list[float]:
        """Pixel p's stored samples, oldest first."""
        if self.pushed[p] < self.maxlen:
            return self.samples[p, :self.pushed[p]].tolist()
        return np.roll(self.samples[p], -(self.pushed[p] % self.maxlen)).tolist()

    def take(self, rows) -> "SamplePool":
        """A new pool holding copies of the given pixel rows."""
        pool = SamplePool(0, self.maxlen)
        pool.samples = self.samples[rows]
        pool.pushed = self.pushed[rows]
        return pool

    def put(self, rows, other: "SamplePool") -> None:
        """Overwrite the given pixel rows with the rows of ``other``."""
        self.samples[rows] = other.samples
        self.pushed[rows] = other.pushed


class HistoryPool:
    """Sliding ring buffer of one pixel's last N samples: a one-row
    SamplePool, ``rows``."""

    def __init__(self, values=(), maxlen: int = 100):
        column = np.array([float(v) for v in values]).reshape(-1, 1)
        self.rows = SamplePool.from_history(column, maxlen)

    def push(self, x: float) -> None:
        self.rows.push(float(x))

    @property
    def values(self) -> list[float]:
        return self.rows.values(0)

    @property
    def maxlen(self) -> int:
        return self.rows.maxlen

    def __len__(self) -> int:
        return int(self.rows.count[0])


@dataclass(frozen=True)
class EpsilonResult:
    """Optimal neighborhood half-width and the probability there."""

    epsilon: int
    p: float
    log_p: float


def match_rows(state: MixtureState, x) -> tuple[np.ndarray, np.ndarray]:
    """Per pixel, the index of the component minimizing the Mahalanobis
    distance |x - mu_k| / sigma_k, and that distance squared.  Ties keep
    the lowest index."""
    x = np.asarray(x, dtype=np.float64)[:, None]
    d2 = (x - state.means) * (x - state.means) / state.variances
    d2[np.arange(state.capacity) >= state.k[:, None]] = np.inf
    c = np.argmin(d2, axis=1)
    return c, d2[np.arange(c.size), c]


def match_component(model: MixtureModel, x: float) -> tuple[int, float]:
    """match_rows for one model: the matched index and its distance."""
    c, d2 = match_rows(MixtureState.from_models([model]), [float(x)])
    return int(c[0]), math.sqrt(d2[0])


def epsilon_star_exact_rows(pool: SamplePool, x, cfg: AdaptationConfig,
                            log_density=None
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per pixel, maximize p(x; eps) = (N_eps / N) / (2 eps) over the
    integer eps grid, where N is the pixel's stored sample count and N_eps
    counts its stored samples within +-eps of x.  Returns the arrays
    (eps*, p, log p).

    N_eps counts a sample strictly inside the window in full and a sample
    exactly eps from x as one half.  On integer intensities the closed
    window [x - eps, x + eps] holds 2 eps + 1 levels; halving its two end
    levels leaves exactly 2 eps, the width that the 2 eps normaliser, the
    CDF window of epsilon_star_approx_rows and the spawned uniform variance
    all assume.  The count then equals the histogram mass of
    [x - eps, x + eps] with unit bins, and on continuous data (no sample on
    a boundary) it is the plain count.

    A pixel's grid runs from cfg.epsilon_min to the ceiling of its pool's
    value range; the smallest eps wins ties.  An empty neighborhood
    everywhere, or an empty pool, yields (epsilon_min, 0, -inf).

    A window holds at most all N samples, so p(eps) <= 1 / (2 eps), and
    only a prefix of the grid is evaluated:
    - Branch and bound, for a grid longer than the pool: the k stored
      samples nearest x lie strictly inside the window of the first grid
      eps at least 1 beyond the k-th nearest's distance, so p there is at
      least k / (2 N eps).  The best of these lower bounds q is at most
      the grid's best p, and no eps whose bound 1 / (2 eps) falls short of
      q (_capped_length) is evaluated.  Every result is the full grid's.
    - Given ``log_density``, the matched component's log density
      log f(x) per pixel, the grid also stops at the last eps whose bound
      can reach f(x), and a pixel with no such eps gets
      (epsilon_min, 0, -inf).  adapt_rows matches a pixel when
      log f(x) >= log p(eps*).  If the full grid's eps* lies beyond the
      cut, its p is at most f(x) and so is the prefix's best p: both
      grids match.  Otherwise the prefix holds the same first argmax.  So
      the matched flags are the full grid's, and on every miss so are
      eps*, p and log p.
    """
    x = np.asarray(x, dtype=np.float64)
    eps = np.full(x.size, cfg.epsilon_min, dtype=np.int64)
    p = np.zeros(x.size)
    log_p = np.full(x.size, -np.inf)
    count = pool.count
    filled = np.flatnonzero(count > 0)
    if filled.size == 0:
        return eps, p, log_p
    samples, stored = pool.samples, None
    if count.min() < pool.maxlen:
        stored = np.arange(pool.maxlen) < count[:, None]
        v_max = np.where(stored, samples, -np.inf).max(axis=1)[filled]
        v_min = np.where(stored, samples, np.inf).min(axis=1)[filled]
    else:
        v_max, v_min = samples.max(axis=1), samples.min(axis=1)
    n_eps = np.zeros(x.size, dtype=np.int64)
    top = np.maximum(cfg.epsilon_min, np.ceil(v_max - v_min))
    n_eps[filled] = ((top.astype(np.int64) - cfg.epsilon_min)
                     // cfg.epsilon_step + 1)
    if log_density is not None:
        n_eps = _capped_length(n_eps, 0.0, log_density, cfg)
    long = np.flatnonzero(n_eps > pool.maxlen)
    if long.size:
        q = _window_lower_bound(samples[long], None if stored is None
                                else stored[long], x[long], count[long],
                                n_eps[long], cfg)
        with np.errstate(divide="ignore"):
            n_eps[long] = _capped_length(n_eps[long], 0.0, np.log(q), cfg)

    rows = np.flatnonzero(n_eps > 0)
    for lo, hi in _row_chunks((n_eps + count)[rows], _CHUNK_POINTS):
        r = rows[lo:hi]
        if r[-1] - r[0] == r.size - 1:
            r = slice(r[0], r[-1] + 1)  # a view of the pool, not a copy
        eps[r], p[r] = _exact_chunk(
            samples[r], None if stored is None else stored[r], x[r],
            count[r], n_eps[r], cfg)
    found = p > 0.0
    log_p[found] = np.log(p[found])
    return eps, p, log_p


def _window_lower_bound(samples, stored, x, count, n_eps, cfg):
    """Per row, a lower bound q on the best p(x; eps) of its n_eps-point
    grid: the largest k / (2 N eps_k) over the k for which eps_k, the first
    grid eps at or above 1 + the k-th smallest |v - x|, is on the grid.
    The k nearest samples lie strictly inside that window (below 2**50,
    rounding moves |v - x| and x +- eps by less than 1/2 together), so
    N_eps >= k there.  The computed p there, 0.5 * 2 N_eps over
    N * 2 eps, is then at least the computed q, which divides k by the
    same denominator.  0 where no k qualifies."""
    dist = np.abs(samples - x[:, None])
    if stored is not None:
        dist[~stored] = np.inf
    dist.sort(axis=1)
    steps = np.ceil(np.maximum(dist + 1.0 - cfg.epsilon_min, 0.0)
                    / cfg.epsilon_step)
    on_grid = steps < n_eps[:, None]
    eps_k = np.where(on_grid, cfg.epsilon_min + steps * cfg.epsilon_step, 1.0)
    k = np.arange(1, samples.shape[1] + 1)
    q = k / (count[:, None] * 2.0 * eps_k)
    return np.where(on_grid, q, 0.0).max(axis=1)


def _exact_chunk(samples, stored, x, count, n_eps, cfg):
    """epsilon_star_exact_rows on a range of rows with stored samples:
    (eps*, p) over their first n_eps grid points, from their (rows, N)
    samples; ``stored`` masks the stored ones of partly filled pools (None
    when all are full).

    Twice N_eps at eps = eps_j is the sum over the stored samples v of
    [v <= x + eps] + [v < x + eps] + [v >= x - eps] + [v > x - eps] - 2.
    Each bracket is a step in j.  The steps are binned on the doubled axis
    z = 2 eps, one row of bins per pixel, and summed along it.  In exact
    arithmetic a sample's sum is [|v - x| <= eps] + [|v - x| < eps], with
    steps at z = ceil(2 |v - x|) and floor(2 |v - x|) + 1.  The
    floating-point comparisons agree with that whenever x +- eps and v - x
    are exact, as for integer-valued samples and x below 2**51, or v - x is
    far enough from every integer eps for rounding not to cross it.  The
    four steps of any other sample are located with the floating-point
    comparisons themselves.  "Far enough" is more than 2**-48 times a
    bound on |v| + |x| + eps, well above the rounding of x +- eps and of
    v - x.  When every sample and x are such integers, 2 |v - x| is an
    integer and the second step lies one bin past the first, so one
    histogram H gives both: twice N_eps = H(<= 2 eps) + H(<= 2 eps - 1).
    """
    e0, step = cfg.epsilon_min, cfg.epsilon_step
    eps_top = e0 + (n_eps - 1) * step
    values = samples.reshape(-1) if stored is None else samples[stored]
    bins = 2 * eps_top + 2  # z = 0 .. 2 eps_top, then an overflow bin
    row_first = np.cumsum(bins) - bins
    xv = np.repeat(x, count)
    z_over = np.repeat(bins - 1, count).astype(np.float64)
    t = values - xv
    dist = 2.0 * np.abs(t)
    x_exact = (x == np.floor(x)) & (np.abs(x) < _EXACT_BELOW)
    closed = np.repeat(x_exact, count)
    if x_exact.any():
        closed &= ((values == np.floor(values))
                   & (np.abs(values) < _EXACT_BELOW))
    integer = bool(closed.all())
    if integer:  # the second step is one bin past the first
        steps = [np.minimum(dist, z_over)]
    else:
        steps = [np.minimum(np.ceil(dist), z_over),
                 np.minimum(np.floor(dist) + 1.0, z_over)]
    first = [np.repeat(row_first, count)] * len(steps)

    near = np.empty(0, dtype=np.intp)
    if not integer:
        mag = np.abs(samples).max(axis=1) + np.abs(x) + eps_top
        slack = np.repeat(mag * 2.0 ** -48, count)
        near = np.flatnonzero(~closed & (np.abs(t - np.rint(t)) <= slack))
    twice_less = 0
    if near.size:
        for z in steps:
            z[near] = z_over[near]
        v, xs = values[near], xv[near]
        limit = np.repeat(n_eps, count)[near]
        up = (v - xs - e0) / step     # eps_j < v - x  <=>  j < up
        down = (xs - v - e0) / step   # eps_j < x - v  <=>  j < down

        def grid_at(j):
            return (e0 + j * step).astype(np.float64)

        # [v <= x + eps_j] holds from the first j with x + eps_j < v false
        # on, and so on for the other three brackets
        searches = ((lambda j: xs + grid_at(j) < v, np.ceil(up)),
                    (lambda j: xs + grid_at(j) <= v, np.floor(up) + 1.0),
                    (lambda j: v < xs - grid_at(j), np.ceil(down)),
                    (lambda j: v <= xs - grid_at(j), np.floor(down) + 1.0))
        for holds, guess in searches:
            j = _prefix_length(holds, guess, limit)
            steps.append(np.minimum(2.0 * grid_at(j), z_over[near]))
            first.append(first[0][near])
        # a searched sample's four brackets still carry its -2
        pixel = np.repeat(np.arange(count.size), count)[near]
        twice_less = 2 * np.bincount(pixel, minlength=count.size)

    n_bins = int(bins.sum())
    hist = sum(np.bincount((z + f).astype(np.intp), minlength=n_bins)
               for z, f in zip(steps, first))
    running = np.cumsum(hist)
    before = running[row_first] - hist[row_first] + twice_less
    point_row = np.repeat(np.arange(n_eps.size), n_eps)
    starts = np.cumsum(n_eps) - n_eps
    grid = e0 + (np.arange(point_row.size) - starts[point_row]) * step
    at = row_first[point_row] + 2 * grid
    twice = running[at] - before[point_row]
    if integer:
        twice += running[at - 1] - before[point_row]
    p = 0.5 * twice / (count[point_row] * 2.0 * grid)
    best, p_best = _first_argmax(p, starts, point_row)
    return np.where(p_best > 0.0, grid[best], e0), p_best


def epsilon_star_exact(pool, x: float, cfg: AdaptationConfig) -> EpsilonResult:
    """epsilon_star_exact_rows for one pool, a HistoryPool or a sequence of
    samples, which must not be empty."""
    if not isinstance(pool, HistoryPool):
        values = list(pool)
        pool = HistoryPool(values, maxlen=max(1, len(values)))
    if not len(pool):
        raise ValueError("exact-history pool is empty")
    eps, p, log_p = epsilon_star_exact_rows(pool.rows, [float(x)], cfg)
    return EpsilonResult(int(eps[0]), float(p[0]), float(log_p[0]))


def epsilon_star_approx_rows(w, mu, var, x, cfg: AdaptationConfig,
                             log_density=None
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Memory-efficient neighborhood probability of each pixel's sample x
    via its matched component's (weight w, mean mu, variance var)
    cumulative distribution:

        p~(x; eps) = w * (G(x + eps) - G(x - eps)) / (2 eps)

    maximized over the integer grid up to ceil(epsilon_max_sigmas * sigma).
    Returns the arrays (eps*, p, log p).  Computed in the log domain so
    far-tail samples keep a meaningful value instead of underflowing to
    zero.

    The window's mass is at most 1, so p~(eps) <= w / (2 eps).  Given
    ``log_density``, the matched component's log density log f(x) per
    pixel, the grid stops at the last eps whose bound can reach f(x)
    (_capped_length), and a pixel with no such eps gets
    (epsilon_min, 0, -inf).  As in epsilon_star_exact_rows, the matched
    flags log f(x) >= log p(eps*) are then the full grid's, and on every
    miss so are eps*, p and log p.
    """
    w, mu, var, x = (np.asarray(a, dtype=np.float64) for a in (w, mu, var, x))
    sigma = np.sqrt(var)
    top = np.maximum(cfg.epsilon_min,
                     np.ceil(cfg.epsilon_max_sigmas * sigma)).astype(np.int64)
    n_eps = (top - cfg.epsilon_min) // cfg.epsilon_step + 1
    with np.errstate(divide="ignore"):
        log_w = np.where(w > 0.0, np.log(w), -np.inf)
    if log_density is not None:
        n_eps = _capped_length(n_eps, log_w, log_density, cfg)
    eps = np.full(x.size, cfg.epsilon_min, dtype=np.int64)
    log_p = np.full(x.size, -np.inf)
    live = np.flatnonzero(n_eps > 0)
    for lo, hi in _row_chunks(n_eps[live], _CHUNK_POINTS):
        rows = live[lo:hi]
        eps[rows], log_p[rows] = _approx_chunk(
            log_w[rows], mu[rows], sigma[rows], x[rows], n_eps[rows], cfg)
    p = np.where(log_p > -745.0, np.exp(log_p), 0.0)
    return eps, p, log_p


def _approx_chunk(log_w, mu, sigma, x, n_eps, cfg):
    """epsilon_star_approx_rows on a range of rows: (eps*, log p)."""
    starts = np.cumsum(n_eps) - n_eps
    row = np.repeat(np.arange(n_eps.size), n_eps)
    grid = (cfg.epsilon_min + (np.arange(row.size) - starts[row])
            * cfg.epsilon_step).astype(np.float64)
    xr, mur, sr = x[row], mu[row], sigma[row]
    za = (xr - grid - mur) / sr
    zb = (xr + grid - mur) / sr
    lower = xr <= mur  # keep both endpoints in the lower tail for accuracy
    l_lo = log_ndtr(np.where(lower, za, -zb))
    l_hi = log_ndtr(np.where(lower, zb, -za))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mass = l_hi + np.log1p(-np.exp(np.minimum(l_lo - l_hi, -0.0)))
    log_mass = np.where(l_lo < l_hi, log_mass, -np.inf)
    log_p = log_w[row] + log_mass - np.log(2.0 * grid)

    best, lp = _first_argmax(log_p, starts, row)
    found = lp > -np.inf
    return (np.where(found, grid[best], cfg.epsilon_min).astype(np.int64),
            lp)


def epsilon_star_approx(model: MixtureModel, c: int, x: float,
                        cfg: AdaptationConfig) -> EpsilonResult:
    """epsilon_star_approx_rows for component c of one model."""
    eps, p, log_p = epsilon_star_approx_rows(
        [model.weights[c]], [model.means[c]], [model.variances[c]],
        [float(x)], cfg)
    return EpsilonResult(int(eps[0]), float(p[0]), float(log_p[0]))


def log_density_rows(mu, var, x) -> np.ndarray:
    """Log density of N(mu, var) at x per pixel: the matched component's
    log f(x) that decide_rows compares and the eps searches are cut by."""
    mu, var, x = (np.asarray(a, dtype=np.float64) for a in (mu, var, x))
    return -0.5 * (_LOG_2PI + np.log(var)) - 0.5 * (x - mu) * (x - mu) / var


def decide_rows(log_density, log_p_eps_star) -> np.ndarray:
    """True where the sample is already represented by the model: the
    matched component's density at x (log_density_rows) is at least the
    eps-neighborhood probability.

    The comparison runs in the log domain, so a density that underflows in
    the far tail still loses to a nonzero neighborhood mass.
    """
    return np.asarray(log_density) >= log_p_eps_star


def decide(model: MixtureModel, c: int, x: float, p_eps_star: float,
           log_p_eps_star: float | None = None) -> bool:
    """decide_rows for component c of one model; the log probability is
    taken from p_eps_star when not given."""
    if log_p_eps_star is None:
        log_p_eps_star = math.log(p_eps_star) if p_eps_star > 0.0 else -math.inf
    log_f = log_density_rows([model.means[c]], [model.variances[c]],
                             [float(x)])
    return bool(decide_rows(log_f, log_p_eps_star)[0])


def update_matched_rows(state: MixtureState, rows, c, x) -> None:
    """Following-the-leader update of component c[i] of pixel rows[i] with
    sample x[i], in place.

    All right-hand sides use the pre-update parameter values.  Pruning and
    renormalization are left to prune_renormalize_rows.
    """
    n = state.history_len
    weights = state.weights[rows]
    w_c = weights[np.arange(len(rows)), c]
    denom = w_c * n + 1.0
    one_hot = np.arange(state.capacity) == np.asarray(c)[:, None]
    state.weights[rows] = weights + (one_hot - weights) / n

    mean = state.means[rows, c]
    var = state.variances[rows, c]
    diff = x - mean
    state.means[rows, c] = mean + diff / denom
    var_c = var + w_c * n * diff * diff / (denom * denom) - var / denom
    state.variances[rows, c] = np.maximum(var_c, VARIANCE_FLOOR)


def update_matched(model: MixtureModel, c: int, x: float) -> MixtureModel:
    """update_matched_rows then prune_renormalize_rows for one model:
    afterwards, weights below 1/N are pruned and the remainder
    renormalized."""
    state = MixtureState.from_models([model])
    update_matched_rows(state, [0], [c], [float(x)])
    prune_renormalize_rows(state)
    return state.model(0)


def spawn_rows(state: MixtureState, rows, x, eps_star) -> None:
    """Create a component at each unexplained sample x[i] of pixel rows[i],
    in place.

    The newcomer gets weight 1/N, mean x and the variance of a discrete
    uniform spanning 2*eps_star, ((2 eps)^2 - 1) / 12; existing weights are
    scaled to sum (N-1)/N.  Pruning and renormalization are left to
    prune_renormalize_rows.
    """
    if len(rows) == 0:
        return
    n = state.history_len
    k = state.k[rows]
    state.reserve(int(k.max()) + 1)
    state.weights[rows] *= (n - 1.0) / n
    state.weights[rows, k] = 1.0 / n
    state.means[rows, k] = x
    var_new = ((2.0 * np.asarray(eps_star)) ** 2 - 1.0) / 12.0
    state.variances[rows, k] = np.maximum(var_new, VARIANCE_FLOOR)
    state.k[rows] = k + 1


def spawn_component(model: MixtureModel, x: float, eps_star: int) -> MixtureModel:
    """spawn_rows then prune_renormalize_rows for one model; eps_star must
    be a positive integer."""
    if eps_star < 1:
        raise ValueError("eps_star must be a positive integer")
    state = MixtureState.from_models([model])
    spawn_rows(state, [0], [float(x)], [eps_star])
    prune_renormalize_rows(state)
    return state.model(0)


def prune_renormalize_rows(state: MixtureState) -> None:
    """Drop every component whose weight is below 1/N (a pixel left with
    none keeps its heaviest), move the survivors to the front in model
    order and divide their weights by their exactly rounded sum."""
    n = state.history_len
    if n > MAX_HISTORY_LEN:
        raise ValueError(f"history_len above {MAX_HISTORY_LEN} is not supported")
    kept = state.weights >= 1.0 / n  # padding slots weigh 0
    empty = np.flatnonzero(~kept.any(axis=1))
    if empty.size:  # keep the heaviest component rather than an empty model
        kept[empty, np.argmax(state.weights[empty], axis=1)] = True
    weights = np.where(kept, state.weights, 0.0)
    weights /= fsum_rows(weights)[:, None]

    k = np.count_nonzero(kept, axis=1)
    moved = np.flatnonzero(k != state.k)
    if moved.size:
        order = np.argsort(~kept[moved], axis=1, kind="stable")
        pad = np.arange(state.capacity) >= k[moved][:, None]
        for name, fill in (("means", 0.0), ("variances", 1.0)):
            values = getattr(state, name)
            values[moved] = np.where(
                pad, fill, np.take_along_axis(values[moved], order, axis=1))
        weights[moved] = np.take_along_axis(weights[moved], order, axis=1)
    state.weights = weights
    state.k = k


def fsum_rows(values) -> np.ndarray:
    """Row sums of a nonnegative (P, K) array, each rounded once from the
    exact sum, as math.fsum rounds it.

    Each entry is split at a per-row power of two u, with the row total
    below 2**53 u, into a multiple of u and a remainder below u.  The
    multiples sum exactly, being multiples of u below 2**53 u.  The
    remainders are multiples of the ulp of the row's smallest nonzero entry
    and total less than K u, so they sum exactly when the row total is
    below 2**51 / K times that entry.  One addition of the two exact sums
    is then the correctly rounded total.
    """
    _, exponent = np.frexp(values.sum(axis=1))
    unit = np.ldexp(1.0, exponent - 52)[:, None]
    high = np.floor(values / unit) * unit
    return high.sum(axis=1) + (values - high).sum(axis=1)


def adapt_rows(state: MixtureState, x, cfg: AdaptationConfig,
               pool: SamplePool | None = None) -> np.ndarray:
    """One adaptation step for every pixel of the state, in place: match,
    take the matched component's log density log f(x), evaluate the
    eps-neighborhood probability, decide, then update the matched pixels,
    spawn on the others, and prune and renormalize all.  Returns the
    per-pixel matched flags.

    The decision and the eps search share log f(x): only the eps whose
    bound 1 / (2 eps) (w / (2 eps) in memory-efficient mode) reaches f(x)
    can make a pixel miss, so only those are evaluated.  The matched flags,
    and eps* on every miss, are those of the full grid (see
    epsilon_star_exact_rows), so the models are too.

    Exact-history mode reads the neighborhoods from ``pool`` and pushes x
    into it afterwards; memory-efficient mode needs no stored samples.
    Every x must be finite.
    """
    x = np.asarray(x, dtype=np.float64)
    if cfg.mode == MODE_EXACT and pool is None:
        raise ValueError("exact-history mode requires a sample pool")
    c, _ = match_rows(state, x)
    rows = np.arange(state.n_pixels)
    mean, var = state.means[rows, c], state.variances[rows, c]
    log_f = log_density_rows(mean, var, x)
    if cfg.mode == MODE_EXACT:
        eps, _, log_p = epsilon_star_exact_rows(pool, x, cfg, log_f)
    else:
        eps, _, log_p = epsilon_star_approx_rows(state.weights[rows, c], mean,
                                                 var, x, cfg, log_f)
    matched = decide_rows(log_f, log_p)
    hit = np.flatnonzero(matched)
    miss = np.flatnonzero(~matched)
    update_matched_rows(state, hit, c[hit], x[hit])
    spawn_rows(state, miss, x[miss], eps[miss])
    prune_renormalize_rows(state)
    if cfg.mode == MODE_EXACT:
        pool.push(x)
    return matched


def adapt(model: MixtureModel, x: float, cfg: AdaptationConfig,
          pool: HistoryPool | None = None) -> tuple[MixtureModel, bool]:
    """adapt_rows for one model and a finite sample x; exact-history mode
    reads and feeds ``pool``.  Like adapt_rows it evaluates only the eps
    that can make the sample a miss, and returns the full grid's model and
    matched flag."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"sample must be finite, got {x}")
    if cfg.mode == MODE_EXACT and pool is None:
        raise ValueError("exact-history mode requires a HistoryPool")
    state = MixtureState.from_models([model])
    matched = adapt_rows(state, [x], cfg,
                         pool.rows if cfg.mode == MODE_EXACT else None)
    return state.model(0), bool(matched[0])


def weight_after_matches(w0: float, n: int, t: int) -> float:
    """Closed form of t iterations of the matched-weight update."""
    return 1.0 - (1.0 - w0) * (1.0 - 1.0 / n) ** t


def weight_after_misses(w0: float, n: int, t: int) -> float:
    """Closed form of t iterations of the unmatched-weight decay."""
    return w0 * (1.0 - 1.0 / n) ** t


def _row_chunks(cost, limit: int):
    """Contiguous row ranges (lo, hi) whose summed cost stays within limit;
    a row costing more gets a range of its own."""
    ends = np.cumsum(cost)
    lo = 0
    while lo < ends.size:
        base = ends[lo - 1] if lo else 0
        hi = int(np.searchsorted(ends, base + limit, side="right"))
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def _capped_length(n_eps, log_mass, log_ref, cfg: AdaptationConfig):
    """Per row, how many leading points of an n_eps-point eps grid can have
    a neighborhood probability of at least r = exp(log_ref) when no window
    holds more than m = exp(log_mass): m / (2 eps) >= r needs
    eps <= exp(b) / 2 with b = log m - log r.  A row with none gets 0.

    Rounding.  Each quantity below is computed within a relative error of
    a few units of 2**-53: the exactly rounded additions, multiplications
    and divisions, and numpy's log and exp, which are within a few ulp.
    - Exact mode (m = 1): the computed p(eps) is the rounded quotient of
      the exactly computed N_eps <= N and 2 N eps, so it is at most
      (1 + 2**-53) / (2 eps), and its computed log at most
      -log(2 eps) + 2**-50 (1 + log(2 eps)).
    - Approx mode (m = w): the computed log mass is at most 0 (log_ndtr
      and log1p(-exp(.)) are both <= 0) and rounding is monotone, so the
      computed log p(eps) is at most the rounded log w - log(2 eps), which
      is within 2**-50 (1 + |log w| + log(2 eps)) of the exact value.
    The computed b and exp(b) / 2 carry errors of the same order.  The
    margin 2**-20 (1 + |log m| + |log r|) added to b exceeds all of them
    together more than 2**20-fold, also when log(2 eps) is large: there the
    gap log(2 eps) - b grows as fast as the error term.  So for every eps
    cut off, log p(eps) (the exact log of the computed p in exact mode, the
    computed log p in approx mode) lies below the computed log r by more
    than the few ulp by which a computed log can be off.  Hence the computed
    log of p(eps), or of any p no larger, stays below log r, and p(eps)
    itself below r.  A zero m or r keeps the whole grid.
    """
    with np.errstate(invalid="ignore"):
        margin = _CEILING_MARGIN * (1.0 + np.abs(log_mass) + np.abs(log_ref))
        bound = np.fmin(log_mass - log_ref + margin, _LOG_EPS_CAP)
    half = 0.5 * np.exp(bound)
    length = (np.floor(half) - cfg.epsilon_min) // cfg.epsilon_step + 1
    return np.clip(length, 0, n_eps).astype(np.int64)


def _prefix_length(holds, guess, limit):
    """Per element, the number of leading grid indices j = 0, 1, ... at
    which holds(j) is true, capped at limit.  holds must be true on a
    prefix of the grid; guess is an estimate that is corrected one index at
    a time until both neighbours of the boundary agree with holds."""
    k = np.clip(guess, 0, limit).astype(np.int64)
    while True:
        back = (k > 0) & ~holds(np.maximum(k - 1, 0))
        ahead = (k < limit) & holds(np.minimum(k, limit - 1))
        if not (back.any() or ahead.any()):
            return k
        k += ahead
        k -= back


def _first_argmax(values, starts, row):
    """Per row of a flat ragged array (rows begin at ``starts``, ``row``
    names each entry's row), the flat index of the first maximum and the
    maximum itself."""
    top = np.maximum.reduceat(values, starts)
    hits = np.flatnonzero(values == top[row])
    first = hits[np.flatnonzero(np.diff(row[hits], prepend=-1))]
    return first, top
