"""Threshold-independent online model update.

A new sample is matched to the closest component by Mahalanobis distance and
then either absorbed by a following-the-leader parameter update, or a new
component is spawned.  The match decision compares the matched component's
density against the probability of observing the sample inside an optimal
+-epsilon neighborhood; the neighborhood term is computed either from a
stored sample pool (exact-history mode, whenever a SamplePool is given) or
from the matched component's cumulative distribution (memory-efficient mode,
without one).

The neighborhood half-width eps runs over the integers 1 .. top, where top is
at least 1: ceil(EPSILON_MAX_SIGMAS sigma) of the matched component in
memory-efficient mode, the ceiling of the pool's value range in exact mode.
One search (_search) finds eps* in both modes, as the first argmax of a
per-mode window score: log p~ from the CDF in memory-efficient mode, p from
the window's sample count in exact mode.  No window holds more than a mass
m (w, or all N samples), so p(eps) <= m / (2 eps).  Given the matched
component's log f(x), each mode cuts its grid to the eps whose bound can
reach f(x) (_capped_length); a pixel with none left gets eps* = 1, p = 0.
If the full grid's eps* lies beyond the cut, its p is at most f(x), and so
is the prefix's best p: both match.  Otherwise the prefix holds the same
first argmax.  So the matched flags log f(x) >= log p(eps*) are the full
grid's, and on every miss so are eps*, p and log p.

Every stage runs on all pixels of a grid at once: the ``*_rows`` functions
take a MixtureState, a SamplePool or the matched components' parameters,
with one sample per pixel, and contain no per-pixel Python loop.  The
per-model functions (match_component, epsilon_star_exact, ..., adapt) are
the one-pixel case of the same code.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import log_ndtr

from .core import VARIANCE_FLOOR, MixtureModel, MixtureState

_LOG_2PI = math.log(2.0 * math.pi)

# memory-efficient mode's eps grid ends at this many standard deviations
EPSILON_MAX_SIGMAS = 6.0

# bytes of each float64 temporary of one pass of the eps search: a row takes
# 8 per grid point, plus 8 per stored sample slot in exact-history mode, and
# a frame whose rows take more is split into passes of whole rows.  Each
# 16x16 frame of the gray8-exact benchmark takes one pass.
_PASS_BYTES = 1 << 18

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


class SamplePool:
    """Ring buffers of the last N samples of each of P pixels
    (exact-history mode only).

    ``pushed[p]`` counts the samples pixel p has received; its stored
    samples are the first ``count[p]`` slots of ``samples[p]``, and its next
    sample goes to slot ``pushed[p] % N``, which once the buffer is full
    holds its oldest sample.  Slots not yet filled hold NaN, so full and
    partly filled pools are read alike: fmax and fmin skip NaN, a sort puts
    it last, and it fails every comparison.

    ``integral`` holds only if every stored sample is an integer below
    2**51 in magnitude; it picks the exact eps kernel without a rescan.
    A push or put can only clear it, so it may stay False once the last
    non-integer has left, which costs speed, not results: both kernels
    agree on integers.  All three are read-only; only the methods here
    write them, so the flag never claims too much.
    """

    def __init__(self, n_pixels: int, maxlen: int):
        if maxlen < 1:
            raise ValueError("pool length must be positive")
        self._samples = np.full((n_pixels, maxlen), np.nan)
        self._pushed = np.zeros(n_pixels, dtype=np.int64)
        self._integral = True

    @classmethod
    def from_history(cls, history, maxlen: int) -> "SamplePool":
        """Pools holding the last ``maxlen`` rows of a (T, P) history."""
        history = np.asarray(history, dtype=np.float64)
        pool = cls(history.shape[1], maxlen)
        kept = history[max(0, history.shape[0] - maxlen):]
        pool._samples[:, :kept.shape[0]] = kept.T
        pool._pushed[:] = kept.shape[0]
        pool._scan()
        return pool

    @classmethod
    def from_slots(cls, samples, pushed) -> "SamplePool":
        """Pools holding a copy of the (P, N) slots ``samples``, where pixel
        p has received ``pushed[p]`` samples; slots past its count turn NaN."""
        samples = np.asarray(samples, dtype=np.float64)
        pool = cls(*samples.shape)
        pool._pushed[:] = pushed
        stored = np.arange(pool.maxlen) < pool.count[:, None]
        pool._samples[stored] = samples[stored]
        pool._scan()
        return pool

    samples = property(lambda self: _read_only(self._samples))
    pushed = property(lambda self: _read_only(self._pushed))
    integral = property(lambda self: self._integral)

    @property
    def n_pixels(self) -> int:
        return self._pushed.size

    @property
    def maxlen(self) -> int:
        return self._samples.shape[1]

    @property
    def count(self) -> np.ndarray:
        return np.minimum(self._pushed, self.maxlen)

    def _scan(self) -> None:
        """Derive ``integral`` from the stored samples, in ranges of rows
        whose temporaries stay within _PASS_BYTES."""
        count = self.count
        self._integral = not any(
            ((np.arange(self.maxlen) < count[lo:hi, None])
             & _off_grid(self._samples[lo:hi])).any()
            for lo, hi in _row_chunks(np.full(self.n_pixels, self.maxlen),
                                      _PASS_BYTES // 8))

    def push(self, x) -> None:
        """Store x[p] as pixel p's newest sample, dropping its oldest when
        the buffer is full."""
        x = np.asarray(x, dtype=np.float64)
        self._integral = self._integral and not _off_grid(x).any()
        self._samples[np.arange(self.n_pixels), self._pushed % self.maxlen] = x
        self._pushed = self._pushed + 1

    def values(self, p: int) -> list[float]:
        """Pixel p's stored samples, oldest first: the slot after the
        samples dropped so far holds the oldest."""
        n = min(self._pushed[p], self.maxlen)
        return np.roll(self._samples[p], n - self._pushed[p])[:n].tolist()

    def take(self, rows) -> "SamplePool":
        """A new pool holding copies of the given pixel rows."""
        pool = SamplePool(0, self.maxlen)
        pool._samples = self._samples[rows]
        pool._pushed = self._pushed[rows]
        pool._integral = self._integral
        return pool

    def put(self, rows, other: "SamplePool") -> None:
        """Overwrite the given pixel rows with the rows of ``other``."""
        self._samples[rows] = other._samples
        self._pushed[rows] = other._pushed
        self._integral = self._integral and other._integral


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class EpsilonResult:
    """Optimal neighborhood half-width and the probability there."""

    epsilon: int
    p: float
    log_p: float


class Match(NamedTuple):
    """Per pixel, the matched component's index c, its log density log f(x)
    at the pixel's sample, and its weight, mean and variance."""
    c: np.ndarray
    log_f: np.ndarray
    weight: np.ndarray
    mean: np.ndarray
    var: np.ndarray


def match_rows(state: MixtureState, distances) -> Match:
    """Per pixel, the component minimizing the Mahalanobis distance
    |x - mu_k| / sigma_k in ``state.distances(x)``, ties to the lowest
    index, gathered by flat index with its log density (log_density_rows)."""
    c = distances.argmin(axis=1)
    at = np.arange(0, distances.size, state.capacity) + c
    var = state.variances.take(at)
    return Match(c, _log_density(var, distances.take(at)),
                 state.weights.take(at), state.means.take(at), var)


def match_component(model: MixtureModel, x: float) -> tuple[int, float]:
    """match_rows for one model: the matched index and its distance."""
    state = MixtureState.from_models([model])
    d2 = state.distances([float(x)])
    return int(match_rows(state, d2).c[0]), math.sqrt(d2[0].min())


def epsilon_star_exact_rows(pool: SamplePool, x, log_density=-np.inf
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

    A pixel's grid runs from 1 to the ceiling of its pool's value range;
    the smallest eps wins ties.  An empty neighborhood everywhere, or an
    empty pool, yields (1, 0, -inf).  _search finds eps* with _exact_p as
    the window score, and log p is the log of that p.  Since
    p(eps) <= 1 / (2 eps), only a prefix of the grid is evaluated:
    - Branch and bound, for a grid longer than the pool: the k stored
      samples nearest x lie strictly inside the window of the first grid
      eps at least 1 beyond the k-th nearest's distance, so p there is at
      least k / (2 N eps).  The best of these lower bounds q is at most
      the grid's best p, and no eps whose bound 1 / (2 eps) falls short of
      q (_capped_length) is evaluated.  Every result is the full grid's.
    - Given ``log_density``, log f(x) per pixel, the grid is also cut
      at f(x), as the module docstring describes; the default -inf keeps
      the whole grid.
    """
    x = np.asarray(x, dtype=np.float64)
    samples, count = pool.samples, pool.count
    # each pool's extremes, NaN where it is empty; reduceat over the flat
    # rows runs faster than a reduction along axis 1
    flat, first = samples.reshape(-1), np.arange(0, samples.size, pool.maxlen)
    top, bottom = np.fmax.reduceat(flat, first), np.fmin.reduceat(flat, first)
    n_eps = np.where(count > 0, np.maximum(1.0, np.ceil(top - bottom)), 0.0)
    n_eps = _capped_length(n_eps, 0.0, log_density)
    long = (n_eps > pool.maxlen).nonzero()[0]
    if long.size:
        q = _window_lower_bound(samples[long], x[long], count[long],
                                n_eps[long])
        with np.errstate(divide="ignore"):
            n_eps[long] = _capped_length(n_eps[long], 0.0, np.log(q))

    eps, p = _search(n_eps, pool.maxlen, functools.partial(
        _exact_p, samples, x, count, n_eps, _integer_levels(pool, x)), 0.0)
    return eps, p, np.log(p, out=np.full(x.size, -np.inf), where=p > 0.0)


def _integer_levels(pool: SamplePool, x) -> bool:
    """Whether x and all stored samples are integers below _EXACT_BELOW in
    magnitude, as 8- and 16-bit frames deliver them.  Judged on the samples
    themselves, never on |v - x| (see _exact_p), through the pool's
    ``integral`` flag for the stored ones."""
    return pool.integral and not _off_grid(x).any()


def _off_grid(values) -> np.ndarray:
    """Where values are not integers below _EXACT_BELOW in magnitude (NaN
    included: NaN == NaN fails)."""
    return ~((np.floor(values) == values) & (np.abs(values) < _EXACT_BELOW))


def _window_lower_bound(samples, x, count, n_eps):
    """Per row, a lower bound q on the best p(x; eps) of its n_eps-point
    grid: the largest k / (2 N eps_k) over the k for which eps_k, the first
    grid eps at or above 1 + the k-th smallest |v - x|, is on the grid.
    The k nearest samples lie strictly inside that window (below 2**50,
    rounding moves |v - x| and x +- eps by less than 1/2), so
    N_eps >= k there.  The computed p there, 0.5 * 2 N_eps over
    N * 2 eps, is then at least the computed q, which divides k by the
    same denominator.  0 where no k qualifies.  The NaN of an unfilled slot
    sorts last and is never on the grid."""
    dist = np.abs(samples - x[:, None])
    dist.sort(axis=1)
    steps = np.ceil(dist)  # eps_k = 1 + steps
    on_grid = steps < n_eps[:, None]
    eps_k = np.where(on_grid, 1.0 + steps, 1.0)
    k = np.arange(1, samples.shape[1] + 1)
    q = k / (count[:, None] * 2.0 * eps_k)
    return np.where(on_grid, q, 0.0).max(axis=1)


def _exact_p(samples, x, count, n_eps, integer, r, point_row, grid):
    """Exact mode's window score: p(x; eps) at the points of one _search
    pass over the rows r of the (P, N) samples (NaN in unfilled slots), x,
    counts and grid lengths; ``integer`` picks the kernel.

    By definition twice N_eps is the sum over the stored samples v of
    [v <= x + eps] + [v < x + eps] - [v < x - eps] - [v <= x - eps], with
    x +- eps rounded to float64; a NaN slot fails all four comparisons.
    _definition_twice evaluates that.  _integer_twice serves frames whose
    x and stored samples are all integers below 2**51 (_integer_levels):
    x +- eps and |v - x| are then exact, so one histogram of the integer
    distances d gives C(e) = #{d <= e} and twice N_eps = C(eps) + C(eps - 1).
    Integrality is judged on the samples, never on |v - x|: with x = 1 and
    v = 1e-20, fl(x - v) = 1.0 looks like an integer distance, but v lies
    strictly inside the eps = 1 window and counts twice there, where the
    single histogram would count it once.
    """
    if r[-1] - r[0] == r.size - 1:
        r = slice(r[0], r[-1] + 1)  # a view of the pool, not a copy
    samples, x = samples[r], x[r]
    twice = (_integer_twice(samples, x, n_eps[r], point_row) if integer
             else _definition_twice(samples, x, point_row, grid))
    return 0.5 * twice / (count[r][point_row] * 2.0 * grid)


def _integer_twice(samples, x, n_eps, point_row):
    """Twice N_eps at each grid point of integer rows: one bincount of
    d = fmin(|v - x|, n_eps + 1) on the bins 0 .. n_eps + 1 of each row.
    Every slot of a row, NaN included, lands in that row, so the running
    sum before row r is r N, and C(e) of row r is the running sum at its
    bin e less r N.  With n_eps + 2 bins per row, bin eps of the point at
    flat index i lies at i + 2 r + 1.

    The distances are laid out slot by slot, (N, rows), so that bincount
    meets the rows in turn: most samples lie past a short grid, and
    counting a row's samples into its last bin back to back would make
    every increment wait for the one before."""
    bins = n_eps + 2
    row_first = bins.cumsum() - bins
    d = np.subtract(samples.T, x, order="C")
    np.abs(d, out=d)
    np.fmin(d, bins - 1.0, out=d)
    d += row_first
    running = np.bincount(d.astype(np.intp).reshape(-1),
                          minlength=int(bins.sum())).cumsum()
    pairs = running[1:] + running[:-1]  # C(e) + C(e - 1) at bin e - 1
    return pairs[point_row * 2 + np.arange(point_row.size)] \
        - 2 * samples.shape[1] * point_row


def _definition_twice(samples, x, point_row, grid):
    """Twice N_eps at each grid point of any rows by the four comparisons,
    in blocks of slots whose (block, points) temporaries stay within the
    size of the (rows, N) samples, which the pass size already counts."""
    hi, lo = x[point_row] + grid, x[point_row] - grid
    block = max(1, samples.size // point_row.size)
    twice = np.zeros(point_row.size, dtype=np.int64)
    for first in range(0, samples.shape[1], block):
        v = samples.T[first:first + block][:, point_row]
        twice += ((v <= hi).astype(np.int8) + (v < hi) - (v < lo)
                  - (v <= lo)).sum(axis=0)
    return twice


def epsilon_star_exact(samples, x: float) -> EpsilonResult:
    """epsilon_star_exact_rows for one pool, given as its nonempty sequence
    of samples."""
    history = np.asarray(samples, dtype=np.float64).reshape(-1, 1)
    if history.size == 0:
        raise ValueError("exact-history pool is empty")
    pool = SamplePool.from_history(history, history.size)
    eps, p, log_p = epsilon_star_exact_rows(pool, [float(x)])
    return EpsilonResult(int(eps[0]), float(p[0]), float(log_p[0]))


def epsilon_star_approx_rows(w, mu, var, x, log_density=-np.inf
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Memory-efficient neighborhood probability of each pixel's sample x
    via its matched component's (weight w, mean mu, variance var)
    cumulative distribution:

        p~(x; eps) = w * (G(x + eps) - G(x - eps)) / (2 eps)

    maximized over the integer grid 1 .. max(1, ceil(EPSILON_MAX_SIGMAS *
    sigma)).  Returns the arrays (eps*, p, log p).  Computed in the log
    domain so far-tail samples keep a meaningful value instead of
    underflowing to zero.  Each w must be positive (a model's weights are
    at least 1/N): log w is taken as it is.

    _search finds eps* with log p~ as the window score, and p is the exp
    of that log p.  Given ``log_density``, log f(x) per pixel, the grid is
    cut at f(x), as the module docstring describes, with the bound
    p~(eps) <= w / (2 eps); the default -inf keeps the whole grid.
    """
    eps, log_p = _approx_rows(
        *(np.asarray(a, dtype=np.float64) for a in (w, mu, var, x)),
        log_density)
    return eps, np.where(log_p > -745.0, np.exp(log_p), 0.0), log_p


def _approx_rows(w, mu, var, x, log_density):
    """epsilon_star_approx_rows on float64 arrays without p: (eps*, log p)."""
    sigma = np.sqrt(var)
    log_w = np.log(w)
    n_eps = _capped_length(np.maximum(1.0, np.ceil(EPSILON_MAX_SIGMAS * sigma)),
                           log_w, log_density)

    def log_p(r, point_row, grid):
        at = r[point_row]  # each point's pixel
        xr, mur, sr = x[at], mu[at], sigma[at]
        za = (xr - grid - mur) / sr
        zb = (xr + grid - mur) / sr
        lower = xr <= mur  # keep both endpoints in the lower tail for accuracy
        l_lo = log_ndtr(np.where(lower, za, -zb))
        l_hi = log_ndtr(np.where(lower, zb, -za))
        with np.errstate(divide="ignore", invalid="ignore"):  # masked below
            log_mass = l_hi + np.log1p(-np.exp(l_lo - l_hi))
        log_mass = np.where(l_lo < l_hi, log_mass, -np.inf)
        return log_w[at] + log_mass - np.log(2.0 * grid)

    return _search(n_eps, 0, log_p, -np.inf)


def epsilon_star_approx(model: MixtureModel, c: int,
                        x: float) -> EpsilonResult:
    """epsilon_star_approx_rows for component c of one model."""
    eps, p, log_p = epsilon_star_approx_rows(
        [model.weights[c]], [model.means[c]], [model.variances[c]],
        [float(x)])
    return EpsilonResult(int(eps[0]), float(p[0]), float(log_p[0]))


def log_density_rows(mu, var, x) -> np.ndarray:
    """Log density of N(mu, var) at x per pixel: the matched component's
    log f(x) that the decision compares and the eps searches are cut by."""
    mu, var, x = (np.asarray(a, dtype=np.float64) for a in (mu, var, x))
    return _log_density(var, (x - mu) * (x - mu) / var)


def _log_density(var, d2):
    """log N(x; mu, var) from d2 = (x - mu)^2 / var: scaling by 2**-1 is
    exact but for subnormals, so 0.5 d2 is 0.5 (x - mu) (x - mu) / var."""
    return -0.5 * (_LOG_2PI + np.log(var)) - 0.5 * d2


def decide(model: MixtureModel, c: int, x: float, p_eps_star: float,
           log_p_eps_star: float | None = None) -> bool:
    """adapt_rows's decision for component c of one model; the log
    probability is taken from p_eps_star when not given."""
    if log_p_eps_star is None:
        log_p_eps_star = math.log(p_eps_star) if p_eps_star > 0.0 else -math.inf
    log_f = log_density_rows([model.means[c]], [model.variances[c]],
                             [float(x)])
    return bool(log_f[0] >= log_p_eps_star)


def update_rows(state: MixtureState, match: Match, x, matched,
                eps_star) -> None:
    """Update or spawn, in place, for every pixel given its pre-update
    Match, sample x, matched flag and eps* (a positive integer).  A matched
    pixel's weights become w + ([slot is c] - w) / N; with denom = N w_c + 1
    component c gets mean mu + (x - mu) / denom and variance var + N w_c
    (x - mu)^2 / denom^2 - var / denom.  A miss scales the weights by
    (N-1)/N and spawns in padding slot k weight 1/N (the matched expression
    at weight 0), mean x and variance ((2 eps*)^2 - 1) / 12.  Variances are
    floored at VARIANCE_FLOOR.  Both branches run over all pixels and each
    pixel's slot takes its own by flat index; prune_renormalize_rows follows.
    """
    n, k = float(state.history_len), state.k
    grown = k + ~matched  # a miss adds a component
    state.reserve(int(grown.max()))
    cap = state.capacity
    col = np.where(matched, match.c, k)  # the slot each pixel writes
    one_hot = np.arange(cap) == col[:, None]
    w = state.weights
    state.weights = np.where(matched[:, None] | one_hot, w + (one_hot - w) / n,
                             w * ((n - 1.0) / n))

    slot = np.arange(0, k.size * cap, cap) + col
    mean, var, wn = match.mean, match.var, match.weight * n
    denom = wn + 1.0
    diff = x - mean
    state.means.put(slot, np.where(matched, mean + diff / denom, x))
    var_c = var + wn * diff * diff / (denom * denom) - var / denom
    var_new = ((2.0 * eps_star) ** 2 - 1.0) / 12.0
    state.variances.put(slot, np.maximum(np.where(matched, var_c, var_new),
                                         VARIANCE_FLOOR))
    state.k = grown


def update_matched(model: MixtureModel, c: int, x: float) -> MixtureModel:
    """update_rows on a matched sample, then prune_renormalize_rows, for
    one model: afterwards, weights below 1/N are pruned and the remainder
    renormalized."""
    return _update_one(model, c, x, True, 1)


def spawn_component(model: MixtureModel, x: float, eps_star: int) -> MixtureModel:
    """update_rows on a missed sample, then prune_renormalize_rows, for one
    model; eps_star must be a positive integer."""
    if eps_star < 1:
        raise ValueError("eps_star must be a positive integer")
    return _update_one(model, 0, x, False, eps_star)


def _update_one(model, c, x, matched, eps_star) -> MixtureModel:
    """update_rows and prune_renormalize_rows on a one-pixel state of the
    model, with component c as its Match (no log f)."""
    state = MixtureState.from_models([model])
    match = Match(np.array([c]), None, np.array([model.weights[c]]),
                  np.array([model.means[c]]), np.array([model.variances[c]]))
    update_rows(state, match, np.array([float(x)]), np.array([matched]),
                np.array([eps_star]))
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
    k = kept.sum(axis=1)
    if not k.all():  # keep the heaviest component rather than an empty model
        empty = (k == 0).nonzero()[0]
        kept[empty, state.weights[empty].argmax(axis=1)] = True
        k[empty] = 1
    weights = np.where(kept, state.weights, 0.0)
    weights /= fsum_rows(weights)[:, None]

    moved = (k != state.k).nonzero()[0]
    if moved.size:
        order = (~kept[moved]).argsort(axis=1, kind="stable")
        pad = np.arange(state.capacity) >= k[moved][:, None]
        at = (moved[:, None], order)
        state.means[moved] = np.where(pad, 0.0, state.means[at])
        state.variances[moved] = np.where(pad, 1.0, state.variances[at])
        weights[moved] = weights[at]
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
    is then the correctly rounded total.  Every partial sum of either part
    is exact too, so the order of the additions does not matter, and each
    part is summed as a product with a vector of ones.

    The unit is u = 2 spacing(t) for the row total t so computed.  A
    positive normal t lies in [2**(e-1), 2**e) for e = frexp(t)[1], where
    floats are spacing(t) = 2**(e-53) apart, so u = 2**(e-52), which is
    ldexp(1, e - 52).  Then 2**53 u = 2**(e+1) is above 2 t, and 2 t above
    the exact total: t adds K nonnegative terms with K roundings, each
    within a factor 1 + 2**-53.
    """
    ones = np.ones(values.shape[1])
    unit = 2.0 * np.spacing(values @ ones)[:, None]
    high = np.floor(values / unit) * unit
    return high @ ones + (values - high) @ ones


def adapt_rows(state: MixtureState, x, pool: SamplePool | None = None,
               distances=None) -> np.ndarray:
    """One adaptation step for every pixel of the state, in place: match
    and take log f(x) from ``distances``, the pass of state.distances(x)
    (made here if not given), evaluate the eps-neighborhood probability,
    decide, update or spawn, then prune and renormalize.  Returns the
    per-pixel matched flags.

    A sample is matched, already represented by the model, when log f(x)
    is at least log p(eps*): in the log domain a density that underflows in
    the far tail still loses to a nonzero neighborhood mass.  The eps
    search is cut at log f(x), which keeps the full grid's matched flags
    and eps* on every miss (see the module docstring), so its models too.

    Given a ``pool``, the step runs in exact-history mode: it reads the
    neighborhoods from the pool and pushes x into it afterwards.  Without
    one it runs in memory-efficient mode, which needs no stored samples.
    Every x must be finite.
    """
    x = np.asarray(x, dtype=np.float64)
    match = match_rows(state, state.distances(x) if distances is None
                       else distances)
    if pool is not None:
        eps, _, log_p = epsilon_star_exact_rows(pool, x, match.log_f)
    else:
        eps, log_p = _approx_rows(match.weight, match.mean, match.var, x,
                                  match.log_f)
    matched = match.log_f >= log_p
    update_rows(state, match, x, matched, eps)
    prune_renormalize_rows(state)
    if pool is not None:
        pool.push(x)
    return matched


def adapt(model: MixtureModel, x: float,
          pool: SamplePool | None = None) -> tuple[MixtureModel, bool]:
    """adapt_rows for one model and a finite sample x; given ``pool``, a
    one-pixel SamplePool, it runs in exact-history mode and feeds the pool.
    Like adapt_rows it evaluates only the eps that can make the sample a
    miss, and returns the full grid's model and matched flag."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"sample must be finite, got {x}")
    state = MixtureState.from_models([model])
    matched = adapt_rows(state, [x], pool)
    return state.model(0), bool(matched[0])


def _search(n_eps, slots, score, empty):
    """Per row, the first argmax eps* of a window score over the grid
    1 .. n_eps and the score there; (1, empty) where n_eps is 0.  Passes of
    whole rows within _PASS_BYTES (_row_chunks; a row takes a float64 per
    grid point and per one of its ``slots`` stored samples) lay their grids
    end to end and call score(r, point_row, grid): r the pass's row indices,
    point_row each point's row in r, grid each point's eps as float64."""
    eps = np.ones(n_eps.size, dtype=np.int64)
    best = np.full(n_eps.size, empty)
    rows = (n_eps > 0).nonzero()[0]
    lengths = n_eps[rows]
    for lo, hi in _row_chunks(lengths + slots, _PASS_BYTES // 8):
        r, n = rows[lo:hi], lengths[lo:hi]
        point_row = np.arange(n.size).repeat(n)
        starts = n.cumsum() - n
        grid = np.arange(1.0, point_row.size + 1) - starts.repeat(n)
        values = score(r, point_row, grid)
        best[r] = top = np.maximum.reduceat(values, starts)
        hits = (values == top[point_row]).nonzero()[0]
        hit_row = point_row[hits]
        first = np.empty(hits.size, dtype=bool)  # the first hit of its row
        first[0] = True
        np.not_equal(hit_row[1:], hit_row[:-1], out=first[1:])
        eps[r] = grid[hits[first]]
    return eps, best


def _row_chunks(cost, limit: int):
    """Contiguous row ranges (lo, hi) whose summed cost stays within limit;
    a row costing more gets a range of its own."""
    ends = cost.cumsum()
    lo = 0
    while lo < ends.size:
        base = ends[lo - 1] if lo else 0
        hi = max(int(ends.searchsorted(base + limit, side="right")), lo + 1)
        yield lo, hi
        lo = hi


def _capped_length(n_eps, log_mass, log_ref):
    """Per row, how many leading points of an n_eps-point eps grid can have
    a neighborhood probability of at least r = exp(log_ref) when no window
    holds more than m = exp(log_mass): m / (2 eps) >= r needs
    eps <= exp(b) / 2 with b = log m - log r, which on the grid 1, 2, ...
    holds for the first floor(exp(b) / 2) points.  A row with none gets 0.

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
    itself below r.  A zero r keeps the whole grid; m must be positive
    (log m finite), so no NaN arises.
    """
    margin = _CEILING_MARGIN * (1.0 + np.abs(log_mass) + np.abs(log_ref))
    bound = np.fmin(log_mass - log_ref + margin, _LOG_EPS_CAP)
    half = 0.5 * np.exp(bound)
    return np.minimum(half, n_eps).astype(np.int64)  # n_eps is whole: floors
