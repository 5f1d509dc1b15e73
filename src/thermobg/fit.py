"""Variational fitting of a per-pixel Gaussian mixture with automatic
component-count selection.

A pixel's history of N samples is clustered with seeded k-means++, then
refined by variational EM over Dirichlet / Gaussian-Gamma factors.  Model
selection works in two layers:

* during training, a component is removed whenever dropping it and letting
  EM re-converge improves the evidence lower bound (the bound is the model
  selection criterion: it approaches BIC for large N, and coordinate ascent
  alone provably stalls in split-mode local optima with the vague priors
  used here);
* after training, components whose mixing coefficient is below 1/N are
  pruned: a surviving component must model at least one observed sample.

``fit_rows`` fits every pixel of a grid at once, in lock-step: each
iteration runs one E and one M step for every pixel still fitting, whatever
segment (shaping EM, a trial removal, final EM) the pixel is in, and each
pixel keeps its own schedule.  Three choices carry its speed:

* the bound is computed only where it is read, at the end of a segment;
* EM runs over a pixel's distinct sample values with their counts, which
  integer frames make few (k-means++ still draws over the samples in their
  order, so it picks the same centres);
* every sum runs in index order (``_seq_sum``), so the zeros that pad a
  block to its widest pixel leave each pixel's result unchanged: a pixel's
  model does not depend on which pixels share its block.

``fit``, ``e_step``, ``m_step``, ``elbo``, ``kmeanspp_init`` and
``VariationalPosterior.drop`` are the one-pixel case of the same code.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .core import VARIANCE_FLOOR, MixtureModel, MixtureState, digamma

# Effective counts below this are treated as an empty component; its
# posterior then reverts to the prior.
_EMPTY_COUNT = 1e-12

# Death-move schedule: shaping iterations before the first removal attempt,
# warm iterations used to score a trial removal, candidates tried per round,
# and the minimum bound improvement that accepts a removal.
_SHAPE_ITERS = 15
_TRIAL_ITERS = 12
_TRIAL_CANDIDATES = 3
_ACCEPT_MARGIN = 1e-6

# Largest (levels x components x pixels) temporary of one pass, in
# elements, and the pixels fitted together, which bounds the
# (components x pixels) state.
_PASS_ELEMENTS = 1 << 15
_BLOCK_ROWS = 1024

_LOG_2PI = np.log(2.0 * np.pi)

# Segments of a pixel's fit.
_SHAPE, _DEAD, _CANDIDATE, _FINAL, _DONE = range(5)


@dataclass(frozen=True)
class Priors:
    """Hyperparameters of the Dirichlet and Gaussian-Gamma priors; a field
    may hold one value per pixel."""

    lambda0: float
    m0: float
    beta0: float
    a0: float
    b0: float
    degenerate: bool = False  # set when the training data had zero variance

    def __post_init__(self):
        for name in ("lambda0", "beta0", "a0", "b0"):
            if not np.all(np.asarray(getattr(self, name)) > 0.0):
                raise ValueError(f"prior {name} must be strictly positive")

    def take(self, rows) -> "Priors":
        """The priors of the given pixels, for per-pixel m0 and beta0."""
        return dataclasses.replace(self, m0=self.m0[rows],
                                   beta0=self.beta0[rows],
                                   degenerate=self.degenerate[rows])


@dataclass
class FitConfig:
    k_max: int = 50
    history_len: int = 100
    max_iters: int = 100
    rel_tol: float = 1e-5
    rng_seed: int = 0

    def __post_init__(self):
        if self.k_max < 1 or self.history_len < 1 or self.max_iters < 1:
            raise ValueError("k_max, history_len and max_iters must be positive")
        if self.k_max > self.history_len:
            raise ValueError("k_max must not exceed history_len")
        if not (self.rel_tol > 0.0):
            raise ValueError("rel_tol must be positive")


@dataclass
class VariationalPosterior:
    """Per-component hyperparameters plus the responsibilities and the
    weighted statistics they were computed from.

    For one pixel the component fields are (K,) and ``resp`` is (N, K); for
    a block of P pixels they are (K, P) and (L, K, P), over each pixel's L
    sample values.
    """

    lambda_: np.ndarray  # Dirichlet parameters, N_k + lambda0
    m: np.ndarray        # posterior means
    beta: np.ndarray     # mean-precision scale
    a: np.ndarray        # Gamma shape
    b: np.ndarray        # Gamma rate
    resp: np.ndarray | None = None  # responsibilities, rows sum to 1
    Nk: np.ndarray | None = None    # effective counts
    xbar: np.ndarray | None = None  # responsibility-weighted means
    sigma: np.ndarray | None = None  # responsibility-weighted scatter

    @property
    def n_components(self) -> int:
        return self.lambda_.shape[0]

    def drop(self, indices) -> "VariationalPosterior":
        keep = np.ones(self.n_components, dtype=bool)
        keep[np.asarray(indices, dtype=int)] = False
        if not keep.any():
            raise ValueError("cannot drop every component")
        order = _kept_first(keep[:, None])[:, 0]
        k = int(keep.sum())
        moved = {name: getattr(self, name)[order][:k] for name in _FIELDS
                 if getattr(self, name) is not None}
        if self.resp is not None:
            moved["resp"] = self.resp[:, order][:, :k]
        return dataclasses.replace(self, **moved)


# The fields of VariationalPosterior indexed by component first.
_FIELDS = ("lambda_", "m", "beta", "a", "b", "Nk", "xbar", "sigma")
_PARAMS = ("lambda_", "m", "beta", "a", "b")  # what an E step reads
_STATE = _PARAMS + ("Nk",)  # what a fit carries


@dataclass
class FitResult:
    model: MixtureModel
    converged: bool
    n_iters: int                 # iterations of the final EM phase
    total_iters: int             # all EM iterations on the accepted path
    # the bound at the end of each accepted segment, one value per segment
    elbo_segments: list[list[float]] = field(default_factory=list)
    em_iters: int = 0            # all EM iterations, rejected trials included
    death_trials: int = 0        # trial removals scored
    death_accepts: int = 0       # trial removals accepted


@dataclass
class FitRows:
    """The fitted models of a block of pixels, with per-pixel counts."""

    state: MixtureState
    converged: np.ndarray      # (P,) bool
    em_iters: np.ndarray       # (P,) EM iterations, rejected trials included
    death_trials: np.ndarray   # (P,) trial removals scored
    death_accepts: np.ndarray  # (P,) trial removals accepted


def default_priors(data) -> Priors:
    """Uninformative priors derived from the sample statistics.

    lambda0 = 1 keeps the Dirichlet flat; a0 = b0 = 1e-3 lets the data
    dominate the Gamma posterior; m0 is the sample mean and beta0 = b0/(a0*v0)
    with v0 the sample variance.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.size == 0:
        raise ValueError("default_priors requires nonempty data")
    rows = priors_rows(data.reshape(1, -1))
    return dataclasses.replace(rows, m0=float(rows.m0[0]),
                               beta0=float(rows.beta0[0]),
                               degenerate=bool(rows.degenerate[0]))


def priors_rows(samples) -> Priors:
    """default_priors of each row of a (P, N) array, as per-pixel fields."""
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    m0 = samples.mean(axis=1)
    v0 = samples.var(axis=1)
    degenerate = v0 <= 0.0
    v0 = np.where(degenerate, VARIANCE_FLOOR, v0)
    a0 = 1e-3
    b0 = 1e-3
    return Priors(lambda0=1.0, m0=m0, beta0=b0 / (a0 * v0), a0=a0, b0=b0,
                  degenerate=degenerate)


@dataclass
class KMeansInit:
    """Hard partition and the derived initial model state."""

    assignments: np.ndarray  # (N,) cluster index per sample
    counts: np.ndarray       # (K,) samples per surviving cluster
    centers: np.ndarray      # (K,) cluster means
    variances: np.ndarray    # (K,) cluster variances, floored
    weights: np.ndarray      # (K,) counts / N
    lambda_: np.ndarray      # (K,) N * weight + lambda0
    tau: np.ndarray          # (K,) inverse cluster variances

    @property
    def n_clusters(self) -> int:
        return self.centers.shape[0]


def kmeanspp_init(data, k_max: int, seed, lambda0: float = 1.0) -> KMeansInit:
    """Seeded k-means++ partition of 1-D data into at most k_max clusters.

    Empty clusters are dropped.  Deterministic for a fixed seed.
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.size
    if not (1 <= k_max <= n):
        raise ValueError("need 1 <= k_max <= len(data)")
    assign, centers, n_clusters = kmeanspp_rows(data[None, :], k_max, [seed])
    assign = assign[0]
    centers = centers[:n_clusters[0], 0]
    counts = np.bincount(assign, minlength=centers.size)
    scatter = np.bincount(assign, (data - centers[assign]) ** 2,
                          minlength=centers.size)
    variances = np.maximum(scatter / counts, VARIANCE_FLOOR)
    weights = counts / n
    return KMeansInit(
        assignments=assign,
        counts=counts,
        centers=centers,
        variances=variances,
        weights=weights,
        lambda_=n * weights + lambda0,
        tau=1.0 / variances,
    )


def kmeanspp_rows(samples, k_max: int, seeds):
    """kmeanspp_init of each row of a (P, N) array, row p seeded by
    seeds[p].

    Returns the (P, N) cluster index of every sample, the (C, P) cluster
    centres and the (P,) cluster count of each row; row p's centres are the
    first n_clusters[p].
    """
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    levels = _Levels(samples)
    assign, centres, n_clusters = _kmeanspp(samples, levels, k_max, seeds)
    return levels.per_sample(assign), centres, n_clusters


def e_step(post: VariationalPosterior, data) -> np.ndarray:
    """Recompute responsibilities from the current hyperparameters.

    Works in the log domain with a per-row maximum subtraction, so a row can
    never exponentiate to all zeros.
    """
    data = np.asarray(data, dtype=np.float64)
    resp = e_step_rows(_one_row(post), data[:, None],
                       np.array([post.n_components]))
    return resp[:, :, 0]


def e_step_rows(post: VariationalPosterior, levels, k) -> np.ndarray:
    """e_step for a block: ``post`` holds (K, P) fields of which pixel p
    uses the first k[p]; ``levels`` is (L, P).  Returns (L, K, P)
    responsibilities, 0 for the unused components."""
    active = _active(post.n_components, k)
    ln_w = digamma(post.lambda_) - digamma(_masked_sum(post.lambda_, active))
    ln_tau = digamma(post.a) - np.log(post.b)
    base = np.where(active, ln_w + 0.5 * ln_tau - 0.5 / post.beta, -np.inf)
    ln_rho = levels[:, None, :] - post.m
    ln_rho *= ln_rho
    ln_rho *= post.a / (2.0 * post.b)
    np.subtract(base, ln_rho, out=ln_rho)
    ln_rho -= ln_rho.max(axis=1, keepdims=True)
    resp = np.exp(ln_rho, out=ln_rho)
    denom = _seq_sum(resp, axis=1)
    assert np.all(denom > 0.0), "responsibility row collapsed to zero"
    resp /= denom[:, None, :]
    return resp


def m_step(resp, data, priors: Priors) -> VariationalPosterior:
    """Recompute the variational hyperparameters from fixed responsibilities."""
    resp = np.asarray(resp, dtype=np.float64)
    data = np.asarray(data, dtype=np.float64)
    post = m_step_rows(resp[:, :, None], data[:, None],
                       np.ones((data.size, 1)), priors)
    return _first_row(post)


def m_step_rows(resp, levels, counts, priors: Priors) -> VariationalPosterior:
    """m_step for a block: (L, K, P) responsibilities over (L, P) levels
    seen counts[l, p] times each; ``priors`` may hold per-pixel fields."""
    weighted = resp * counts[:, None, :]
    nk = _seq_sum(weighted, axis=0)
    empty = nk < _EMPTY_COUNT

    safe_nk = np.where(empty, 1.0, nk)
    x = levels[:, None, :]
    term = weighted * x
    xbar = _seq_sum(term, axis=0) / safe_nk
    np.subtract(x, xbar, out=term)
    term *= term
    term *= weighted
    sigma = _seq_sum(term, axis=0) / safe_nk
    # An empty component keeps prior-only values.
    xbar = np.where(empty, priors.m0, xbar)
    sigma = np.where(empty, 0.0, sigma)

    lam = nk + priors.lambda0
    beta = priors.beta0 + nk
    m = (priors.beta0 * priors.m0 + nk * xbar) / beta
    a = priors.a0 + 0.5 * nk
    b = priors.b0 + 0.5 * (nk * sigma
                           + priors.beta0 * nk * (xbar - priors.m0) ** 2
                           / (priors.beta0 + nk))
    return VariationalPosterior(lambda_=lam, m=m, beta=beta, a=a, b=b,
                                resp=resp, Nk=nk, xbar=xbar, sigma=sigma)


def elbo(post: VariationalPosterior, data, priors: Priors) -> float:
    """Mean-field evidence lower bound for the current factors."""
    data = np.asarray(data, dtype=np.float64)
    return float(elbo_rows(_one_row(post), np.ones((data.size, 1)),
                           np.array([post.n_components]), priors)[0])


def elbo_rows(post: VariationalPosterior, counts, k, priors: Priors):
    """elbo of each pixel of a block, as e_step_rows and m_step_rows lay it
    out; returns (P,)."""
    active = _active(post.n_components, k)

    def total(x):
        return _masked_sum(x, active)

    lam, m, beta, a, b = post.lambda_, post.m, post.beta, post.a, post.b
    nk, xbar, sig = post.Nk, post.xbar, post.sigma
    lam_sum = total(lam)
    ln_w = digamma(lam) - digamma(lam_sum)
    ln_tau = digamma(a) - np.log(b)
    e_tau = a / b

    lp_x = 0.5 * total(nk * (ln_tau - _LOG_2PI
                             - e_tau * (sig + (xbar - m) ** 2) - 1.0 / beta))
    lp_z = total(nk * ln_w)
    lp_w = (gammaln(k * priors.lambda0) - k * gammaln(priors.lambda0)
            + (priors.lambda0 - 1.0) * total(ln_w))
    lp_mu_tau = total(
        0.5 * (np.log(priors.beta0 / (2.0 * np.pi)) + ln_tau
               - priors.beta0 * (e_tau * (m - priors.m0) ** 2 + 1.0 / beta))
        + priors.a0 * np.log(priors.b0) - gammaln(priors.a0)
        + (priors.a0 - 1.0) * ln_tau - priors.b0 * e_tau
    )

    resp = post.resp
    with np.errstate(divide="ignore", invalid="ignore"):
        rlogr = np.where(resp > 0.0, resp * np.log(resp), 0.0)
    lq_z = total(_seq_sum(rlogr * counts[:, None, :], axis=0))
    lq_w = gammaln(lam_sum) - total(gammaln(lam)) + total((lam - 1.0) * ln_w)
    gamma_entropy = gammaln(a) - (a - 1.0) * digamma(a) - np.log(b) + a
    lq_mu_tau = total(0.5 * ln_tau + 0.5 * np.log(beta / (2.0 * np.pi))
                      - 0.5 - gamma_entropy)

    return lp_x + lp_z + lp_w + lp_mu_tau - lq_z - lq_w - lq_mu_tau


def fit(data, cfg: FitConfig, intensity_levels: int = 256) -> FitResult:
    """Fit a MixtureModel to a pixel history.

    Pipeline: k-means++ partition -> EM shaping -> bound-guided component
    removal -> final EM until the relative change of every posterior mean and
    expected mixing weight drops below cfg.rel_tol -> prune mixing
    coefficients below 1/N -> export point estimates.  Deterministic for
    fixed (data, cfg), and the one-pixel case of fit_rows.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 1 or data.size != cfg.history_len:
        raise ValueError(f"fit expects exactly history_len={cfg.history_len} "
                         f"samples, got {data.size}")
    block = _BlockFit(data[None, :], cfg, [cfg.rng_seed])
    block.run()
    model = block.state(intensity_levels).model(0)
    converged = bool(block.converged[0])
    model.unconverged = not converged
    return FitResult(model=model, converged=converged,
                     n_iters=int(block.final_iters[0]),
                     total_iters=int(block.path_iters[0]),
                     elbo_segments=[[v] for v in block.segment_bounds(0)],
                     em_iters=int(block.em_iters[0]),
                     death_trials=int(block.death_trials[0]),
                     death_accepts=int(block.death_accepts[0]))


def fit_rows(samples, cfg: FitConfig, seeds, intensity_levels: int = 256,
             progress=None) -> FitRows:
    """fit of each row of a (P, N) array, row p's k-means++ seeded by
    seeds[p], with every pixel's model bit-identical to fitting it alone.

    Writes the models straight into a MixtureState.  ``progress(n)`` is
    called as n more pixels finish.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] != cfg.history_len:
        raise ValueError(f"fit_rows expects (pixels, history_len="
                         f"{cfg.history_len}) samples, got {samples.shape}")
    n_pixels = samples.shape[0]
    if len(seeds) != n_pixels:
        raise ValueError("need one seed per pixel")
    state = MixtureState(np.zeros((n_pixels, 1)), np.zeros((n_pixels, 1)),
                         np.ones((n_pixels, 1)), np.ones(n_pixels, np.int64),
                         cfg.history_len, intensity_levels)
    counts = {name: np.zeros(n_pixels, np.int64)
              for name in ("em_iters", "death_trials", "death_accepts")}
    converged = np.zeros(n_pixels, dtype=bool)
    for lo in range(0, n_pixels, _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        block = _BlockFit(samples[rows], cfg, seeds[rows])
        block.run(progress)
        state.put(rows, block.state(intensity_levels))
        converged[rows] = block.converged
        for name, out in counts.items():
            out[rows] = getattr(block, name)
    return FitRows(state=state, converged=converged, **counts)


class _Levels:
    """The distinct values of each row of a (P, N) array, ascending, as
    (L, P) ``values`` seen ``counts`` times; a row with fewer than L values
    is padded with its largest, counted 0 times."""

    def __init__(self, samples):
        n_rows, n = samples.shape
        order = np.argsort(samples, axis=1, kind="stable")
        ordered = np.take_along_axis(samples, order, axis=1)
        new = np.ones((n_rows, n), dtype=bool)
        new[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        slot = np.cumsum(new, axis=1) - 1
        self.n = slot[:, -1] + 1
        width = int(self.n.max())
        self.values = np.repeat(ordered[:, -1:], width, axis=1).T.copy()
        self.values[slot, np.arange(n_rows)[:, None]] = ordered
        flat = (slot * n_rows + np.arange(n_rows)[:, None]).ravel()
        self.counts = np.bincount(flat, minlength=width * n_rows).reshape(
            width, n_rows).astype(np.float64)
        self.index = np.empty_like(slot)  # level of each sample
        np.put_along_axis(self.index, order, slot, axis=1)

    def per_sample(self, per_level):
        """(P, N) values of the samples from an (L, P) array per level."""
        return np.take_along_axis(per_level.T, self.index, axis=1)


def _kmeanspp(samples, levels: _Levels, k_max: int, seeds):
    """k-means++ on each row: the seeding draws over the (P, N) samples,
    Lloyd's iterations run over the levels.  Returns the (L, P) cluster of
    each level, the (C, P) centres and the (P,) cluster counts."""
    n_rows, n = samples.shape
    if not (1 <= k_max <= n):
        raise ValueError("need 1 <= k_max <= len(data)")
    first = np.empty(n_rows, dtype=np.int64)
    draws = np.empty((n_rows, k_max - 1))
    for p, seed in enumerate(seeds):  # each pixel's own generator
        rng = np.random.default_rng(seed)
        first[p] = rng.integers(n)
        draws[p] = rng.random(k_max - 1)

    # Generator.choice(n, p=d2/total) is the first index whose cumulative
    # probability exceeds one uniform draw.
    everyone = np.arange(n_rows)
    centres = np.zeros((k_max, n_rows))
    centres[0] = samples[everyone, first]
    n_centres = np.ones(n_rows, dtype=np.int64)
    d2 = (samples - centres[0][:, None]) ** 2
    for t in range(1, k_max):
        total = d2.sum(axis=1)
        rows = np.flatnonzero((n_centres == t) & (total > 0.0))
        if rows.size == 0:
            break
        cdf = np.cumsum(d2[rows] / total[rows, None], axis=1)
        cdf /= cdf[:, -1:]
        pick = (cdf <= draws[rows, t - 1, None]).sum(axis=1)
        centres[t, rows] = samples[rows, pick]
        n_centres[rows] += 1
        d2[rows] = np.minimum(d2[rows],
                              (samples[rows] - centres[t, rows][:, None]) ** 2)

    values, counts = levels.values, levels.counts
    mass = counts * values
    width = centres.shape[0]
    assign = _nearest(values, centres, n_centres)
    moving = everyone
    for _ in range(100):
        sub = assign[:, moving]
        bins = (sub * moving.size + np.arange(moving.size)).ravel()
        size = width * moving.size
        count = np.bincount(bins, counts[:, moving].ravel(),
                            minlength=size).reshape(width, -1)
        sums = np.bincount(bins, mass[:, moving].ravel(),
                           minlength=size).reshape(width, -1)
        keep = count > 0.0
        means = _take_kept(sums / np.where(keep, count, 1.0), keep)
        kept = keep.sum(axis=0)
        new = _nearest(values[:, moving], means, kept)
        settled = (kept == n_centres[moving]) & np.all(new == sub, axis=0)
        centres[:, moving] = means
        n_centres[moving] = kept
        assign[:, moving] = new
        moving = moving[~settled]
        if moving.size == 0:
            break
    return assign, centres[:int(n_centres.max())], n_centres


def _nearest(values, centres, n_centres):
    """Index of the first nearest of each row's first n_centres centres, per
    (L, P) level."""
    width = centres.shape[0]
    out = np.empty(values.shape, dtype=np.int64)
    step = max(1, _PASS_ELEMENTS // (values.shape[0] * width))
    for lo in range(0, values.shape[1], step):
        cols = slice(lo, lo + step)
        dist = np.abs(values[:, None, cols] - centres[:, cols])
        dist[:, ~_active(width, n_centres[cols])] = np.inf
        out[:, cols] = dist.argmin(axis=1)
    return out


class _BlockFit:
    """The lock-step fit of a block of pixels.

    Every pixel runs fit's schedule as its own state: shaping EM, then
    death-move trials (the components under one sample as a batch, then the
    weakest few one at a time), then final EM.  ``work`` is the posterior
    each pixel iterates on and ``accepted`` the one its last accepted
    segment left; both are (K_cap, P), pixel p using its first ``k[p]`` or
    ``accepted_k[p]`` components in order.
    """

    def __init__(self, samples, cfg: FitConfig, seeds):
        samples = np.ascontiguousarray(samples, dtype=np.float64)
        if not np.all(np.isfinite(samples)):
            raise ValueError("fit samples must be finite")
        n_rows, self.n = samples.shape
        self.cfg = cfg
        self.priors = priors_rows(samples)
        self.levels = _Levels(samples)
        assign, _, self.k = _kmeanspp(samples, self.levels, cfg.k_max, seeds)
        width = int(self.k.max())

        def blank():
            return VariationalPosterior(
                **{name: np.ones((width, n_rows)) for name in _STATE})

        self.work, self.accepted = blank(), blank()
        self.accepted_k = self.k.copy()
        for rows in self._passes(np.arange(n_rows)):
            n_levels = int(self.levels.n[rows].max())
            comps = np.arange(int(self.k[rows].max()))[:, None]
            resp = (assign[:n_levels, rows][:, None, :] == comps).astype(np.float64)
            self._put(rows, m_step_rows(resp, self.levels.values[:n_levels, rows],
                                        self.levels.counts[:n_levels, rows],
                                        self.priors.take(rows)))

        def zeros(dtype=np.int64):
            return np.zeros(n_rows, dtype=dtype)

        self.phase, self.it, self.cap = zeros(), zeros(), zeros()
        self.prev_m = np.zeros((width, n_rows))
        self.prev_w = np.zeros((width, n_rows))
        self.current = zeros(np.float64)
        self.candidates = np.zeros((_TRIAL_CANDIDATES, n_rows), np.int64)
        self.n_candidates, self.tried = zeros(), zeros()
        self.em_iters, self.path_iters, self.final_iters = (zeros(), zeros(),
                                                            zeros())
        self.death_trials, self.death_accepts = zeros(), zeros()
        self.converged = zeros(bool)
        self.bound_rows: list[np.ndarray] = []
        self.bounds: list[np.ndarray] = []
        self._start(np.arange(n_rows), _SHAPE, _SHAPE_ITERS)

    def run(self, progress=None) -> None:
        live = np.arange(self.n_rows)
        while live.size:
            ends = [self._step(rows) for rows in self._passes(live)]
            rows, converged, bound = (np.concatenate(x) for x in zip(*ends))
            if rows.size:
                self._end(rows, converged, bound)
            done = self.phase[live] == _DONE
            if progress is not None and done.any():
                progress(int(done.sum()))
            live = live[~done]

    @property
    def n_rows(self) -> int:
        return self.k.size

    def segment_bounds(self, row: int) -> list[float]:
        """The bound at the end of each of the row's accepted segments."""
        rows, bounds = np.concatenate(self.bound_rows), np.concatenate(self.bounds)
        return bounds[rows == row].tolist()

    def state(self, intensity_levels: int) -> MixtureState:
        """Prune mixing coefficients below 1/N (a kept component models at
        least one sample), renormalize, and export point estimates (the
        posterior mean of tau gives the variance b/a)."""
        post, n = self.work, self.n
        active = _active(post.n_components, self.k)
        keep = active & (post.Nk / n >= 1.0 / n)
        lost = ~keep.any(axis=0)
        if lost.any():
            nk = np.where(active, post.Nk, -np.inf)
            keep[:, lost] = (nk == nk.max(axis=0))[:, lost]
        w = np.where(keep, post.lambda_ / _masked_sum(post.lambda_, active),
                     0.0)
        w /= _seq_sum(w, axis=0)
        variances = np.maximum(post.b / post.a, VARIANCE_FLOOR)
        k = keep.sum(axis=0)
        slots = _active(int(k.max()), k)

        def export(x, pad):
            return np.where(slots, _take_kept(x, keep)[:slots.shape[0]],
                            pad).T.copy()

        return MixtureState(export(w, 0.0), export(post.m, 0.0),
                            export(variances, 1.0), k.astype(np.int64), n,
                            intensity_levels)

    def _passes(self, rows):
        """Split rows into passes whose (levels x components x pixels)
        arrays stay within _PASS_ELEMENTS, grouping rows of similar K."""
        k, n_levels = self.k[rows], self.levels.n[rows]
        order = np.lexsort((-n_levels, -k))
        rows, k, n_levels = rows[order], k[order], n_levels[order]
        start = 0
        while start < rows.size:
            size = (np.arange(1, rows.size - start + 1) * k[start]
                    * np.maximum.accumulate(n_levels[start:]))
            stop = start + max(1, int(np.searchsorted(size, _PASS_ELEMENTS,
                                                      side="right")))
            yield rows[start:stop]
            start = stop

    def _step(self, rows):
        """One E and M step for the rows of a pass; returns the rows whose
        segment ended, whether each converged, and the bound it ended on."""
        n_comp = int(self.k[rows].max())
        n_levels = int(self.levels.n[rows].max())
        values = self.levels.values[:n_levels, rows]
        counts = self.levels.counts[:n_levels, rows]
        k = self.k[rows]
        priors = self.priors.take(rows)
        work = VariationalPosterior(**{
            name: getattr(self.work, name)[:n_comp, rows]
            for name in _PARAMS})
        post = m_step_rows(e_step_rows(work, values, k), values, counts, priors)
        active = _active(n_comp, k)
        w = post.lambda_ / _masked_sum(post.lambda_, active)
        delta = np.maximum(_max_rel_change(self.prev_m[:n_comp, rows], post.m,
                                           active),
                           _max_rel_change(self.prev_w[:n_comp, rows], w,
                                           active))
        self._put(rows, post)
        self.prev_m[:n_comp, rows] = post.m
        self.prev_w[:n_comp, rows] = w
        self.it[rows] += 1
        self.em_iters[rows] += 1
        converged = delta < self.cfg.rel_tol
        end = converged | (self.it[rows] >= self.cap[rows])
        if not end.any():
            return rows[end], converged[end], np.zeros(0)
        ended = VariationalPosterior(
            resp=post.resp[:, :, end],
            **{name: getattr(post, name)[:, end] for name in _FIELDS})
        bound = elbo_rows(ended, counts[:, end], k[end], priors.take(end))
        return rows[end], converged[end], bound

    def _end(self, rows, converged, bound) -> None:
        """Act on the segments that ended this iteration, as fit's schedule
        does: accept or reject trials, start the next segment."""
        phase = self.phase[rows]
        shaped = phase == _SHAPE
        trial = (phase == _DEAD) | (phase == _CANDIDATE)
        won = trial & (bound > self.current[rows] + _ACCEPT_MARGIN)
        self.death_accepts[rows[won]] += 1
        self._accept(rows[shaped | won], bound[shaped | won])
        self._start_round(rows[shaped | won])

        lost = trial & ~won
        self._start_candidates(rows[lost & (phase == _DEAD)])
        missed = rows[lost & (phase == _CANDIDATE)]
        self.tried[missed] += 1
        more = self.tried[missed] < self.n_candidates[missed]
        self._start_candidate(missed[more])
        self._start_final(missed[~more])

        final = phase == _FINAL
        done = rows[final]
        self.converged[done] = converged[final]
        self.final_iters[done] = self.it[done]
        self.path_iters[done] += self.it[done]
        self._log(done, bound[final])
        self.phase[done] = _DONE

    def _accept(self, rows, bound) -> None:
        if not rows.size:
            return
        self.current[rows] = bound
        for name in _STATE:
            getattr(self.accepted, name)[:, rows] = getattr(self.work,
                                                            name)[:, rows]
        self.accepted_k[rows] = self.k[rows]
        self.path_iters[rows] += self.it[rows]
        self._log(rows, bound)

    def _start_round(self, rows) -> None:
        """A death-move round: the components under one sample as a batch
        while others remain, else the weakest candidates; one component
        left goes to the final EM."""
        if not rows.size:
            return
        alone = self.accepted_k[rows] <= 1
        self._start_final(rows[alone])
        rows = rows[~alone]
        k = self.accepted_k[rows]
        dead = (_active(self.accepted.n_components, k)
                & (self.accepted.Nk[:, rows] < 1.0))
        n_dead = dead.sum(axis=0)
        batch = (n_dead > 0) & (k - n_dead >= 1)
        self._start_trial(rows[batch], dead[:, batch], _DEAD)
        self._start_candidates(rows[~batch])

    def _start_candidates(self, rows) -> None:
        if not rows.size:
            return
        k = self.accepted_k[rows]
        key = np.where(_active(self.accepted.n_components, k),
                       self.accepted.Nk[:, rows], np.inf)
        order = np.argsort(key, axis=0, kind="stable")[:_TRIAL_CANDIDATES]
        self.candidates[:order.shape[0], rows] = order
        self.n_candidates[rows] = np.minimum(k, _TRIAL_CANDIDATES)
        self.tried[rows] = 0
        self._start_candidate(rows)

    def _start_candidate(self, rows) -> None:
        if not rows.size:
            return
        index = self.candidates[self.tried[rows], rows]
        drop = np.arange(self.accepted.n_components)[:, None] == index
        self._start_trial(rows, drop, _CANDIDATE)

    def _start_trial(self, rows, drop, phase) -> None:
        """Iterate on the accepted posterior without the dropped components."""
        if not rows.size:
            return
        keep = _active(self.accepted.n_components, self.accepted_k[rows]) & ~drop
        order = _kept_first(keep)
        for name in _PARAMS:
            getattr(self.work, name)[:, rows] = np.take_along_axis(
                getattr(self.accepted, name)[:, rows], order, axis=0)
        self.k[rows] = keep.sum(axis=0)
        self.death_trials[rows] += 1
        self._start(rows, phase, _TRIAL_ITERS)

    def _start_final(self, rows) -> None:
        if not rows.size:
            return
        for name in _PARAMS:
            getattr(self.work, name)[:, rows] = getattr(self.accepted,
                                                        name)[:, rows]
        self.k[rows] = self.accepted_k[rows]
        self._start(rows, _FINAL, self.cfg.max_iters)

    def _start(self, rows, phase, cap) -> None:
        self.phase[rows] = phase
        self.it[rows] = 0
        self.cap[rows] = cap
        lam = self.work.lambda_[:, rows]
        self.prev_m[:, rows] = self.work.m[:, rows]
        self.prev_w[:, rows] = lam / _masked_sum(
            lam, _active(lam.shape[0], self.k[rows]))

    def _put(self, rows, post: VariationalPosterior) -> None:
        n_comp = post.n_components
        for name in _STATE:
            getattr(self.work, name)[:n_comp, rows] = getattr(post, name)

    def _log(self, rows, bound) -> None:
        if rows.size:
            self.bound_rows.append(rows)
            self.bounds.append(bound)


def _seq_sum(x, axis):
    """Sum along ``axis`` in index order.

    numpy's own sum groups terms by the axis length, so zeros padding a
    block to its widest pixel would change the last bits of the others;
    added in order, a trailing zero leaves a sum unchanged.
    """
    if axis:
        x = x.swapaxes(0, axis)
    total = x[0].copy()
    for part in x[1:]:
        total += part
    return total


def _masked_sum(x, active):
    """Sum over components (axis 0) of the active entries, in order."""
    return _seq_sum(np.where(active, x, 0.0), axis=0)


def _active(width: int, k):
    """(width, P) mask of the first k[p] components of each pixel."""
    return np.arange(width)[:, None] < k


def _kept_first(keep):
    """Per column, the indices that move the kept entries to the front in
    their order."""
    return np.argsort(~keep, axis=0, kind="stable")


def _take_kept(x, keep):
    return np.take_along_axis(x, _kept_first(keep), axis=0)


def _max_rel_change(old, new, active):
    """Per pixel, the largest relative change over its active components."""
    change = np.abs(new - old) / np.maximum(np.abs(old), 1e-12)
    return np.where(active, change, 0.0).max(axis=0)


def _one_row(post: VariationalPosterior) -> VariationalPosterior:
    """A one-pixel posterior as a block of one pixel."""
    return dataclasses.replace(post, **{
        name: getattr(post, name)[..., None] for name in _FIELDS + ("resp",)
        if getattr(post, name) is not None})


def _first_row(post: VariationalPosterior) -> VariationalPosterior:
    return dataclasses.replace(post, **{
        name: getattr(post, name)[..., 0] for name in _FIELDS + ("resp",)})
