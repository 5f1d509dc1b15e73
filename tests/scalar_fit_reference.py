"""The per-pixel variational fit that thermobg.fit.fit_rows replaced,
kept verbatim as the reference the batched fit is tested against
(tests/test_fit_equivalence.py).  Only this docstring and the package import
differ from the original module; nothing in src imports it.

Variational fitting of a per-pixel Gaussian mixture with automatic
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
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from thermobg.core import VARIANCE_FLOOR, MixtureModel, digamma

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


@dataclass(frozen=True)
class Priors:
    """Hyperparameters of the Dirichlet and Gaussian-Gamma priors."""

    lambda0: float
    m0: float
    beta0: float
    a0: float
    b0: float
    degenerate: bool = False  # set when the training data had zero variance

    def __post_init__(self):
        for name in ("lambda0", "beta0", "a0", "b0"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"prior {name} must be strictly positive")


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
    """Per-component hyperparameters plus the responsibility matrix and the
    weighted statistics they were computed from."""

    lambda_: np.ndarray  # (K,) Dirichlet parameters, N_k + lambda0
    m: np.ndarray        # (K,) posterior means
    beta: np.ndarray     # (K,) mean-precision scale
    a: np.ndarray        # (K,) Gamma shape
    b: np.ndarray        # (K,) Gamma rate
    resp: np.ndarray     # (N, K) row-stochastic responsibilities
    Nk: np.ndarray       # (K,) effective counts, resp column sums
    xbar: np.ndarray     # (K,) responsibility-weighted means
    sigma: np.ndarray    # (K,) responsibility-weighted scatter

    @property
    def n_components(self) -> int:
        return self.lambda_.shape[0]

    def expected_weights(self) -> np.ndarray:
        return self.lambda_ / self.lambda_.sum()

    def expected_variances(self) -> np.ndarray:
        return self.b / self.a

    def drop(self, indices) -> "VariationalPosterior":
        keep = np.ones(self.n_components, dtype=bool)
        keep[np.asarray(indices, dtype=int)] = False
        if not keep.any():
            raise ValueError("cannot drop every component")
        return dataclasses.replace(
            self, lambda_=self.lambda_[keep], m=self.m[keep],
            beta=self.beta[keep], a=self.a[keep], b=self.b[keep],
            resp=self.resp[:, keep], Nk=self.Nk[keep],
            xbar=self.xbar[keep], sigma=self.sigma[keep])


@dataclass
class FitResult:
    model: MixtureModel
    posterior: VariationalPosterior
    converged: bool
    n_iters: int                 # iterations of the final EM phase
    total_iters: int             # all EM iterations on the accepted path
    elbo_segments: list[list[float]] = field(default_factory=list)

    @property
    def elbo_trace(self) -> list[float]:
        return [v for seg in self.elbo_segments for v in seg]


def default_priors(data) -> Priors:
    """Uninformative priors derived from the sample statistics.

    lambda0 = 1 keeps the Dirichlet flat; a0 = b0 = 1e-3 lets the data
    dominate the Gamma posterior; m0 is the sample mean and beta0 = b0/(a0*v0)
    with v0 the sample variance.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.size == 0:
        raise ValueError("default_priors requires nonempty data")
    m0 = float(data.mean())
    v0 = float(data.var())
    degenerate = False
    if v0 <= 0.0:
        v0 = VARIANCE_FLOOR
        degenerate = True
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
    rng = np.random.default_rng(seed)

    centers = [float(data[rng.integers(n)])]
    d2 = (data - centers[0]) ** 2
    while len(centers) < k_max:
        total = d2.sum()
        if total <= 0.0:
            break  # every remaining point duplicates a chosen center
        idx = rng.choice(n, p=d2 / total)
        centers.append(float(data[idx]))
        d2 = np.minimum(d2, (data - centers[-1]) ** 2)

    centers = np.asarray(centers)
    assign = np.argmin(np.abs(data[:, None] - centers[None, :]), axis=1)
    for _ in range(100):
        counts = np.bincount(assign, minlength=centers.size)
        keep = counts > 0
        centers = np.array([data[assign == k].mean()
                            for k in np.flatnonzero(keep)])
        new_assign = np.argmin(np.abs(data[:, None] - centers[None, :]), axis=1)
        if keep.all() and np.array_equal(new_assign, assign):
            break
        assign = new_assign

    counts = np.bincount(assign, minlength=centers.size)
    variances = np.array([
        max(float(data[assign == k].var()), VARIANCE_FLOOR)
        for k in range(centers.size)
    ])
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


def e_step(post: VariationalPosterior, data) -> np.ndarray:
    """Recompute responsibilities from the current hyperparameters.

    Works in the log domain with a per-row maximum subtraction, so a row can
    never exponentiate to all zeros.
    """
    data = np.asarray(data, dtype=np.float64)
    ln_w = digamma(post.lambda_) - digamma(post.lambda_.sum())
    ln_tau = digamma(post.a) - np.log(post.b)
    quad = (post.a / (2.0 * post.b))[None, :] * (data[:, None] - post.m[None, :]) ** 2
    ln_rho = ln_w[None, :] + 0.5 * ln_tau[None, :] - quad - (0.5 / post.beta)[None, :]
    ln_rho -= ln_rho.max(axis=1, keepdims=True)
    resp = np.exp(ln_rho)
    denom = resp.sum(axis=1, keepdims=True)
    assert np.all(denom > 0.0), "responsibility row collapsed to zero"
    return resp / denom


def m_step(resp, data, priors: Priors) -> VariationalPosterior:
    """Recompute the variational hyperparameters from fixed responsibilities."""
    resp = np.asarray(resp, dtype=np.float64)
    data = np.asarray(data, dtype=np.float64)
    nk = resp.sum(axis=0)
    empty = nk < _EMPTY_COUNT

    safe_nk = np.where(empty, 1.0, nk)
    xbar = resp.T @ data / safe_nk
    sigma = (resp * (data[:, None] - xbar[None, :]) ** 2).sum(axis=0) / safe_nk
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
    k = post.n_components
    lam, m, beta, a, b = post.lambda_, post.m, post.beta, post.a, post.b
    nk, xbar, sig, resp = post.Nk, post.xbar, post.sigma, post.resp

    ln_w = digamma(lam) - digamma(lam.sum())
    ln_tau = digamma(a) - np.log(b)
    e_tau = a / b

    lp_x = 0.5 * np.sum(nk * (ln_tau - np.log(2.0 * np.pi)
                              - e_tau * (sig + (xbar - m) ** 2)
                              - 1.0 / beta))
    lp_z = np.sum(nk * ln_w)
    lp_w = (gammaln(k * priors.lambda0) - k * gammaln(priors.lambda0)
            + (priors.lambda0 - 1.0) * np.sum(ln_w))
    lp_mu_tau = np.sum(
        0.5 * (np.log(priors.beta0 / (2.0 * np.pi)) + ln_tau
               - priors.beta0 * (e_tau * (m - priors.m0) ** 2 + 1.0 / beta))
        + priors.a0 * np.log(priors.b0) - gammaln(priors.a0)
        + (priors.a0 - 1.0) * ln_tau - priors.b0 * e_tau
    )

    with np.errstate(divide="ignore", invalid="ignore"):
        rlogr = np.where(resp > 0.0, resp * np.log(resp), 0.0)
    lq_z = float(rlogr.sum())
    lq_w = (gammaln(lam.sum()) - np.sum(gammaln(lam))
            + np.sum((lam - 1.0) * ln_w))
    gamma_entropy = gammaln(a) - (a - 1.0) * digamma(a) - np.log(b) + a
    lq_mu_tau = np.sum(0.5 * ln_tau + 0.5 * np.log(beta / (2.0 * np.pi))
                       - 0.5 - gamma_entropy)

    return float(lp_x + lp_z + lp_w + lp_mu_tau - lq_z - lq_w - lq_mu_tau)


def _em_phase(post, data, priors, rel_tol, cap, trace=None):
    """Alternate e/m steps until every posterior mean and expected weight is
    stable to rel_tol, or the iteration cap is reached."""
    prev_m = post.m
    prev_w = post.expected_weights()
    iters = 0
    converged = False
    for iters in range(1, cap + 1):
        resp = e_step(post, data)
        post = m_step(resp, data, priors)
        if trace is not None:
            trace.append(elbo(post, data, priors))
        w = post.expected_weights()
        delta = max(_max_rel_change(prev_m, post.m), _max_rel_change(prev_w, w))
        prev_m, prev_w = post.m, w
        if delta < rel_tol:
            converged = True
            break
    return post, iters, converged


def fit(data, cfg: FitConfig, intensity_levels: int = 256) -> FitResult:
    """Fit a MixtureModel to a pixel history.

    Pipeline: k-means++ partition -> EM shaping -> bound-guided component
    removal -> final EM until the relative change of every posterior mean and
    expected mixing weight drops below cfg.rel_tol -> prune mixing
    coefficients below 1/N -> export point estimates.  Deterministic for
    fixed (data, cfg).
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.size
    if n != cfg.history_len:
        raise ValueError(f"fit expects exactly history_len={cfg.history_len} "
                         f"samples, got {n}")

    priors = default_priors(data)
    init = kmeanspp_init(data, cfg.k_max, cfg.rng_seed, priors.lambda0)
    resp = np.zeros((n, init.n_clusters))
    resp[np.arange(n), init.assignments] = 1.0
    post = m_step(resp, data, priors)

    segments: list[list[float]] = []
    total = 0

    seg: list[float] = []
    post, iters, early = _em_phase(post, data, priors, cfg.rel_tol,
                                   _SHAPE_ITERS, seg)
    segments.append(seg)
    total += iters

    post, moves, move_iters = _death_moves(post, data, priors, cfg.rel_tol,
                                           segments)
    total += move_iters

    seg = []
    post, final_iters, converged = _em_phase(post, data, priors, cfg.rel_tol,
                                             cfg.max_iters, seg)
    segments.append(seg)
    total += final_iters

    model = _export_model(post, n, intensity_levels)
    model.unconverged = not converged
    return FitResult(model=model, posterior=post, converged=converged,
                     n_iters=final_iters, total_iters=total,
                     elbo_segments=segments)


def _death_moves(post, data, priors, rel_tol, segments):
    """Remove components while doing so improves the variational bound.

    Candidates are tried weakest-first (smallest effective count); a trial
    removal is scored after a short warm EM and accepted only if the bound
    improves.  Components carrying less than one sample are first tried as a
    single batch, which keeps histories with a large k_max cheap.
    """
    current = elbo(post, data, priors)
    moves = 0
    iters = 0
    while post.n_components > 1:
        accepted = False

        dead = np.flatnonzero(post.Nk < 1.0)
        if dead.size and post.n_components - dead.size >= 1:
            trial, seg, it = _score_removal(post, dead, data, priors, rel_tol)
            if seg and seg[-1] > current + _ACCEPT_MARGIN:
                post, current = trial, seg[-1]
                segments.append(seg)
                iters += it
                moves += dead.size
                continue

        order = np.argsort(post.Nk, kind="stable")
        for k in order[:_TRIAL_CANDIDATES]:
            if post.n_components == 1:
                break
            trial, seg, it = _score_removal(post, [int(k)], data, priors,
                                            rel_tol)
            if seg and seg[-1] > current + _ACCEPT_MARGIN:
                post, current = trial, seg[-1]
                segments.append(seg)
                iters += it
                moves += 1
                accepted = True
                break
        if not accepted:
            break
    return post, moves, iters


def _score_removal(post, indices, data, priors, rel_tol):
    trial = post.drop(indices)
    seg: list[float] = []
    trial, it, _ = _em_phase(trial, data, priors, rel_tol, _TRIAL_ITERS, seg)
    return trial, seg, it


def _max_rel_change(old: np.ndarray, new: np.ndarray) -> float:
    if old.shape != new.shape:
        return np.inf
    return float(np.max(np.abs(new - old) / np.maximum(np.abs(old), 1e-12)))


def _export_model(post: VariationalPosterior, n: int,
                  intensity_levels: int) -> MixtureModel:
    """Prune mixing coefficients below 1/N (a kept component models at least
    one sample), renormalize, and export point estimates (posterior mean of
    tau gives the variance b/a)."""
    share = post.Nk / n
    keep = share >= 1.0 / n
    if not keep.any():
        keep = post.Nk == post.Nk.max()
    w = post.expected_weights()[keep]
    w = w / w.sum()
    means = post.m[keep]
    variances = np.maximum(post.expected_variances()[keep], VARIANCE_FLOOR)
    return MixtureModel(weights=[float(x) for x in w],
                        means=[float(x) for x in means],
                        variances=[float(x) for x in variances],
                        history_len=n,
                        intensity_levels=intensity_levels)
