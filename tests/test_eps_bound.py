"""The bound-pruned eps* searches against the full eps grid.

Given the matched component's log density log f(x), epsilon_star_exact_rows
and epsilon_star_approx_rows evaluate only the eps whose bound 1 / (2 eps)
(w / (2 eps) in approx mode) can reach f(x), and exact mode searches long
grids by branch and bound.  Against the full grid (the scalar reference,
which evaluates every grid point) they must give the same matched flags
log f(x) >= log p(eps*), the same eps*, p and log p on every miss, and never
evaluate more eps points.
"""

import importlib
import math

import numpy as np
import pytest
import scalar_reference as ref

from thermobg.adapt import (AdaptationConfig, SamplePool,
                            epsilon_star_approx_rows, epsilon_star_exact_rows,
                            log_density_rows)
from thermobg.core import MixtureModel

adapt_module = importlib.import_module("thermobg.adapt")
EXACT = AdaptationConfig(mode="exact")
APPROX = AdaptationConfig()
# intensity levels, background mean and sd of each kind of pool
KINDS = {8: (256, 100.0, 3.0), 16: (65536, 30000.0, 8.0),
         "continuous": (None, 100.0, 3.0)}
SEEDS = {8: 8, 16: 16, "continuous": 3}


@pytest.fixture
def points(monkeypatch):
    """Counts the eps points the chunk kernels evaluate."""
    seen = [0]
    exact, approx = adapt_module._exact_chunk, adapt_module._approx_chunk

    def exact_counted(samples, stored, x, count, n_eps, cfg):
        seen[0] += int(np.sum(n_eps))
        return exact(samples, stored, x, count, n_eps, cfg)

    def approx_counted(log_w, mu, sigma, x, n_eps, cfg):
        seen[0] += int(np.sum(n_eps))
        return approx(log_w, mu, sigma, x, n_eps, cfg)

    monkeypatch.setattr(adapt_module, "_exact_chunk", exact_counted)
    monkeypatch.setattr(adapt_module, "_approx_chunk", approx_counted)

    def take():
        n, seen[0] = seen[0], 0
        return n
    return take


def grid_size(top, cfg):
    return len(range(cfg.epsilon_min, max(cfg.epsilon_min, top) + 1,
                     cfg.epsilon_step))


def with_ties(log_f, log_p, bound):
    """log_f, then values on the cut-offs: the full grid's own log p* and
    each row's log bound at an eps of its grid, each one ulp either side."""
    out = [log_f]
    for edge in (log_p, bound):
        edge = np.where(np.isfinite(edge), edge, log_f)
        out += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
    return np.concatenate(out)


def assert_cut_keeps_decisions(full, cut, log_f):
    eps_f, p_f, log_p_f = full
    eps_c, p_c, log_p_c = cut
    matched = log_f >= log_p_f
    assert np.array_equal(log_f >= log_p_c, matched)
    miss = ~matched
    assert miss.any() and matched.any()
    assert np.array_equal(eps_c[miss], eps_f[miss])
    assert np.array_equal(p_c[miss], p_f[miss])
    assert np.array_equal(log_p_c[miss], log_p_f[miss])


def exact_pool(kind, seed, pixels=240, n=40):
    """Pools of integer (8- or 16-bit) or continuous samples with far
    samples at the ends of the range, some partly filled and one empty,
    and samples x near, in the tail of and far from them."""
    levels, base, sd = KINDS[kind]
    rng = np.random.default_rng(seed)
    values = rng.normal(base, sd, (pixels, n))
    far = rng.random((pixels, n)) < 0.04
    top = levels - 1.0 if levels else base + 400.0 * sd
    values[far] = rng.choice([0.0, top], int(far.sum()))
    x = base + sd * rng.normal(0.0, 1.0, pixels) * rng.choice(
        [0.5, 1.0, 3.0, 40.0], pixels)
    x[:pixels // 8] = rng.choice([0.0, top], pixels // 8)
    x[pixels // 8:pixels // 4] = values[pixels // 8:pixels // 4, 0]
    if levels:
        values, x = np.rint(values), np.clip(np.rint(x), 0.0, top)
    pool = SamplePool(pixels, n)
    pool.samples[:] = values
    pool.pushed[:] = rng.choice([n, 3 * n + 1, n // 2, 1], pixels)
    pool.pushed[-1] = 0
    mu = base + sd * rng.normal(0.0, 1.0, pixels)
    var = sd * sd * rng.choice([1e-4, 0.05, 0.5, 1.0, 4.0], pixels)
    return pool, x, log_density_rows(mu, var, x)


def repeat_pool(pool, times):
    """The pool's pixels repeated ``times`` over, in order."""
    out = SamplePool(pool.n_pixels * times, pool.maxlen)
    out.samples[:] = np.tile(pool.samples, (times, 1))
    out.pushed[:] = np.tile(pool.pushed, times)
    return out


class TestExactCut:
    @pytest.mark.parametrize("kind", [8, 16, "continuous"])
    def test_cut_keeps_decisions_and_misses(self, kind, points):
        pool, x, log_f = exact_pool(kind, seed=SEEDS[kind])
        full = epsilon_star_exact_rows(pool, x, EXACT)
        full_points = points()
        count = pool.count
        grid = 0
        for i in range(pool.n_pixels):
            if count[i] == 0:
                assert (full[0][i], full[1][i]) == (EXACT.epsilon_min, 0.0)
                continue
            values = pool.samples[i, :count[i]].tolist()
            want = ref.epsilon_star_exact(values, float(x[i]), EXACT)
            # branch and bound keeps the full grid's eps* and p
            assert (int(full[0][i]), float(full[1][i])) == (want.epsilon, want.p), i
            grid += grid_size(math.ceil(max(values) - min(values)), EXACT)
        assert full_points <= grid

        # the bound at an eps of each grid: 1 / (2 eps) for eps = 1 .. 6
        rows = np.arange(pool.n_pixels)
        bound = -np.log(2.0 * (1 + rows % 6))
        log_refs = with_ties(log_f, full[2], bound)
        times = log_refs.size // pool.n_pixels
        x_all = np.tile(x, times)
        tiled = repeat_pool(pool, times)
        full_all = tuple(np.tile(a, times) for a in full)
        cut = epsilon_star_exact_rows(tiled, x_all, EXACT, log_refs)
        assert points() <= full_points * times
        assert_cut_keeps_decisions(full_all, cut, log_refs)

    # from k = 6 on the grid (2k - 1 points) is longer than the pool of 10
    @pytest.mark.parametrize("k", [1, 2, 5, 6, 40, 1000])
    def test_tie_at_the_cut(self, k):
        # all N samples k - 1/2 from x: the first window holding any is
        # eps = k, with p = 1 / (2 k) exactly the bound there
        n, pixels = 10, 3
        x = np.full(pixels, 5000.0)
        pool = SamplePool(pixels, n)
        pool.samples[:] = x[:, None] + (k - 0.5) * np.where(
            np.arange(n) % 2, 1.0, -1.0)
        pool.pushed[:] = n
        full = epsilon_star_exact_rows(pool, x, EXACT)
        assert full[0].tolist() == [k] * pixels
        tie = full[2][0]
        assert tie == np.log(0.5 * (2.0 * n) / (n * 2.0 * k))
        log_f = np.array([tie, np.nextafter(tie, -np.inf),
                          np.nextafter(tie, np.inf)])
        cut = epsilon_star_exact_rows(pool, x, EXACT, log_f)
        assert (log_f >= cut[2]).tolist() == [True, False, True]
        assert cut[0][1] == k and cut[1][1] == full[1][1]

    def test_far_sample_in_a_sixteen_bit_pool(self, points):
        # one 0 in a 16-bit pool stretches the grid to 30000 points; the
        # window holding the samples nearest x bounds the search
        n, pixels = 30, 4
        rng = np.random.default_rng(3)
        values = np.rint(rng.normal(30000.0, 8.0, (pixels, n)))
        values[:, 0] = 0.0
        pool = SamplePool.from_history(values.T, n)
        x = np.array([30001.0, 30040.0, 29900.0, 0.0])
        full = epsilon_star_exact_rows(pool, x, EXACT)
        assert points() < 2000
        for i in range(pixels):
            want = ref.epsilon_star_exact(values[i].tolist(), x[i], EXACT)
            assert (int(full[0][i]), float(full[1][i])) == (want.epsilon, want.p)

    def test_ceiling_below_epsilon_min_evaluates_nothing(self, points):
        pool = SamplePool.from_history(np.full((5, 2), 10.0), 5)
        # f(x) > 1/2 = the bound at eps = 1: matched with no grid
        eps, p, log_p = epsilon_star_exact_rows(
            pool, [10.0, 10.0], EXACT, np.log([0.6, 0.5]))
        assert points() == 1
        assert (eps[0], p[0], log_p[0]) == (1, 0.0, -np.inf)
        assert (eps[1], p[1]) == (1, 0.5)


class TestApproxCut:
    @pytest.mark.parametrize("kind", [8, 16, "continuous"])
    def test_cut_keeps_decisions_and_misses(self, kind, points):
        levels, base, sd = KINDS[kind]
        rng = np.random.default_rng(SEEDS[kind])
        rows = 300
        w = rng.uniform(0.01, 1.0, rows)
        mu = base + sd * rng.normal(0.0, 1.0, rows)
        var = sd * sd * rng.choice([1e-5, 0.05, 1.0, 4.0, 400.0], rows)
        x = mu + np.sqrt(var) * rng.normal(0.0, 1.0, rows) * rng.choice(
            [0.2, 1.0, 3.0, 50.0], rows)
        if levels:
            x = np.clip(np.rint(x), 0.0, levels - 1.0)
        full = epsilon_star_approx_rows(w, mu, var, x, APPROX)
        full_points = points()
        grid = 0
        for i in range(rows):
            m = MixtureModel([w[i]], [mu[i]], [var[i]], 100, levels or 256)
            want = ref.epsilon_star_approx(m, 0, float(x[i]), APPROX)
            assert int(full[0][i]) == want.epsilon, i
            grid += grid_size(math.ceil(APPROX.epsilon_max_sigmas
                                        * math.sqrt(var[i])), APPROX)
        assert full_points == grid

        log_f = log_density_rows(mu, var, x)
        # the bound at an eps of each grid: w / (2 eps) for eps = 1 .. 6
        bound = np.log(w) - np.log(2.0 * (1 + np.arange(rows) % 6))
        log_refs = with_ties(log_f, full[2], bound)
        times = log_refs.size // rows
        cut = epsilon_star_approx_rows(*(np.tile(a, times) for a in (w, mu, var, x)),
                                       APPROX, log_refs)
        assert points() <= full_points * times
        assert_cut_keeps_decisions(tuple(np.tile(a, times) for a in full),
                                   cut, log_refs)

    def test_tie_at_the_cut(self):
        # sigma = 0.01 at x = mu: the eps = 1 window holds all the mass, so
        # log p = log w - log 2, exactly the bound
        w = np.full(3, 0.3)
        mu = x = np.full(3, 700.0)
        var = np.full(3, 1e-4)
        full = epsilon_star_approx_rows(w, mu, var, x, APPROX)
        tie = full[2][0]
        assert tie == np.log(0.3) - np.log(2.0)
        log_f = np.array([tie, np.nextafter(tie, -np.inf),
                          np.nextafter(tie, np.inf)])
        cut = epsilon_star_approx_rows(w, mu, var, x, APPROX, log_f)
        assert (log_f >= cut[2]).tolist() == [True, False, True]
        assert cut[0][1] == 1 and cut[2][1] == tie
