import math

import mpmath as mp
import numpy as np
import pytest

from thermobg.core import VARIANCE_FLOOR
from thermobg.fit import (FitConfig, Priors, VariationalPosterior,
                          e_step, e_step_rows, elbo, elbo_rows,
                          fit, fit_rows, kmeanspp_init, kmeanspp_rows, m_step,
                          m_step_rows, priors_rows)

mp.mp.dps = 40


def three_mode_data(seed, per_mode=100):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.normal(30.0, 3.0, per_mode),
                           rng.normal(110.0, 4.0, per_mode),
                           rng.normal(200.0, 5.0, per_mode)])


class TestDefaultPriors:
    def test_formula_values(self):
        # mean 100, population variance 4
        data = np.array([98.0, 102.0, 98.0, 102.0, 98.0, 102.0])
        p = priors_rows(data[None, :])
        assert p.lambda0 == 1.0
        assert p.m0[0] == pytest.approx(100.0)
        assert p.a0 == 1e-3 and p.b0 == 1e-3
        assert p.beta0[0] == pytest.approx(1e-3 / (1e-3 * 4.0))

    def test_constant_data_uses_floor(self):
        p = priors_rows(np.full((1, 60), 17.0))
        assert p.m0[0] == 17.0
        assert p.beta0[0] == pytest.approx(1.0 / VARIANCE_FLOOR)

    def test_uniform_grid(self):
        data = np.arange(256, dtype=float)
        p = priors_rows(data[None, :])
        assert p.m0[0] == pytest.approx(127.5)
        assert p.beta0[0] == pytest.approx(1.0 / np.var(data))

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            Priors(lambda0=0.0, m0=0.0, beta0=1.0, a0=1.0, b0=1.0)


class TestKMeansInit:
    def test_identical_data_collapses(self):
        init = kmeanspp_init(np.full(100, 42.0), 5, seed=0)
        assert init.n_clusters == 1
        assert init.weights[0] == 1.0
        assert init.centers[0] == 42.0
        assert init.variances[0] == VARIANCE_FLOOR

    def test_two_modes_match_exhaustive_oracle(self):
        rng = np.random.default_rng(10)
        data = np.concatenate([rng.normal(16, 0.1, 50), rng.normal(50, 0.1, 50)])
        init = kmeanspp_init(data, 10, seed=10)

        # oracle: best 2-cluster split of the sorted data by within-cluster SS
        s = np.sort(data)
        best = None
        for cut in range(1, s.size):
            ss = s[:cut].var() * cut + s[cut:].var() * (s.size - cut)
            if best is None or ss < best[0]:
                best = (ss, s[:cut].mean(), s[cut:].mean())
        lo_center, hi_center = best[1], best[2]

        # every cluster sits on one of the two modes, and each mode carries
        # half of the samples
        near_lo = np.abs(init.centers - lo_center) < 0.5
        near_hi = np.abs(init.centers - hi_center) < 0.5
        assert np.all(near_lo | near_hi)
        assert init.counts[near_lo].sum() == 50
        assert init.counts[near_hi].sum() == 50

    def test_seed_determinism(self):
        data = three_mode_data(1)
        a = kmeanspp_init(data, 10, seed=99)
        b = kmeanspp_init(data, 10, seed=99)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.centers, b.centers)

    def test_partition_is_complete(self):
        data = three_mode_data(2)
        init = kmeanspp_init(data, 10, seed=3)
        assert init.n_clusters <= 10
        assert init.counts.sum() == data.size
        assert np.all(init.counts > 0)
        assert init.lambda_ == pytest.approx(init.counts + 1.0)
        assert init.tau == pytest.approx(1.0 / init.variances)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            kmeanspp_init(np.arange(5.0), 6, seed=0)


def _posterior(lam, m, beta, a, b, n):
    k = len(lam)
    return VariationalPosterior(
        lambda_=np.asarray(lam, float), m=np.asarray(m, float),
        beta=np.asarray(beta, float), a=np.asarray(a, float),
        b=np.asarray(b, float), resp=np.zeros((n, k)), Nk=np.zeros(k),
        xbar=np.zeros(k), sigma=np.zeros(k))


class TestESteps:
    def test_single_component_is_certain(self):
        post = _posterior([10.0], [5.0], [3.0], [2.0], [2.0], n=7)
        r = e_step(post, np.linspace(0, 10, 7))
        assert np.allclose(r, 1.0)

    def test_identical_components_split_evenly(self):
        post = _posterior([4.0, 4.0], [5.0, 5.0], [3.0, 3.0],
                          [2.0, 2.0], [2.0, 2.0], n=5)
        r = e_step(post, np.linspace(0, 10, 5))
        assert np.allclose(r, 0.5)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        post = _posterior(rng.uniform(0.5, 20, 4), rng.uniform(0, 100, 4),
                          rng.uniform(0.1, 10, 4), rng.uniform(0.01, 5, 4),
                          rng.uniform(0.01, 5, 4), n=30)
        r = e_step(post, rng.uniform(0, 100, 30))
        assert np.max(np.abs(r.sum(axis=1) - 1.0)) < 1e-9

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(42)
        n, k = 6, 3
        data = rng.uniform(0, 100, n)
        lam = rng.uniform(0.5, 20, k)
        m = rng.uniform(0, 100, k)
        beta = rng.uniform(0.1, 30, k)
        a = rng.uniform(0.01, 15, k)
        b = rng.uniform(0.01, 15, k)
        r = e_step(_posterior(lam, m, beta, a, b, n), data)

        lam_sum = mp.mpf(float(lam.sum()))
        for i in range(n):
            row = []
            for j in range(k):
                lw = mp.digamma(mp.mpf(float(lam[j]))) - mp.digamma(lam_sum)
                lt = mp.digamma(mp.mpf(float(a[j]))) - mp.log(mp.mpf(float(b[j])))
                quad = (mp.mpf(float(a[j])) / (2 * mp.mpf(float(b[j])))
                        * (mp.mpf(float(data[i])) - mp.mpf(float(m[j]))) ** 2)
                row.append(mp.e ** (lw + lt / 2 - quad
                                    - 1 / (2 * mp.mpf(float(beta[j])))))
            total = sum(row)
            for j in range(k):
                assert abs(r[i, j] - float(row[j] / total)) < 1e-10


class TestMStep:
    def test_one_hot_counts_example(self):
        # counts (60, 40), lambda0 = 1 -> lambda = (61, 41)
        n = 100
        resp = np.zeros((n, 2))
        resp[:60, 0] = 1.0
        resp[60:, 1] = 1.0
        data = np.concatenate([np.random.default_rng(0).normal(10, 1, 60),
                               np.random.default_rng(1).normal(50, 1, 40)])
        priors = Priors(lambda0=1.0, m0=30.0, beta0=0.1, a0=1e-3, b0=1e-3)
        post = m_step(resp, data, priors)
        assert post.lambda_ == pytest.approx([61.0, 41.0], abs=1e-12)
        assert post.Nk == pytest.approx([60.0, 40.0], abs=1e-12)

    def test_data_at_prior_mean_leaves_b_at_prior(self):
        n = 20
        resp = np.ones((n, 1))
        data = np.full(n, 12.5)
        priors = Priors(lambda0=1.0, m0=12.5, beta0=0.3, a0=1e-3, b0=1e-3)
        post = m_step(resp, data, priors)
        assert post.xbar[0] == pytest.approx(12.5)
        assert post.sigma[0] == pytest.approx(0.0, abs=1e-15)
        assert post.b[0] == pytest.approx(priors.b0, abs=1e-15)
        assert post.m[0] == pytest.approx(12.5)

    def test_empty_component_reverts_to_prior(self):
        resp = np.zeros((10, 2))
        resp[:, 0] = 1.0
        data = np.linspace(0, 9, 10)
        priors = Priors(lambda0=1.0, m0=4.5, beta0=0.2, a0=1e-3, b0=1e-3)
        post = m_step(resp, data, priors)
        assert post.m[1] == pytest.approx(priors.m0)
        assert post.beta[1] == pytest.approx(priors.beta0)
        assert post.a[1] == pytest.approx(priors.a0)
        assert post.b[1] == pytest.approx(priors.b0)

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(7)
        n, k = 8, 3
        resp = rng.dirichlet(np.ones(k), size=n)
        data = rng.uniform(0, 255, n)
        priors = Priors(lambda0=1.0, m0=100.0, beta0=0.25, a0=1e-3, b0=1e-3)
        post = m_step(resp, data, priors)
        for j in range(k):
            nk = sum(mp.mpf(float(resp[i, j])) for i in range(n))
            xb = sum(mp.mpf(float(resp[i, j])) * mp.mpf(float(data[i]))
                     for i in range(n)) / nk
            sg = sum(mp.mpf(float(resp[i, j]))
                     * (mp.mpf(float(data[i])) - xb) ** 2 for i in range(n)) / nk
            beta_k = mp.mpf('0.25') + nk
            m_k = (mp.mpf('0.25') * 100 + nk * xb) / beta_k
            a_k = mp.mpf('0.001') + nk / 2
            b_k = mp.mpf('0.001') + (nk * sg + mp.mpf('0.25') * nk
                                     * (xb - 100) ** 2 / (mp.mpf('0.25') + nk)) / 2
            for got, want in [(post.lambda_[j], nk + 1), (post.beta[j], beta_k),
                              (post.m[j], m_k), (post.a[j], a_k),
                              (post.b[j], b_k)]:
                assert abs(float(got) - float(want)) <= 1e-12 * max(1.0, abs(float(want)))


class TestFit:
    def test_three_separated_gaussians_recover_k3(self):
        data = three_mode_data(0)
        res = fit(data, FitConfig(k_max=10, rng_seed=0))
        assert res.model.n_components == 3
        means = sorted(res.model.means)
        assert means[0] == pytest.approx(30.0, abs=1.5)
        assert means[1] == pytest.approx(110.0, abs=2.0)
        assert means[2] == pytest.approx(200.0, abs=2.5)

    def test_two_modes_example(self):
        rng = np.random.default_rng(123)
        data = np.concatenate([rng.normal(16, 1.5, 50), rng.normal(50, 2.0, 50)])
        res = fit(data, FitConfig(k_max=10, rng_seed=123))
        assert res.model.n_components == 2
        means = sorted(res.model.means)
        assert means[0] == pytest.approx(16.0, abs=0.5)
        assert means[1] == pytest.approx(50.0, abs=0.5)

    def test_constant_data(self):
        res = fit(np.full(100, 17.0), FitConfig(k_max=5, rng_seed=0))
        m = res.model
        assert m.n_components == 1
        assert m.means[0] == pytest.approx(17.0)
        assert m.variances[0] == VARIANCE_FLOOR
        assert m.weights[0] == 1.0

    def test_determinism_bit_identical(self):
        data = three_mode_data(5)
        cfg = FitConfig(k_max=10, rng_seed=5)
        a = fit(data, cfg).model
        b = fit(data, cfg).model
        assert a.weights == b.weights
        assert a.means == b.means
        assert a.variances == b.variances

    def test_elbo_monotone_within_segments(self):
        # fit computes the bound only at segment ends, so this follows the
        # row kernels it runs: over a block of pixels with different K, the
        # bound never falls from one iteration to the next, through a
        # shaping segment and through a drop trial.
        samples = np.stack([three_mode_data(s, per_mode=40) for s in (9, 10, 11)]
                           + [np.repeat([20.0, 21.0, 60.0], 40)])
        levels, counts = samples.T, np.ones(samples.T.shape)
        priors = priors_rows(samples)
        assign, _, k = kmeanspp_rows(samples, 6, [9, 10, 11, 12])
        assert k.tolist() == [6, 6, 6, 3]
        comps = np.arange(6)
        resp = (assign.T == comps[:, None, None]).astype(float)
        post = m_step_rows(resp, levels, counts, priors)

        def segment(post, k, iters):
            bounds = []
            for _ in range(iters):
                post = m_step_rows(e_step_rows(post, levels, k), levels,
                                   counts, priors)
                bounds.append(elbo_rows(post, counts, k, priors))
            rise = np.diff(bounds, axis=0)
            assert rise.min() >= -1e-8
            assert rise.max() > 1e-3  # the iterations did move the bound
            return post

        post = segment(post, k, 15)
        # drop each pixel's weakest component by moving it past its last
        weakest = np.argmin(np.where(comps[:, None] < k, post.Nk, np.inf),
                            axis=0)
        order = np.tile(comps[:, None], (1, k.size))
        pixels = np.arange(k.size)
        order[weakest, pixels], order[k - 1, pixels] = k - 1, weakest
        post = VariationalPosterior(**{
            name: np.take_along_axis(getattr(post, name), order, axis=0)
            for name in ("lambda_", "m", "beta", "a", "b")})
        segment(post, k - 1, 12)

    def test_elbo_increases_across_removals(self):
        data = three_mode_data(13)
        res = fit(data, FitConfig(k_max=10, rng_seed=13))
        ends = [seg[-1] for seg in res.elbo_segments if seg]
        assert all(b >= a - 1e-8 for a, b in zip(ends, ends[1:]))

    def test_pruning_invariant(self):
        for seed in range(5):
            data = three_mode_data(seed)
            res = fit(data, FitConfig(k_max=10, rng_seed=seed))
            res.model.check()

    def test_final_phase_converges_quickly(self):
        data = three_mode_data(21)
        res = fit(data, FitConfig(k_max=10, rng_seed=21))
        assert res.converged
        assert res.n_iters <= 20

    def test_config_validation(self):
        # N is the history's length: fit and fit_rows reject k_max > N
        with pytest.raises(ValueError, match="k_max=200 exceeds"):
            fit(np.zeros(100), FitConfig(k_max=200))
        with pytest.raises(ValueError, match="k_max=200 exceeds"):
            fit_rows(np.zeros((3, 100)), FitConfig(k_max=200), [0, 1, 2])
        with pytest.raises(ValueError):
            FitConfig(k_max=0)
        with pytest.raises(ValueError):
            fit(np.zeros((2, 100)), FitConfig(k_max=10))


class TestElbo:
    def test_coordinate_ascent_is_monotone(self):
        rng = np.random.default_rng(31)
        data = np.concatenate([rng.normal(20, 2, 40), rng.normal(60, 3, 60)])
        priors = priors_rows(data[None, :])
        init = kmeanspp_init(data, 6, seed=31)
        resp = np.zeros((data.size, init.n_clusters))
        resp[np.arange(data.size), init.assignments] = 1.0
        post = m_step(resp, data, priors)
        prev = -math.inf
        for _ in range(40):
            resp = e_step(post, data)
            post = m_step(resp, data, priors)
            val = elbo(post, data, priors)
            assert val >= prev - 1e-8
            prev = val
