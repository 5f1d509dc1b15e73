"""fit.fit_rows, the lock-step batched fit, against the per-pixel fit it
replaced (tests/scalar_fit_reference.py): the same k-means++ partition, K
and convergence, and parameters within 1e-9; and against itself, every
pixel's model bit-identical whichever pixels share its block."""

from dataclasses import replace

import numpy as np
import scalar_fit_reference as ref

import thermobg.fit as fit_mod
from thermobg.fit import FitConfig, fit, fit_rows, kmeanspp_rows


RTOL = 1e-9


def assert_matches_reference(samples, cfg, seeds, levels=65536):
    got = fit_rows(samples, cfg, seeds, intensity_levels=levels)
    assign, _, _ = kmeanspp_rows(samples, cfg.k_max, seeds)
    for i, seed in enumerate(seeds):
        cfg_i = replace(cfg, rng_seed=seed)
        ref_cfg = ref.FitConfig(k_max=cfg.k_max, history_len=samples.shape[1],
                                max_iters=cfg.max_iters, rng_seed=seed)
        want = ref.fit(samples[i], ref_cfg, intensity_levels=levels)
        init = ref.kmeanspp_init(samples[i], cfg.k_max, seed)
        assert np.array_equal(assign[i], init.assignments), i
        model = got.state.model(i)
        assert model.n_components == want.model.n_components, i
        assert bool(got.converged[i]) == want.converged, i
        for name in ("weights", "means", "variances"):
            np.testing.assert_allclose(getattr(model, name),
                                       getattr(want.model, name),
                                       rtol=RTOL, atol=0, err_msg=f"{name} {i}")
        # fit is the one-pixel case of the same code
        one = fit(samples[i], cfg_i, intensity_levels=levels)
        assert one.model == model
        assert (one.n_iters, one.total_iters) == (want.n_iters,
                                                   want.total_iters), i
        assert len(one.elbo_segments) == len(want.elbo_segments), i
    return got


def integer_pixels(seed, n_pixels, base, sigma, top):
    """Integer histories: unimodal pixels and a few bimodal ones."""
    rng = np.random.default_rng(seed)
    samples = np.rint(rng.normal(base, sigma, (n_pixels, 100)))
    samples[:n_pixels // 4, 1::2] += 12.0 * sigma
    return np.clip(samples, 0, top)


class TestScalarFitEquivalence:
    def test_eight_bit_kmax_two(self):
        samples = integer_pixels(1, 24, 100.0, 3.0, 255)
        assert_matches_reference(samples, FitConfig(k_max=2), list(range(24)),
                                 levels=256)

    def test_sixteen_bit_kmax_fifty(self):
        samples = integer_pixels(2, 10, 30000.0, 8.0, 65535)
        got = assert_matches_reference(samples, FitConfig(k_max=50),
                                       list(range(100, 110)))
        assert got.death_accepts.min() > 10  # long death-move schedules

    def test_continuous_samples(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(50.0, 4.0, (8, 100))
        samples[:3, ::3] += 30.0
        assert all(np.unique(row).size == 100 for row in samples)
        assert_matches_reference(samples, FitConfig(k_max=10), list(range(8)))

    def test_constant_data(self):
        samples = np.full((4, 100), 17.0)
        samples[2:] = 30000.0
        got = assert_matches_reference(samples, FitConfig(k_max=5),
                                       [0, 1, 2, 3])
        assert got.state.k.tolist() == [1, 1, 1, 1]

    def test_few_distinct_values(self):
        # k-means++ runs out of distinct values before k_max centres
        rng = np.random.default_rng(4)
        samples = rng.choice([10.0, 11.0, 12.0, 40.0], size=(12, 100),
                             p=[0.3, 0.3, 0.3, 0.1])
        samples[0] = 10.0
        samples[0, :7] = 11.0
        _, _, n_clusters = kmeanspp_rows(samples, 10, list(range(12)))
        assert n_clusters.max() <= 4
        assert_matches_reference(samples, FitConfig(k_max=10), list(range(12)))

    def test_small_max_iters_leaves_pixels_unconverged(self):
        # three overlapping modes: some accepted removals end at their
        # iteration cap, and two final iterations do not settle them
        rng = np.random.default_rng(8)
        samples = np.rint(rng.normal(100.0, 2.0, (12, 120)))
        samples[:, 1::3] += 6.0
        samples[:, 2::3] += 12.0
        cfg = FitConfig(k_max=10, max_iters=2)
        got = assert_matches_reference(samples, cfg, list(range(12)),
                                       levels=256)
        assert 0 < (~got.converged).sum() < 12


class TestBlockInvariance:
    def test_block_matches_single_pixels_and_crops(self, monkeypatch):
        # Pixels of every kind in one block: continuous (100 levels),
        # 16-bit integer, few levels and constant, so K and the level
        # count differ from row to row.
        rng = np.random.default_rng(6)
        samples = np.concatenate([
            rng.normal(50.0, 4.0, (16, 100)),
            integer_pixels(7, 10, 30000.0, 8.0, 65535),
            rng.choice([10.0, 11.0, 40.0], size=(3, 100)),
            np.full((1, 100), 5.0)])
        cfg = FitConfig(k_max=20)
        seeds = list(range(200, 200 + samples.shape[0]))
        _, _, n_clusters = kmeanspp_rows(samples, cfg.k_max, seeds)
        n_levels = [np.unique(row).size for row in samples]
        # the first iteration already needs several passes
        assert np.dot(n_clusters, n_levels) > fit_mod._PASS_ELEMENTS

        whole = fit_rows(samples, cfg, seeds)

        def assert_same(part, rows):
            for j, i in enumerate(rows):
                assert part.state.model(j) == whole.state.model(i), i
                for name in ("converged", "em_iters", "death_trials",
                             "death_accepts"):
                    assert getattr(part, name)[j] == getattr(whole, name)[i]

        for i in range(samples.shape[0]):
            assert_same(fit_rows(samples[i:i + 1], cfg, seeds[i:i + 1]), [i])
        crop = list(range(5, 17))
        assert_same(fit_rows(samples[crop], cfg, seeds[5:17]), crop)
        monkeypatch.setattr(fit_mod, "_BLOCK_ROWS", 7)
        assert_same(fit_rows(samples, cfg, seeds), range(samples.shape[0]))
