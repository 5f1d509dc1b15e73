import math

import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad

from thermobg.core import (VARIANCE_FLOOR, MixtureModel, digamma,
                           gaussian_cdf, gaussian_pdf, log_gaussian_pdf,
                           log_mixture_density, mixture_density)

# Closed-form constants, frozen from a 30-digit mpmath evaluation.
INV_SQRT_2PI = 0.3989422804014327
INV_SQRT_8PI = 0.19947114020071635
ONE_SIGMA_MASS = 0.6826894921370859
DIGAMMA_1 = -0.5772156649015329      # -Euler-Mascheroni
DIGAMMA_HALF = -1.9635100260214235   # -gamma - 2 ln 2
DIGAMMA_2 = 0.42278433509846713      # 1 - gamma


class TestGaussianPdf:
    def test_standard_normal_at_zero(self):
        assert gaussian_pdf(0.0, 0.0, 1.0) == pytest.approx(INV_SQRT_2PI, abs=1e-12)

    def test_at_mean_var_four(self):
        assert gaussian_pdf(5.0, 5.0, 4.0) == pytest.approx(INV_SQRT_8PI, abs=1e-12)

    def test_far_tail_underflows_without_nan(self):
        v = gaussian_pdf(0.0 + 40.0, 0.0, 1.0)
        assert v == 0.0 or v > 0.0
        assert not math.isnan(v)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            gaussian_pdf(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_pdf(0.0, 0.0, -1.0)

    def test_array_input(self):
        xs = np.array([0.0, 1.0, 2.0])
        out = gaussian_pdf(xs, 0.0, 1.0)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(INV_SQRT_2PI)

    def test_log_is_consistent(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x, mu = rng.uniform(-50, 50, 2)
            var = rng.uniform(0.01, 30)
            assert math.exp(log_gaussian_pdf(x, mu, var)) == \
                pytest.approx(gaussian_pdf(x, mu, var), rel=1e-12)

    def test_log_survives_deep_tail(self):
        lp = log_gaussian_pdf(65535.0, 0.0, 1.0)
        assert math.isfinite(lp) and lp < -1e8


class TestGaussianCdf:
    def test_half_at_mean(self):
        for var in (0.5, 1.0, 123.0):
            assert gaussian_cdf(7.0, 7.0, var) == pytest.approx(0.5, abs=1e-14)

    def test_one_sigma_mass(self):
        mass = gaussian_cdf(1.0, 0.0, 1.0) - gaussian_cdf(-1.0, 0.0, 1.0)
        assert mass == pytest.approx(ONE_SIGMA_MASS, abs=1e-12)

    def test_lower_limit(self):
        assert gaussian_cdf(-1e9, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_monotone_on_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            mu = rng.uniform(-100, 100)
            var = rng.uniform(1e-3, 1e4)
            x = rng.uniform(-200, 200)
            delta = rng.uniform(0, 50)
            assert gaussian_cdf(x + delta, mu, var) >= gaussian_cdf(x, mu, var)

    def test_against_scipy_reference(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-60, 60, 200)
        got = gaussian_cdf(x, 3.0, 7.0)
        want = scipy.special.ndtr((x - 3.0) / math.sqrt(7.0))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            gaussian_cdf(0.0, 0.0, 0.0)


class TestDigamma:
    def test_reference_points(self):
        assert digamma(1.0) == pytest.approx(DIGAMMA_1, abs=1e-12)
        assert digamma(0.5) == pytest.approx(DIGAMMA_HALF, abs=1e-12)
        assert digamma(2.0) == pytest.approx(DIGAMMA_2, abs=1e-12)

    def test_recurrence_property(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.01, 100, 500)
        lhs = digamma(a + 1.0)
        rhs = digamma(a) + 1.0 / a
        assert np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0)) < 1e-10

    def test_against_scipy_reference(self):
        rng = np.random.default_rng(4)
        a = np.concatenate([rng.uniform(1e-3, 1, 200),
                            rng.uniform(1, 500, 200)])
        got = digamma(a)
        want = scipy.special.digamma(a)
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-3)
        assert rel.max() < 1e-10

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                digamma(bad)


def _model(weights, means, variances, n=100, levels=256):
    return MixtureModel(list(weights), list(means), list(variances), n, levels)


class TestMixtureDensity:
    def test_single_component_at_mean(self):
        m = _model([1.0], [10.0], [1.0])
        assert mixture_density(m, 10.0) == pytest.approx(INV_SQRT_2PI, abs=1e-12)

    def test_two_component_sum_oracle(self):
        m = _model([0.5, 0.5], [0.0, 10.0], [1.0, 1.0])
        want = 0.5 * gaussian_pdf(5.0, 0.0, 1.0) + 0.5 * gaussian_pdf(5.0, 10.0, 1.0)
        assert mixture_density(m, 5.0) == pytest.approx(want, rel=1e-14)

    def test_integrates_to_one(self):
        m = _model([0.2, 0.5, 0.3], [10.0, 60.0, 200.0], [4.0, 0.25, 100.0])
        lo = min(mu - 12 * math.sqrt(v) for mu, v in zip(m.means, m.variances))
        hi = max(mu + 12 * math.sqrt(v) for mu, v in zip(m.means, m.variances))
        total, _ = quad(lambda x: mixture_density(m, x), lo, hi, limit=300)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_nonnegative_everywhere(self):
        m = _model([0.7, 0.3], [5.0, 9.0], [0.5, 2.0])
        xs = np.linspace(-50, 80, 2000)
        assert np.all(mixture_density(m, xs) >= 0.0)

    def test_log_matches_linear(self):
        m = _model([0.6, 0.4], [20.0, 90.0], [2.0, 16.0])
        xs = np.linspace(0, 120, 50)
        got = np.exp(log_mixture_density(m, xs))
        assert np.allclose(got, mixture_density(m, xs), rtol=1e-10)


class TestModelInvariants:
    def test_model_validation(self):
        with pytest.raises(ValueError):
            MixtureModel([1.0], [0.0], [], 100)
        with pytest.raises(ValueError):
            MixtureModel([], [], [], 100)
        with pytest.raises(ValueError):
            MixtureModel([1.0], [0.0], [1.0], 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MixtureModel([1.0], [bad], [1.0], 100)
        with pytest.raises(ValueError, match="finite"):
            MixtureModel([1.0], [0.0], [bad], 100)
        with pytest.raises(ValueError, match="finite"):
            MixtureModel([bad], [0.0], [1.0], 100)

    def test_non_positive_variance_rejected(self):
        for var in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                MixtureModel([0.5, 0.5], [0.0, 1.0], [1.0, var], 100)

    def test_check_flags_bad_weight_sum(self):
        m = _model([0.6, 0.6], [0.0, 5.0], [1.0, 1.0])
        with pytest.raises(AssertionError):
            m.check()

    def test_components_view_and_copy(self):
        m = _model([0.25, 0.75], [1.0, 2.0], [0.5, 0.25])
        c = m.copy()
        c.weights[0] = 0.1
        assert m.weights[0] == 0.25

    def test_variance_floor_constant(self):
        assert VARIANCE_FLOOR == 1e-4
