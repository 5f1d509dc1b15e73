import math

import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad

from thermobg.adapt import log_density_rows
from thermobg.core import VARIANCE_FLOOR, MixtureModel, digamma, mixture_density

# Closed-form constants, frozen from a 30-digit mpmath evaluation.
INV_SQRT_2PI = 0.3989422804014327
INV_SQRT_8PI = 0.19947114020071635
DIGAMMA_1 = -0.5772156649015329      # -Euler-Mascheroni
DIGAMMA_HALF = -1.9635100260214235   # -gamma - 2 ln 2
DIGAMMA_2 = 0.42278433509846713      # 1 - gamma


def _model(weights, means, variances, n=100, levels=256):
    return MixtureModel(list(weights), list(means), list(variances), n, levels)


def _pdf(x, mu, var):
    return math.exp(-0.5 * (x - mu) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


class TestGaussianPdf:
    """The one-component density, as mixture_density and adapt's
    log_density_rows compute it."""

    def test_standard_normal_at_zero(self):
        m = _model([1.0], [0.0], [1.0])
        assert mixture_density(m, 0.0) == pytest.approx(INV_SQRT_2PI, abs=1e-12)

    def test_at_mean_var_four(self):
        m = _model([1.0], [5.0], [4.0])
        assert mixture_density(m, 5.0) == pytest.approx(INV_SQRT_8PI, abs=1e-12)

    def test_far_tail_underflows_without_nan(self):
        v = mixture_density(_model([1.0], [0.0], [1.0]), 0.0 + 40.0)
        assert v == 0.0 or v > 0.0
        assert not math.isnan(v)

    def test_array_input(self):
        xs = np.array([0.0, 1.0, 2.0])
        out = mixture_density(_model([1.0], [0.0], [1.0]), xs)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(INV_SQRT_2PI)

    def test_log_is_consistent(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x, mu = rng.uniform(-50, 50, 2)
            var = rng.uniform(0.01, 30)
            log_f = log_density_rows([mu], [var], [x])[0]
            assert math.exp(log_f) == pytest.approx(
                mixture_density(_model([1.0], [mu], [var]), x), rel=1e-12)

    def test_log_survives_deep_tail(self):
        lp = log_density_rows([0.0], [1.0], [65535.0])[0]
        assert math.isfinite(lp) and lp < -1e8


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


class TestMixtureDensity:
    def test_single_component_at_mean(self):
        m = _model([1.0], [10.0], [1.0])
        assert mixture_density(m, 10.0) == pytest.approx(INV_SQRT_2PI, abs=1e-12)

    def test_two_component_sum_oracle(self):
        m = _model([0.5, 0.5], [0.0, 10.0], [1.0, 1.0])
        want = 0.5 * _pdf(5.0, 0.0, 1.0) + 0.5 * _pdf(5.0, 10.0, 1.0)
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

    def test_variance_floor_constant(self):
        assert VARIANCE_FLOOR == 1e-4
