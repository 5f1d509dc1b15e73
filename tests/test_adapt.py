import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import binom, norm

from thermobg.adapt import (EPSILON_MAX_SIGMAS, SamplePool, _integer_levels,
                            adapt, decide, epsilon_star_approx,
                            epsilon_star_exact, match_component,
                            spawn_component, update_matched)
from thermobg.core import MixtureModel

PHI_HALF_MASS = 0.1914624612740131  # (2 Phi(0.5) - 1) / 2, mpmath


def model(weights, means, variances, n=100, levels=256):
    return MixtureModel(list(weights), list(means), list(variances), n, levels)


def pool_of(values, maxlen):
    """A one-pixel pool holding the last maxlen of values, oldest first."""
    return SamplePool.from_history(np.asarray(values, dtype=float)[:, None],
                                   maxlen)


def gaussian_cdf(x, mu, var):
    return ndtr((x - mu) / math.sqrt(var))


def weight_after_matches(w0, n, t):
    """Closed form of t iterations of the matched-weight update."""
    return 1.0 - (1.0 - w0) * (1.0 - 1.0 / n) ** t


def weight_after_misses(w0, n, t):
    """Closed form of t iterations of the unmatched-weight decay."""
    return w0 * (1.0 - 1.0 / n) ** t


def prune_time(w0, n):
    """First t at which an unmatched weight w0 drops below the 1/N floor:
    a weight survives while w >= 1/N, so this is the first t with
    w0 (1 - 1/N)^t < 1/N."""
    t = 0
    while weight_after_misses(w0, n, t) >= 1.0 / n:
        t += 1
    return t


class TestMatch:
    def test_exact_hit(self):
        m = model([0.3, 0.4, 0.3], [5.0, 20.0, 60.0], [1.0, 4.0, 9.0])
        c, d = match_component(m, 20.0)
        assert c == 1 and d == 0.0

    def test_scale_matters(self):
        # |4-0|/1 = 4 versus |4-10|/10 = 0.6: the wide component wins
        m = model([0.5, 0.5], [0.0, 10.0], [1.0, 100.0])
        c, d = match_component(m, 4.0)
        assert c == 1
        assert d == pytest.approx(0.6)

    def test_single_component(self):
        m = model([1.0], [33.0], [2.0])
        assert match_component(m, -100.0)[0] == 0

    def test_tie_keeps_lowest_index(self):
        m = model([0.5, 0.5], [10.0, 20.0], [4.0, 4.0])
        c, _ = match_component(m, 15.0)
        assert c == 0


class TestEpsilonExact:
    def test_identical_pool_picks_smallest_eps(self):
        r = epsilon_star_exact([42.0] * 100, 42.0)
        assert r.epsilon == 1
        assert r.p == pytest.approx(0.5)  # (100/100) / (2*1)

    def test_empty_neighborhood(self):
        r = epsilon_star_exact([10.0] * 50, 500.0)
        assert (r.epsilon, r.p) == (1, 0.0)
        assert r.log_p == -math.inf

    def test_matches_brute_force_oracle(self):
        # continuous pools, then integer pools whose samples land on the
        # window boundary: a sample exactly eps from x counts one half
        rng = np.random.default_rng(17)
        cases = [(rng.normal(50.0, 2.0, 100), float(rng.uniform(44, 56)))
                 for _ in range(30)]
        cases += [(np.rint(rng.normal(50.0, 2.0, 100)),
                   float(rng.integers(44, 57))) for _ in range(30)]
        for values, x in cases:
            got = epsilon_star_exact(values, x)

            top = max(1, math.ceil(values.max() - values.min()))
            best = None
            for eps in range(1, top + 1):
                inside = int(np.count_nonzero(np.abs(values - x) < eps))
                edge = int(np.count_nonzero(np.abs(values - x) == eps))
                p = Fraction(2 * inside + edge, 2 * values.size * 2 * eps)
                if best is None or p > best[1]:
                    best = (eps, p)
            assert got.epsilon == best[0]
            assert got.p == pytest.approx(float(best[1]), rel=1e-12)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            epsilon_star_exact([], 1.0)


class TestEpsilonApprox:
    def test_at_mode_smallest_eps(self):
        m = model([1.0], [50.0], [4.0])
        r = epsilon_star_approx(m, 0, 50.0)
        assert r.epsilon == 1
        assert r.p == pytest.approx(PHI_HALF_MASS, abs=1e-12)

    def test_weight_scales_linearly(self):
        a = epsilon_star_approx(model([1.0], [50.0], [4.0]), 0, 50.0)
        b = epsilon_star_approx(model([0.25, 0.75], [50.0, 500.0], [4.0, 4.0]),
                                0, 50.0)
        assert b.p == pytest.approx(0.25 * a.p, rel=1e-12)

    def test_matches_grid_oracle_in_tail(self):
        for sigma, offset in [(2.0, 5.0), (1.0, 5.0), (3.0, 2.5)]:
            var = sigma * sigma
            m = model([0.8, 0.2], [100.0, 400.0], [var, 1.0])
            x = 100.0 + offset * sigma
            got = epsilon_star_approx(m, 0, x)

            top = max(1, math.ceil(EPSILON_MAX_SIGMAS * sigma))
            best = None
            for eps in range(1, top + 1):
                mass = gaussian_cdf(x + eps, 100.0, var) \
                    - gaussian_cdf(x - eps, 100.0, var)
                p = 0.8 * mass / (2.0 * eps)
                if best is None or p > best[1]:
                    best = (eps, p)
            assert got.epsilon == best[0]
            assert got.p == pytest.approx(best[1], rel=1e-9)

    def test_far_tail_keeps_finite_log(self):
        m = model([1.0], [0.0], [1.0])
        r = epsilon_star_approx(m, 0, 60.0)
        assert r.p == 0.0  # underflows linearly
        assert math.isfinite(r.log_p)  # but stays ordered in the log domain


class TestDecide:
    def test_at_mode_always_matched(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            w = float(rng.uniform(0.01, 1.0))
            sigma = float(rng.uniform(0.1, 20.0))
            m = model([w, 1.0 - w], [50.0, 1000.0], [sigma ** 2, 1.0])
            r = epsilon_star_approx(m, 0, 50.0)
            assert decide(m, 0, 50.0, r.p, r.log_p)

    def test_zero_probability_matches_any_positive_density(self):
        m = model([1.0], [10.0], [1.0])
        assert decide(m, 0, 13.0, 0.0)

    def test_density_underflow_with_mass_spawns(self):
        # approx mode, 60 sigma out: both sides underflow linearly but the
        # window mass dominates the point density in the log domain
        m = model([1.0], [0.0], [1.0])
        r = epsilon_star_approx(m, 0, 60.0)
        assert not decide(m, 0, 60.0, r.p, r.log_p)

    def test_exact_pool_mass_beats_underflowed_density(self):
        m = model([1.0], [0.0], [0.01])
        r = epsilon_star_exact([200.0] * 100, 200.0)
        assert r.p > 0.0
        assert not decide(m, 0, 200.0, r.p, r.log_p)


class TestUpdateMatched:
    def test_zero_innovation_closed_form(self):
        m = model([0.5, 0.5], [10.0, 40.0], [1.0, 1.0], n=100)
        out = update_matched(m, 0, 10.0)
        assert out.weights[0] == pytest.approx(0.505, abs=1e-12)
        assert out.weights[1] == pytest.approx(0.495, abs=1e-12)
        assert out.means[0] == 10.0
        assert out.variances[0] == pytest.approx(50.0 / 51.0, abs=1e-12)
        assert out.variances[1] == 1.0

    def test_weight_sum_preserved(self):
        m = model([0.6, 0.4], [5.0, 25.0], [1.0, 1.0], n=100)
        out = update_matched(m, 0, 5.0)
        assert out.weights == pytest.approx([0.604, 0.396], abs=1e-12)
        assert math.fsum(out.weights) == pytest.approx(1.0, abs=1e-12)

    def test_weight_line_is_exact_in_rational_arithmetic(self):
        rng = np.random.default_rng(29)
        n = 100
        for _ in range(50):
            raw = [Fraction(int(v), 1000) for v in rng.integers(1, 1000, 4)]
            total = sum(raw)
            w = [v / total for v in raw]
            c = int(rng.integers(0, 4))
            updated = [wk + (Fraction(int(k == c)) - wk) / n
                       for k, wk in enumerate(w)]
            assert sum(updated) == 1

    def test_monte_carlo_converges_to_generator(self):
        rng = np.random.default_rng(31)
        gen_mu, gen_sigma = 80.0, 3.0
        n = 100
        m = model([1.0], [70.0], [25.0], n=n)
        for x in rng.normal(gen_mu, gen_sigma, 3000):
            m = update_matched(m, 0, float(x))
        # exponential window alpha = 1/(N+1)
        se_mu = gen_sigma / math.sqrt(2 * n + 1)
        assert abs(m.means[0] - gen_mu) <= 3 * se_mu
        se_var = gen_sigma ** 2 * math.sqrt(2.0 / (n + 1))
        assert abs(m.variances[0] - gen_sigma ** 2) <= 3 * se_var

    def test_decayed_component_pruned_at_closed_form_time(self):
        n = 100
        w0 = 0.03
        m = model([1.0 - w0, w0], [10.0, 240.0], [1.0, 1.0], n=n)
        t_star = prune_time(w0, n)
        for t in range(1, t_star + 1):
            m = update_matched(m, 0, 10.0)
            if t < t_star:
                assert m.n_components == 2, f"pruned too early at t={t}"
        assert m.n_components == 1


class TestSpawn:
    def test_paper_epsilon_two(self):
        m = model([1.0], [10.0], [1.0], n=100)
        out = spawn_component(m, 55.0, 2)
        assert out.variances[-1] == pytest.approx(1.25, abs=1e-15)
        assert out.means[-1] == 55.0
        assert out.weights[-1] == pytest.approx(0.01, abs=1e-15)

    def test_epsilon_one_floor_case(self):
        out = spawn_component(model([1.0], [10.0], [1.0], n=100), 55.0, 1)
        assert out.variances[-1] == pytest.approx(0.25, abs=1e-15)

    def test_uniform_variance_formula_exact(self):
        m = model([1.0], [0.0], [1.0], n=100)
        for eps in range(1, 21):
            out = spawn_component(m, 50.0, eps)
            assert out.variances[-1] == ((2.0 * eps) ** 2 - 1.0) / 12.0

    def test_rescale_and_keep_all(self):
        m = model([0.98, 0.02], [10.0, 20.0], [1.0, 1.0], n=100)
        out = spawn_component(m, 55.0, 2)
        assert out.weights == pytest.approx([0.9702, 0.0198, 0.01], abs=1e-12)
        assert math.fsum(out.weights) == pytest.approx(1.0, abs=1e-12)

    def test_rescale_can_prune(self):
        m = model([0.9895, 0.0105], [10.0, 20.0], [1.0, 1.0], n=100)
        out = spawn_component(m, 55.0, 2)
        # 0.0105 * 0.99 = 0.010395 >= 0.01 survives; 0.0100 * 0.99 would not
        assert out.n_components == 3
        m2 = model([0.99, 0.01], [10.0, 20.0], [1.0, 1.0], n=100)
        out2 = spawn_component(m2, 55.0, 2)
        assert out2.n_components == 2  # the 0.0099 leftover is pruned
        assert math.fsum(out2.weights) == pytest.approx(1.0, abs=1e-12)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            spawn_component(model([1.0], [0.0], [1.0]), 5.0, 0)


class TestAdapt:
    def test_mode_sample_never_spawns(self):
        m = model([0.7, 0.3], [16.0, 50.0], [2.25, 4.0], n=100)
        for _ in range(200):
            m, matched = adapt(m, 16.0)
            assert matched
        assert m.n_components == 2

    def test_novel_intensity_spawns_component(self):
        m = model([0.5, 0.5], [16.0, 50.0], [2.25, 4.0], n=100)
        m2, matched = adapt(m, 200.0)
        assert not matched
        assert m2.n_components == 3
        assert 200.0 in m2.means

    def test_exact_mode_uses_and_feeds_pool(self):
        # the pool renders the model on integer intensities, as 8- and 16-bit
        # frames feed it: the rounded 100-quantiles of N(16, 1.5^2)
        quantiles = norm.ppf((np.arange(100) + 0.5) / 100, 16.0, 1.5)
        pool = pool_of(np.rint(quantiles), 100)
        m = model([1.0], [16.0], [2.25], n=100)
        _, matched = adapt(m, 16.0, pool)
        assert matched
        assert pool.count[0] == 100  # ring buffer stays at capacity
        assert pool.values(0)[-1] == 16.0
        # the pool drives the decision: piled on 16 it gives the eps=1 window
        # p = 0.5 > N(16 | 16, 2.25) = 0.266 and spawns, while memory-efficient
        # mode matches the same sample
        piled = pool_of(np.full(100, 16.0), 100)
        assert not adapt(m, 16.0, piled)[1]
        assert adapt(m, 16.0)[1]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        m = model([1.0], [16.0], [2.25])
        with pytest.raises(ValueError, match="finite"):
            adapt(m, bad)
        pool = pool_of([16.0] * 10, 10)
        with pytest.raises(ValueError, match="finite"):
            adapt(m, bad, pool)
        assert pool.values(0) == [16.0] * 10

    def test_weight_conservation_over_stream(self):
        rng = np.random.default_rng(41)
        m = model([0.6, 0.4], [16.0, 50.0], [2.25, 4.0], n=100)
        for x in rng.normal(16.0, 1.5, 500):
            m, _ = adapt(m, float(x))
            assert abs(math.fsum(m.weights) - 1.0) < 1e-9

    def test_unmatched_spawn_then_decay_and_prune(self):
        for n in (7, 50, 100, 256):
            m = model([1.0], [16.0], [2.25], n=n)
            m, matched = adapt(m, 200.0)
            assert not matched and m.n_components == 2
            t_star = prune_time(m.weights[-1], n)
            for t in range(1, t_star + 1):
                m, _ = adapt(m, 16.0)
                if t < t_star:
                    assert m.n_components == 2, f"N={n}: pruned early at t={t}"
            assert m.n_components == 1, f"N={n}: not pruned at t={t_star}"

    def test_exact_and_approx_agree_for_component_pools(self):
        # Pools drawn from the matched component itself.  At half-width eps
        # the pool count is N_eps ~ Binomial(N, q(eps)) with window mass
        # q(eps) = G(x + eps) - G(x - eps).  The exact estimate is
        # p^(eps) = N_eps / (2 eps N); the approximation p(eps) =
        # q(eps) / (2 eps) is its mean.  Each mode maximizes its own curve
        # (and each maximizer lies on the other's grid), so with eps_e and
        # eps_a the two maximizers
        #     p^(eps_e) - p(eps_a) <= p^(eps_e) - p(eps_e)
        #     p(eps_a) - p^(eps_e) <= p(eps_a) - p^(eps_a)
        # and each right-hand side is bounded through a two-sided binomial
        # interval for the count at that eps.  The eps are chosen from the
        # data, so the intervals cover every eps of the trial's grid
        # (Bonferroni): all trials together raise a false alarm with
        # probability at most alpha = 1e-3.
        # eps_a does not depend on the pool, so the counts there,
        # standardised against the window mass the approximation reports,
        # have mean 0 and variance 1; their mean over the trials must lie
        # within 6 standard errors, 6 / sqrt(trials).
        alpha = 1e-3
        rng = np.random.default_rng(47)
        n = 400
        trials = 400
        failures = []
        counts = []
        masses = []
        for i in range(trials):
            mu = float(rng.uniform(30, 220))
            sigma = float(rng.uniform(0.8, 6.0))
            var = sigma * sigma
            m = model([1.0], [mu], [var], n=n)
            values = rng.normal(mu, sigma, n)
            x = float(mu + rng.uniform(-3.0, 3.0) * sigma)
            pe = epsilon_star_exact(values, x)
            pa = epsilon_star_approx(m, 0, x)

            n_eps = max(math.ceil(values.max() - values.min()),
                        math.ceil(EPSILON_MAX_SIGMAS * sigma))
            confidence = 1.0 - alpha / (trials * n_eps)

            def spread(eps):
                """How far p^(eps) may fall below and rise above p(eps)."""
                q = gaussian_cdf(x + eps, mu, var) - gaussian_cdf(x - eps, mu, var)
                lo, hi = binom.interval(confidence, n, q)
                return (n * q - lo) / (2 * eps * n), (hi - n * q) / (2 * eps * n)

            if pe.p - pa.p > spread(pe.epsilon)[1]:
                failures.append((i, "exact above", pe, pa))
            if pa.p - pe.p > spread(pa.epsilon)[0]:
                failures.append((i, "approx above", pe, pa))

            counts.append(np.count_nonzero(np.abs(values - x) <= pa.epsilon))
            masses.append(2 * pa.epsilon * pa.p)  # weight 1
        assert not failures, f"{len(failures)} trials outside: {failures[:3]}"
        q = np.array(masses)
        z = (np.array(counts) - n * q) / np.sqrt(n * q * (1.0 - q))
        pooled = float(np.mean(z))
        assert abs(pooled) <= 6.0 / math.sqrt(trials), f"pooled mean {pooled:.3f}"


class TestWeightClosedForms:
    def test_matches_and_misses(self):
        # update_matched grows the matched weight and decays the other one
        # as the closed forms say (0.8 (1 - 1/N)^200 stays above 1/N)
        n = 100
        m = model([0.2, 0.8], [10.0, 240.0], [1.0, 1.0], n=n)
        for t in range(1, 201):
            m = update_matched(m, 0, 10.0)
            assert abs(m.weights[0] - weight_after_matches(0.2, n, t)) < 1e-12
            assert abs(m.weights[1] - weight_after_misses(0.8, n, t)) < 1e-12


class TestSamplePool:
    def test_sliding_window(self):
        # values() lists each pixel's samples oldest first, also once the
        # ring has wrapped and in a partly filled pool
        pool = SamplePool.from_history([[1.0, 10.0], [2.0, 20.0]], maxlen=3)
        pool.push([3.0, 30.0])
        assert pool.values(0) == [1.0, 2.0, 3.0]
        for x in (4.0, 5.0, 6.0, 7.0):
            pool.push([x, 10.0 * x])
            assert pool.values(0) == [x - 2.0, x - 1.0, x]
            assert pool.values(1) == [10.0 * (x - 2.0), 10.0 * (x - 1.0), 10.0 * x]
        assert pool.count.tolist() == [3, 3]
        part = SamplePool.from_history([[1.0], [2.0]], maxlen=5)
        part.push([3.0])
        assert part.values(0) == [1.0, 2.0, 3.0]
        assert part.count.tolist() == [3]

    def test_unfilled_slots_hold_nan(self):
        # slots a pixel has not filled yet hold NaN, through push, take and
        # put; filled slots hold the samples in ring order
        pool = SamplePool(3, 4)
        assert np.isnan(pool.samples).all()
        pool.push([1.0, 2.0, 3.0])
        part = SamplePool.from_history([[5.0], [6.0]], maxlen=4)
        pool.put([1], part)
        assert pool.values(1) == [5.0, 6.0]
        assert pool.count.tolist() == [1, 2, 1]
        stored = np.arange(4) < pool.count[:, None]
        assert not np.isnan(pool.samples[stored]).any()
        assert np.isnan(pool.samples[~stored]).all()
        rows = pool.take([2, 1])
        assert rows.values(0) == [3.0] and rows.values(1) == [5.0, 6.0]
        assert np.isnan(rows.samples[0, 1:]).all()

    def test_from_slots_copies_and_derives_the_rest(self):
        # the slots past each pixel's count turn NaN, the flag is cleared
        # by a stored non-integer but not by one past the count, and the
        # caller's array stays the caller's
        slots = np.array([[1.0, 2.5, 7.0], [4.0, 5.5, 6.0]])
        pool = SamplePool.from_slots(slots, [2, 4])
        assert pool.values(0) == [1.0, 2.5]
        assert np.isnan(pool.samples[0, 2])
        assert pool.values(1) == [5.5, 6.0, 4.0]  # slot 1 is the oldest
        assert not pool.integral
        slots[1, 1] = 5.0
        assert pool.samples[1, 1] == 5.5 and not pool.integral
        assert SamplePool.from_slots([[1.0, 2.5, 7.0]], [1]).integral

    def test_arrays_change_only_through_methods(self):
        # a direct write could store a non-integer behind the flag's back
        # and pick the wrong eps kernel, so it raises
        pool = SamplePool.from_history([[1.0, 2.0]], maxlen=3)
        for name in ("samples", "pushed"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(pool, name)[0] = 0
            with pytest.raises(AttributeError):
                setattr(pool, name, np.zeros_like(getattr(pool, name)))
        with pytest.raises(AttributeError):
            pool.integral = False
        assert pool.integral
        pool.push([0.5, 3.0])
        assert pool.values(0) == [1.0, 0.5] and not pool.integral


# integers and integers next to 2**51
INTEGER_VALUES = st.one_of(
    st.integers(-300, 300).map(float),
    st.sampled_from([2.0 ** 51 - 1.0, -(2.0 ** 51 - 1.0)]))
# those, values at or beyond 2**51, and non-integers
POOL_VALUES = st.one_of(
    INTEGER_VALUES,
    st.sampled_from([2.0 ** 51, -2.0 ** 51, 2.0 ** 51 + 2.0, 2.0 ** 60,
                     -1e300]),
    st.floats(-1e6, 1e6, allow_nan=False).filter(lambda v: v != int(v)))


def integral_rescan(pool):
    """Whether every stored sample is an integer below 2**51."""
    return all(v.is_integer() and abs(v) < 2.0 ** 51
               for p in range(pool.n_pixels) for v in pool.values(p))


class TestIntegralFlag:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), pixels=st.integers(1, 4), maxlen=st.integers(1, 5),
           integers_only=st.booleans())
    def test_flag_never_claims_more_than_the_rescan(self, data, pixels,
                                                    maxlen, integers_only):
        # after from_history, pushes that fill and wrap the rings, and
        # take/put of rows: a set flag means the stored samples are all
        # integers, and a pool built and fed only integers keeps it set
        values = INTEGER_VALUES if integers_only else POOL_VALUES
        frame = st.lists(values, min_size=pixels, max_size=pixels)
        depth = data.draw(st.integers(0, maxlen + 2))
        history = data.draw(st.lists(frame, min_size=depth, max_size=depth))
        pool = (SamplePool.from_history(np.reshape(history, (depth, pixels)),
                                        maxlen)
                if depth else SamplePool(pixels, maxlen))
        assert pool.integral == integral_rescan(pool)
        x = np.zeros(pixels)
        for _ in range(data.draw(st.integers(1, 3 * maxlen + 3))):
            if data.draw(st.booleans()):
                pool.push(data.draw(frame))
            else:
                rows = data.draw(st.permutations(range(pixels)))
                part = pool.take(rows)
                assert part.integral == pool.integral
                part.push(data.draw(frame))
                assert not part.integral or integral_rescan(part)
                pool.put(rows, part)
            assert not pool.integral or integral_rescan(pool)
            assert pool.integral or not integers_only
            assert _integer_levels(pool, x) == pool.integral
            assert not _integer_levels(pool, x + 0.5)
