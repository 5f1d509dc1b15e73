"""The bound-pruned eps* searches against the full eps grid.

Given the matched component's log density log f(x), epsilon_star_exact_rows
and epsilon_star_approx_rows evaluate only the eps whose bound 1 / (2 eps)
(w / (2 eps) in approx mode) can reach f(x), and exact mode searches long
grids by branch and bound.  Against the full grid (the scalar reference,
which evaluates every grid point) they must give the same matched flags
log f(x) >= log p(eps*), the same eps*, p and log p on every miss, and never
evaluate more eps points.
"""

import functools
import math
from unittest import mock

import numpy as np
import pytest
import scalar_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

import thermobg.adapt as adapt_module
from thermobg.adapt import (SamplePool, _integer_levels,
                            epsilon_star_approx_rows, epsilon_star_exact_rows,
                            log_density_rows)
from thermobg.core import MixtureModel

# intensity levels, background mean and sd of each kind of pool
KINDS = {8: (256, 100.0, 3.0), 16: (65536, 30000.0, 8.0),
         "continuous": (None, 100.0, 3.0)}
SEEDS = {8: 8, 16: 16, "continuous": 3}


@pytest.fixture
def points(monkeypatch):
    """Counts the eps points the search evaluates: the length of every
    window score array whose first argmax _search takes, whichever mode's
    score computed it."""
    seen = [0]
    search = adapt_module._search

    def counted(n_eps, slots, score, empty):
        def counted_score(*args):
            values = score(*args)
            seen[0] += values.size
            return values
        return search(n_eps, slots, counted_score, empty)

    monkeypatch.setattr(adapt_module, "_search", counted)

    def take():
        n, seen[0] = seen[0], 0
        return n
    return take


@pytest.fixture
def exact_calls(monkeypatch):
    """The arguments (samples, x, count, n_eps, integer) of every pass of
    the exact search, in order: the pass's rows of the arrays that
    _exact_p is given."""
    calls = []
    score = adapt_module._exact_p

    def recorded(samples, x, count, n_eps, integer, r, *args):
        calls.append((samples[r], x[r], count[r], n_eps[r], integer))
        return score(samples, x, count, n_eps, integer, r, *args)

    monkeypatch.setattr(adapt_module, "_exact_p", recorded)
    return calls


def grid_size(top):
    """Points of the eps grid 1, 2, ..., top (at least one)."""
    return max(1, top)


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
    and samples x near, in the tail of and far from them.  Unfilled slots
    hold NaN, as in every SamplePool."""
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
    pushed = rng.choice([n, 3 * n + 1, n // 2, 1], pixels)
    pushed[-1] = 0
    pool = SamplePool.from_slots(values, pushed)
    mu = base + sd * rng.normal(0.0, 1.0, pixels)
    var = sd * sd * rng.choice([1e-4, 0.05, 0.5, 1.0, 4.0], pixels)
    return pool, x, log_density_rows(mu, var, x)


def repeat_pool(pool, times):
    """The pool's pixels repeated ``times`` over, in order, NaN slots
    included."""
    return pool.take(np.tile(np.arange(pool.n_pixels), times))


class TestExactCut:
    @pytest.mark.parametrize("kind", [8, 16, "continuous"])
    def test_cut_keeps_decisions_and_misses(self, kind, points, exact_calls):
        pool, x, log_f = exact_pool(kind, seed=SEEDS[kind])
        full = epsilon_star_exact_rows(pool, x)
        full_points = points()
        # integer levels take the integer kernel, and its points are counted
        assert {call[-1] for call in exact_calls} == {kind != "continuous"}
        assert full_points > 0
        count = pool.count
        grid = 0
        for i in range(pool.n_pixels):
            if count[i] == 0:
                assert (full[0][i], full[1][i]) == (1, 0.0)
                continue
            values = pool.samples[i, :count[i]].tolist()
            want = ref.epsilon_star_exact(values, float(x[i]))
            # branch and bound keeps the full grid's eps* and p
            assert (int(full[0][i]), float(full[1][i])) == (want.epsilon, want.p), i
            grid += grid_size(math.ceil(max(values) - min(values)))
        assert full_points <= grid

        # the bound at an eps of each grid: 1 / (2 eps) for eps = 1 .. 6
        rows = np.arange(pool.n_pixels)
        bound = -np.log(2.0 * (1 + rows % 6))
        log_refs = with_ties(log_f, full[2], bound)
        times = log_refs.size // pool.n_pixels
        x_all = np.tile(x, times)
        tiled = repeat_pool(pool, times)
        full_all = tuple(np.tile(a, times) for a in full)
        cut = epsilon_star_exact_rows(tiled, x_all, log_refs)
        assert points() <= full_points * times
        assert_cut_keeps_decisions(full_all, cut, log_refs)

    # from k = 6 on the grid (2k - 1 points) is longer than the pool of 10
    @pytest.mark.parametrize("k", [1, 2, 5, 6, 40, 1000])
    def test_tie_at_the_cut(self, k):
        # all N samples k - 1/2 from x: the first window holding any is
        # eps = k, with p = 1 / (2 k) exactly the bound there
        n, pixels = 10, 3
        x = np.full(pixels, 5000.0)
        pool = SamplePool.from_slots(
            x[:, None] + (k - 0.5) * np.where(np.arange(n) % 2, 1.0, -1.0),
            np.full(pixels, n))
        full = epsilon_star_exact_rows(pool, x)
        assert full[0].tolist() == [k] * pixels
        tie = full[2][0]
        assert tie == np.log(0.5 * (2.0 * n) / (n * 2.0 * k))
        log_f = np.array([tie, np.nextafter(tie, -np.inf),
                          np.nextafter(tie, np.inf)])
        cut = epsilon_star_exact_rows(pool, x, log_f)
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
        full = epsilon_star_exact_rows(pool, x)
        assert 0 < points() < 2000
        for i in range(pixels):
            want = ref.epsilon_star_exact(values[i].tolist(), x[i])
            assert (int(full[0][i]), float(full[1][i])) == (want.epsilon, want.p)

    def test_ceiling_below_epsilon_min_evaluates_nothing(self, points):
        pool = SamplePool.from_history(np.full((5, 2), 10.0), 5)
        # f(x) > 1/2 = the bound at eps = 1: matched with no grid
        eps, p, log_p = epsilon_star_exact_rows(
            pool, [10.0, 10.0], np.log([0.6, 0.5]))
        assert points() == 1
        assert (eps[0], p[0], log_p[0]) == (1, 0.0, -np.inf)
        assert (eps[1], p[1]) == (1, 0.5)


def kernel_rows(pool, x, limit=None):
    """The filled rows of the pool with their full grid lengths (at most
    ``limit``): the arguments of _exact_p but for the kernel flag."""
    rows = np.flatnonzero(pool.count > 0)
    n_eps = np.array([grid_size(math.ceil(max(v) - min(v)))
                      for v in map(pool.values, rows)])
    if limit is not None:
        n_eps = np.minimum(n_eps, limit)
    return pool.samples[rows], x[rows], pool.count[rows], n_eps


def both_kernels(args):
    """(eps*, p) of the rows by the integer kernel and by the general one:
    _search with _exact_p as the window score, as the program runs them."""
    samples, x, count, n_eps = args

    def search(integer):
        return adapt_module._search(n_eps, samples.shape[1], functools.partial(
            adapt_module._exact_p, samples, x, count, n_eps, integer), 0.0)
    return search(True), search(False)


class TestExactKernels:
    """The integer kernel against the general one (the definition's four
    comparisons per stored sample), and the choice between them."""

    @pytest.mark.parametrize("kind", [8, 16])
    def test_integer_kernel_matches_general(self, kind, exact_calls):
        pool, x, log_f = exact_pool(kind, seed=SEEDS[kind] + 100)
        count = pool.count
        assert {count.min(), count.max()} == {0, pool.maxlen}
        assert (count[:-1] < pool.maxlen).any()  # partly filled pools
        # far samples at both ends of the range in the evaluated pools
        assert (pool.samples == 0.0).any()
        assert (pool.samples == KINDS[kind][0] - 1.0).any()

        # the whole grid of every row; 16-bit grids reach 65535 points, so
        # there only the first rows run to the end and the rest stop early
        cases = [kernel_rows(pool, x, limit=None if kind == 8 else 3000)]
        if kind == 16:
            head = pool.take(np.arange(12))
            cases.append(kernel_rows(head, x[:12]))
        # and the calls the program makes, with and without a cut
        epsilon_star_exact_rows(pool, x)
        epsilon_star_exact_rows(pool, x, log_f)
        assert exact_calls and all(call[-1] for call in exact_calls)
        cases += [call[:-1] for call in exact_calls]
        for args in cases:
            (eps_i, p_i), (eps_g, p_g) = both_kernels(args)
            assert np.array_equal(eps_i, eps_g)
            assert np.array_equal(p_i, p_g)

    def test_tiny_offset_takes_the_general_path(self, exact_calls):
        # fl(1 - 1e-20) = 1.0 looks like an integer distance, yet 1e-20 lies
        # strictly inside the eps = 1 window around 1 and counts in full
        values = [1e-20, 1.0, 2.0, 3.0, 5.0]
        pool = SamplePool.from_history(np.array(values)[:, None], 5)
        got = epsilon_star_exact_rows(pool, [1.0])
        assert [call[-1] for call in exact_calls] == [False]
        want = ref.epsilon_star_exact(values, 1.0)
        assert (int(got[0][0]), float(got[1][0])) == (want.epsilon, want.p)
        assert want.p == 0.25
        # the single histogram would count 1e-20 once at eps = 1
        (_, p_i), (_, p_g) = both_kernels(kernel_rows(pool, np.array([1.0])))
        assert (p_i[0], p_g[0]) == (0.2, 0.25)

    def test_one_continuous_pixel_sends_the_frame_to_the_general_path(
            self, exact_calls):
        pool, x, _ = exact_pool(8, seed=5)
        epsilon_star_exact_rows(pool, x)
        assert {call[-1] for call in exact_calls} == {True}
        exact_calls.clear()
        samples = pool.samples.copy()
        samples[3, 0] += 0.5
        pool = SamplePool.from_slots(samples, pool.pushed)
        full = epsilon_star_exact_rows(pool, x)
        assert {call[-1] for call in exact_calls} == {False}
        i = 3
        want = ref.epsilon_star_exact(pool.values(i), float(x[i]))
        assert (int(full[0][i]), float(full[1][i])) == (want.epsilon, want.p)


def ulps_from(value, steps):
    """value moved ``steps`` floats up (steps > 0) or down."""
    for _ in range(abs(steps)):
        value = np.nextafter(value, math.copysign(math.inf, steps))
    return float(value)


@st.composite
def rounding_pixel(draw, maxlen):
    """x a few floats inside +-2**k, k <= 52, so never an integer below
    2**51, and ``maxlen`` slots each a few floats from the rounded x + eps
    or x - eps, where the float comparisons and exact arithmetic part;
    pushed from 0 to past a wrapped ring."""
    sign = draw(st.sampled_from([-1.0, 1.0]))
    x = sign * ulps_from(2.0 ** draw(st.integers(1, 52)),
                         -draw(st.integers(1, 3)))
    slots = [ulps_from(x + draw(st.sampled_from([-1.0, 1.0]))
                       * draw(st.integers(0, 4)), draw(st.integers(-3, 3)))
             for _ in range(maxlen)]
    return x, slots, draw(st.integers(0, 2 * maxlen + 1))


def log_f_near(draw, log_p):
    """A log density on or next to a cut-off: the full grid's log p*, the
    bound 1 / (2 eps) at a small eps, or anywhere in between."""
    edges = [-math.log(2.0 * eps) for eps in range(1, 5)]
    if math.isfinite(log_p):
        edges.append(log_p)
    edge = draw(st.sampled_from(edges))
    return draw(st.sampled_from([edge, np.nextafter(edge, -np.inf),
                                 np.nextafter(edge, np.inf),
                                 draw(st.floats(-6.0, 0.0))]))


class TestDefinitionKernel:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), pixels=st.integers(1, 4), maxlen=st.integers(1, 6))
    def test_rounding_cases_match_the_reference_bit_for_bit(
            self, data, pixels, maxlen):
        drawn = [data.draw(rounding_pixel(maxlen)) for _ in range(pixels)]
        x = np.array([d[0] for d in drawn])
        pool = SamplePool.from_slots([d[1] for d in drawn],
                                     [d[2] for d in drawn])
        # a non-integer frame: the definition kernel counts every window
        assert not _integer_levels(pool, x)
        full = epsilon_star_exact_rows(pool, x)
        for i in range(pixels):
            if pool.count[i] == 0:
                want = (1, (0.0).hex())
            else:
                r = ref.epsilon_star_exact(pool.values(i), x[i])
                want = (r.epsilon, r.p.hex())
            assert (int(full[0][i]), float(full[1][i]).hex()) == want, i
        with np.errstate(divide="ignore"):
            assert np.array_equal(full[2], np.log(full[1]))

        log_f = np.array([log_f_near(data.draw, lp) for lp in full[2]])
        cut = epsilon_star_exact_rows(pool, x, log_f)
        matched = log_f >= full[2]
        assert np.array_equal(log_f >= cut[2], matched)
        for got, want in zip(cut, full):
            assert np.array_equal(got[~matched], want[~matched])


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
        full = epsilon_star_approx_rows(w, mu, var, x)
        full_points = points()
        grid = 0
        for i in range(rows):
            m = MixtureModel([w[i]], [mu[i]], [var[i]], 100, levels or 256)
            want = ref.epsilon_star_approx(m, 0, float(x[i]))
            assert int(full[0][i]) == want.epsilon, i
            grid += grid_size(math.ceil(adapt_module.EPSILON_MAX_SIGMAS
                                        * math.sqrt(var[i])))
        assert full_points == grid

        log_f = log_density_rows(mu, var, x)
        # the bound at an eps of each grid: w / (2 eps) for eps = 1 .. 6
        bound = np.log(w) - np.log(2.0 * (1 + np.arange(rows) % 6))
        log_refs = with_ties(log_f, full[2], bound)
        times = log_refs.size // rows
        cut = epsilon_star_approx_rows(*(np.tile(a, times) for a in (w, mu, var, x)),
                                       log_refs)
        assert points() <= full_points * times
        assert_cut_keeps_decisions(tuple(np.tile(a, times) for a in full),
                                   cut, log_refs)

    def test_tie_at_the_cut(self):
        # sigma = 0.01 at x = mu: the eps = 1 window holds all the mass, so
        # log p = log w - log 2, exactly the bound
        w = np.full(3, 0.3)
        mu = x = np.full(3, 700.0)
        var = np.full(3, 1e-4)
        full = epsilon_star_approx_rows(w, mu, var, x)
        tie = full[2][0]
        assert tie == np.log(0.3) - np.log(2.0)
        log_f = np.array([tie, np.nextafter(tie, -np.inf),
                          np.nextafter(tie, np.inf)])
        cut = epsilon_star_approx_rows(w, mu, var, x, log_f)
        assert (log_f >= cut[2]).tolist() == [True, False, True]
        assert cut[0][1] == 1 and cut[2][1] == tie


@st.composite
def ragged_case(draw):
    """Pools of 1 to 12 pixels, integer or continuous, each partly filled,
    full, wrapped or empty; and an approx-mode grid of the same pixels.
    Log densities of -inf (whole grids) and of values that cut some rows
    to a shorter grid or to none."""
    pixels, maxlen = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    integer = draw(st.booleans())
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    spread = rng.choice([2.0, 30.0, 3000.0], pixels)[:, None]
    values = 500.0 + spread * rng.normal(0.0, 1.0, (pixels, maxlen))
    x = 500.0 + spread[:, 0] * rng.normal(0.0, 2.0, pixels)
    if integer:
        values, x = np.rint(values), np.rint(x)
    pushed = rng.integers(0, 2 * maxlen + 2, pixels)
    pool = SamplePool.from_slots(values, pushed)
    w = rng.uniform(0.01, 1.0, pixels)
    var = rng.choice([1e-4, 0.5, 9.0, 1e4], pixels)
    mu = x + np.sqrt(var) * rng.normal(0.0, 2.0, pixels)
    log_f = np.where(rng.random(pixels) < 0.3, -np.inf,
                     rng.uniform(-12.0, 1.0, pixels))
    return pool, x, (w, mu, var), log_f


class TestPasses:
    """Splitting the rows into passes of _PASS_BYTES never changes eps*."""

    @settings(max_examples=150, deadline=None)
    @given(case=ragged_case(),
           pass_bytes=st.integers(3, 30).map(lambda e: 1 << e)
           | st.integers(8, 1 << 30))
    def test_any_pass_size_gives_the_one_pass_result(self, case, pass_bytes):
        pool, x, approx, log_f = case

        def both_modes():
            out = []
            for ref in (-np.inf, log_f):
                out += epsilon_star_exact_rows(pool, x, ref)
                out += epsilon_star_approx_rows(*approx, x, ref)
            return out

        with mock.patch.object(adapt_module, "_PASS_BYTES", 1 << 62):
            one_pass = both_modes()
        with mock.patch.object(adapt_module, "_PASS_BYTES", pass_bytes):
            passes = both_modes()
        for got, want in zip(passes, one_pass):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_small_passes_split_the_rows(self, exact_calls):
        # at 8 B a pass holds one row: each row costs 8 B per point and slot
        pool, x, _ = exact_pool(8, seed=8, pixels=10)
        with mock.patch.object(adapt_module, "_PASS_BYTES", 8):
            split = epsilon_star_exact_rows(pool, x)
        assert [call[3].size for call in exact_calls] == [1] * 9  # one empty
        for got, want in zip(split, epsilon_star_exact_rows(pool, x)):
            assert np.array_equal(got, want)
