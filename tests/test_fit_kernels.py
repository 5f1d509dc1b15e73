"""The batched fit's kernels: ``_seq_sum`` adds in index order whatever the
shape, axis or memory layout, ``_exp`` is np.exp bit for bit, and
e_step_rows, m_step_rows and elbo_rows give a pixel the same bits alone as
in a padded block of pixels; _BlockFit._passes puts each live row in one
pass within _PASS_ELEMENTS."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thermobg.fit as fit_mod
from thermobg.fit import (Priors, VariationalPosterior, e_step_rows,
                          elbo_rows, m_step_rows)


def in_order(x, axis):
    """The reference: add the slices along ``axis`` one after the other."""
    x = np.moveaxis(x, axis, 0)
    total = x[0].copy()
    for part in x[1:]:
        total += part
    return total


def same_bits(a, b):
    return np.shape(a) == np.shape(b) and (np.asarray(a).tobytes()
                                           == np.asarray(b).tobytes())


class TestSeqSum:
    @pytest.mark.parametrize("shape", [(5,), (1,), (4, 5), (1, 5), (4, 1),
                                       (3, 4, 5), (3, 1, 5), (3, 4, 1),
                                       (1, 1, 5)])
    def test_other_axes_keep_their_order(self, shape):
        x = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
        for axis in range(len(shape)):
            want = shape[:axis] + shape[axis + 1:]
            assert np.shape(fit_mod._seq_sum(x, axis)) == want, axis
            assert np.shape(fit_mod._seq_sum(x.T.copy().T, axis)) == want

    @settings(max_examples=300, deadline=None)
    @given(shape=st.lists(st.one_of(st.sampled_from([1, 2, 3]),
                                    st.integers(1, 40)),
                          min_size=1, max_size=3),
           transposed=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_adds_in_index_order(self, shape, transposed, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(shape)
        # signed terms from 1e-8 to 1e8, so the grouping shows in the bits
        x = (rng.choice([-1.0, 1.0], shape) * rng.uniform(1.0, 10.0, shape)
             * 10.0 ** rng.integers(-8, 8, shape))
        if transposed:
            x = np.ascontiguousarray(x.T).T  # same values, column-major
        for axis in range(x.ndim):
            assert same_bits(fit_mod._seq_sum(x, axis), in_order(x, axis)), axis


def block(ks, ls, seed):
    """A block of pixels with k[p] components and l[p] levels each, padded
    as _BlockFit pads them: stale values in the unused components, each
    pixel's largest level repeated with count 0 below its own.  Levels and
    counts are column-major, which the kernels must read as they read
    C-contiguous ones."""
    rng = np.random.default_rng(seed)
    n_comp, n_levels, n_pixels = max(ks), max(ls), len(ks)
    levels = np.empty((n_levels, n_pixels))
    counts = np.zeros((n_levels, n_pixels))
    for p, n in enumerate(ls):
        levels[:n, p] = np.sort(rng.choice(300, n, replace=False)
                                + rng.uniform(0.0, 1.0, n))
        levels[n:, p] = levels[n - 1, p]
        counts[:n, p] = rng.integers(1, 9, n)
    shape = (n_comp, n_pixels)
    a = rng.uniform(1.0, 50.0, shape)
    post = VariationalPosterior(
        lambda_=rng.uniform(1.0, 50.0, shape),
        m=rng.uniform(0.0, 300.0, shape),
        beta=rng.uniform(1.0, 50.0, shape),
        a=a, b=a * rng.uniform(0.5, 400.0, shape))
    priors = Priors(lambda0=1.0, m0=rng.uniform(0.0, 300.0, n_pixels),
                    beta0=rng.uniform(1e-4, 1.0, n_pixels), a0=1e-3, b0=1e-3)
    return (post, np.asfortranarray(levels), np.asfortranarray(counts),
            np.array(ks), priors)


class TestBlockKernels:
    @pytest.mark.parametrize("ks, ls", [
        ([1, 1, 1], [5, 1, 9]),           # K = 1
        ([3, 1, 20], [1, 1, 1]),          # L = 1
        ([20, 3, 1, 12], [40, 7, 1, 25]),  # K and L padded
        ([9, 9], [30, 30]),               # nothing padded
    ])
    def test_a_pixel_alone_equals_its_column(self, ks, ls):
        post, levels, counts, k, priors = block(ks, ls, seed=sum(ks) + len(ls))
        resp = e_step_rows(post, levels, k)
        n_levels, n_comp = max(ls), max(ks)
        assert resp.shape == (n_comp, n_levels, len(ks))
        assert resp.flags.c_contiguous
        fitted = m_step_rows(resp, levels, counts, priors)
        bound = elbo_rows(fitted, counts, k, priors)
        for p, (kp, lp) in enumerate(zip(ks, ls)):
            cols = slice(p, p + 1)
            alone = VariationalPosterior(**{
                name: getattr(post, name)[:kp, cols]
                for name in ("lambda_", "m", "beta", "a", "b")})
            one_resp = e_step_rows(alone, levels[:lp, cols], k[cols])
            assert one_resp.flags.c_contiguous
            assert same_bits(one_resp, resp[:kp, :lp, cols]), p
            assert not resp[kp:, :, p].any(), p
            one = m_step_rows(one_resp, levels[:lp, cols], counts[:lp, cols],
                              priors.take([p]))
            for name in ("Nk", "xbar", "sigma", "lambda_", "m", "beta", "a",
                         "b"):
                assert same_bits(getattr(one, name),
                                 getattr(fitted, name)[:kp, cols]), (p, name)
            one_bound = elbo_rows(one, counts[:lp, cols], k[cols],
                                  priors.take([p]))
            assert same_bits(one_bound, bound[cols]), p


# Values on and around the edges of np.exp's ranges: -707 (_EXP_NORMAL),
# -708.4 (the smallest normal result), -745.13 (the smallest subnormal one)
# and -746 (_EXP_ZERO).
EDGES = [-707.0, -708.3964185322641, -708.4, -745.1332191019411, -745.14,
         -746.0]


def exp_inputs():
    near = st.sampled_from(EDGES).flatmap(
        lambda e: st.sampled_from([e, np.nextafter(e, 0.0),
                                   np.nextafter(e, -np.inf)]))
    value = st.one_of(st.floats(-800.0, 0.0), near,
                      st.sampled_from([-np.inf, np.nan]))
    shape = st.lists(st.integers(1, 6), min_size=1, max_size=3)
    return shape.flatmap(lambda s: st.lists(
        value, min_size=math.prod(s), max_size=math.prod(s)).map(
            lambda v: np.array(v, dtype=np.float64).reshape(s)))


class TestExp:
    @settings(max_examples=400, deadline=None)
    @given(x=exp_inputs())
    def test_equals_np_exp_bit_for_bit(self, x):
        with np.errstate(all="ignore"):
            want = np.exp(x)
        got = fit_mod._exp(x.copy())
        assert same_bits(got, want), (x[got != want], got[got != want])

    def test_each_range(self):
        x = np.array([0.0, -1.0, -707.0, -707.5, -745.1, -745.2, -746.0,
                      -900.0, -np.inf, np.nan])
        got = fit_mod._exp(x.copy())
        assert same_bits(got, np.exp(x))
        assert 0.0 < got[4] < np.finfo(float).tiny  # subnormal, not 0
        assert not got[6:9].any() and np.isnan(got[9])


class TestPasses:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 50), st.integers(1, 2000)),
                    min_size=1, max_size=200), st.data())
    def test_each_live_row_in_one_pass_within_the_element_cap(self, pixels,
                                                               data):
        # each pixel is a (K, distinct levels) pair
        k, n_levels = (np.array(x, dtype=np.int64) for x in zip(*pixels))
        block = types.SimpleNamespace(k=k,
                                      levels=types.SimpleNamespace(n=n_levels))
        live = np.flatnonzero(data.draw(st.lists(
            st.booleans(), min_size=k.size, max_size=k.size).filter(any)))
        passes = list(fit_mod._BlockFit._passes(block, live))
        together = np.concatenate(passes)
        assert sorted(together.tolist()) == live.tolist()
        for rows in passes:
            if rows.size > 1:
                assert (rows.size * k[rows].max() * n_levels[rows].max()
                        <= fit_mod._PASS_ELEMENTS)
