"""The classify step that reads one shared distance pass, pinned bit for bit.

process_frame computes the squared distances (x - mu)^2 / var once
(MixtureState.distances) and takes the posterior, the matched component and
its log density from them.  Before, the posterior and the match each
computed their own distances, the posterior summed its columns one at a
time and clipped the result, and the log density came from the matched
mean and variance.  Those formulas are kept here as the reference, and over
random states (padding slots, variances at VARIANCE_FLOOR, samples far
enough out that exp underflows, 8- and 16-bit levels, tied components) the
shared pass must give equal posteriors, labels, matched indices and log
densities, compared with np.array_equal.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from thermobg.adapt import match_rows
from thermobg.core import VARIANCE_FLOOR, MixtureState
from thermobg.engine import PixelGrid, process_frame
from thermobg.segment import FOREGROUND, SegmentationConfig, posterior_bg_rows

LOG_2PI = math.log(2.0 * math.pi)


def reference_posterior(state, x, cfg):
    diff = np.asarray(x, dtype=np.float64)[:, None] - state.means
    var = state.variances
    pdf = np.exp(-0.5 * diff * diff / var) / np.sqrt(2.0 * math.pi * var)
    terms = state.weights * pdf
    d = np.zeros(state.n_pixels)
    for col in terms.T:
        d += col
    p = cfg.p_bg * d / (d + 1.0 / state.intensity_levels)
    return np.clip(p, 0.0, 1.0)


def reference_match(state, x):
    """The matched index and its log density."""
    x = np.asarray(x, dtype=np.float64)
    d2 = (x[:, None] - state.means) * (x[:, None] - state.means) \
        / state.variances
    d2[np.arange(state.capacity) >= state.k[:, None]] = np.inf
    c = np.argmin(d2, axis=1)
    rows = np.arange(state.n_pixels)
    mu, var = state.means[rows, c], state.variances[rows, c]
    log_f = -0.5 * (LOG_2PI + np.log(var)) - 0.5 * (x - mu) * (x - mu) / var
    return c, log_f


def reference_frame(state, x, cfg):
    """process_frame's posterior and raw labels, non-finite samples
    included."""
    with np.errstate(invalid="ignore"):
        posterior = reference_posterior(state, x, cfg)
    posterior[~np.isfinite(x)] = 0.0
    labels = np.where(posterior >= cfg.decision_threshold, 0,
                      FOREGROUND).astype(np.uint8)
    return posterior, labels


@st.composite
def classify_cases(draw):
    levels = draw(st.sampled_from([256, 65536]))
    top = levels - 1.0
    pixels = draw(st.integers(1, 10))
    cap = draw(st.integers(1, 10))
    k = draw(st.lists(st.integers(1, cap), min_size=pixels, max_size=pixels))
    # a few shared values, so components tie on their distance
    shared_mean = draw(st.floats(0.0, top))
    shared_var = draw(st.sampled_from([VARIANCE_FLOOR, 1.0, 64.0]))
    mean = st.one_of(st.just(shared_mean), st.floats(0.0, top),
                     st.integers(0, levels - 1).map(float))
    var = st.one_of(st.just(shared_var), st.just(VARIANCE_FLOOR),
                    st.floats(VARIANCE_FLOOR, 4.0),
                    st.floats(4.0, float(levels) ** 2))
    weights, means = np.zeros((pixels, cap)), np.zeros((pixels, cap))
    variances = np.ones((pixels, cap))
    x = np.empty(pixels)
    for p, kp in enumerate(k):
        shares = np.array(draw(st.lists(st.integers(1, 20), min_size=kp,
                                        max_size=kp)), dtype=np.float64)
        weights[p, :kp] = shares / shares.sum()
        means[p, :kp] = draw(st.lists(mean, min_size=kp, max_size=kp))
        variances[p, :kp] = draw(st.lists(var, min_size=kp, max_size=kp))
        centre = means[p, draw(st.integers(0, kp - 1))]
        near = st.floats(centre - 30.0, centre + 30.0)
        far = st.sampled_from([0.0, top, -float(levels), 2.0 * levels])
        x[p] = draw(st.one_of(near, near.map(round).map(float), far,
                              st.integers(0, levels - 1).map(float)))
    state = MixtureState(weights, means, variances,
                         np.array(k, dtype=np.int64), 100, levels)
    cfg = SegmentationConfig(p_bg=draw(st.sampled_from([0.6, 0.9])),
                             decision_threshold=draw(st.sampled_from(
                                 [0.5, 0.3, 0.59])),
                             min_blob_area=0)
    return state, x, cfg


@settings(max_examples=300, deadline=None)
@given(case=classify_cases())
def test_shared_distances_match_the_two_pass_formulas(case):
    state, x, cfg = case
    d2 = state.distances(x)
    assert np.array_equal(posterior_bg_rows(state, x, cfg, d2),
                          reference_posterior(state, x, cfg))
    assert np.array_equal(posterior_bg_rows(state, x, cfg),
                          reference_posterior(state, x, cfg))
    match = match_rows(state, d2)
    c, log_f = reference_match(state, x)
    assert np.array_equal(match.c, c)
    assert np.array_equal(match.log_f, log_f)
    rows = np.arange(state.n_pixels)
    assert np.array_equal(match.weight, state.weights[rows, c])
    assert np.array_equal(match.mean, state.means[rows, c])
    assert np.array_equal(match.var, state.variances[rows, c])


@settings(max_examples=150, deadline=None)
@given(case=classify_cases(), bad=st.lists(st.sampled_from(
    [None, np.nan, np.inf, -np.inf]), min_size=10, max_size=10))
def test_process_frame_posterior_and_labels(case, bad):
    state, x, cfg = case
    x = np.array([v if b is None else b for v, b in zip(x, bad)])
    posterior, labels = reference_frame(state, x, cfg)
    grid = PixelGrid(state.n_pixels, 1, state, cfg)
    mask = process_frame(grid, x.reshape(1, -1), update=False)
    assert np.array_equal(mask.posterior.ravel(), posterior)
    assert np.array_equal(mask.labels.ravel(), labels)


def test_far_samples_underflow_to_a_zero_posterior():
    # variance at the floor: (x - mu)^2 / var = 1e4 at one level away
    state = MixtureState(np.array([[1.0]]), np.array([[100.0]]),
                         np.array([[VARIANCE_FLOOR]]), np.array([1]), 100, 256)
    cfg = SegmentationConfig()
    for x in ([101.0], [0.0], [255.0]):
        assert posterior_bg_rows(state, x, cfg)[0] == 0.0
        assert np.array_equal(posterior_bg_rows(state, x, cfg),
                              reference_posterior(state, x, cfg))
