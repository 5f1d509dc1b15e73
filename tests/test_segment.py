import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from thermobg.segment import (FOREGROUND, MaskFrame, SegmentationConfig,
                              blob_filter)

label_grids = st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
    lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 1)))


class TestBlobFilter:
    @settings(max_examples=200, deadline=None)
    @given(labels=label_grids, min_blob=st.integers(0, 20),
           connectivity=st.sampled_from([4, 8]))
    def test_idempotent_and_never_adds_foreground(self, labels, min_blob,
                                                  connectivity):
        cfg = SegmentationConfig(min_blob_area=min_blob,
                                 connectivity=connectivity)
        once = blob_filter(MaskFrame(labels), cfg)
        twice = blob_filter(once, cfg)
        assert np.array_equal(once.labels, twice.labels)
        assert not np.any((once.labels == FOREGROUND) & (labels != FOREGROUND))

    @settings(max_examples=200, deadline=None)
    @given(labels=label_grids, min_blob=st.integers(0, 20),
           connectivity=st.sampled_from([4, 8]))
    def test_equals_labelling_every_blob(self, labels, min_blob,
                                         connectivity):
        # the definition, also where too few foreground pixels for one
        # large blob let blob_filter skip the labelling pass
        cfg = SegmentationConfig(min_blob_area=min_blob,
                                 connectivity=connectivity)
        structure = ndimage.generate_binary_structure(
            2, 2 if connectivity == 8 else 1)
        blobs, n = ndimage.label(labels == FOREGROUND, structure=structure)
        small = np.bincount(blobs.ravel(), minlength=n + 1) < min_blob
        small[0] = False
        expected = np.where(small[blobs], 0, labels)
        got = blob_filter(MaskFrame(labels), cfg)
        assert np.array_equal(got.labels, expected)

    def test_connectivity_decides_diagonal_blobs(self):
        labels = np.eye(4, dtype=np.uint8)
        mask = MaskFrame(labels)
        kept = blob_filter(mask, SegmentationConfig(min_blob_area=4,
                                                    connectivity=8))
        dropped = blob_filter(mask, SegmentationConfig(min_blob_area=4,
                                                       connectivity=4))
        assert np.array_equal(kept.labels, labels)
        assert not dropped.labels.any()
