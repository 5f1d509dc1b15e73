import numpy as np

from thermobg.metrics import ConfusionCounts, accumulate, metrics


class TestAccumulate:
    def test_ignore_label_excluded_from_every_count(self):
        pred = np.array([[1, 0, 1], [0, 1, 0]])
        gt = np.array([[255, 0, 128], [128, 0, 255]])
        c = accumulate(pred, gt)
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 1)
        assert c.total == 4

    def test_custom_ignore_value(self):
        pred = np.array([[1, 1]])
        gt = np.array([[7, 0]])
        assert accumulate(pred, gt, ignore_value=7) == ConfusionCounts(fp=1)


class TestMetrics:
    def test_degenerate_denominators_named(self):
        m = metrics(ConfusionCounts(tn=10))
        assert m["precision"] == m["recall"] == m["f1"] == m["fnr"] == 0.0
        assert m["specificity"] == 1.0 and m["pwc"] == 0.0
        assert m["degenerate"] == "precision,recall,f1,fnr"

    def test_all_zero_counts(self):
        m = metrics(ConfusionCounts())
        assert m["degenerate"] == ("precision,recall,f1,specificity,fpr,"
                                   "fnr,pwc")

    def test_regular_counts_not_degenerate(self):
        m = metrics(ConfusionCounts(tp=3, fp=1, tn=5, fn=1))
        assert m["degenerate"] == ""
        assert m["precision"] == 0.75 and m["recall"] == 0.75
        assert m["pwc"] == 20.0
