import numpy as np
import pytest

from dgnet_lab import metrics
from dgnet_lab.rng import Rng


def rand_pair(rng, shape=(16, 16), p_gt=0.3, p_pred=0.3):
    gt = (rng.uniform(shape) < p_gt).astype(np.uint8)
    pred = (rng.uniform(shape) < p_pred).astype(np.uint8)
    return gt, pred


class TestConfusion:
    def test_perfect_prediction(self):
        gt = np.array([[1, 0], [0, 1]], np.uint8)
        c = metrics.confusion(gt, gt)
        assert (c.tp, c.fp, c.fn, c.tn) == (2, 0, 0, 2)

    def test_known_two_by_two(self):
        gt = np.array([[1, 1], [0, 0]], np.uint8)
        pred = np.array([[1, 0], [1, 0]], np.uint8)
        c = metrics.confusion(gt, pred)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)

    def test_counts_sum_to_pixel_count(self):
        rng = Rng(30)
        gt, pred = rand_pair(rng, shape=(33, 47))
        c = metrics.confusion(gt, pred)
        assert c.total == 33 * 47

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metrics.confusion(np.zeros((2, 2), np.uint8), np.zeros((2, 3), np.uint8))

    def test_non_binary_rejected(self):
        bad = np.array([[0, 2]], np.uint8)
        with pytest.raises(ValueError):
            metrics.confusion(bad, np.zeros((1, 2), np.uint8))


class TestScores:
    def test_known_two_by_two_values(self):
        gt = np.array([[1, 1], [0, 0]], np.uint8)
        pred = np.array([[1, 0], [1, 0]], np.uint8)
        r = metrics.score(metrics.confusion(gt, pred))
        assert r.accuracy == pytest.approx(0.5)
        assert r.precision == pytest.approx(0.5)
        assert r.recall == pytest.approx(0.5)
        assert r.f1 == pytest.approx(0.5)
        assert r.iou == pytest.approx(1.0 / 3.0)
        assert r.rfr == pytest.approx(1.0 / 3.0)

    def test_perfect_scores(self):
        gt = (Rng(31).uniform((8, 8)) < 0.4).astype(np.uint8)
        r = metrics.score(metrics.confusion(gt, gt))
        for v in (r.accuracy, r.precision, r.recall, r.f1, r.iou, r.rfr):
            assert v == pytest.approx(1.0)

    def test_empty_vs_empty_overlap_is_one(self):
        z = np.zeros((4, 4), np.uint8)
        r = metrics.score(metrics.confusion(z, z))
        assert r.iou == pytest.approx(1.0)
        assert r.f1 == pytest.approx(1.0)
        assert r.accuracy == pytest.approx(1.0)

    def test_f1_iou_identity(self):
        # F1 = 2*IoU / (1 + IoU) holds for every confusion table
        rng = Rng(32)
        for _ in range(200):
            gt, pred = rand_pair(rng)
            r = metrics.score(metrics.confusion(gt, pred))
            assert r.f1 == pytest.approx(2 * r.iou / (1 + r.iou), abs=1e-12)

    def test_rfr_equals_iou(self):
        rng = Rng(33)
        for _ in range(200):
            gt, pred = rand_pair(rng)
            r = metrics.score(metrics.confusion(gt, pred))
            assert r.rfr == r.iou

    def test_accuracy_invariant_under_label_swap(self):
        rng = Rng(34)
        gt, pred = rand_pair(rng)
        a = metrics.score(metrics.confusion(gt, pred)).accuracy
        b = metrics.score(metrics.confusion(1 - gt, 1 - pred)).accuracy
        assert a == pytest.approx(b)

    def test_row_normalised_confusion(self):
        gt = np.array([[1, 1], [0, 0]], np.uint8)
        pred = np.array([[1, 0], [1, 0]], np.uint8)
        c = metrics.confusion(gt, pred)
        assert metrics.score(c).recall == pytest.approx(0.5)   # oil row: tp / (tp + fn)
        assert c.fp / (c.fp + c.tn) == pytest.approx(0.5)      # background row


class TestBatchEval:
    def test_pooled_equals_summed_counts(self):
        rng = Rng(35)
        pairs = [rand_pair(rng) for _ in range(6)]
        reports, pooled, _ = metrics.batch_eval(pairs)
        total = metrics.ConfusionCounts(0, 0, 0, 0)
        for r in reports:
            total = total + r.counts
        assert pooled.counts == total

    def test_summary_quartiles_and_outliers(self):
        rng = Rng(36)
        pairs = [rand_pair(rng) for _ in range(20)]
        _, _, summary = metrics.batch_eval(pairs)
        for key in ("accuracy", "iou"):
            s = summary[key]
            assert s["min"] <= s["q1"] <= s["median"] <= s["q3"] <= s["max"]
            assert s["outlier_count"] >= 0

    def test_outlier_detection_flags_extreme_image(self):
        gt = np.ones((8, 8), np.uint8)
        good = [(gt, gt)] * 12
        bad = [(gt, np.zeros((8, 8), np.uint8))]
        _, _, summary = metrics.batch_eval(good + bad)
        assert summary["iou"]["outlier_count"] == 1

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            metrics.batch_eval([])


class TestCsv:
    def test_report_csv_layout(self):
        rng = Rng(37)
        pairs = [rand_pair(rng) for _ in range(3)]
        reports, pooled, _ = metrics.batch_eval(pairs)
        text = metrics.report_csv_text(["a.pgm", "b.pgm", "c.pgm"], reports, pooled)
        lines = text.strip().split("\n")
        assert lines[0] == "image,tp,fp,fn,tn,accuracy,precision,recall,f1,iou,rfr"
        assert len(lines) == 5  # header + 3 rows + POOLED
        assert lines[-1].startswith("POOLED,")
        assert lines[1].startswith("a.pgm,")

    def test_summary_csv_layout(self):
        rng = Rng(38)
        pairs = [rand_pair(rng) for _ in range(3)]
        _, _, summary = metrics.batch_eval(pairs)
        lines = metrics.summary_csv_text(summary).strip().split("\n")
        assert lines[0] == "metric,min,q1,median,q3,max,mean,std,outlier_count"
        assert len(lines) == 3
