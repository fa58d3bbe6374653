"""Binary segmentation metric suite: confusion counts, accuracy, precision,
recall, F1, IoU, and the region fitting rate.

RFR is reported separately but is set-identical to IoU (both are
|G intersect S| / |G union S| on pixel sets), and F1 relates to IoU through
the exact identity f1 = 2*iou / (1 + iou).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp,
                               self.fn + other.fn, self.tn + other.tn)


@dataclass(frozen=True)
class MetricsReport:
    counts: ConfusionCounts
    accuracy: float
    precision: float
    recall: float
    f1: float
    iou: float
    rfr: float


def _as_binary(name, mask) -> np.ndarray:
    arr = np.asarray(mask)
    if arr.dtype == bool:
        return arr
    vals = np.unique(arr)
    if not np.isin(vals, (0, 1)).all():
        raise ValueError(f"{name} mask must be binary, found values {vals[:8]}")
    return arr.astype(bool)


def confusion(gt, pred) -> ConfusionCounts:
    """Exact pixel counts between a ground-truth and a predicted mask."""
    g = _as_binary("gt", gt)
    p = _as_binary("pred", pred)
    if g.shape != p.shape:
        raise ValueError(f"shape mismatch: gt {g.shape} vs pred {p.shape}")
    tp = int(np.count_nonzero(g & p))
    fp = int(np.count_nonzero(~g & p))
    fn = int(np.count_nonzero(g & ~p))
    tn = int(np.count_nonzero(~g & ~p))
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def score(counts: ConfusionCounts) -> MetricsReport:
    """Derived scores; empty-vs-empty masks score 1.0 on the overlap metrics."""
    if counts.total == 0:
        raise ValueError("cannot score zero pixels")
    tp, fp, fn, tn = counts.tp, counts.fp, counts.fn, counts.tn
    accuracy = (tp + tn) / counts.total
    if tp + fp + fn == 0:
        precision = recall = f1 = iou = 1.0
    else:
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2.0 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        iou = tp / (tp + fp + fn)
    return MetricsReport(counts=counts, accuracy=accuracy, precision=precision,
                         recall=recall, f1=f1, iou=iou, rfr=iou)


def _distribution(values) -> dict:
    v = np.asarray(values, dtype=np.float64)
    q1, med, q3 = np.percentile(v, (25, 50, 75))
    iqr = q3 - q1
    outliers = int(np.count_nonzero((v < q1 - 1.5 * iqr) | (v > q3 + 1.5 * iqr)))
    return {
        "min": float(v.min()), "q1": float(q1), "median": float(med),
        "q3": float(q3), "max": float(v.max()), "mean": float(v.mean()),
        "std": float(v.std()), "outlier_count": outliers,
    }


def batch_eval(pairs):
    """Per-image reports, a pooled report over summed counts, and distribution
    summaries (with 1.5*IQR outlier counts) of per-image accuracy and IoU."""
    if len(pairs) == 0:
        raise ValueError("batch_eval needs at least one (gt, pred) pair")
    reports = [score(confusion(gt, pred)) for gt, pred in pairs]
    pooled_counts = reports[0].counts
    for r in reports[1:]:
        pooled_counts = pooled_counts + r.counts
    pooled = score(pooled_counts)
    summary = {
        "accuracy": _distribution([r.accuracy for r in reports]),
        "iou": _distribution([r.iou for r in reports]),
    }
    return reports, pooled, summary


# -- CSV emission -------------------------------------------------------------


def _report_row(name, r: MetricsReport) -> str:
    c = r.counts
    return (f"{name},{c.tp},{c.fp},{c.fn},{c.tn},"
            f"{r.accuracy:.9g},{r.precision:.9g},{r.recall:.9g},"
            f"{r.f1:.9g},{r.iou:.9g},{r.rfr:.9g}")


def report_csv_text(names, reports, pooled: MetricsReport) -> str:
    lines = ["image,tp,fp,fn,tn,accuracy,precision,recall,f1,iou,rfr"]
    lines.extend(_report_row(name, r) for name, r in zip(names, reports))
    lines.append(_report_row("POOLED", pooled))
    return "".join(line + "\n" for line in lines)


def summary_csv_text(summary: dict) -> str:
    lines = ["metric,min,q1,median,q3,max,mean,std,outlier_count"]
    for metric, s in summary.items():
        lines.append(f"{metric},{s['min']:.9g},{s['q1']:.9g},{s['median']:.9g},"
                     f"{s['q3']:.9g},{s['max']:.9g},{s['mean']:.9g},"
                     f"{s['std']:.9g},{s['outlier_count']}")
    return "".join(line + "\n" for line in lines)
