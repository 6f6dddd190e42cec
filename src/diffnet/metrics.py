"""Confusion tallies and the six-metric evaluation suite.

Pixels valued 255 in either mask are nodata: skipped from the tallies and
reported separately.  A site with no true positive is degenerate: its
precision, recall, F1, IoU and Dice read 0.0 and its flag is set, so
aggregation over many sites stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import NODATA
from .errors import ContractError, ShapeError

METRIC_NAMES = ("accuracy", "precision", "recall", "f1", "iou", "dice")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int
    nodata_skipped: int = 0


@dataclass(frozen=True)
class MetricSet:
    accuracy: float
    precision: float
    recall: float
    f1: float
    iou: float
    dice: float
    degenerate: bool = False

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in METRIC_NAMES)


def confusion_codes(pred, truth) -> np.ndarray:
    """Each pixel's class as the code 2*(pred == 1) + (truth == 1), that is
    0 tn, 1 fn, 2 fp, 3 tp, or 4 where either mask is nodata."""
    p = np.asarray(pred)
    t = np.asarray(truth)
    if p.shape != t.shape:
        raise ShapeError(f"pred shape {p.shape} does not match truth shape {t.shape}")
    return np.where((p == NODATA) | (t == NODATA), 4, 2 * (p == 1) + (t == 1))


def confusion_counts(pred, truth) -> ConfusionCounts:
    """Per-pixel confusion tallies of a binary prediction against truth."""
    codes = confusion_codes(pred, truth).ravel()
    tn, fn, fp, tp, nodata = np.bincount(codes, minlength=5).tolist()
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn, nodata_skipped=nodata)


def metrics_from_counts(c: ConfusionCounts) -> MetricSet:
    """Accuracy, precision, recall, F1, IoU and Dice from confusion counts;
    with no true positive the last five read 0.0 and the set is degenerate."""
    valid = c.tp + c.fp + c.tn + c.fn
    if valid == 0:
        raise ContractError("metrics_from_counts requires at least one valid pixel")
    accuracy = (c.tp + c.tn) / valid
    if c.tp == 0:
        return MetricSet(accuracy, 0.0, 0.0, 0.0, 0.0, 0.0, degenerate=True)
    precision = c.tp / (c.tp + c.fp)
    recall = c.tp / (c.tp + c.fn)
    return MetricSet(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=2 * precision * recall / (precision + recall),
        iou=c.tp / (c.tp + c.fp + c.fn),
        dice=2 * c.tp / (2 * c.tp + c.fp + c.fn),
    )


def aggregate(sets: list[MetricSet]) -> tuple[MetricSet, MetricSet]:
    """Per-metric mean and sample standard deviation (divisor N - 1).

    A single-element list falls back to the divisor-N convention (std 0)
    and flags the std row degenerate.
    """
    if not sets:
        raise ContractError("aggregate requires a nonempty list of metric sets")
    values = np.array([s.as_tuple() for s in sets], dtype=np.float64)
    any_degenerate = any(s.degenerate for s in sets)
    mean = values.mean(axis=0)
    if len(sets) == 1:
        std = np.zeros(values.shape[1])
        std_degenerate = True
    else:
        std = values.std(axis=0, ddof=1)
        std_degenerate = any_degenerate
    mean_set = MetricSet(*mean, degenerate=any_degenerate)
    std_set = MetricSet(*std, degenerate=std_degenerate)
    return mean_set, std_set
