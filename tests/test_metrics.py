"""Confusion counting against a brute-force oracle, metric identities, and
the published evaluation table's internal consistency."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffnet.errors import ContractError, ShapeError
from diffnet.metrics import (
    ConfusionCounts,
    MetricSet,
    aggregate,
    confusion_counts,
    metrics_from_counts,
)

from table_fixtures import EMSR_TABLE


def counting_oracle(pred, truth):
    """Naive per-pixel loop; the reference for confusion_counts."""
    tp = fp = tn = fn = skipped = 0
    for p, t in zip(pred.reshape(-1).tolist(), truth.reshape(-1).tolist()):
        if t == 255 or p == 255:
            skipped += 1
        elif p == 1 and t == 1:
            tp += 1
        elif p == 1 and t == 0:
            fp += 1
        elif p == 0 and t == 0:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn, skipped


class TestConfusionCounts:
    def test_four_pixel_example(self):
        c = confusion_counts(np.array([1, 0, 1, 0]), np.array([1, 1, 0, 0]))
        assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 1)

    def test_identity_has_no_errors(self):
        g = np.random.default_rng(0)
        m = (g.uniform(size=(16, 16)) < 0.4).astype(np.uint8)
        c = confusion_counts(m, m)
        assert c.fp == 0 and c.fn == 0

    def test_matches_oracle_with_nodata(self):
        g = np.random.default_rng(1)
        for _ in range(10):
            pred = g.choice([0, 1], size=(64, 64)).astype(np.uint8)
            truth = g.choice([0, 1, 255], size=(64, 64), p=[0.5, 0.4, 0.1]).astype(np.uint8)
            c = confusion_counts(pred, truth)
            assert (c.tp, c.fp, c.tn, c.fn, c.nodata_skipped) == (
                counting_oracle(pred, truth)[0],
                counting_oracle(pred, truth)[1],
                counting_oracle(pred, truth)[2],
                counting_oracle(pred, truth)[3],
                counting_oracle(pred, truth)[4],
            )

    def test_total_invariant(self):
        g = np.random.default_rng(2)
        pred = g.choice([0, 1], size=(32, 32)).astype(np.uint8)
        truth = g.choice([0, 1, 255], size=(32, 32)).astype(np.uint8)
        c = confusion_counts(pred, truth)
        assert c.tp + c.fp + c.tn + c.fn + c.nodata_skipped == 32 * 32

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            confusion_counts(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_prediction_values_at_nodata_are_irrelevant(self):
        g = np.random.default_rng(3)
        pred = g.choice([0, 1], size=(16, 16)).astype(np.uint8)
        truth = g.choice([0, 1, 255], size=(16, 16), p=[0.4, 0.4, 0.2]).astype(np.uint8)
        flipped = pred.copy()
        flipped[truth == 255] = 1 - np.minimum(flipped[truth == 255], 1)
        assert confusion_counts(pred, truth) == confusion_counts(flipped, truth)


class TestMetricsFromCounts:
    def test_unit_counts(self):
        m = metrics_from_counts(ConfusionCounts(tp=1, fp=1, tn=1, fn=1))
        assert m.accuracy == 0.5
        assert m.precision == 0.5
        assert m.recall == 0.5
        assert m.f1 == 0.5
        assert m.iou == pytest.approx(1 / 3)
        assert m.dice == 0.5
        assert not m.degenerate

    @pytest.mark.parametrize(
        "precision,recall,f1_expected,iou_expected",
        [(0.944, 0.921, 0.932, 0.873), (0.353, 0.974, 0.519, 0.350)],
    )
    def test_published_rows_recoverable_from_precision_recall(
        self, precision, recall, f1_expected, iou_expected
    ):
        f1 = 2 * precision * recall / (precision + recall)
        assert f1 == pytest.approx(f1_expected, abs=1.5e-3)
        assert f1 / (2 - f1) == pytest.approx(iou_expected, abs=1.5e-3)

    def test_degenerate_zero_division_flags(self):
        m = metrics_from_counts(ConfusionCounts(tp=0, fp=0, tn=5, fn=0))
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
        assert m.degenerate

    def test_all_zero_counts_rejected(self):
        with pytest.raises(ContractError):
            metrics_from_counts(ConfusionCounts(tp=0, fp=0, tn=0, fn=0, nodata_skipped=9))


counts_strategy = st.tuples(
    st.integers(0, 500), st.integers(0, 500), st.integers(0, 500), st.integers(0, 500)
).filter(lambda t: sum(t) > 0)


@settings(max_examples=200, deadline=None)
@given(counts=counts_strategy)
def test_f1_equals_dice_and_iou_identity(counts):
    tp, fp, tn, fn = counts
    m = metrics_from_counts(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
    assert abs(m.f1 - m.dice) < 1e-12
    if not m.degenerate:
        assert abs(m.iou - m.f1 / (2 - m.f1)) < 1e-12
    assert m.iou <= m.f1 + 1e-12


@settings(max_examples=200, deadline=None)
@given(counts=counts_strategy)
@example(counts=(0, 0, 5, 0))
@example(counts=(0, 3, 0, 0))
@example(counts=(0, 0, 0, 4))
@example(counts=(0, 2, 7, 3))
@example(counts=(1, 0, 0, 0))
def test_degenerate_exactly_without_a_true_positive(counts):
    """A set is degenerate exactly when tp is 0, and then its five ratios
    read 0.0; with a true positive no ratio is 0."""
    tp, fp, tn, fn = counts
    m = metrics_from_counts(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
    assert m.degenerate == (tp == 0)
    ratios = (m.precision, m.recall, m.f1, m.iou, m.dice)
    if tp == 0:
        assert ratios == (0.0,) * 5
    else:
        assert all(r > 0 for r in ratios)


@settings(max_examples=100, deadline=None)
@given(counts=counts_strategy, nodata=st.integers(0, 100))
def test_metrics_invariant_to_nodata_volume(counts, nodata):
    tp, fp, tn, fn = counts
    a = metrics_from_counts(ConfusionCounts(tp, fp, tn, fn, nodata_skipped=0))
    b = metrics_from_counts(ConfusionCounts(tp, fp, tn, fn, nodata_skipped=nodata))
    assert a.as_tuple() == b.as_tuple()


class TestAggregate:
    def test_published_table_mean_and_std(self):
        sets = [
            MetricSet(acc, p, r, f1, iou, dice)
            for _, acc, p, r, f1, iou, dice in EMSR_TABLE
        ]
        mean, std = aggregate(sets)
        assert mean.f1 == pytest.approx(0.735, abs=1e-3)
        # the published Std row matches the sample convention (divisor N-1):
        # sample std of the F1 column is 0.1858, divisor-N gives 0.1803
        assert std.f1 == pytest.approx(0.186, abs=2e-3)
        values = np.array([s.f1 for s in sets])
        assert abs(values.std(ddof=1) - 0.186) < 2e-3
        assert abs(values.std(ddof=0) - 0.186) > 2e-3

    def test_single_element_degenerate_std(self):
        m = MetricSet(0.9, 0.8, 0.7, 0.75, 0.6, 0.75)
        mean, std = aggregate([m])
        assert mean.as_tuple() == m.as_tuple()
        assert std.as_tuple() == (0.0,) * 6
        assert std.degenerate

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            aggregate([])
