"""Hybrid loss semantics against closed forms and independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffnet.errors import ConfigError, ShapeError
from diffnet.losses import (
    LossConfig,
    auto_pos_weight,
    dice_loss,
    weighted_bce,
)
from diffnet.tensor import Tensor
from diffnet.train import hybrid_loss


def bce_oracle(probs, target, pos_weight):
    """Independently coded elementwise formula, numpy only."""
    p = np.clip(probs, 1e-7, 1 - 1e-7)
    y = (target == 1).astype(np.float64)
    valid = (target != 255).astype(np.float64)
    terms = pos_weight * y * np.log(p) + (1 - y) * np.log(1 - p)
    return -(terms * valid).sum() / valid.sum()


class TestWeightedBce:
    def test_half_probability_single_positive(self):
        probs = Tensor(np.array([[0.5]], np.float32))
        loss = weighted_bce(probs, np.array([[1]], np.uint8), pos_weight=1.0)
        assert loss.item() == pytest.approx(0.693147, abs=1e-5)

    def test_perfect_prediction_is_tiny(self):
        eps = 1e-6
        target = np.array([[1, 0, 1, 0]], np.uint8)
        probs = Tensor(np.where(target == 1, 1.0 - eps, eps).astype(np.float64))
        assert weighted_bce(probs, target, 1.0).item() <= 1e-5

    def test_matches_direct_formula_oracle(self):
        g = np.random.default_rng(0)
        probs = g.uniform(0.01, 0.99, size=(2, 1, 8, 8))
        target = (g.uniform(size=(2, 1, 8, 8)) < 0.3).astype(np.uint8)
        got = weighted_bce(Tensor(probs), target, pos_weight=4.0).item()
        assert abs(got - bce_oracle(probs, target, 4.0)) < 1e-6

    def test_nodata_pixels_are_excluded(self):
        g = np.random.default_rng(1)
        probs = g.uniform(0.1, 0.9, size=(1, 1, 4, 4))
        target = (g.uniform(size=(1, 1, 4, 4)) < 0.5).astype(np.uint8)
        target[0, 0, 0, :2] = 255
        base = weighted_bce(Tensor(probs), target, 2.0).item()
        flipped = probs.copy()
        flipped[0, 0, 0, :2] = 1.0 - flipped[0, 0, 0, :2]
        assert weighted_bce(Tensor(flipped), target, 2.0).item() == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("pos_weight", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_weight_rejected(self, pos_weight):
        probs = Tensor(np.full((1, 1), 0.5, np.float32))
        with pytest.raises(ConfigError, match="pos_weight must be positive"):
            weighted_bce(probs, np.ones((1, 1), np.uint8), pos_weight=pos_weight)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            weighted_bce(Tensor(np.full((2, 2), 0.5)), np.ones((3, 3), np.uint8), 1.0)


class TestDiceLoss:
    def test_perfect_overlap_is_zero(self):
        target = np.array([[1, 0], [0, 1]], np.uint8)
        probs = Tensor(target.astype(np.float32))
        assert dice_loss(probs, target, eps=1.0).item() == 0.0

    def test_total_miss_closed_form(self):
        n = 16
        probs = Tensor(np.ones((1, n), np.float32))
        target = np.zeros((1, n), np.uint8)
        expected = 1.0 - 1.0 / (n + 1.0)
        assert dice_loss(probs, target, eps=1.0).item() == pytest.approx(expected, rel=1e-6)

    def test_symmetric_for_hard_masks(self):
        g = np.random.default_rng(2)
        a = (g.uniform(size=(6, 6)) < 0.4).astype(np.uint8)
        b = (g.uniform(size=(6, 6)) < 0.4).astype(np.uint8)
        lab = dice_loss(Tensor(a.astype(np.float64)), b).item()
        lba = dice_loss(Tensor(b.astype(np.float64)), a).item()
        assert lab == pytest.approx(lba, abs=1e-12)

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_eps_rejected(self, eps):
        probs = Tensor(np.full((1, 1), 0.5, np.float32))
        with pytest.raises(ConfigError, match="eps must be positive"):
            dice_loss(probs, np.ones((1, 1), np.uint8), eps=eps)


class TestHybridLoss:
    def test_alpha_one_equals_bce_exactly(self):
        g = np.random.default_rng(3)
        probs = g.uniform(0.1, 0.9, size=(1, 1, 4, 4))
        target = (g.uniform(size=(1, 1, 4, 4)) < 0.4).astype(np.uint8)
        cfg = LossConfig(alpha=1.0, pos_weight=2.0)
        assert hybrid_loss(Tensor(probs), target, cfg).item() == weighted_bce(
            Tensor(probs), target, 2.0
        ).item()

    def test_alpha_zero_equals_dice_exactly(self):
        g = np.random.default_rng(4)
        probs = g.uniform(0.1, 0.9, size=(1, 1, 4, 4))
        target = (g.uniform(size=(1, 1, 4, 4)) < 0.4).astype(np.uint8)
        cfg = LossConfig(alpha=0.0)
        assert hybrid_loss(Tensor(probs), target, cfg).item() == dice_loss(
            Tensor(probs), target, 1.0
        ).item()

    def test_alpha_half_is_component_average(self):
        g = np.random.default_rng(5)
        probs = g.uniform(0.1, 0.9, size=(1, 1, 6, 6))
        target = (g.uniform(size=(1, 1, 6, 6)) < 0.4).astype(np.uint8)
        cfg = LossConfig(alpha=0.5, pos_weight=3.0)
        got = hybrid_loss(Tensor(probs), target, cfg).item()
        want = 0.5 * weighted_bce(Tensor(probs), target, 3.0).item() + 0.5 * dice_loss(
            Tensor(probs), target, 1.0
        ).item()
        assert abs(got - want) < 1e-7

    def test_auto_weight_zero_positives_clamps_to_cap(self):
        assert auto_pos_weight(np.zeros((4, 4), np.uint8)) == 100.0

    def test_auto_weight_clamped_band(self):
        t = np.zeros(100, np.uint8)
        t[:50] = 1
        assert auto_pos_weight(t) == 1.0
        t = np.zeros(1000, np.uint8)
        t[:2] = 1
        assert auto_pos_weight(t) == 100.0
        t = np.zeros(100, np.uint8)
        t[:20] = 1
        assert auto_pos_weight(t) == 4.0

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            LossConfig(alpha=1.5)
        with pytest.raises(ConfigError):
            LossConfig(pos_weight=-1.0)
        with pytest.raises(ConfigError):
            LossConfig(dice_eps=0.0)


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.05, 1.0), seed=st.integers(0, 1000))
def test_convex_form_proportional_to_additive_form(alpha, seed):
    """L_total(alpha) == alpha * (L_BCE + lambda_dice * L_Dice), where
    lambda_dice = (1 - alpha) / alpha."""
    g = np.random.default_rng(seed)
    probs = g.uniform(0.1, 0.9, size=(1, 1, 4, 4))
    target = (g.uniform(size=(1, 1, 4, 4)) < 0.4).astype(np.uint8)
    cfg = LossConfig(alpha=alpha, pos_weight=2.0)
    convex = hybrid_loss(Tensor(probs), target, cfg).item()
    bce = weighted_bce(Tensor(probs), target, 2.0).item()
    dce = dice_loss(Tensor(probs), target, 1.0).item()
    additive = bce + (1 - alpha) / alpha * dce
    assert convex == pytest.approx(alpha * additive, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.0, 1.0), seed=st.integers(0, 1000))
def test_hybrid_between_component_extremes(alpha, seed):
    g = np.random.default_rng(seed)
    probs = g.uniform(0.1, 0.9, size=(1, 1, 4, 4))
    target = (g.uniform(size=(1, 1, 4, 4)) < 0.4).astype(np.uint8)
    cfg = LossConfig(alpha=alpha, pos_weight=2.0)
    total = hybrid_loss(Tensor(probs), target, cfg).item()
    bce = weighted_bce(Tensor(probs), target, 2.0).item()
    dce = dice_loss(Tensor(probs), target, 1.0).item()
    assert min(bce, dce) - 1e-9 <= total <= max(bce, dce) + 1e-9
