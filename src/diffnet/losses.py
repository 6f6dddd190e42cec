"""Hybrid training loss: weighted binary cross-entropy mixed with Dice.

Targets are {0, 1, 255} masks; 255 marks nodata pixels, which are excluded
from both loss terms.  All losses return scalar graph tensors that are
differentiable with respect to the probability input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import NODATA
from .errors import ConfigError, ShapeError
from .tensor import Tensor, clamp, log, mul, tsum

PROB_EPS = 1e-7
POS_WEIGHT_CAP = 100.0


@dataclass(frozen=True)
class LossConfig:
    """Mixing weight, positive-class weighting mode and Dice smoothing.

    ``alpha`` weighs the BCE term; 1 - alpha weighs Dice.  ``pos_weight``
    None selects per-batch automatic weighting, clamp(n_neg / n_pos, 1, 100).
    """

    alpha: float = 0.5
    pos_weight: float | None = None
    dice_eps: float = 1.0

    def validate(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.pos_weight is not None and not 0 < self.pos_weight < math.inf:
            raise ConfigError(f"pos_weight must be positive, got {self.pos_weight}")
        if not 0 < self.dice_eps < math.inf:
            raise ConfigError(f"dice_eps must be positive, got {self.dice_eps}")


def _split_target(probs: Tensor, target) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(target)
    if t.shape != probs.data.shape:
        raise ShapeError(
            f"target shape {t.shape} does not match probs shape {probs.shape}"
        )
    valid = (t != NODATA).astype(probs.dtype)
    y = (t == 1).astype(probs.dtype)
    return y, valid


def auto_pos_weight(target) -> float:
    """Per-batch positive-class weight clamp(n_neg / n_pos, 1, 100); a batch
    with no positive pixels gets the cap, not an error."""
    t = np.asarray(target)
    n_pos = int((t == 1).sum())
    n_neg = int((t == 0).sum())
    if n_pos == 0:
        return POS_WEIGHT_CAP
    return float(np.clip(n_neg / n_pos, 1.0, POS_WEIGHT_CAP))


def weighted_bce(probs: Tensor, target, pos_weight: float) -> Tensor:
    """Mean over valid pixels of -[w_pos*y*log(p) + (1-y)*log(1-p)].

    Probabilities are clamped to [1e-7, 1 - 1e-7] before the logs.
    """
    if pos_weight <= 0:
        raise ConfigError(f"pos_weight must be positive, got {pos_weight}")
    y, valid = _split_target(probs, target)
    n_valid = valid.sum()
    if n_valid == 0:
        return Tensor(np.asarray(0.0, dtype=probs.dtype))
    p = clamp(probs, PROB_EPS, 1.0 - PROB_EPS)
    pos = mul(log(p), pos_weight * y)
    neg = mul(log(1.0 - p), 1.0 - y)
    terms = mul(pos + neg, valid)
    return tsum(terms) * (-1.0 / n_valid)


def dice_loss(probs: Tensor, target, eps: float = 1.0) -> Tensor:
    """Soft Dice loss 1 - (2*sum(p*y) + eps) / (sum(p) + sum(y) + eps),
    summing over valid pixels only."""
    y, valid = _split_target(probs, target)
    p = mul(probs, valid)
    inter = tsum(mul(p, y))
    denom = tsum(p) + float(y.sum())
    return 1.0 - (2.0 * inter + eps) / (denom + eps)


def hybrid_loss(probs: Tensor, target, cfg: LossConfig) -> Tensor:
    """alpha * weighted_bce + (1 - alpha) * dice_loss, both built at every
    alpha: the ops, in the order, of ``train.train``, so equal bit for bit."""
    cfg.validate()
    w = cfg.pos_weight if cfg.pos_weight is not None else auto_pos_weight(target)
    bce = weighted_bce(probs, target, w)
    return cfg.alpha * bce + (1.0 - cfg.alpha) * dice_loss(probs, target, cfg.dice_eps)
