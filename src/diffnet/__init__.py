"""Siamese U-Net toolkit for bitemporal burned-area change detection."""

__version__ = "0.1.0"

from .data import BitemporalTile, SceneParams, generate_scene, read_tile, write_tile
from .losses import LossConfig, dice_loss, weighted_bce
from .metrics import ConfusionCounts, MetricSet, aggregate, confusion_counts, metrics_from_counts
from .model import ModelConfig, SiameseUNet, init_model
from .tensor import Tensor
from .train import TrainConfig, hybrid_loss, load_checkpoint, predict, save_checkpoint, train

__all__ = [
    "BitemporalTile",
    "ConfusionCounts",
    "LossConfig",
    "MetricSet",
    "ModelConfig",
    "SceneParams",
    "SiameseUNet",
    "Tensor",
    "TrainConfig",
    "aggregate",
    "confusion_counts",
    "dice_loss",
    "generate_scene",
    "hybrid_loss",
    "init_model",
    "load_checkpoint",
    "metrics_from_counts",
    "predict",
    "read_tile",
    "save_checkpoint",
    "train",
    "weighted_bce",
    "write_tile",
]
