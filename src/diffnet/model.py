"""Siamese U-Net with shared-weight encoders and a differencing decoder.

Both temporal inputs run through one five-level encoder (single copy of
the parameters), producing feature pyramids at 1/2 ... 1/32 of the input
resolution.  The decoder consumes per-level feature differences
(post minus pre): the level-5 difference seeds it, levels 4..1 combine a
2x upsample with the matching skip difference, one final 2x upsample
restores full resolution, and a 1x1 head plus sigmoid yields the change
probability map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import (
    Tensor,
    batchnorm2d,
    concat_channels,
    conv2d,
    maxpool2x2,
    relu,
    sigmoid,
    sub,
    upconv2x2,
)

LEVELS = 5
DIVISOR = 2**LEVELS  # five pooling stages


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs: input bands and the level-1 channel width.

    Level l carries base_width * 2**(l-1) channels; the head always emits
    one probability channel.
    """

    in_channels: int = 64
    base_width: int = 32

    def validate(self) -> None:
        if self.in_channels < 1:
            raise ConfigError(f"in_channels must be >= 1, got {self.in_channels}")
        if self.base_width < 4:
            raise ConfigError(f"base_width must be >= 4, got {self.base_width}")

    def width(self, level: int) -> int:
        return self.base_width * 2 ** (level - 1)


def _param_specs(config: ModelConfig):
    """Yield (name, shape, fan_in) for every trainable parameter, in the
    canonical ordering used by parameter_list and the checkpoint format."""
    c = [config.in_channels] + [config.width(l) for l in range(1, LEVELS + 1)]
    for l in range(1, LEVELS + 1):
        yield f"enc{l}.conv.weight", (c[l], c[l - 1], 3, 3), c[l - 1] * 9
        yield f"enc{l}.conv.bias", (c[l],), None
        yield f"enc{l}.bn.gamma", (c[l],), None
        yield f"enc{l}.bn.beta", (c[l],), None
    for l in range(LEVELS - 1, 0, -1):
        yield f"dec{l}.up.weight", (c[l + 1], c[l], 2, 2), c[l + 1] * 4
        yield f"dec{l}.up.bias", (c[l],), None
        yield f"dec{l}.conv.weight", (c[l], 2 * c[l], 3, 3), 2 * c[l] * 9
        yield f"dec{l}.conv.bias", (c[l],), None
        yield f"dec{l}.bn.gamma", (c[l],), None
        yield f"dec{l}.bn.beta", (c[l],), None
    yield "final_up.weight", (c[1], c[1], 2, 2), c[1] * 4
    yield "final_up.bias", (c[1],), None
    yield "head.weight", (1, c[1], 1, 1), c[1]
    yield "head.bias", (1,), None


def _buffer_specs(config: ModelConfig):
    """Yield (name, shape) for every batch-norm running buffer, in checkpoint order."""
    for name, shape, _ in _param_specs(config):
        if name.endswith("bn.gamma"):
            stem = name[: -len("gamma")]
            yield stem + "running_mean", shape
            yield stem + "running_var", shape


class SiameseUNet:
    """Parameter container plus the encoder/decoder wiring.

    A single instance owns one copy of every parameter; the two temporal
    branches of :meth:`forward` reference the same tensors, which is what
    makes the encoder weight-shared.
    """

    def __init__(self, config: ModelConfig, params: dict[str, Tensor], buffers: dict[str, np.ndarray]):
        self.config = config
        self.params = params
        self.buffers = buffers

    def parameter_list(self) -> list[tuple[str, Tensor]]:
        """Trainable parameters in canonical order; shared encoder weights
        appear exactly once."""
        return list(self.params.items())

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    # -- forward passes ------------------------------------------------------

    def _block(self, x: Tensor, stem: str, mode: str) -> Tensor:
        p = self.params
        x = conv2d(x, p[f"{stem}.conv.weight"], p[f"{stem}.conv.bias"])
        x = batchnorm2d(
            x,
            p[f"{stem}.bn.gamma"],
            p[f"{stem}.bn.beta"],
            self.buffers[f"{stem}.bn.running_mean"],
            self.buffers[f"{stem}.bn.running_var"],
            mode,
        )
        return relu(x)

    def encode(self, image: Tensor, mode: str = "eval") -> list[Tensor]:
        """Run one temporal branch; returns the five post-pool features at
        1/2, 1/4, 1/8, 1/16 and 1/32 of the input resolution."""
        if image.data.ndim != 4:
            raise ShapeError(f"encode expects N x C x H x W, got shape {image.shape}")
        n, c, h, w = image.data.shape
        if c != self.config.in_channels:
            raise ShapeError(
                f"encode channel mismatch: input has {c} channels, "
                f"model expects {self.config.in_channels}"
            )
        if h % DIVISOR or w % DIVISOR:
            raise ShapeError(
                f"encode requires H and W divisible by {DIVISOR} "
                f"(five pooling stages), got {h}x{w}"
            )
        feats = []
        x = image
        for l in range(1, LEVELS + 1):
            x = maxpool2x2(self._block(x, f"enc{l}", mode))
            feats.append(x)
        return feats

    def difference_pyramid(self, pre: Tensor, post: Tensor, mode: str = "eval") -> list[Tensor]:
        """Per-level feature differences (post minus pre) under shared weights."""
        if pre.data.shape != post.data.shape:
            raise ShapeError(
                f"pre and post shapes differ: {pre.shape} vs {post.shape}"
            )
        f_pre = self.encode(pre, mode)
        f_post = self.encode(post, mode)
        return [sub(fq, fp) for fp, fq in zip(f_pre, f_post)]

    def forward(self, pre: Tensor, post: Tensor, mode: str = "eval") -> Tensor:
        """Full change-probability map for a bitemporal pair, in [0, 1].

        The float32 sigmoid saturates to exactly 0.0 or 1.0 for confident
        logits; ``losses.weighted_bce`` clamps before taking logs."""
        deltas = self.difference_pyramid(pre, post, mode)
        p = self.params
        x = deltas[LEVELS - 1]
        for l in range(LEVELS - 1, 0, -1):
            x = upconv2x2(x, p[f"dec{l}.up.weight"], p[f"dec{l}.up.bias"])
            x = concat_channels(x, deltas[l - 1])
            x = self._block(x, f"dec{l}", mode)
        x = upconv2x2(x, p["final_up.weight"], p["final_up.bias"])
        logits = conv2d(x, p["head.weight"], p["head.bias"])
        return sigmoid(logits)


def init_model(config: ModelConfig, seed: int) -> SiameseUNet:
    """Deterministically initialize from (config, seed).

    Conv and upconv weights draw from the He-uniform distribution
    U(-sqrt(6/fan_in), sqrt(6/fan_in)) using a PCG64 generator, in
    canonical parameter order, and are rounded to float32; biases start at
    zero, batch-norm gamma at one and beta at zero, running stats at (0, 1).
    """
    config.validate()
    rng = np.random.default_rng(np.random.PCG64(seed))
    params: dict[str, Tensor] = {}
    for name, shape, fan_in in _param_specs(config):
        if fan_in is None:
            data = np.full(shape, float(name.endswith("gamma")), dtype=np.float32)
        else:  # allocated before its float64 draw; the reverse order raised peak RSS
            bound = np.sqrt(6.0 / fan_in)
            data = np.empty(shape, dtype=np.float32)
            data[...] = rng.uniform(-bound, bound, size=shape)
        params[name] = Tensor(data, requires_grad=True)
    buffers = {
        name: np.full(shape, float(name.endswith("var")), dtype=np.float32)
        for name, shape in _buffer_specs(config)
    }
    return SiameseUNet(config, params, buffers)
