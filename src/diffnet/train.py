"""Deterministic training loop, Adam optimizer, checkpoints and prediction.

Checkpoint file layout (version 1): magic ``SUNC``, uint16 version, a
uint32-length-prefixed UTF-8 header of ``key=value`` lines, each ended by
``\n`` and valued ``-?[0-9]+``, giving each of ``in_channels``,
``base_width`` and ``step`` (>= 0) exactly once, a uint32 record count,
then one record per tensor (uint32 name length, name, uint32 rank, uint32
dims, float32 little-endian data) covering the trainable parameters
followed by the batch-norm running buffers, and finally the trainer RNG
state as four little-endian uint64 words (PCG64 state and increment, low
word first).  The records hold exactly the tensors that the header's
config gives, each once, in its shape and finite.
"""

from __future__ import annotations

import math
import re
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .data import NODATA, BitemporalTile, ByteReader, refuse_nonfinite, write_atomic, write_csv
from .errors import (
    CheckpointFormatError,
    ConfigError,
    ContractError,
    NonFiniteLossError,
    ShapeError,
)
from .losses import LossConfig, auto_pos_weight, dice_loss, weighted_bce
from .model import DIVISOR, ModelConfig, SiameseUNet, _buffer_specs, _param_specs
from .tensor import Tensor, no_grad

CKPT_MAGIC = b"SUNC"
CKPT_VERSION = 1
CKPT_HEADER_KEYS = ("in_channels", "base_width", "step")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    steps: int = 300
    batch_size: int = 4
    patch_size: int = 64
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)
    log_every: int = 10

    def __post_init__(self) -> None:
        if not (0 < self.lr < math.inf and 0 < self.adam_eps < math.inf):
            raise ConfigError("lr and adam_eps must be positive")
        if len(self.betas) != 2 or not all(0 <= b < 1 for b in self.betas):
            raise ConfigError(f"betas must be two numbers in [0, 1), got {self.betas}")
        if self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed}")
        if self.steps < 0 or self.batch_size < 1 or self.log_every < 1:
            raise ConfigError("steps, batch_size and log_every must be positive")
        if self.patch_size < DIVISOR or self.patch_size % DIVISOR:
            raise ConfigError(
                f"patch_size must be a positive multiple of {DIVISOR}, got {self.patch_size}"
            )


@dataclass
class TrainLogRecord:
    step: int
    loss: float
    bce: float
    dice: float
    burn_frac: float


@dataclass
class TrainLog:
    records: list[TrainLogRecord] = field(default_factory=list)

    def to_csv(self, path) -> None:
        """Write the records as CSV with CRLF line ends; the write is
        whole-file atomic."""
        header = ["step", "loss", "bce", "dice", "burn_frac"]
        rows = [[r.step, repr(r.loss), repr(r.bce), repr(r.dice), repr(r.burn_frac)]
                for r in self.records]
        write_csv(path, [header, *rows])


# -- Adam ---------------------------------------------------------------------


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: list[Tensor]) -> "AdamState":
        return cls(
            m=[np.zeros_like(p.data) for p in params],
            v=[np.zeros_like(p.data) for p in params],
        )


def adam_step(
    params: list[Tensor],
    grads: list[np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> None:
    """One Adam update with bias correction; params and moments are
    modified in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ContractError(
            f"adam_step length mismatch: {len(params)} params, "
            f"{len(grads)} grads, {len(state.m)} moment slots"
        )
    b1, b2 = cfg.betas
    state.t += 1
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.data.shape or m.shape != p.data.shape:
            raise ContractError(
                f"adam_step shape mismatch: param {p.data.shape}, "
                f"grad {g.shape}, moment {m.shape}"
            )
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.data -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps)


# -- checkpoints --------------------------------------------------------------


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]
    buffers: dict[str, np.ndarray]
    step: int
    rng_words: tuple[int, int, int, int]


def _rng_words(rng: np.random.Generator) -> tuple[int, int, int, int]:
    st = rng.bit_generator.state["state"]
    mask = (1 << 64) - 1
    return (
        st["state"] & mask,
        (st["state"] >> 64) & mask,
        st["inc"] & mask,
        (st["inc"] >> 64) & mask,
    )


def checkpoint_from_model(
    model: SiameseUNet, step: int = 0, rng: np.random.Generator | None = None
) -> Checkpoint:
    words = _rng_words(rng) if rng is not None else (0, 0, 0, 0)
    return Checkpoint(
        config=model.config,
        params={k: v.data.copy() for k, v in model.parameter_list()},
        buffers={k: v.copy() for k, v in model.buffers.items()},
        step=step,
        rng_words=words,
    )


def model_from_checkpoint(ckpt: Checkpoint) -> SiameseUNet:
    """A model holding float32 copies of the tensors, which ``load_checkpoint``
    has checked; nothing is drawn at random or allocated to be overwritten."""
    params = {k: Tensor(v.astype(np.float32), requires_grad=True) for k, v in ckpt.params.items()}
    buffers = {k: v.astype(np.float32) for k, v in ckpt.buffers.items()}
    return SiameseUNet(ckpt.config, params, buffers)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Serialize as SUNC version 1; the write is whole-file atomic."""
    header = (
        f"in_channels={ckpt.config.in_channels}\n"
        f"base_width={ckpt.config.base_width}\n"
        f"step={ckpt.step}\n"
    ).encode()
    chunks = [
        CKPT_MAGIC,
        struct.pack("<H", CKPT_VERSION),
        struct.pack("<I", len(header)),
        header,
    ]
    records = list(ckpt.params.items()) + list(ckpt.buffers.items())
    chunks.append(struct.pack("<I", len(records)))
    for name, arr in records:
        nb = name.encode()
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype="<f4"))
    chunks.append(struct.pack("<4Q", *ckpt.rng_words))
    write_atomic(path, chunks)


def load_checkpoint(path) -> Checkpoint:
    """Parse a SUNC file; malformed input, including a tensor name or shape
    that the header's config does not give, or a NaN or Inf in a tensor,
    raises CheckpointFormatError."""
    r = ByteReader(path, CheckpointFormatError)
    r.magic(CKPT_MAGIC)
    (version,) = r.unpack("H", "version")
    if version != CKPT_VERSION:
        r.fail(f"unsupported checkpoint version {version}, expected {CKPT_VERSION}", 4)
    (hlen,) = r.unpack("I", "header length")
    at = line_at = r.off
    header: dict[str, int] = {}
    text = r.text(hlen, "header")
    for line in text.removesuffix("\n").split("\n") if text else ():
        key, _, value = line.partition("=")
        if not re.fullmatch("-?[0-9]+", value):
            r.fail(f"header line {line!r} is not key=integer", line_at)
        number = int(value)
        if key not in CKPT_HEADER_KEYS:
            r.fail(f"unknown header key {key!r}", line_at)
        if key in header:
            r.fail(f"repeated header key {key!r}", line_at)
        if key == "step" and number < 0:
            r.fail(f"invalid header: step must be >= 0, got {number}", line_at)
        header[key] = number
        line_at += len(line.encode()) + 1
    try:
        config = ModelConfig(
            in_channels=header["in_channels"], base_width=header["base_width"]
        )
        step = header["step"]
    except KeyError as e:
        r.fail(f"header missing key {e}", at)
    except ConfigError as e:
        r.fail(f"invalid header: {e}", at)

    param_shapes = {name: shape for name, shape, _ in _param_specs(config)}
    shapes = param_shapes | dict(_buffer_specs(config))
    (n_records,) = r.unpack("I", "record count")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_records):
        (nlen,) = r.unpack("I", "name length")
        at = r.off
        name = r.text(nlen, "tensor name")
        if name not in shapes:
            r.fail(f"unknown tensor {name!r}", at)
        if name in tensors:
            r.fail(f"duplicate tensor {name!r}", at)
        (rank,) = r.unpack("I", "rank")
        if rank > 8:
            r.fail(f"implausible rank {rank}", r.off - 4)
        at = r.off
        dims = r.unpack(f"{rank}I", f"dims of {name!r}")
        data = r.array("<f4", dims, f"data of {name!r}")
        if dims != shapes[name]:
            r.fail(f"tensor {name!r} has shape {dims}, config expects {shapes[name]}", at)
        refuse_nonfinite(path, r.off - data.nbytes, CheckpointFormatError, {name: data})
        tensors[name] = data
    missing = [k for k in shapes if k not in tensors]
    if missing:
        r.fail(f"missing tensors {', '.join(missing)}", r.off)
    words = r.unpack("4Q", "rng state")
    r.end()

    params = {k: tensors[k] for k in param_shapes}
    buffers = {k: tensors[k] for k in shapes if k not in param_shapes}
    return Checkpoint(
        config=config, params=params, buffers=buffers, step=step, rng_words=words
    )


# -- training loop ------------------------------------------------------------


def _tile_order(n: int, rng: np.random.Generator) -> Iterator[int]:
    """Epoch-style tile order: a seeded shuffle, reshuffled when exhausted,
    so every tile is visited equally often."""
    while True:
        yield from rng.permutation(n)


def _assemble_batch(
    tiles: list[BitemporalTile],
    cfg: TrainConfig,
    order: Iterator[int],
    rng: np.random.Generator,
):
    pre, post, tgt = [], [], []
    ps = cfg.patch_size
    for _ in range(cfg.batch_size):
        tile = tiles[next(order)]
        y = int(rng.integers(0, tile.height - ps + 1))
        x = int(rng.integers(0, tile.width - ps + 1))
        pre.append(tile.pre[:, y : y + ps, x : x + ps])
        post.append(tile.post[:, y : y + ps, x : x + ps])
        tgt.append(tile.mask[None, y : y + ps, x : x + ps])
    return np.stack(pre), np.stack(post), np.stack(tgt)


def _hybrid_terms(probs: Tensor, target, cfg: LossConfig) -> tuple[Tensor, Tensor, Tensor]:
    """(alpha * bce + (1 - alpha) * dice, bce, dice), both terms built at
    every alpha; a ``pos_weight`` of None weighs by ``auto_pos_weight``."""
    w = cfg.pos_weight if cfg.pos_weight is not None else auto_pos_weight(target)
    bce = weighted_bce(probs, target, w)
    dce = dice_loss(probs, target, cfg.dice_eps)
    return cfg.alpha * bce + (1.0 - cfg.alpha) * dce, bce, dce


def hybrid_loss(probs: Tensor, target, cfg: LossConfig) -> Tensor:
    """alpha * weighted_bce + (1 - alpha) * dice_loss, as ``train`` builds it."""
    return _hybrid_terms(probs, target, cfg)[0]


def train(
    model: SiameseUNet, tiles: list[BitemporalTile], cfg: TrainConfig
) -> tuple[Checkpoint, TrainLog]:
    """Run cfg.steps Adam iterations of the hybrid loss on random patches.

    Deterministic in (model init, cfg.seed).  A non-finite loss aborts with
    the failing step and the last finite loss value.
    """
    if not tiles:
        raise ContractError("train requires at least one tile")
    c, ps = model.config.in_channels, cfg.patch_size
    for i, tile in enumerate(tiles):
        if tile.channels != c:
            raise ShapeError(f"tile {i} has {tile.channels} channels, model expects {c}")
        if tile.height < ps or tile.width < ps:
            raise ShapeError(f"tile {i} is {tile.height}x{tile.width}, below patch_size {ps}")
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    order = _tile_order(len(tiles), rng)
    params = [t for _, t in model.parameter_list()]
    state = AdamState.for_params(params)
    log = TrainLog()
    last_finite: float | None = None

    for step in range(1, cfg.steps + 1):
        pre_b, post_b, tgt = _assemble_batch(tiles, cfg, order, rng)
        model.zero_grad()
        probs = model.forward(Tensor(pre_b), Tensor(post_b), mode="train")

        total, bce, dce = _hybrid_terms(probs, tgt, cfg.loss)

        loss_val = total.item()
        if not np.isfinite(loss_val):
            raise NonFiniteLossError(step, last_finite)
        last_finite = loss_val

        total.backward()
        adam_step(params, [p.grad for p in params], state, cfg)

        if step == 1 or step % cfg.log_every == 0 or step == cfg.steps:
            valid = tgt != NODATA
            burn = float((tgt == 1).sum() / max(valid.sum(), 1))
            log.records.append(
                TrainLogRecord(step, loss_val, bce.item(), dce.item(), burn)
            )
        # backward() has freed the graph, but not the output that this
        # frame holds: drop it before step k+1's forward allocates its own
        del probs

    return checkpoint_from_model(model, step=cfg.steps, rng=rng), log


def predict(model: SiameseUNet, tile: BitemporalTile, threshold: float = 0.5) -> np.ndarray:
    """Eval-mode forward pass binarized at the threshold; nodata pixels in
    the tile mask propagate to the output as 255.  A forward that overflows,
    as finite but huge weights or images make it, or whose probabilities
    hold a NaN, as a NaN in the images makes them, raises FloatingPointError
    rather than giving a mask."""
    if not 0.0 <= threshold < 1.0:
        raise ConfigError(f"threshold must lie in [0, 1), got {threshold}")
    with no_grad(), np.errstate(over="raise", invalid="raise"):
        probs = model.forward(
            Tensor(tile.pre[None]), Tensor(tile.post[None]), mode="eval"
        ).data[0, 0]
    if np.isnan(probs.min()):
        raise FloatingPointError("invalid value encountered in predict: NaN probabilities")
    out = (probs >= threshold).astype(np.uint8)
    out[tile.mask == NODATA] = NODATA
    return out
