"""Bitemporal tile container, binary file I/O and synthetic scene generation.

Tiles hold a pre image, a post image (both C x H x W float32) and an
H x W uint8 mask where 0 = unchanged, 1 = burned, 255 = nodata.

The on-disk BTT1 format is bit-exact: 4-byte magic ``BTT1``, three
little-endian uint32 (C, H, W), the pre array as C*H*W little-endian
float32 row-major, the post array likewise, then the mask as H*W bytes.
A BTM1 mask file is magic ``BTM1``, uint32 H and W, then the H*W mask
bytes.  No padding, no checksum.  Both formats and the SUNC checkpoints
of ``train.py`` are read through one bounded reader; they, the CSVs and
every other output are written through one atomic writer.

The scene generator is a desk-scale stand-in for annual embedding tiles:
smooth per-channel value-noise fields, elliptical burn scars that shift
every channel, global seasonal drift, and unlabeled "confuser" blobs that
shift only a small channel subset.
"""

from __future__ import annotations

import csv
import io
import math
import os
import struct
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import ConfigError, TileFormatError

MAGIC = b"BTT1"
MASK_MAGIC = b"BTM1"
HEADER = struct.Struct("<4sIII")
NODATA = 255
MAX_DIM = 1 << 24  # sanity bound; C*H*W*8 must also fit in memory


@dataclass
class BitemporalTile:
    """A co-registered pre/post image pair with its ground-truth mask."""

    pre: np.ndarray
    post: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.pre = np.ascontiguousarray(self.pre, dtype=np.float32)
        self.post = np.ascontiguousarray(self.post, dtype=np.float32)
        self.mask = np.ascontiguousarray(self.mask, dtype=np.uint8)
        if self.pre.ndim != 3 or self.pre.shape != self.post.shape:
            raise ConfigError(
                f"pre and post must be identically shaped C x H x W arrays, "
                f"got {self.pre.shape} and {self.post.shape}"
            )
        if self.mask.shape != self.pre.shape[1:]:
            raise ConfigError(
                f"mask shape {self.mask.shape} does not match spatial dims "
                f"{self.pre.shape[1:]}"
            )

    @property
    def channels(self) -> int:
        return self.pre.shape[0]

    @property
    def height(self) -> int:
        return self.pre.shape[1]

    @property
    def width(self) -> int:
        return self.pre.shape[2]


@dataclass(frozen=True)
class SceneParams:
    """Knobs of the synthetic bitemporal scene generator."""

    channels: int = 64
    size: tuple[int, int] = (128, 128)
    burn_fraction_target: float = 0.15
    n_scar_blobs: int = 3
    burn_offset_scale: float = 1.0
    seasonal_drift_scale: float = 0.3
    confuser_blobs: int = 2
    noise_sigma: float = 0.05

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        if min(self.size) < 8:
            raise ConfigError(f"size too small: {self.size}")
        if not 0.0 <= self.burn_fraction_target < 1.0:
            raise ConfigError(
                f"burn_fraction_target must lie in [0, 1), got {self.burn_fraction_target}"
            )
        if self.n_scar_blobs < 0 or self.confuser_blobs < 0:
            raise ConfigError("blob counts must be nonnegative")
        for name in ("burn_offset_scale", "seasonal_drift_scale", "noise_sigma"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be nonnegative")


# -- binary file I/O ----------------------------------------------------------


class ByteReader:
    """Bounded cursor over the bytes of one file, shared by the BTT1, BTM1
    and SUNC readers.  The file is read once into one writable buffer, and
    every array is a view of it.

    Every read checks the remaining length before it slices or allocates,
    so a corrupt length or dimension field cannot ask for more memory than
    the file holds.  Every failure raises ``error``, the format's own
    exception type, as ``"<path>: <message> at byte <offset>"``, so a
    command over many files names the bad one.
    """

    def __init__(self, path, error: type[ValueError]):
        self.view = memoryview(np.fromfile(path, np.uint8))
        self.off = 0
        self.path = path
        self.error = error

    def fail(self, message: str, at: int) -> NoReturn:
        raise self.error(f"{self.path}: {message} at byte {at}")

    def take(self, n: int, what: str) -> memoryview:
        if self.off + n > len(self.view):
            self.fail(
                f"truncated {what}: file ends at byte {len(self.view)}, "
                f"needs {n} bytes",
                self.off,
            )
        self.off += n
        return self.view[self.off - n : self.off]

    def magic(self, expected: bytes) -> None:
        got = bytes(self.take(len(expected), "magic"))
        if got != expected:
            self.fail(f"bad magic {got!r} (expected {expected!r})", 0)

    def unpack(self, fmt: str, what: str) -> tuple:
        """Little-endian ``struct`` fields."""
        layout = struct.Struct("<" + fmt)
        return layout.unpack(self.take(layout.size, what))

    def dims(self, names: str) -> tuple[int, ...]:
        """One uint32 per letter of ``names``, each in 1..MAX_DIM."""
        dims = self.unpack("I" * len(names), "header")
        if not all(0 < d <= MAX_DIM for d in dims):
            shown = ", ".join(f"{n}={d}" for n, d in zip(names, dims))
            self.fail(f"dimension zero or overflow: {shown}", self.off - 4 * len(dims))
        return dims

    def array(self, dtype, shape: tuple[int, ...], what: str) -> np.ndarray:
        """A row-major view of the file's bytes; the byte count is an exact
        integer product, so huge dims cannot wrap around."""
        dtype = np.dtype(dtype)
        data = self.take(math.prod(shape) * dtype.itemsize, what)
        return np.frombuffer(data, dtype).reshape(shape)

    def text(self, n: int, what: str) -> str:
        start = self.off
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError as e:
            self.fail(f"{what} is not valid UTF-8", start + e.start)

    def mask(self, h: int, w: int) -> np.ndarray:
        """H*W mask bytes, each one of 0, 1 or NODATA."""
        start = self.off
        mask = self.array(np.uint8, (h, w), "mask")
        bad = np.flatnonzero((mask > 1) & (mask != NODATA))
        if bad.size:
            self.fail(f"invalid mask value {mask.flat[bad[0]]}", start + int(bad[0]))
        return mask

    def end(self) -> None:
        if self.off != len(self.view):
            self.fail(f"{len(self.view) - self.off} trailing bytes", self.off)


def refuse_nonfinite(path, start: int, error, arrays: dict) -> None:
    """Raise ``error`` at the first of ``arrays``, laid end to end from byte
    ``start`` of ``path``, that holds a NaN or Inf, naming how many and the
    byte of the first as the readers do; min and max find one cheaply."""
    for name, arr in arrays.items():
        if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            bad = np.flatnonzero(~np.isfinite(arr))
            raise error(f"{path}: {name} holds {bad.size} non-finite value(s), "
                        f"the first at byte {start + arr.itemsize * int(bad[0])}")
        start += arr.nbytes


def write_atomic(path, chunks) -> None:
    """Write the chunks whole-file atomically, making ``path``'s directory if
    it is missing: a temp file beside ``path``, then a rename, so no reader
    ever sees a partial file.  A chunk is ``bytes`` or a C-contiguous array,
    written through its buffer.  If the write or the rename raises, the temp
    file is removed before the error propagates."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp"
    f = open(tmp, "wb")
    try:
        with f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_csv(path, rows, lineterminator: str = "\r\n") -> None:
    """Write the rows as CSV, quoted by the ``csv`` module's default rules
    and each ended by ``lineterminator``; the write is whole-file atomic."""
    text = io.StringIO()
    csv.writer(text, lineterminator=lineterminator).writerows(rows)
    write_atomic(path, (text.getvalue().encode(),))


def write_tile(tile: BitemporalTile, path) -> None:
    """Serialize a tile as BTT1; the write is whole-file atomic."""
    c, h, w = tile.pre.shape
    write_atomic(
        path,
        (
            HEADER.pack(MAGIC, c, h, w),
            np.ascontiguousarray(tile.pre, dtype="<f4"),
            np.ascontiguousarray(tile.post, dtype="<f4"),
            np.ascontiguousarray(tile.mask),
        ),
    )


def read_tile(path) -> BitemporalTile:
    """Parse a BTT1 file; malformed input raises TileFormatError."""
    r = ByteReader(path, TileFormatError)
    r.magic(MAGIC)
    c, h, w = r.dims("CHW")
    pre = r.array("<f4", (c, h, w), "pre image")
    post = r.array("<f4", (c, h, w), "post image")
    mask = r.mask(h, w)
    r.end()
    return BitemporalTile(pre=pre, post=post, mask=mask)


def write_mask(mask: np.ndarray, path) -> None:
    """Serialize an H x W mask as BTM1; the write is whole-file atomic."""
    m = np.ascontiguousarray(mask, dtype=np.uint8)
    h, w = m.shape
    write_atomic(path, (MASK_MAGIC, struct.pack("<II", h, w), m))


def read_mask(path) -> np.ndarray:
    """Parse a BTM1 file; malformed input raises TileFormatError."""
    r = ByteReader(path, TileFormatError)
    r.magic(MASK_MAGIC)
    h, w = r.dims("HW")
    mask = r.mask(h, w)
    r.end()
    return mask


# -- synthetic scene generation ----------------------------------------------


def _value_noise(rng: np.random.Generator, h: int, w: int, cell: int) -> np.ndarray:
    """Bilinear interpolation of a coarse random lattice (one octave): each
    lattice row is interpolated along x once, then pixels blend two rows."""
    gh = h // cell + 2
    gw = w // cell + 2
    grid = rng.standard_normal((gh, gw))
    ys = np.arange(h) / cell
    xs = np.arange(w) / cell
    yi = ys.astype(int)
    xi = xs.astype(int)
    yf = (ys - yi)[:, None]
    xf = xs - xi
    g0 = grid[:, xi]
    rows = g0 + xf * (grid[:, xi + 1] - g0)
    step = rows[1:] - rows[:-1]
    out = step[yi]  # filled in place: two fewer h x w temporaries
    out *= yf
    out += rows[yi]
    return out


def _smooth_field(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Two-octave value noise, standardized to mean 0 / std 1."""
    field = _value_noise(rng, h, w, max(h, w) // 4)
    field += 0.3 * _value_noise(rng, h, w, max(2, max(h, w) // 16))
    field -= field.mean()
    std = field.std()
    if std > 1e-9:
        field /= std
    return field


def _ellipse_mask(rng: np.random.Generator, h: int, w: int, area: float) -> np.ndarray:
    """One filled, rotated ellipse of roughly the requested pixel area,
    centered away from the borders to limit clipping.  Only pixels in its
    bounding box, widened by one pixel against rounding, are tested."""
    cy = rng.uniform(0.2 * h, 0.8 * h)
    cx = rng.uniform(0.2 * w, 0.8 * w)
    r = np.sqrt(max(area, 1.0) / np.pi)
    aspect = rng.uniform(0.6, 1.7)
    a = r * np.sqrt(aspect)
    b = r / np.sqrt(aspect)
    theta = rng.uniform(0.0, np.pi)
    cos, sin = np.cos(theta), np.sin(theta)
    ry = math.hypot(a * sin, b * cos) + 1
    rx = math.hypot(a * cos, b * sin) + 1
    y0, y1 = max(math.ceil(cy - ry), 0), min(math.floor(cy + ry) + 1, h)
    x0, x1 = max(math.ceil(cx - rx), 0), min(math.floor(cx + rx) + 1, w)
    yy, xx = np.ogrid[y0:y1, x0:x1]
    dy = yy - cy
    dx = xx - cx
    u = dx * cos + dy * sin
    v = -dx * sin + dy * cos
    mask = np.zeros((h, w), dtype=bool)
    mask[y0:y1, x0:x1] = (u / a) ** 2 + (v / b) ** 2 <= 1.0
    return mask


def _offsets(rng: np.random.Generator, n: int, scale: float, sign=None) -> np.ndarray:
    """Per-channel constants with magnitude in [0.5, 1.5] * scale, times
    ``sign``; with no ``sign``, random signs are drawn after the magnitudes."""
    mag = rng.uniform(0.5, 1.5, size=n) * scale
    if sign is None:
        sign = rng.choice((-1.0, 1.0), size=n)
    return (mag * sign).astype(np.float32)


def generate_scene(params: SceneParams, seed: int) -> BitemporalTile:
    """Deterministic synthetic bitemporal scene.

    The burn scar shifts every channel of the post image by a per-scene
    constant with a fixed sign pattern (a consistent "fire direction" in
    channel space); confuser blobs shift at most a quarter of the channels
    in random directions and stay unlabeled, which is what keeps the
    detection task non-trivial.
    """
    rng = np.random.default_rng(np.random.PCG64(seed))
    c = params.channels
    h, w = params.size

    pre = np.empty((c, h, w), dtype=np.float32)
    for k in range(c):
        pre[k] = _smooth_field(rng, h, w)

    scar = np.zeros((h, w), dtype=bool)
    if params.n_scar_blobs > 0:
        blob_area = params.burn_fraction_target * h * w / params.n_scar_blobs
        for _ in range(params.n_scar_blobs):
            scar |= _ellipse_mask(rng, h, w, blob_area)

    drift = (rng.standard_normal(c) * params.seasonal_drift_scale).astype(np.float32)
    # One fire direction in channel space: signs alternate by channel in every
    # scene, while the severity is drawn per scene.  Confusers take random
    # signs, so direction is what separates the classes.
    burn = _offsets(rng, c, params.burn_offset_scale, np.where(np.arange(c) % 2, -1.0, 1.0))

    post = pre + drift[:, None, None]
    post[:, scar] += burn[:, None]

    # one confuser channel subset per scene (at most a quarter of the
    # channels), so overlapping blobs never widen the affected set
    if params.confuser_blobs > 0:
        n_ch = int(rng.integers(1, max(1, c // 4) + 1))
        chans = rng.choice(c, size=n_ch, replace=False)
        for _ in range(params.confuser_blobs):
            area = params.burn_fraction_target * h * w / max(params.n_scar_blobs, 2)
            blob = _ellipse_mask(rng, h, w, area * rng.uniform(0.4, 1.0))
            offs = _offsets(rng, n_ch, params.burn_offset_scale)
            post[chans[:, None], blob] += offs[:, None]

    if params.noise_sigma > 0:
        # one channel at a time: the same stream as one (C, H, W) draw,
        # holding one float64 plane instead of the whole image
        for band in post:
            band += rng.normal(0.0, params.noise_sigma, size=band.shape).astype(np.float32)

    mask = scar.astype(np.uint8)
    return BitemporalTile(pre=pre, post=post, mask=mask)
