"""Tile and mask file format round trips and scene generator soundness."""

import importlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffnet import data
from diffnet.data import (
    BitemporalTile,
    SceneParams,
    _ellipse_mask,
    generate_scene,
    read_tile,
    write_tile,
)
from diffnet.errors import TileFormatError
from diffnet.model import ModelConfig, init_model
from diffnet.train import checkpoint_from_model, load_checkpoint, save_checkpoint
from test_tensor import SLACK, traced_peak


def make_tile(seed, c=2, h=4, w=4):
    g = np.random.default_rng(seed)
    return BitemporalTile(
        pre=g.standard_normal((c, h, w)).astype(np.float32),
        post=g.standard_normal((c, h, w)).astype(np.float32),
        mask=g.choice([0, 1, 255], size=(h, w)).astype(np.uint8),
    )


class TestTileFormat:
    def test_round_trip_bitwise(self, tmp_path):
        tile = make_tile(0)
        path = tmp_path / "t.btt"
        write_tile(tile, path)
        back = read_tile(path)
        assert np.array_equal(tile.pre, back.pre)
        assert np.array_equal(tile.post, back.post)
        assert np.array_equal(tile.mask, back.mask)

    def test_file_size_arithmetic(self, tmp_path):
        tile = make_tile(1, c=2, h=4, w=4)
        path = tmp_path / "t.btt"
        write_tile(tile, path)
        # 16-byte header + 128-byte pre + 128-byte post + 16-byte mask
        assert path.stat().st_size == 288

    def test_bad_magic_is_parse_error(self, tmp_path):
        path = tmp_path / "t.btt"
        write_tile(make_tile(2), path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(TileFormatError, match="byte 0"):
            read_tile(path)

    def test_truncated_payload_names_offset(self, tmp_path):
        path = tmp_path / "t.btt"
        write_tile(make_tile(3), path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(TileFormatError, match="byte 100"):
            read_tile(path)

    def test_dimension_overflow_rejected(self, tmp_path):
        path = tmp_path / "t.btt"
        path.write_bytes(struct.pack("<4sIII", b"BTT1", 1 << 30, 1 << 30, 1 << 30))
        with pytest.raises(TileFormatError, match="overflow"):
            read_tile(path)

    @pytest.mark.parametrize(
        "dims, message",
        [((2**24, 2**24, 2**24), "truncated pre image"), ((1, 1, 2**24 + 1), "W=16777217")],
        ids=["at-the-bound", "one-past"],
    )
    def test_dimension_bound_is_2_to_the_24(self, tmp_path, dims, message):
        """A header alone tells a dimension at the bound, whose payload is then
        missing, from one past it; neither allocates the payload it names."""
        path = tmp_path / "t.btt"
        path.write_bytes(struct.pack("<4sIII", b"BTT1", *dims))

        def read():
            with pytest.raises(TileFormatError, match=message):
                read_tile(path)

        assert traced_peak(read)[1] < SLACK

    def test_invalid_mask_value_rejected(self, tmp_path):
        path = tmp_path / "t.btt"
        tile = make_tile(4)
        write_tile(tile, path)
        blob = bytearray(path.read_bytes())
        blob[-1] = 7  # not in {0, 1, 255}
        path.write_bytes(bytes(blob))
        with pytest.raises(TileFormatError, match="invalid mask value 7"):
            read_tile(path)


@settings(max_examples=20, deadline=None)
@given(c=st.integers(1, 4), h=st.integers(1, 8), w=st.integers(1, 8), seed=st.integers(0, 10_000))
def test_tile_round_trip_property(tmp_path_factory, c, h, w, seed):
    tile = make_tile(seed, c=c, h=h, w=w)
    path = tmp_path_factory.mktemp("tiles") / "t.btt"
    write_tile(tile, path)
    back = read_tile(path)
    assert np.array_equal(tile.pre, back.pre)
    assert np.array_equal(tile.post, back.post)
    assert np.array_equal(tile.mask, back.mask)


def test_each_file_is_read_once(tmp_path):
    """A reader holds one buffer of the file's size, and its arrays are
    views of it, not copies."""
    tile_path, ckpt_path = tmp_path / "t.btt", tmp_path / "m.sunc"
    write_tile(make_tile(0, c=64, h=128, w=128), tile_path)
    save_checkpoint(
        checkpoint_from_model(init_model(ModelConfig(in_channels=8, base_width=8), 0)),
        ckpt_path,
    )
    for reader, path in ((read_tile, tile_path), (load_checkpoint, ckpt_path)):
        _, peak = traced_peak(lambda: reader(path))
        assert peak <= path.stat().st_size + SLACK, reader.__name__


def test_writes_hand_arrays_over_uncopied(tmp_path, monkeypatch):
    """``write_tile`` and ``save_checkpoint`` pass their arrays to
    ``write_atomic`` as buffers: the files are byte for byte those written
    from ``tobytes()`` copies, and a write allocates almost nothing."""
    tile = make_tile(0, c=64, h=128, w=128)
    ckpt = checkpoint_from_model(init_model(ModelConfig(in_channels=8, base_width=8), 0))
    train_module = importlib.import_module("diffnet.train")  # diffnet.train is the function
    writes = ((write_tile, tile, data), (save_checkpoint, ckpt, train_module))
    write_atomic = data.write_atomic
    for write, obj, module in writes:
        path = tmp_path / write.__name__
        _, peak = traced_peak(lambda: write(obj, path))
        assert peak <= SLACK, write.__name__
        copied = tmp_path / f"{write.__name__}.copied"
        with monkeypatch.context() as m:
            m.setattr(
                module,
                "write_atomic",
                lambda p, chunks: write_atomic(
                    p, [c if isinstance(c, bytes) else c.tobytes() for c in chunks]
                ),
            )
            write(obj, copied)
        assert path.read_bytes() == copied.read_bytes(), write.__name__


def test_failed_write_removes_its_temp_file(tmp_path):
    """A write or a rename that raises leaves the target as it was and no
    ``.tmp`` file beside it."""
    target = tmp_path / "t.btm"
    target.write_bytes(b"old")

    def chunks():
        yield b"new"
        raise OSError("no space left on device")

    with pytest.raises(OSError, match="no space"):
        data.write_atomic(target, chunks())
    (tmp_path / "dir").mkdir()
    with pytest.raises(IsADirectoryError):
        data.write_atomic(tmp_path / "dir", [b"new"])
    assert target.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "t.btm"]


class TestGenerateScene:
    def test_no_blobs_means_empty_mask(self):
        params = SceneParams(channels=2, size=(32, 32), n_scar_blobs=0)
        tile = generate_scene(params, seed=0)
        assert np.all(tile.mask == 0)

    def test_deterministic_in_params_and_seed(self):
        params = SceneParams(channels=3, size=(64, 64))
        a = generate_scene(params, seed=9)
        b = generate_scene(params, seed=9)
        assert np.array_equal(a.pre, b.pre)
        assert np.array_equal(a.post, b.post)
        assert np.array_equal(a.mask, b.mask)

    def test_different_seeds_differ(self):
        params = SceneParams(channels=2, size=(32, 32))
        a = generate_scene(params, seed=0)
        b = generate_scene(params, seed=1)
        assert not np.array_equal(a.pre, b.pre)

    def test_label_soundness_without_confusers(self):
        """Pixels carrying the burn offset are exactly the labeled pixels."""
        params = SceneParams(
            channels=4, size=(64, 64), confuser_blobs=0, noise_sigma=0.0
        )
        tile = generate_scene(params, seed=3)
        diff = tile.post - tile.pre  # per-channel constant outside the scar
        background = diff[:, tile.mask == 0]
        drift = background[:, 0]
        assert np.abs(background - drift[:, None]).max() < 1e-5
        shifted = np.abs(diff - drift[:, None, None]) > 1e-4
        recovered = shifted.all(axis=0).astype(np.uint8)
        assert np.array_equal(recovered, tile.mask)

    def test_confusers_touch_few_channels_and_stay_unlabeled(self):
        params = SceneParams(
            channels=8, size=(64, 64), confuser_blobs=3, noise_sigma=0.0
        )
        tile = generate_scene(params, seed=7)
        # recover the global drift from pixels at the un-shifted majority
        diff = tile.post - tile.pre
        drift = np.median(diff.reshape(diff.shape[0], -1), axis=1)
        changed = np.abs(diff - drift[:, None, None]) > 1e-4
        n_changed = changed.sum(axis=0)
        # labeled pixels shift on every channel (a confuser overlapping the
        # scar can cancel at most the confuser subset); unlabeled changed
        # pixels shift on at most a quarter of the channels
        assert np.all(n_changed[tile.mask == 1] >= 6)
        unlabeled = (tile.mask == 0) & (n_changed > 0)
        assert unlabeled.any()
        assert n_changed[unlabeled].max() <= 2

    def test_noise_is_drawn_one_channel_at_a_time(self):
        """A scene's traced peak is its own bytes plus a few float64
        planes, not a float64 draw of the whole post image."""
        c, h, w = 8, 256, 256
        tile, peak = traced_peak(lambda: generate_scene(SceneParams(channels=c, size=(h, w)), 3))
        own = tile.pre.nbytes + tile.post.nbytes + tile.mask.nbytes
        assert peak <= own + 3 * h * w * 8 + SLACK

    def test_mean_burn_fraction_tracks_target(self):
        params = SceneParams(channels=2, size=(64, 64), burn_fraction_target=0.15)
        fracs = [
            float((generate_scene(params, seed=s).mask == 1).mean())
            for s in range(100)
        ]
        assert 0.075 <= float(np.mean(fracs)) <= 0.225


# -- reference generator -------------------------------------------------------
# The scene generator as first written: four corner gathers per value-noise
# octave, ellipses tested on the full mgrid, the pre image stacked in float64
# and cast.  The generator must stay bit for bit equal to it.


def ref_value_noise(rng, h, w, cell):
    gh = h // cell + 2
    gw = w // cell + 2
    grid = rng.standard_normal((gh, gw))
    ys = np.arange(h) / cell
    xs = np.arange(w) / cell
    yi = ys.astype(int)
    xi = xs.astype(int)
    yf = (ys - yi)[:, None]
    xf = (xs - xi)[None, :]
    v00 = grid[np.ix_(yi, xi)]
    v01 = grid[np.ix_(yi, xi + 1)]
    v10 = grid[np.ix_(yi + 1, xi)]
    v11 = grid[np.ix_(yi + 1, xi + 1)]
    top = v00 + xf * (v01 - v00)
    bot = v10 + xf * (v11 - v10)
    return top + yf * (bot - top)


def ref_smooth_field(rng, h, w):
    field = ref_value_noise(rng, h, w, max(h, w) // 4) + 0.3 * ref_value_noise(
        rng, h, w, max(2, max(h, w) // 16)
    )
    field -= field.mean()
    std = field.std()
    if std > 1e-9:
        field /= std
    return field


def ref_ellipse_mask(rng, h, w, area):
    cy = rng.uniform(0.2 * h, 0.8 * h)
    cx = rng.uniform(0.2 * w, 0.8 * w)
    r = np.sqrt(max(area, 1.0) / np.pi)
    aspect = rng.uniform(0.6, 1.7)
    a = r * np.sqrt(aspect)
    b = r / np.sqrt(aspect)
    theta = rng.uniform(0.0, np.pi)
    yy, xx = np.mgrid[0:h, 0:w]
    dy = yy - cy
    dx = xx - cx
    u = dx * np.cos(theta) + dy * np.sin(theta)
    v = -dx * np.sin(theta) + dy * np.cos(theta)
    return (u / a) ** 2 + (v / b) ** 2 <= 1.0


def ref_offsets(rng, n, scale, random_sign):
    mag = rng.uniform(0.5, 1.5, size=n) * scale
    if random_sign:
        sign = rng.choice((-1.0, 1.0), size=n)
    else:
        sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return (mag * sign).astype(np.float32)


def ref_generate_scene(params, seed):
    rng = np.random.default_rng(np.random.PCG64(seed))
    c = params.channels
    h, w = params.size
    pre = np.stack([ref_smooth_field(rng, h, w) for _ in range(c)]).astype(np.float32)
    scar = np.zeros((h, w), dtype=bool)
    if params.n_scar_blobs > 0:
        blob_area = params.burn_fraction_target * h * w / params.n_scar_blobs
        for _ in range(params.n_scar_blobs):
            scar |= ref_ellipse_mask(rng, h, w, blob_area)
    drift = (rng.standard_normal(c) * params.seasonal_drift_scale).astype(np.float32)
    burn = ref_offsets(rng, c, params.burn_offset_scale, random_sign=False)
    post = pre + drift[:, None, None]
    post[:, scar] += burn[:, None]
    if params.confuser_blobs > 0:
        n_ch = int(rng.integers(1, max(1, c // 4) + 1))
        chans = rng.choice(c, size=n_ch, replace=False)
        for _ in range(params.confuser_blobs):
            area = params.burn_fraction_target * h * w / max(params.n_scar_blobs, 2)
            blob = ref_ellipse_mask(rng, h, w, area * rng.uniform(0.4, 1.0))
            offs = ref_offsets(rng, n_ch, params.burn_offset_scale, random_sign=True)
            post[chans[:, None], blob] += offs[:, None]
    if params.noise_sigma > 0:
        post += rng.normal(0.0, params.noise_sigma, size=post.shape).astype(np.float32)
    return pre, post.astype(np.float32), scar.astype(np.uint8)


@settings(max_examples=60, deadline=None)
@given(
    channels=st.integers(1, 8),
    size=st.tuples(st.integers(8, 160), st.integers(8, 160)),
    n_scar_blobs=st.integers(0, 4),
    confuser_blobs=st.integers(0, 3),
    burn_fraction_target=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
    noise_sigma=st.sampled_from([0.0, 0.05]),
    seed=st.integers(0, 2**31 - 1),
)
def test_generate_scene_matches_reference_bitwise(seed, **knobs):
    """Pre, post and mask equal the reference generator's, bit for bit, for
    any channel count, non-square size, blob count (0 included), ellipses
    under one pixel (burn fraction 0) and noise on or off."""
    tile = generate_scene(SceneParams(**knobs), seed)
    pre, post, mask = ref_generate_scene(SceneParams(**knobs), seed)
    assert tile.pre.dtype == pre.dtype and tile.post.dtype == post.dtype
    assert np.array_equal(tile.pre, pre)
    assert np.array_equal(tile.post, post)
    assert np.array_equal(tile.mask, mask)


class FixedDraws:
    """Stands in for a Generator in ``_ellipse_mask``: each ``uniform(lo, hi)``
    returns ``lo + t * (hi - lo)`` for the next given ``t``."""

    def __init__(self, *ts):
        self.ts = list(ts)

    def uniform(self, lo, hi):
        return lo + self.ts.pop(0) * (hi - lo)


@settings(max_examples=40, deadline=None)
@given(
    border=st.sampled_from(["top", "bottom", "left", "right"]),
    along=st.floats(0.0, 1.0),
    aspect=st.floats(0.0, 1.0),
    theta=st.floats(0.0, 1.0),
    radius=st.floats(0.4, 1.0),
)
def test_ellipse_mask_clipped_at_each_border_matches_reference(
    border, along, aspect, theta, radius
):
    """Ellipses centered as near a border as the generator allows, and large
    enough to cross it, equal the full-grid reference."""
    h, w = 40, 56
    cy, cx = {"top": (0, along), "bottom": (1, along), "left": (along, 0), "right": (along, 1)}[
        border
    ]
    area = math.pi * (radius * min(h, w)) ** 2
    got = _ellipse_mask(FixedDraws(cy, cx, aspect, theta), h, w, area)
    want = ref_ellipse_mask(FixedDraws(cy, cx, aspect, theta), h, w, area)
    edge = {"top": got[0], "bottom": got[-1], "left": got[:, 0], "right": got[:, -1]}[border]
    assert edge.any()
    assert np.array_equal(got, want)
