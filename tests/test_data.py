"""Tile and mask file format round trips and scene generator soundness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffnet.data import (
    BitemporalTile,
    SceneParams,
    generate_scene,
    read_tile,
    write_tile,
)
from diffnet.errors import TileFormatError


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
        import struct

        path = tmp_path / "t.btt"
        path.write_bytes(struct.pack("<4sIII", b"BTT1", 1 << 30, 1 << 30, 1 << 30))
        with pytest.raises(TileFormatError, match="overflow"):
            read_tile(path)

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

    def test_mean_burn_fraction_tracks_target(self):
        params = SceneParams(channels=2, size=(64, 64), burn_fraction_target=0.15)
        fracs = [
            float((generate_scene(params, seed=s).mask == 1).mean())
            for s in range(100)
        ]
        assert 0.075 <= float(np.mean(fracs)) <= 0.225
