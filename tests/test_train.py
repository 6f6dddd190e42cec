"""Optimizer behavior, training determinism, checkpoint round trips and
thresholded prediction."""

import gc
import os
import re
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from diffnet.cli import _openblas, main
from diffnet.data import SceneParams, generate_scene, write_tile
from diffnet.errors import (
    CheckpointFormatError,
    ConfigError,
    ContractError,
    NonFiniteLossError,
    ShapeError,
)
from diffnet.losses import LossConfig, auto_pos_weight, dice_loss, weighted_bce
from diffnet.model import ModelConfig, SiameseUNet, init_model
from diffnet.tensor import Tensor, no_grad
from diffnet.train import (
    AdamState,
    TrainConfig,
    _assemble_batch,
    _tile_order,
    adam_step,
    checkpoint_from_model,
    hybrid_loss,
    load_checkpoint,
    model_from_checkpoint,
    predict,
    save_checkpoint,
    train,
)

TINY = ModelConfig(in_channels=2, base_width=4)


def tiny_tiles(n=4, seed0=0, size=(32, 32)):
    params = SceneParams(channels=2, size=size, burn_fraction_target=0.15)
    return [generate_scene(params, seed=seed0 + i) for i in range(n)]


class TestAdam:
    def test_first_step_approximates_signed_lr(self):
        p = Tensor(np.zeros(4, np.float64), requires_grad=True)
        g = np.array([0.5, -2.0, 1e3, -1e-2])
        state = AdamState.for_params([p])
        cfg = TrainConfig(lr=1e-3)
        adam_step([p], [g], state, cfg)
        np.testing.assert_allclose(p.data, -1e-3 * np.sign(g), rtol=1e-3)

    def test_zero_grad_leaves_params_unchanged(self):
        p = Tensor(np.array([1.0, -2.0], np.float64), requires_grad=True)
        state = AdamState.for_params([p])
        adam_step([p], [np.zeros(2)], state, TrainConfig())
        np.testing.assert_allclose(p.data, [1.0, -2.0], atol=1e-12)

    def test_scalar_quadratic_matches_reference_trajectory(self):
        """Five steps on f(x) = 0.5 x^2 against an inline scalar Adam."""
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8

        x_ref, m_ref, v_ref = 2.0, 0.0, 0.0
        reference = []
        for t in range(1, 6):
            g = x_ref
            m_ref = b1 * m_ref + (1 - b1) * g
            v_ref = b2 * v_ref + (1 - b2) * g * g
            x_ref -= lr * (m_ref / (1 - b1**t)) / (np.sqrt(v_ref / (1 - b2**t)) + eps)
            reference.append(x_ref)

        p = Tensor(np.array([2.0]), requires_grad=True)
        state = AdamState.for_params([p])
        cfg = TrainConfig(lr=lr, betas=(b1, b2), adam_eps=eps)
        trajectory = []
        for _ in range(5):
            adam_step([p], [p.data.copy()], state, cfg)
            trajectory.append(float(p.data[0]))
        np.testing.assert_allclose(trajectory, reference, atol=1e-10)

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        state = AdamState.for_params([p])
        with pytest.raises(ContractError):
            adam_step([p], [np.zeros(4)], state, TrainConfig())

    def test_length_mismatch_rejected(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        state = AdamState.for_params([p])
        with pytest.raises(ContractError):
            adam_step([p], [], state, TrainConfig())


class TestTrainLoop:
    def test_deterministic_logs(self):
        cfg = TrainConfig(steps=5, batch_size=2, patch_size=32, seed=3, log_every=1)
        runs = []
        for _ in range(2):
            model = init_model(TINY, seed=1)
            _, log = train(model, tiny_tiles(), cfg)
            runs.append([(r.step, r.loss, r.bce, r.dice) for r in log.records])
        assert runs[0] == runs[1]

    def test_log_steps_strictly_increase(self):
        model = init_model(TINY, seed=1)
        cfg = TrainConfig(steps=23, batch_size=2, patch_size=32, seed=0, log_every=7)
        _, log = train(model, tiny_tiles(), cfg)
        steps = [r.step for r in log.records]
        assert steps == sorted(set(steps))
        assert steps[0] == 1 and steps[-1] == 23

    def test_zero_steps_returns_initial_model(self):
        model = init_model(TINY, seed=1)
        before = {n: t.data.copy() for n, t in model.parameter_list()}
        ckpt, log = train(model, tiny_tiles(), TrainConfig(steps=0, patch_size=32))
        assert not log.records
        for name, arr in ckpt.params.items():
            assert np.array_equal(arr, before[name])

    def test_loss_decreases(self):
        model = init_model(TINY, seed=1)
        cfg = TrainConfig(steps=40, batch_size=2, patch_size=32, seed=0, log_every=40)
        _, log = train(model, tiny_tiles(), cfg)
        assert log.records[-1].loss < log.records[0].loss

    @pytest.mark.parametrize("pos_weight", [None, 3.0], ids=["auto", "3.0"])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
    def test_step_is_a_hybrid_loss_step_bitwise(self, alpha, pos_weight):
        """One ``train`` step equals a hand step on ``hybrid_loss``: the
        logged loss, bce and dice and every checkpoint tensor, bit for bit."""
        loss_cfg = LossConfig(alpha=alpha, pos_weight=pos_weight)
        cfg = TrainConfig(steps=1, batch_size=2, patch_size=32, seed=4, loss=loss_cfg)
        tiles = tiny_tiles()
        ckpt, log = train(init_model(TINY, seed=1), tiles, cfg)

        model = init_model(TINY, seed=1)
        rng = np.random.default_rng(np.random.PCG64(cfg.seed))
        pre, post, tgt = _assemble_batch(tiles, cfg, _tile_order(len(tiles), rng), rng)
        probs = model.forward(Tensor(pre), Tensor(post), mode="train")
        total = hybrid_loss(probs, tgt, loss_cfg)
        total.backward()
        params = [t for _, t in model.parameter_list()]
        adam_step(params, [p.grad for p in params], AdamState.for_params(params), cfg)

        w = pos_weight if pos_weight is not None else auto_pos_weight(tgt)
        want = (total.item(), weighted_bce(probs, tgt, w).item(), dice_loss(probs, tgt).item())
        (rec,) = log.records
        assert np.array([rec.loss, rec.bce, rec.dice]).tobytes() == np.array(want).tobytes()
        hand = checkpoint_from_model(model, step=1, rng=rng)
        assert ckpt.rng_words == hand.rng_words
        for name, arr in (hand.params | hand.buffers).items():
            assert (ckpt.params | ckpt.buffers)[name].tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("pos_weight", [None, 3.0], ids=["auto", "3.0"])
    def test_loss_terms_are_called_through_the_train_module(self, monkeypatch, pos_weight):
        """``train()`` and ``hybrid_loss`` look the loss terms up in
        ``diffnet.train``'s namespace, where the benchmark's trace wraps
        them: each term once per loss, and ``auto_pos_weight`` only when no
        weight is fixed."""
        module = sys.modules["diffnet.train"]
        calls = dict.fromkeys(("auto_pos_weight", "weighted_bce", "dice_loss"), 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        loss_cfg = LossConfig(pos_weight=pos_weight)
        cfg = TrainConfig(steps=2, batch_size=1, patch_size=32, loss=loss_cfg)
        train(init_model(TINY, seed=1), tiny_tiles(), cfg)
        per_loss = {"auto_pos_weight": int(pos_weight is None), "weighted_bce": 1, "dice_loss": 1}
        assert calls == {k: 2 * n for k, n in per_loss.items()}

        calls.update(dict.fromkeys(calls, 0))
        tgt = np.zeros((1, 1, 4, 4), np.uint8)
        tgt[0, 0, 0, 0] = 1
        hybrid_loss(Tensor(np.full(tgt.shape, 0.5)), tgt, loss_cfg)
        assert calls == per_loss

    def test_non_finite_loss_aborts_with_step(self):
        model = init_model(TINY, seed=1)
        model.params["enc1.conv.weight"].data[0, 0, 0, 0] = np.nan
        with pytest.raises(NonFiniteLossError) as exc:
            train(model, tiny_tiles(), TrainConfig(steps=3, patch_size=32))
        assert exc.value.step == 1

    def test_encoder_gradients_flow_through_both_branches(self):
        """After one backward on a burned batch, every encoder parameter
        must receive gradient (weight sharing feeds both branches).

        Needs a spatial extent where the two branches' ReLU masks and pool
        argmaxes differ; on degenerate 1x1 bottleneck maps a shared bias
        shift cancels exactly in the feature difference.
        """
        model = init_model(TINY, seed=1)
        tile = tiny_tiles(1, size=(64, 64))[0]
        assert (tile.mask == 1).any()
        probs = model.forward(
            Tensor(tile.pre[None]), Tensor(tile.post[None]), mode="train"
        )
        hybrid_loss(probs, tile.mask[None, None], LossConfig()).backward()
        for name, t in model.parameter_list():
            if name.startswith("enc"):
                assert np.linalg.norm(t.grad) > 0.0, name

    def test_empty_tile_list_rejected(self):
        with pytest.raises(ContractError):
            train(init_model(TINY, seed=1), [], TrainConfig(steps=1))

    def test_every_tile_checked_before_the_first_step(self):
        """A tile the model cannot take fails up front, naming its index,
        even when the first batches would never sample it."""
        model = init_model(TINY, seed=1)
        before = {n: t.data.copy() for n, t in model.parameter_list()}
        cfg = TrainConfig(steps=1, batch_size=1, patch_size=32)
        small = generate_scene(SceneParams(channels=2, size=(16, 32)), seed=0)
        wide = generate_scene(SceneParams(channels=3, size=(32, 32)), seed=0)
        for bad, message in ((small, "tile 4 is 16x32, below patch_size 32"),
                             (wide, "tile 4 has 3 channels, model expects 2")):
            with pytest.raises(ShapeError, match=message):
                train(model, tiny_tiles() + [bad], cfg)
        for name, t in model.parameter_list():
            assert np.array_equal(t.data, before[name]), name

    def test_each_step_frees_the_previous_graph(self, monkeypatch):
        """Step k's graph, its output included, is gone by the time step
        k+1's forward starts.  The cyclic collector is off, so only the
        references that train() drops can free it."""
        outputs, alive = [], []
        forward = SiameseUNet.forward

        def tracking(self, *args, **kwargs):
            alive.append([ref() is not None for ref in outputs])
            out = forward(self, *args, **kwargs)
            outputs.append(weakref.ref(out.data))  # Tensor has no __weakref__ slot
            return out

        monkeypatch.setattr(SiameseUNet, "forward", tracking)
        cfg = TrainConfig(steps=3, batch_size=2, patch_size=32)
        gc.disable()
        try:
            train(init_model(TINY, seed=1), tiny_tiles(), cfg)
        finally:
            gc.enable()
        assert alive == [[], [False], [False, False]]

    def test_traced_peak_at_the_acceptance_config(self):
        """A second 4-step train() at the acceptance config (C=8, 64x64,
        base_width 8, batch 4) peaks below 25 MiB traced; holding the
        previous step's graph through the next forward took 35.9 MiB."""
        params = SceneParams(channels=8, size=(64, 64))
        tiles = [generate_scene(params, seed=s) for s in range(8)]
        model = init_model(ModelConfig(in_channels=8, base_width=8), seed=0)
        cfg = TrainConfig(steps=4, batch_size=4)
        train(model, tiles, cfg)
        tracemalloc.start()
        try:
            train(model, tiles, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 25 << 20, f"{peak / 2**20:.1f} MiB"

    def test_backward_peak_stays_near_the_forward(self):
        """One train-mode forward and hybrid loss at the acceptance config:
        the graph keeps only the arrays its backwards read, so the forward
        leaves under 8 MiB live (11.97 MiB when graph edges held tensors),
        and backward() frees each activation once its consumers have run
        back, so at its peak it holds under a quarter more than that.
        Keeping the whole graph to the end took +7.8 over 13.1 MiB."""
        tiles = [generate_scene(SceneParams(channels=8, size=(64, 64)), seed=s) for s in range(4)]
        model = init_model(ModelConfig(in_channels=8, base_width=8), seed=0)
        pre, post = (Tensor(np.stack([getattr(t, k) for t in tiles])) for k in ("pre", "post"))
        tgt = np.stack([t.mask[None] for t in tiles])
        tracemalloc.start()
        try:
            probs = model.forward(pre, post, mode="train")
            loss = hybrid_loss(probs, tgt, LossConfig())
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert live < 8 << 20, f"{live / 2**20:.2f} MiB"
        assert peak < live / 4, f"+{peak / 2**20:.1f} over {live / 2**20:.1f} MiB"

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(patch_size=33)
        for size in (0, -32):
            with pytest.raises(ConfigError, match=f"positive multiple of 32, got {size}"):
                TrainConfig(patch_size=size)

    def test_betas_of_zero_are_accepted(self):
        """Each beta lies in [0, 1): zero is Adam without that moving average."""
        for betas in ((0.0, 0.999), (0.9, 0.0)):
            assert TrainConfig(betas=betas).betas == betas

    def test_unrunnable_seed_or_betas_are_refused(self):
        """What ``train()`` cannot run fails construction: PCG64 takes no
        negative seed, and Adam takes exactly two betas."""
        for kwargs, message in (
            ({"seed": -1}, "seed must be an integer >= 0, got -1"),
            ({"betas": (0.9,)}, r"betas must be two numbers in \[0, 1\), got \(0.9,\)"),
            ({"betas": (0.9, 0.99, 0.5)}, r"two numbers in \[0, 1\), got \(0.9, 0.99, 0.5\)"),
        ):
            with pytest.raises(ConfigError, match=message):
                TrainConfig(**kwargs)


class TestCheckpoint:
    def test_save_load_predict_bitwise(self, tmp_path):
        model = init_model(TINY, seed=2)
        tiles = tiny_tiles()
        train(model, tiles, TrainConfig(steps=5, batch_size=2, patch_size=32, seed=0))
        before = predict(model, tiles[0])

        path = tmp_path / "model.sunc"
        save_checkpoint(checkpoint_from_model(model, step=5), path)
        restored = model_from_checkpoint(load_checkpoint(path))
        after = predict(restored, tiles[0])
        assert np.array_equal(before, after)

    def test_round_trip_preserves_tensors_and_step(self, tmp_path):
        model = init_model(TINY, seed=2)
        ckpt = checkpoint_from_model(model, step=17, rng=np.random.default_rng(5))
        path = tmp_path / "model.sunc"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.step == 17
        assert back.config == TINY
        assert back.rng_words == ckpt.rng_words
        assert set(back.params) == set(ckpt.params)
        for name, arr in ckpt.params.items():
            assert np.array_equal(arr, back.params[name])
        for name, arr in ckpt.buffers.items():
            assert np.array_equal(arr, back.buffers[name])

    def test_no_rng_saves_zero_rng_words(self, tmp_path):
        ckpt = checkpoint_from_model(init_model(TINY, seed=0))
        assert ckpt.rng_words == (0, 0, 0, 0)
        path = tmp_path / "model.sunc"
        save_checkpoint(ckpt, path)
        assert load_checkpoint(path).rng_words == (0, 0, 0, 0)

    def test_parameter_names_match_parameter_list(self, tmp_path):
        model = init_model(TINY, seed=0)
        ckpt = checkpoint_from_model(model)
        assert set(ckpt.params) == {n for n, _ in model.parameter_list()}

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sunc"
        path.write_bytes(b"XXXX" + bytes(40))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        model = init_model(TINY, seed=0)
        path = tmp_path / "model.sunc"
        save_checkpoint(checkpoint_from_model(model), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="version"):
            load_checkpoint(path)

    def test_corrupted_length_field(self, tmp_path):
        model = init_model(TINY, seed=0)
        path = tmp_path / "model.sunc"
        save_checkpoint(checkpoint_from_model(model), path)
        blob = bytearray(path.read_bytes())
        blob[6:10] = (0xFFFFFFFF).to_bytes(4, "little")  # header length
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        model = init_model(TINY, seed=0)
        path = tmp_path / "model.sunc"
        save_checkpoint(checkpoint_from_model(model), path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_invalid_header_config_is_format_error(self, tmp_path):
        model = init_model(TINY, seed=0)
        path = tmp_path / "model.sunc"
        save_checkpoint(checkpoint_from_model(model), path)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"base_width=4\n", b"base_width=0\n"))
        with pytest.raises(CheckpointFormatError, match="base_width must be >= 4"):
            load_checkpoint(path)

    def test_duplicate_tensor_name_is_format_error(self, tmp_path):
        model = init_model(TINY, seed=0)
        path = tmp_path / "model.sunc"
        save_checkpoint(checkpoint_from_model(model), path)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"enc2.conv.bias", b"enc1.conv.bias"))
        with pytest.raises(CheckpointFormatError, match="duplicate tensor 'enc1.conv.bias'"):
            load_checkpoint(path)

    def test_model_from_checkpoint_draws_no_random_numbers(self, tmp_path, monkeypatch):
        path = tmp_path / "model.sunc"
        save_checkpoint(checkpoint_from_model(init_model(TINY, seed=2)), path)

        def refuse(*args, **kwargs):
            raise AssertionError("model_from_checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(np.random, "PCG64", refuse)
        model_from_checkpoint(load_checkpoint(path))

    def test_loaded_model_owns_bitwise_copies(self, tmp_path):
        path = tmp_path / "model.sunc"
        model = init_model(TINY, seed=2)
        train(model, tiny_tiles(2), TrainConfig(steps=2, batch_size=2, patch_size=32))
        save_checkpoint(checkpoint_from_model(model), path)
        ckpt = load_checkpoint(path)
        loaded = model_from_checkpoint(ckpt)
        got = {k: t.data for k, t in loaded.params.items()} | loaded.buffers
        want = ckpt.params | ckpt.buffers
        assert list(got) == list(want)
        for name, arr in want.items():
            assert got[name].dtype == arr.dtype and got[name].tobytes() == arr.tobytes(), name
            assert not np.shares_memory(got[name], arr), name

    def test_header_config_disagreeing_with_tensors_is_format_error(self, tmp_path, capsys):
        """A header whose base_width does not fit its tensors fails in the
        reader at the first tensor's dims, before any model is allocated."""
        ckpt = checkpoint_from_model(init_model(TINY, seed=0))
        ckpt.config = ModelConfig(in_channels=2, base_width=65536)
        path = tmp_path / "model.sunc"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        at = blob.index(b"enc1.conv.weight") + len(b"enc1.conv.weight") + 4
        tracemalloc.start()
        try:
            with pytest.raises(
                CheckpointFormatError,
                match=rf"tensor 'enc1.conv.weight' has shape \(4, 2, 3, 3\), "
                rf"config expects \(65536, 2, 3, 3\) at byte {at}$",
            ):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

        tile = tmp_path / "site.btt"
        write_tile(tiny_tiles(1)[0], tile)
        out = tmp_path / "p.btm"
        rc = main(["predict", "--checkpoint", str(path), "--tile", str(tile), "--out", str(out)])
        assert rc == 3
        assert "tensor 'enc1.conv.weight' has shape" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, where, value",
        [
            ("head.bias", 0, np.nan),
            ("enc2.conv.weight", (1, 0, 2, 1), np.inf),
            ("enc3.bn.running_var", 2, -np.inf),
        ],
    )
    def test_non_finite_tensor_is_format_error(self, tmp_path, name, where, value):
        """A NaN or Inf is refused when the checkpoint is loaded, naming the
        tensor, its count and the byte of the first one; a model built from
        it would turn every pixel into a 0."""
        ckpt = checkpoint_from_model(init_model(TINY, seed=0))
        arr = (ckpt.params | ckpt.buffers)[name]
        arr[where] = value
        arr.reshape(-1)[-1] = np.nan
        path = tmp_path / "model.sunc"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        bad = np.flatnonzero(~np.isfinite(arr))
        at = blob.index(name.encode()) + len(name) + 4 + 4 * arr.ndim + 4 * int(bad[0])
        assert not np.isfinite(np.frombuffer(blob, "<f4", 1, at))
        message = f"{name} holds {bad.size} non-finite value(s), the first at byte {at}"
        with pytest.raises(CheckpointFormatError, match=re.escape(message)):
            load_checkpoint(path)

    def test_unknown_tensor_name_is_format_error(self, tmp_path):
        model = init_model(TINY, seed=0)
        path = tmp_path / "model.sunc"
        save_checkpoint(checkpoint_from_model(model), path)
        blob = path.read_bytes()
        at = blob.index(b"enc2.conv.bias")
        path.write_bytes(blob.replace(b"enc2.conv.bias", b"enc2.conv.bias"[:-1] + b"z"))
        with pytest.raises(
            CheckpointFormatError, match=f"unknown tensor 'enc2.conv.biaz' at byte {at}$"
        ):
            load_checkpoint(path)


class TestPredict:
    def test_all_below_threshold_gives_zeros(self):
        model = init_model(TINY, seed=3)
        tile = tiny_tiles(1)[0]
        out = predict(model, tile, threshold=0.999)
        assert np.all(out == 0)

    def test_threshold_zero_gives_all_ones(self):
        model = init_model(TINY, seed=3)
        tile = tiny_tiles(1)[0]
        out = predict(model, tile, threshold=0.0)
        assert np.all(out == 1)

    def test_threshold_monotonicity(self):
        model = init_model(TINY, seed=3)
        tile = tiny_tiles(1)[0]
        low = int((predict(model, tile, threshold=0.3) == 1).sum())
        high = int((predict(model, tile, threshold=0.7) == 1).sum())
        assert high <= low

    def test_nodata_propagates(self):
        model = init_model(TINY, seed=3)
        tile = tiny_tiles(1)[0]
        tile.mask[:4, :4] = 255
        out = predict(model, tile)
        assert np.all(out[:4, :4] == 255)
        assert np.all(out[4:, 4:] != 255)

    def test_bad_dims_rejected(self):
        from diffnet.data import BitemporalTile
        from diffnet.errors import ShapeError

        model = init_model(TINY, seed=3)
        tile = BitemporalTile(
            pre=np.zeros((2, 48, 48), np.float32),
            post=np.zeros((2, 48, 48), np.float32),
            mask=np.zeros((48, 48), np.uint8),
        )
        with pytest.raises(ShapeError):
            predict(model, tile)

    def test_graph_recording_resumes_after_a_raise_or_nested_no_grad(self):
        x = Tensor(np.ones(3, np.float32), requires_grad=True)
        with pytest.raises(ShapeError):
            predict(init_model(TINY, seed=3), tiny_tiles(1, size=(33, 40))[0])
        assert (x * 2).requires_grad
        with no_grad():
            with no_grad():
                pass
            assert not (x * 2).requires_grad
        assert (x * 2).requires_grad

    @pytest.mark.parametrize("image", ["pre", "post"])
    def test_nan_in_an_image_raises_rather_than_giving_a_mask(self, image):
        """A NaN propagates through the forward without an invalid
        operation; the probabilities' NaN is refused like an overflow."""
        tile = tiny_tiles(1)[0]
        getattr(tile, image)[1, 5, 7] = np.nan
        with pytest.raises(FloatingPointError, match="invalid value"):
            predict(init_model(TINY, seed=3), tile)

    def test_predict_from_a_thread_pool_then_train_is_serial(self, monkeypatch):
        """32 calls from two threads give the serial masks and leave graph
        recording on: a ``train()`` after them equals one before them."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        model, tiles = init_model(TINY, seed=3), tiny_tiles(4, size=(128, 128))
        want = [predict(model, t) for t in tiles]
        cfg = TrainConfig(steps=2, batch_size=2, patch_size=32, seed=3)
        serial, _ = train(init_model(TINY, seed=1), tiny_tiles(), cfg)
        with ThreadPoolExecutor(2) as pool:
            got = list(pool.map(lambda i: predict(model, tiles[i % 4]), range(32)))
        for i, mask in enumerate(got):
            assert np.array_equal(mask, want[i % 4]), i
        after, _ = train(init_model(TINY, seed=1), tiny_tiles(), cfg)
        for name, arr in (serial.params | serial.buffers).items():
            assert (after.params | after.buffers)[name].tobytes() == arr.tobytes(), name

    @pytest.mark.skipif(_openblas("set_num_threads") is None,
                        reason="numpy bundles no OpenBLAS")
    def test_bits_do_not_depend_on_the_blas_thread_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        model = init_model(ModelConfig(in_channels=8, base_width=8), seed=3)
        tile = generate_scene(SceneParams(channels=8, size=(256, 256)), seed=11)
        get, set_threads = _openblas("get_num_threads"), _openblas("set_num_threads")
        before, runs = get(), []
        try:
            for n in (1, 2):
                set_threads(n)
                assert get() == n
                with no_grad():
                    probs = model.forward(Tensor(tile.pre[None]), Tensor(tile.post[None]))
                runs.append((probs.data.tobytes(), predict(model, tile).tobytes()))
        finally:
            set_threads(before)
        assert runs[0] == runs[1]

    def test_two_threads_predict_large_tiles_through_one_worker(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        model, tiles = init_model(TINY, seed=3), tiny_tiles(2, size=(256, 256))
        want = [predict(model, t) for t in tiles]
        together = threading.Barrier(2, timeout=10)

        def run(tile):
            together.wait()
            return predict(model, tile)

        with ThreadPoolExecutor(2) as pool:
            got = list(pool.map(run, tiles))
        for mask, serial in zip(got, want, strict=True):
            assert np.array_equal(mask, serial)
        assert sum(t.name.startswith("diffnet-split") for t in threading.enumerate()) == 1
