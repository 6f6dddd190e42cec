import sys
import types

import numpy as np
import pytest

import diffnet
import diffnet.model
import diffnet.tensor
from diffnet.data import SceneParams, generate_scene
from diffnet.model import ModelConfig, init_model
from diffnet.train import TrainConfig
from perfbench.trace import BLOCKS, Tracer, fold, layer_metrics, self_times

train_mod = sys.modules["diffnet.train"]


def span(name, start, end, parent=-1, unit=("op", 0), block=None, flop=0.0):
    return [name, start, end, parent, unit, block, flop]


def test_self_time_subtracts_direct_children():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 3.0, parent=0),
        span("c", 4.0, 8.0, parent=0),
        span("d", 5.0, 6.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 2.0, 6.0, parent=0),
        span("c", 4.0, 12.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_fold_and_median_over_units():
    spans = [
        span("x", 0.0, 0.002, unit=("op", 0)),
        span("x", 0.0, 0.004, unit=("op", 1)),
        span("x", 0.0, 0.001, unit=("op", 1)),
    ]
    per = fold(spans)
    assert per[("op", 0)]["total:x"] == pytest.approx(2.0)
    assert per[("op", 1)]["calls:x"] == 2
    # an op that never reached a layer counts as zero
    out = layer_metrics(spans, {"op": [("op", 0), ("op", 1), ("op", 2)], "setup": []})
    assert out["tensor.conv2d.calls"] == (0.0, "count")


def _fake_module():
    mod = types.ModuleType("perfbench_fake")

    def f(x):
        return x + 1

    class K:
        def m(self):
            return 7

    mod.f, mod.K = f, K
    return mod


def test_uninstall_restores_originals(monkeypatch):
    mod = _fake_module()
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    f, m = mod.f, mod.K.__dict__["m"]
    tracer = Tracer(targets=(
        ("perfbench_fake", "f", "fake.f", "plain"),
        ("perfbench_fake", "K.m", "fake.m", "plain"),
    ))
    tracer.install()
    assert mod.f is not f and mod.K.__dict__["m"] is not m
    tracer.unit = ("op", 0)
    assert mod.f(1) == 2 and mod.K().m() == 7
    assert [s[0] for s in tracer.spans] == ["fake.f", "fake.m"]
    tracer.uninstall()
    assert mod.f is f and mod.K.__dict__["m"] is m


def test_real_targets_restored():
    before = {
        "conv2d": diffnet.model.conv2d,
        "backward": diffnet.tensor.Tensor.__dict__["backward"],
        "forward": diffnet.model.SiameseUNet.__dict__["forward"],
        "train": train_mod.train,
    }
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert diffnet.model.conv2d is before["conv2d"] is diffnet.tensor.conv2d
    assert diffnet.tensor.Tensor.__dict__["backward"] is before["backward"]
    assert diffnet.model.SiameseUNet.__dict__["forward"] is before["forward"]
    assert train_mod.train is before["train"]
    assert not tracer.missing


def test_missing_targets_are_reported_not_raised(monkeypatch):
    mod = _fake_module()
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    tracer = Tracer(targets=(
        ("perfbench_fake", "gone", "fake.gone", "plain"),
        ("perfbench_fake", "Nope.m", "fake.nope", "plain"),
        ("perfbench_no_such_module", "f", "x.f", "plain"),
        ("perfbench_fake", "f", "fake.f", "plain"),
    ))
    tracer.install()
    try:
        assert tracer.missing == {
            "perfbench_fake.gone",
            "perfbench_fake.Nope.m",
            "perfbench_no_such_module.f",
        }
        assert mod.f.__name__ == "wrapped"
    finally:
        tracer.uninstall()


def _train_once(traced: bool):
    model = init_model(ModelConfig(in_channels=3, base_width=4), seed=7)
    tiles = [generate_scene(SceneParams(channels=3, size=(32, 32)), seed=s) for s in (1, 2)]
    cfg = TrainConfig(steps=1, batch_size=2, patch_size=32, seed=3)
    tracer = Tracer()
    if traced:
        tracer.install()
        tracer.unit = ("op", 0)
    try:
        ckpt, _ = train_mod.train(model, tiles, cfg)
    finally:
        tracer.uninstall()
    return ckpt, tracer


def test_traced_training_is_bitwise_unchanged_and_attributed():
    plain, _ = _train_once(traced=False)
    ckpt, tracer = _train_once(traced=True)
    for name, arr in plain.params.items():
        assert np.array_equal(arr, ckpt.params[name]), name
    per = fold(tracer.spans)[("op", 0)]
    for block in BLOCKS:
        assert per[f"block:{block}:fwd"] > 0, block
        assert per[f"block:{block}:bwd"] > 0, block
    assert per["total:losses.hybrid.bwd"] > 0
    assert per["total:train.adam_step"] > 0
    # every recorded span closed, and every backward closure ran inside backward
    assert all(s[2] >= s[1] for s in tracer.spans)
    names = [s[0] for s in tracer.spans]
    bwd = [i for i, n in enumerate(names) if n.endswith(".bwd")]
    assert bwd and all(names[tracer.spans[i][3]] == "tensor.backward" for i in bwd)


def test_conv_flop_count_matches_the_shapes():
    model = init_model(ModelConfig(in_channels=3, base_width=4), seed=7)
    tile = generate_scene(SceneParams(channels=3, size=(32, 32)), seed=1)
    tracer = Tracer()
    tracer.install()
    tracer.unit = ("op", 0)
    try:
        train_mod.predict(model, tile)
    finally:
        tracer.uninstall()
    got = fold(tracer.spans)[("op", 0)]["flop:tensor.conv2d"]
    c = [3, 4, 8, 16, 32, 64]
    size = [32, 16, 8, 4, 2]
    enc = sum(2 * 2 * size[l] ** 2 * c[l + 1] * c[l] * 9 for l in range(5))
    dec = sum(2 * size[l + 1] ** 2 * c[l + 1] * 2 * c[l + 1] * 9 for l in range(4))
    head = 2 * 32 * 32 * 1 * 4
    assert got == enc + dec + head
