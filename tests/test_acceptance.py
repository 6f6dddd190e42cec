"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The two training criteria take a minute or two each on a desktop
CPU; everything else is fast.
"""

import time

import numpy as np
import pytest

from table_fixtures import EMSR_TABLE

from diffnet.cli import render_confusion
from diffnet.data import SceneParams, generate_scene, read_tile, write_tile
from diffnet.gradcheck import gradcheck
from diffnet.losses import LossConfig
from diffnet.metrics import (
    ConfusionCounts,
    MetricSet,
    aggregate,
    confusion_counts,
    metrics_from_counts,
)
from diffnet.model import ModelConfig, init_model
from diffnet.tensor import (
    Tensor,
    batchnorm2d,
    concat_channels,
    conv2d,
    maxpool2x2,
    mul,
    relu,
    sigmoid,
    sub,
    tsum,
    upconv2x2,
)
from diffnet.train import (
    TrainConfig,
    checkpoint_from_model,
    hybrid_loss,
    load_checkpoint,
    model_from_checkpoint,
    predict,
    save_checkpoint,
    train,
)

GRAD_TOL = 1e-5


def report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


def pooled_iou(model, tiles, threshold=0.5):
    tp = fp = fn = 0
    for t in tiles:
        c = confusion_counts(predict(model, t, threshold), t.mask)
        tp += c.tp
        fp += c.fp
        fn += c.fn
    return tp / (tp + fp + fn)


def test_criterion_1_gradient_correctness():
    """Every primitive and the composed hybrid loss pass double-precision
    central-difference gradcheck at rel. error < 1e-5, within 60 s."""
    t0 = time.monotonic()
    worst = {}

    def check(name, fn, inputs_fn, n=3):
        errs = []
        for seed in range(n):
            errs.append(gradcheck(fn, inputs_fn(seed), seed=seed))
        worst[name] = max(errs)

    def draw(seed, *shapes):
        g = np.random.default_rng(1000 + seed)
        return [g.standard_normal(s) for s in shapes]

    check("conv2d", conv2d,
          lambda s: draw(s, (1, 2, 5, 5), (2, 2, 3, 3), (2,)))
    check("batchnorm2d", lambda x, g, b: batchnorm2d(x, g, b, np.zeros(3), np.ones(3), "train"),
          lambda s: draw(s, (2, 3, 4, 4), (3,), (3,)))

    def relu_inputs(seed):
        (x,) = draw(seed, (3, 5))
        near = np.abs(x) < 1e-3
        return [x + np.sign(x + (x == 0)) * 1e-3 * near]

    check("relu", relu, relu_inputs)
    check("maxpool2x2", maxpool2x2, lambda s: draw(s, (1, 2, 6, 6)))
    check("upconv2x2", upconv2x2, lambda s: draw(s, (1, 3, 3, 3), (3, 2, 2, 2), (2,)))
    check("concat_channels", concat_channels, lambda s: draw(s, (1, 2, 3, 3), (1, 3, 3, 3)))
    check("sub", sub, lambda s: draw(s, (3, 4), (3, 4)))
    check("sigmoid", sigmoid, lambda s: draw(s, (3, 5)))

    def hybrid_inputs(seed):
        g = np.random.default_rng(2000 + seed)
        return [g.uniform(0.2, 0.8, size=(1, 1, 4, 4))]

    hybrid_targets = {
        s: (np.random.default_rng(3000 + s).uniform(size=(1, 1, 4, 4)) < 0.3).astype(np.uint8)
        for s in range(3)
    }

    errs = []
    for seed in range(3):
        cfg = LossConfig(alpha=0.5, pos_weight=3.0)
        errs.append(gradcheck(
            lambda p, s=seed: hybrid_loss(p, hybrid_targets[s], cfg),
            hybrid_inputs(seed),
            seed=seed,
        ))
    worst["hybrid_loss"] = max(errs)

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"gradcheck battery took {elapsed:.1f}s"
    for name, err in worst.items():
        assert err < GRAD_TOL, f"{name}: {err:.2e}"
    report(
        "criterion 1 (gradient correctness)",
        f"worst rel. error {max(worst.values()):.2e} over {len(worst)} ops, {elapsed:.1f}s",
    )


def test_criterion_2_difference_invariants():
    """pre = post gives exactly-zero differences at all five levels; swapping
    the inputs negates every difference exactly (eval mode)."""
    model = init_model(ModelConfig(in_channels=6, base_width=8), seed=123)
    g = np.random.default_rng(0)
    a = Tensor(g.standard_normal((1, 6, 64, 64)).astype(np.float32))
    b = Tensor(g.standard_normal((1, 6, 64, 64)).astype(np.float32))

    zeros = model.difference_pyramid(a, a, "eval")
    assert len(zeros) == 5
    for d in zeros:
        assert np.all(d.data == 0.0)

    fwd = model.difference_pyramid(a, b, "eval")
    rev = model.difference_pyramid(b, a, "eval")
    for df, dr in zip(fwd, rev):
        assert np.array_equal(df.data, -dr.data)
    report("criterion 2 (Eq.2 invariants)", "exact zeros and exact negation at all 5 levels")


def test_criterion_3_weight_sharing():
    """Siamese encoder gradients equal the sum of two independent
    single-branch graphs' gradients within 1e-6 relative."""
    model = init_model(ModelConfig(in_channels=3, base_width=4), seed=9)
    g = np.random.default_rng(1)
    pre = Tensor(g.standard_normal((1, 3, 64, 64)).astype(np.float32))
    post = Tensor(g.standard_normal((1, 3, 64, 64)).astype(np.float32))

    shapes = [f.shape for f in model.encode(pre, "eval")]
    probes = [np.random.default_rng(50 + i).standard_normal(s).astype(np.float32) for i, s in enumerate(shapes)]

    def projected(feats, sign):
        total = tsum(mul(feats[0], sign * probes[0]))
        for f, k in zip(feats[1:], probes[1:]):
            total = total + tsum(mul(f, sign * k))
        return total

    model.zero_grad()
    projected(model.difference_pyramid(pre, post, "eval"), 1.0).backward()
    g_siamese = {n: t.grad.copy() for n, t in model.parameter_list() if n.startswith("enc")}

    model.zero_grad()
    projected(model.encode(pre, "eval"), -1.0).backward()
    g_a = {n: t.grad.copy() for n, t in model.parameter_list() if n.startswith("enc")}

    model.zero_grad()
    projected(model.encode(post, "eval"), 1.0).backward()
    g_b = {n: t.grad.copy() for n, t in model.parameter_list() if n.startswith("enc")}

    worst = 0.0
    for name in g_siamese:
        combined = g_a[name] + g_b[name]
        rel = np.abs(g_siamese[name] - combined) / np.maximum(np.abs(combined), 1e-6)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-6
    report("criterion 3 (weight sharing)", f"worst relative gap {worst:.2e}")


@pytest.mark.slow
def test_criterion_4_overfit_smoke():
    """Desk-scale overfit: 8 synthetic tiles (C=8, 64x64, burn fraction 0.15,
    seeds 42..49), base_width 8, Adam lr 1e-3, 300 steps, batch 4; the
    training-set IoU at threshold 0.5 must reach 0.90 and the final loss
    must drop below a third of the initial loss, inside 10 minutes."""
    t0 = time.monotonic()
    params = SceneParams(channels=8, size=(64, 64), burn_fraction_target=0.15)
    tiles = [generate_scene(params, seed=42 + i) for i in range(8)]
    model = init_model(ModelConfig(in_channels=8, base_width=8), seed=3)
    cfg = TrainConfig(lr=1e-3, steps=300, batch_size=4, patch_size=64, seed=0, log_every=50)
    ckpt, log = train(model, tiles, cfg)
    elapsed = time.monotonic() - t0

    iou = pooled_iou(model, tiles)
    initial, final = log.records[0].loss, log.records[-1].loss
    assert elapsed < 600.0, f"training took {elapsed:.0f}s"
    assert iou >= 0.90, f"training-set IoU {iou:.3f}"
    assert final < initial / 3.0, f"loss {initial:.3f} -> {final:.3f}"
    report(
        "criterion 4 (overfit smoke)",
        f"IoU {iou:.3f}, loss {initial:.3f} -> {final:.3f}, {elapsed:.0f}s",
    )


def test_criterion_5_metric_oracle():
    """confusion_counts and metrics_from_counts match naive per-pixel
    counting on 50 random pairs; f1 = dice and iou = f1/(2-f1) to 1e-12."""
    g = np.random.default_rng(7)
    for trial in range(50):
        pred = g.choice([0, 1], size=(32, 32)).astype(np.uint8)
        truth = g.choice([0, 1, 255], size=(32, 32), p=[0.55, 0.35, 0.10]).astype(np.uint8)

        tp = fp = tn = fn = skipped = 0
        for p, t in zip(pred.reshape(-1).tolist(), truth.reshape(-1).tolist()):
            if t == 255 or p == 255:
                skipped += 1
            elif p == 1 and t == 1:
                tp += 1
            elif p == 1:
                fp += 1
            elif t == 1:
                fn += 1
            else:
                tn += 1

        c = confusion_counts(pred, truth)
        assert (c.tp, c.fp, c.tn, c.fn, c.nodata_skipped) == (tp, fp, tn, fn, skipped)

        m = metrics_from_counts(c)
        assert abs(m.f1 - m.dice) < 1e-12
        if not m.degenerate:
            assert abs(m.iou - m.f1 / (2.0 - m.f1)) < 1e-12
    report("criterion 5 (metric oracle)", "50/50 random pairs match the naive counter")


def test_criterion_6_published_table_consistency():
    """Each published row's F1 and IoU are recoverable from its precision
    and recall within +-0.0015; the mean F1 reproduces 0.735 +- 0.001 and
    the std 0.186 +- 0.002 under the sample (N-1) convention."""
    for site, _acc, p, r, f1, iou, _dice in EMSR_TABLE:
        f1_calc = 2 * p * r / (p + r)
        assert abs(f1_calc - f1) <= 0.0015, site
        assert abs(f1_calc / (2 - f1_calc) - iou) <= 0.0015, site

    sets = [MetricSet(a, p, r, f1, iou, d) for _, a, p, r, f1, iou, d in EMSR_TABLE]
    mean, std = aggregate(sets)
    assert abs(mean.f1 - 0.735) <= 0.001
    assert abs(std.f1 - 0.186) <= 0.002  # aggregate uses divisor N-1, which matches
    f1s = np.array([s.f1 for s in sets])
    assert abs(f1s.std(ddof=0) - 0.186) > 0.002  # divisor N does not
    report(
        "criterion 6 (published-table consistency)",
        f"17 rows within rounding; mean F1 {mean.f1:.4f}, std {std.f1:.4f} (divisor N-1)",
    )


def test_criterion_7_determinism_and_round_trips(tmp_path):
    """(a) identical seeds give bitwise-identical train logs, (b) checkpoint
    save/load preserves predictions bitwise, (c) tile files round-trip
    bitwise."""
    params = SceneParams(channels=2, size=(32, 32))
    tiles = [generate_scene(params, seed=s) for s in range(3)]
    cfg = TrainConfig(steps=6, batch_size=2, patch_size=32, seed=5, log_every=1)

    logs = []
    for _ in range(2):
        model = init_model(ModelConfig(in_channels=2, base_width=4), seed=4)
        _, log = train(model, tiles, cfg)
        logs.append([(r.step, r.loss, r.bce, r.dice, r.burn_frac) for r in log.records])
    assert logs[0] == logs[1]

    model = init_model(ModelConfig(in_channels=2, base_width=4), seed=4)
    train(model, tiles, cfg)
    before = predict(model, tiles[0])
    path = tmp_path / "model.sunc"
    save_checkpoint(checkpoint_from_model(model, step=6), path)
    after = predict(model_from_checkpoint(load_checkpoint(path)), tiles[0])
    assert np.array_equal(before, after)

    tile_path = tmp_path / "tile.btt"
    write_tile(tiles[0], tile_path)
    back = read_tile(tile_path)
    assert np.array_equal(back.pre, tiles[0].pre)
    assert np.array_equal(back.post, tiles[0].post)
    assert np.array_equal(back.mask, tiles[0].mask)
    report(
        "criterion 7 (determinism and round trips)",
        "logs bitwise equal; checkpoint and tile round trips exact",
    )


@pytest.mark.slow
def test_criterion_8_generalization_across_regimes():
    """Train on 16 scenes from one generator regime (seeds 0..15), evaluate
    on 8 scenes from a regime with different seasonal drift and blob
    geometry (seeds 100..107); mean held-out IoU must reach 0.5."""
    t0 = time.monotonic()
    train_params = SceneParams(channels=8, size=(64, 64), burn_fraction_target=0.15)
    shifted_params = SceneParams(
        channels=8,
        size=(64, 64),
        burn_fraction_target=0.18,
        n_scar_blobs=5,
        seasonal_drift_scale=0.6,
        confuser_blobs=3,
    )
    train_tiles = [generate_scene(train_params, seed=s) for s in range(16)]
    held_out = [generate_scene(shifted_params, seed=100 + s) for s in range(8)]

    model = init_model(ModelConfig(in_channels=8, base_width=8), seed=0)
    cfg = TrainConfig(lr=1e-3, steps=400, batch_size=4, patch_size=64, seed=0, log_every=100)
    train(model, train_tiles, cfg)

    ious = [
        metrics_from_counts(confusion_counts(predict(model, t, 0.5), t.mask)).iou
        for t in held_out
    ]
    mean_iou = float(np.mean(ious))
    elapsed = time.monotonic() - t0
    assert mean_iou >= 0.5, f"held-out IoUs {ious}"
    report(
        "criterion 8 (cross-regime generalization)",
        f"mean held-out IoU {mean_iou:.3f} (min {min(ious):.3f}), {elapsed:.0f}s",
    )


def test_criterion_9_render_fixture(tmp_path):
    """The confusion overlay is byte-exact for a 4x4 case covering all five
    colors (TP white, TN black, FP red, FN blue, nodata gray)."""
    pred = np.array(
        [[1, 0, 255, 1], [0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]], np.uint8
    )
    truth = np.array(
        [[1, 1, 1, 1], [0, 0, 0, 0], [1, 1, 255, 0], [1, 0, 1, 1]], np.uint8
    )
    W, K, R, B, G = (255, 255, 255), (0, 0, 0), (255, 0, 0), (0, 0, 255), (128, 128, 128)
    expected_pixels = [
        W, B, G, W,
        K, R, K, K,
        W, W, G, K,
        B, K, W, W,
    ]
    expected = b"P6\n4 4\n255\n" + bytes(v for px in expected_pixels for v in px)

    out = tmp_path / "overlay.ppm"
    render_confusion(pred, truth, out)
    assert out.read_bytes() == expected
    report("criterion 9 (render fixture)", "byte-exact over all five colors")
