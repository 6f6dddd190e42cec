"""Central-difference gradient checks for every differentiable primitive.

Composites containing ReLU kinks or pooling near-ties are screened so the
finite differences never straddle a non-differentiable point; this mirrors
probing ReLU only away from zero.
"""

import numpy as np
import pytest

from diffnet.gradcheck import gradcheck
from diffnet.losses import LossConfig, dice_loss, hybrid_loss
from diffnet.tensor import (
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

TOL = 1e-5


def arrays(seed, *shapes):
    g = np.random.default_rng(seed)
    return [g.standard_normal(s) for s in shapes]


def relu_safe(x, margin=1e-3):
    """Push values away from the ReLU kink so central differences are valid."""
    near = np.abs(x) < margin
    return x + np.sign(x + (x == 0)) * margin * near


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conv2d_gradcheck(seed):
    ins = arrays(seed, (1, 2, 5, 5), (2, 2, 3, 3), (2,))
    r = gradcheck("conv2d", conv2d, ins, seed=seed)
    assert r.max_rel_error < TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conv1x1_gradcheck(seed):
    ins = arrays(seed, (1, 3, 4, 4), (1, 3, 1, 1), (1,))
    r = gradcheck("conv1x1", conv2d, ins, seed=seed)
    assert r.max_rel_error < TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batchnorm_train_gradcheck(seed):
    ins = arrays(seed, (2, 3, 4, 4), (3,), (3,))
    r = gradcheck(
        "batchnorm2d-train",
        lambda x, g, b: batchnorm2d(x, g, b, None, None, "train"),
        ins,
        seed=seed,
    )
    assert r.max_rel_error < TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batchnorm_eval_gradcheck(seed):
    ins = arrays(seed, (2, 3, 4, 4), (3,), (3,))
    rm = np.array([0.1, -0.2, 0.3])
    rv = np.array([1.0, 2.0, 0.5])
    r = gradcheck(
        "batchnorm2d-eval",
        lambda x, g, b: batchnorm2d(x, g, b, rm, rv, "eval"),
        ins,
        seed=seed,
    )
    assert r.max_rel_error < TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relu_gradcheck_away_from_kink(seed):
    (x,) = arrays(seed, (3, 5))
    r = gradcheck("relu", relu, [relu_safe(x)], seed=seed)
    assert r.max_rel_error < TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sigmoid_gradcheck(seed):
    r = gradcheck("sigmoid", sigmoid, arrays(seed, (3, 5)), seed=seed)
    assert r.max_rel_error < TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_maxpool_gradcheck(seed):
    # standard normal draws essentially never tie within a window
    r = gradcheck("maxpool2x2", maxpool2x2, arrays(seed, (1, 2, 6, 6)), seed=seed)
    assert r.max_rel_error < TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_upconv_gradcheck(seed):
    ins = arrays(seed, (1, 3, 3, 3), (3, 2, 2, 2), (2,))
    r = gradcheck("upconv2x2", upconv2x2, ins, seed=seed)
    assert r.max_rel_error < TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_concat_gradcheck(seed):
    ins = arrays(seed, (1, 2, 3, 3), (1, 3, 3, 3))
    r = gradcheck("concat_channels", concat_channels, ins, seed=seed)
    assert r.max_rel_error < TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sub_gradcheck_is_nearly_exact(seed):
    # linear map: central differences are exact up to rounding
    r = gradcheck("sub", sub, arrays(seed, (3, 4), (3, 4)), seed=seed)
    assert r.max_rel_error < 1e-8


def _composite_chain_inputs(seed):
    """Draw chain inputs, rejecting samples whose pre-ReLU activations sit
    near the kink or whose pooling windows nearly tie."""
    for attempt in range(seed, seed + 200):
        x, w, b, gm, bt = arrays(attempt, (2, 2, 6, 6), (3, 2, 3, 3), (3,), (3,), (3,))
        gm = gm + 1.0
        pre = batchnorm2d(
            conv2d(Tensor(x), Tensor(w), Tensor(b)),
            Tensor(gm), Tensor(bt), None, None, "train",
        ).data
        if np.abs(pre).min() < 1e-3:
            continue
        act = np.maximum(pre, 0)
        win = act.reshape(2, 3, 3, 2, 3, 2).transpose(0, 1, 2, 4, 3, 5).reshape(2, 3, 3, 3, 4)
        top2 = np.sort(win, axis=-1)[..., -2:]
        if (top2[..., 1] - top2[..., 0]).min() < 1e-3:
            continue
        return [x, w, b, gm, bt]
    raise AssertionError("no kink-free sample found")


@pytest.mark.parametrize("seed", [0, 1000, 2000])
def test_composite_chain_gradcheck(seed):
    def chain(x, w, b, gm, bt):
        return maxpool2x2(relu(batchnorm2d(conv2d(x, w, b), gm, bt, None, None, "train")))

    r = gradcheck("conv-bn-relu-pool", chain, _composite_chain_inputs(seed), seed=seed)
    assert r.max_rel_error < TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dice_loss_gradcheck(seed):
    g = np.random.default_rng(seed)
    probs = g.uniform(0.1, 0.9, size=(1, 1, 4, 4))
    target = (g.uniform(size=(1, 1, 4, 4)) < 0.3).astype(np.uint8)
    r = gradcheck("dice_loss", lambda p: dice_loss(p, target), [probs], seed=seed)
    assert r.max_rel_error < TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hybrid_loss_gradcheck(seed):
    g = np.random.default_rng(seed)
    probs = g.uniform(0.2, 0.8, size=(1, 1, 4, 4))
    target = (g.uniform(size=(1, 1, 4, 4)) < 0.3).astype(np.uint8)
    cfg = LossConfig(alpha=0.5, pos_weight=3.0)
    r = gradcheck("hybrid_loss", lambda p: hybrid_loss(p, target, cfg), [probs], seed=seed)
    assert r.max_rel_error < TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hybrid_loss_through_sigmoid_gradcheck(seed):
    g = np.random.default_rng(seed)
    logits = g.standard_normal((1, 1, 4, 4))
    target = (g.uniform(size=(1, 1, 4, 4)) < 0.3).astype(np.uint8)
    cfg = LossConfig(alpha=0.5, pos_weight=None)
    r = gradcheck(
        "sigmoid+hybrid_loss",
        lambda z: hybrid_loss(sigmoid(z), target, cfg),
        [logits],
        seed=seed,
    )
    assert r.max_rel_error < TOL


def test_report_counts_all_elements():
    ins = arrays(0, (2, 3), (2, 3))
    r = gradcheck("sub", sub, ins)
    assert r.n_checked == 12
    assert r.op_name == "sub"
