"""Forward semantics and shape contracts of the autodiff primitives."""

import ast
import asyncio
import concurrent.futures
import ctypes
import gc
import itertools
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffnet import tensor as tensor_module
from diffnet.errors import ContractError, ShapeError
from diffnet.losses import LossConfig
from diffnet.tensor import (
    _BLOCK,
    _consumed,
    _pin_malloc,
    Tensor,
    add,
    batchnorm2d,
    clamp,
    concat_channels,
    conv2d,
    div,
    log,
    maxpool2x2,
    mul,
    no_grad,
    relu,
    sigmoid,
    sub,
    tsum,
    upconv2x2,
)
from diffnet.train import hybrid_loss


def randn(rng, *shape, dtype=np.float32):
    return rng.standard_normal(shape).astype(dtype)


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.ones((1, 1, 4, 4), np.float32))
        w = np.zeros((1, 1, 3, 3), np.float32)
        w[0, 0, 1, 1] = 1.0
        out = conv2d(x, Tensor(w), Tensor(np.zeros(1, np.float32)))
        assert np.array_equal(out.data, x.data)

    def test_shape_rule(self, rng):
        x = Tensor(randn(rng, 2, 64, 32, 32))
        w = Tensor(randn(rng, 32, 64, 3, 3))
        out = conv2d(x, w, Tensor(np.zeros(32, np.float32)))
        assert out.shape == (2, 32, 32, 32)

    def test_channel_mismatch_names_both_shapes(self, rng):
        x = Tensor(randn(rng, 1, 3, 8, 8))
        w = Tensor(randn(rng, 4, 2, 3, 3))
        with pytest.raises(ShapeError) as exc:
            conv2d(x, w, Tensor(np.zeros(4, np.float32)))
        assert "(1, 3, 8, 8)" in str(exc.value) and "(4, 2, 3, 3)" in str(exc.value)

    def test_one_by_one_kernel(self, rng):
        x = Tensor(randn(rng, 1, 3, 4, 4))
        w = Tensor(randn(rng, 2, 3, 1, 1))
        out = conv2d(x, w, Tensor(np.zeros(2, np.float32)))
        expected = np.einsum("nchw,oc->nohw", x.data, w.data[:, :, 0, 0])
        assert out.shape == (1, 2, 4, 4)
        np.testing.assert_allclose(out.data, expected, rtol=1e-5)


class TestBatchNorm:
    def test_eval_identity_stats(self, rng):
        x = Tensor(randn(rng, 2, 3, 4, 4))
        out = batchnorm2d(
            x,
            Tensor(np.ones(3, np.float32)),
            Tensor(np.zeros(3, np.float32)),
            np.zeros(3, np.float32),
            np.ones(3, np.float32),
            mode="eval",
        )
        np.testing.assert_allclose(out.data, x.data, atol=1e-4)

    def test_train_constant_input_gives_beta(self):
        x = Tensor(np.full((2, 2, 4, 4), 3.5, np.float32))
        beta = np.array([0.25, -1.5], np.float32)
        out = batchnorm2d(
            x,
            Tensor(np.ones(2, np.float32)),
            Tensor(beta),
            np.zeros(2, np.float32),
            np.ones(2, np.float32),
            mode="train",
        )
        np.testing.assert_allclose(out.data, np.broadcast_to(beta[None, :, None, None], out.shape), atol=1e-6)

    def test_running_stats_ema_update(self, rng):
        x = Tensor(randn(rng, 4, 2, 8, 8) + 2.0)
        rmean = np.zeros(2, np.float32)
        rvar = np.ones(2, np.float32)
        batchnorm2d(
            x, Tensor(np.ones(2, np.float32)), Tensor(np.zeros(2, np.float32)),
            rmean, rvar, mode="train",
        )
        bmean = x.data.mean(axis=(0, 2, 3))
        bvar = x.data.var(axis=(0, 2, 3))
        np.testing.assert_allclose(rmean, 0.1 * bmean, rtol=1e-5)
        np.testing.assert_allclose(rvar, 0.9 + 0.1 * bvar, rtol=1e-5)


class TestElementwise:
    def test_relu_values(self):
        out = relu(Tensor(np.array([-1.0, 0.0, 2.0], np.float32)))
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    def test_relu_nonnegative_identity(self, rng):
        x = np.abs(randn(rng, 5, 5))
        assert np.array_equal(relu(Tensor(x)).data, x)

    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor(np.zeros(1, np.float32))).data[0] == 0.5

    def test_sigmoid_symmetry(self, rng):
        x = randn(rng, 4, 4, dtype=np.float64)
        s = sigmoid(Tensor(x)).data + sigmoid(Tensor(-x)).data
        np.testing.assert_allclose(s, 1.0, atol=1e-12)

    def test_sigmoid_stable_for_large_inputs(self):
        x = Tensor(np.array([-1000.0, 1000.0], np.float32))
        out = sigmoid(x).data
        assert np.all(np.isfinite(out))
        assert 0.0 < out[1] <= 1.0 and 0.0 <= out[0] < 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_two_branch_formula_bitwise(self, dtype):
        d = np.array([0, -0.0, 16, -16, 17, -17, -88, -104, np.inf, -np.inf, np.nan], dtype)
        ref = np.empty_like(d)
        pos = d >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
        ex = np.exp(d[~pos])
        ref[~pos] = ex / (1.0 + ex)
        out = sigmoid(Tensor(d)).data
        assert out.dtype == dtype
        assert out.tobytes() == ref.tobytes()

    def test_sigmoid_saturates_in_float32(self):
        out = sigmoid(Tensor(np.array([16, 17, -88, -104], np.float32))).data
        assert out[0] < 1.0 and out[1] == 1.0
        assert out[2] > 0.0 and out[3] == 0.0


def argmax_route(x, g):
    """Reference 2x2 pooling: window argmax (first maximum in scan order,
    first NaN if any) and its gradient scattered with put_along_axis."""
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(n, c, h // 2, w // 2, 4)
    idx = win.argmax(axis=-1)[..., None]
    gw = np.zeros_like(win)
    np.put_along_axis(gw, idx, g[..., None], axis=-1)
    gx = gw.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return np.take_along_axis(win, idx, axis=-1)[..., 0], gx.reshape(n, c, h, w)


def window(values):
    return np.array(values, np.float32).reshape(1, 1, 2, 2)


def pool_and_grad(x, g):
    t = Tensor(x, requires_grad=True)
    out = maxpool2x2(t)
    tsum(mul(out, g)).backward()
    return out.data, t.grad


def four_view_max(d):
    """The pooling forward as first written: the maximum of the four strided
    views of the 2x2 windows, paired within each row."""
    return np.maximum(
        np.maximum(d[:, :, 0::2, 0::2], d[:, :, 0::2, 1::2]),
        np.maximum(d[:, :, 1::2, 0::2], d[:, :, 1::2, 1::2]),
    )


def pool_specials(dtype, uint):
    """Values whose maximum depends on argument order: both zeros, and NaNs
    that differ in payload or sign."""
    bits = np.iinfo(uint).bits
    nans = [
        np.array((0x7FF << (bits - 12)) | 0x2345, uint),
        np.array((0x7FF << (bits - 12)) | 0x11, uint),
        np.array(((1 << bits) - 1) ^ 0xF, uint),
    ]
    return np.array([-1.0, -0.0, 0.0, 1.0], dtype), np.array(nans).view(dtype)


FLOAT_UINT = [(np.float32, np.uint32), (np.float64, np.uint64)]


class TestMaxPool:
    def test_window_max(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], np.float32))
        assert maxpool2x2(x).data[0, 0, 0, 0] == 4.0

    def test_shape_rule(self, rng):
        out = maxpool2x2(Tensor(randn(rng, 1, 1, 8, 8)))
        assert out.shape == (1, 1, 4, 4)

    def test_odd_size_rejected(self, rng):
        with pytest.raises(ShapeError):
            maxpool2x2(Tensor(randn(rng, 1, 1, 5, 6)))

    def test_gradient_routes_to_argmax(self, rng):
        x = Tensor(randn(rng, 1, 1, 4, 4), requires_grad=True)
        tsum(maxpool2x2(x)).backward()
        g = x.grad.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        assert g.sum() == 4.0  # one unit per window
        assert set(np.unique(x.grad)) <= {0.0, 1.0}

    def test_tie_breaks_to_first_in_scan_order(self):
        x = Tensor(np.ones((1, 1, 2, 2), np.float32), requires_grad=True)
        tsum(maxpool2x2(x)).backward()
        expected = np.zeros((1, 1, 2, 2), np.float32)
        expected[0, 0, 0, 0] = 1.0
        assert np.array_equal(x.grad, expected)

    @pytest.mark.parametrize("hits", range(1, 16))
    def test_ties_route_to_first_maximum(self, hits):
        x = window([5.0 if hits >> q & 1 else -1.0 for q in range(4)])
        g = np.full((1, 1, 1, 1), 3.0, np.float32)
        out, grad = pool_and_grad(x, g)
        first = (hits & -hits).bit_length() - 1
        expected = np.zeros(4, np.float32)
        expected[first] = 3.0
        assert np.array_equal(grad.reshape(4), expected)
        ref_out, ref_grad = argmax_route(x, g)
        assert np.array_equal(out, ref_out) and np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("nans", range(1, 16))
    def test_nan_window_routes_to_first_nan(self, nans):
        x = window([np.nan if nans >> q & 1 else 9.0 - q for q in range(4)])
        g = np.full((1, 1, 1, 1), 3.0, np.float32)
        out, grad = pool_and_grad(x, g)
        assert np.isnan(out).all()
        first = (nans & -nans).bit_length() - 1
        assert np.flatnonzero(grad.reshape(4)).tolist() == [first]
        assert np.array_equal(grad, argmax_route(x, g)[1])

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 3), c=st.integers(1, 3), h=st.integers(1, 4), w=st.integers(1, 4),
        nan_rate=st.sampled_from([0.0, 0.1]), seed=st.integers(0, 10_000),
    )
    def test_matches_argmax_reference(self, n, c, h, w, nan_rate, seed):
        g = np.random.default_rng(seed)
        x = g.integers(-2, 3, (n, c, 2 * h, 2 * w)).astype(np.float32)  # many ties
        x[g.random(x.shape) < nan_rate] = np.nan
        up = g.standard_normal((n, c, h, w)).astype(np.float32)
        out, grad = pool_and_grad(x, up)
        ref_out, ref_grad = argmax_route(x, up)
        np.testing.assert_array_equal(out, ref_out)
        assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("dtype, uint", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_special_cotangents_route_bit_for_bit(self, dtype, uint):
        g = np.random.default_rng(7)
        x = g.integers(-1, 2, (2, 3, 8, 8)).astype(dtype)  # many ties
        x[g.random(x.shape) < 0.15] = np.nan
        bits = np.iinfo(uint).bits
        payload_nan = np.array((0x7FF << (bits - 12)) | 0x2345, uint).view(dtype)
        negative_nan = np.array(((1 << bits) - 1) ^ 0xF, uint).view(dtype)
        specials = np.array([-0.0, np.inf, -np.inf, payload_nan, negative_nan, 1.5, -2.25], dtype)
        up = specials[g.integers(0, len(specials), (2, 3, 4, 4))]
        t = Tensor(x, requires_grad=True)
        out = maxpool2x2(t)
        out.grad = up
        out._backward()
        assert t.grad.dtype == dtype
        assert t.grad.tobytes() == argmax_route(x, up)[1].tobytes()

    @pytest.mark.parametrize("dtype, uint", FLOAT_UINT)
    def test_forward_is_the_four_view_maximum_for_every_window(self, dtype, uint):
        """Every 2x2 window over {-1, -0, +0, 1} and three distinct NaNs
        pools byte for byte as the four-view formula: the zero's sign and
        the NaN's payload are those of the same operand."""
        numbers, nans = pool_specials(dtype, uint)
        values = np.concatenate([numbers, nans])
        x = np.array(list(itertools.product(values, repeat=4)), dtype).reshape(1, -1, 2, 2)
        assert maxpool2x2(Tensor(x)).data.tobytes() == four_view_max(x).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 2), c=st.integers(1, 3), h=st.integers(1, 5), w=st.integers(1, 5),
        with_nans=st.booleans(), kind=st.sampled_from(FLOAT_UINT), seed=st.integers(0, 10_000),
    )
    def test_forward_matches_the_four_view_maximum_bitwise(self, n, c, h, w, with_nans, kind, seed):
        """Maps of ties, signed zeros and NaN windows: pooling column pairs
        first, then row pairs, gives the four-view formula's bytes."""
        numbers, nans = pool_specials(*kind)
        values = np.concatenate([numbers, nans]) if with_nans else numbers
        x = np.random.default_rng(seed).choice(values, (n, c, 2 * h, 2 * w))
        out = maxpool2x2(Tensor(x)).data
        assert out.dtype == x.dtype
        assert out.tobytes() == four_view_max(x).tobytes()


class TestUpconv:
    def test_single_pixel_broadcast(self):
        x = Tensor(np.full((1, 1, 1, 1), 5.0, np.float32))
        w = Tensor(np.ones((1, 1, 2, 2), np.float32))
        out = upconv2x2(x, w, Tensor(np.zeros(1, np.float32)))
        assert out.shape == (1, 1, 2, 2)
        assert np.all(out.data == 5.0)

    def test_shape_rule(self, rng):
        x = Tensor(randn(rng, 1, 8, 16, 16))
        w = Tensor(randn(rng, 8, 4, 2, 2))
        out = upconv2x2(x, w, Tensor(np.zeros(4, np.float32)))
        assert out.shape == (1, 4, 32, 32)

    def test_channel_mismatch(self, rng):
        with pytest.raises(ShapeError):
            upconv2x2(
                Tensor(randn(rng, 1, 3, 4, 4)),
                Tensor(randn(rng, 2, 4, 2, 2)),
                Tensor(np.zeros(4, np.float32)),
            )


def naive_upconv2x2(x, w, b, g):
    """Float64 per-pixel reference: forward, then the weight, bias and input
    gradients for the cotangent ``g``; pixel (y, x) paints the output block
    at (2y, 2x) with ``x[:, :, y, x] @ w`` plus the bias."""
    n, cin, h, wd = x.shape
    cout = w.shape[1]
    out = np.zeros((n, cout, 2 * h, 2 * wd))
    gw = np.zeros_like(w)
    gx = np.zeros_like(x)
    for y in range(h):
        for xx in range(wd):
            for a in range(2):
                for c in range(2):
                    oy, ox = 2 * y + a, 2 * xx + c
                    out[:, :, oy, ox] = x[:, :, y, xx] @ w[:, :, a, c] + b
                    gw[:, :, a, c] += x[:, :, y, xx].T @ g[:, :, oy, ox]
                    gx[:, :, y, xx] += g[:, :, oy, ox] @ w[:, :, a, c].T
    return out, gw, g.sum(axis=(0, 2, 3)), gx


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 3),
    cin=st.integers(1, 4),
    cout=st.integers(1, 4),
    h=st.integers(1, 5),
    w=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
@example(n=2, cin=3, cout=4, h=3, w=5, seed=0)
def test_upconv2x2_matches_naive_reference(n, cin, cout, h, w, seed):
    g = np.random.default_rng(seed)
    x = g.standard_normal((n, cin, h, w))
    wt = g.standard_normal((cin, cout, 2, 2))
    b = g.standard_normal(cout)
    up = g.standard_normal((n, cout, 2 * h, 2 * w))
    tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, wt, b))
    out = upconv2x2(tx, tw, tb)
    tsum(mul(out, up)).backward()
    ref_out, ref_gw, ref_gb, ref_gx = naive_upconv2x2(x, wt, b, up)
    for got, ref in ((out.data, ref_out), (tw.grad, ref_gw), (tb.grad, ref_gb), (tx.grad, ref_gx)):
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)


class TestConcatAndSub:
    def test_concat_shape(self, rng):
        a = Tensor(randn(rng, 1, 2, 4, 4))
        b = Tensor(randn(rng, 1, 3, 4, 4))
        assert concat_channels(a, b).shape == (1, 5, 4, 4)

    def test_concat_slice_inverse(self, rng):
        a, b = randn(rng, 1, 2, 4, 4), randn(rng, 1, 3, 4, 4)
        out = concat_channels(Tensor(a), Tensor(b)).data
        assert np.array_equal(out[:, :2], a)
        assert np.array_equal(out[:, 2:], b)

    def test_concat_spatial_mismatch(self, rng):
        with pytest.raises(ShapeError):
            concat_channels(Tensor(randn(rng, 1, 2, 4, 4)), Tensor(randn(rng, 1, 2, 8, 8)))

    def test_sub_self_is_zero(self, rng):
        x = Tensor(randn(rng, 3, 5))
        assert np.all(sub(x, x).data == 0.0)

    def test_sub_antisymmetry_exact(self, rng):
        a, b = Tensor(randn(rng, 4, 4)), Tensor(randn(rng, 4, 4))
        assert np.array_equal(sub(a, b).data, -sub(b, a).data)

    def test_sub_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            sub(Tensor(randn(rng, 2, 3)), Tensor(randn(rng, 3, 2)))


def model_loss_after_backward(model, scene):
    """Train-mode forward of a 32x32 crop, the hybrid loss, then backward.
    Returns the loss and every node of its graph, collected before the
    backward drops the graph's edges; holding them keeps them alive."""
    pre = Tensor(scene.pre[None, :, :32, :32])
    post = Tensor(scene.post[None, :, :32, :32])
    probs = model.forward(pre, post, mode="train")
    loss = hybrid_loss(probs, scene.mask[None, None, :32, :32], LossConfig())
    nodes = graph_nodes(loss)
    loss.backward()
    return loss, nodes


def graph_nodes(root):
    """Every distinct graph node reachable from ``root``'s node through parents."""
    nodes, todo, seen = [], [root._node], set()
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            todo.extend(node._parents)
    return nodes


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = Tensor(randn(rng, 3, 4), requires_grad=True)
        tsum(x).backward()
        assert np.array_equal(x.grad, np.ones((3, 4), np.float32))

    def test_self_difference_cancels(self, rng):
        x = Tensor(randn(rng, 3, 4), requires_grad=True)
        tsum(sub(x, x)).backward()
        assert np.array_equal(x.grad, np.zeros((3, 4), np.float32))

    def test_non_scalar_loss_rejected(self, rng):
        x = Tensor(randn(rng, 3, 4), requires_grad=True)
        with pytest.raises(ContractError):
            mul(x, 2.0).backward()

    def test_unreachable_tensor_has_zero_grad(self, rng):
        x = Tensor(randn(rng, 2, 2), requires_grad=True)
        y = Tensor(randn(rng, 2, 2), requires_grad=True)
        tsum(mul(x, 3.0)).backward()
        assert np.array_equal(y.grad, np.zeros((2, 2), np.float32))

    def test_setting_grad_without_requires_grad_rejected(self, rng):
        """A tensor that needs no gradient has no node to hold one: setting
        ``grad`` is a ContractError saying so, and ``grad`` still reads None."""
        x = Tensor(randn(rng, 2, 2))
        with pytest.raises(ContractError, match="does not require a gradient"):
            x.grad = np.ones((2, 2), np.float32)
        assert x.grad is None
        with no_grad():
            y = Tensor(randn(rng, 2, 2), requires_grad=True)
        with pytest.raises(ContractError, match="does not require a gradient"):
            y.grad = np.ones((2, 2), np.float32)

    def test_grad_sums_over_consumers(self, rng):
        x = Tensor(randn(rng, 2, 2), requires_grad=True)
        tsum(mul(x, 2.0) + mul(x, 3.0)).backward()
        np.testing.assert_allclose(x.grad, np.full((2, 2), 5.0), rtol=1e-6)

    def test_clamp_and_log_compose(self):
        x = Tensor(np.array([0.5], np.float64), requires_grad=True)
        tsum(log(clamp(x, 1e-7, 1 - 1e-7))).backward()
        np.testing.assert_allclose(x.grad, [2.0], rtol=1e-12)

    def test_backward_consumes_the_graph(self, small_model, small_scene):
        loss, nodes = model_loss_after_backward(small_model, small_scene)
        assert len(nodes) > 100
        assert all(node._backward in (None, _consumed) and not node._parents for node in nodes)
        with pytest.raises(ContractError, match="consumed"):
            loss.backward()

    def test_no_two_tensors_share_a_gradient_buffer(self, small_model, small_scene):
        _, nodes = model_loss_after_backward(small_model, small_scene)
        grads = [node._grad for node in nodes if node._grad is not None]
        assert len(grads) > 100
        for i, a in enumerate(grads):
            for b in grads[i + 1 :]:
                assert not np.shares_memory(a, b)

    def test_loss_over_a_consumed_subgraph_rejected(self, rng):
        x = Tensor(randn(rng, 2, 2), requires_grad=True)
        first = tsum(mul(x, 2.0))
        first.backward()
        with pytest.raises(ContractError, match="consumed"):
            mul(first, 3.0).backward()
        assert np.array_equal(x.grad, np.full((2, 2), 2.0, np.float32))

    def test_an_intermediate_the_caller_dropped_is_freed(self, rng):
        """With the cyclic collector off, only the references that
        backward() drops can free the relu output by the time it returns."""
        x = Tensor(randn(rng, 3, 4), requires_grad=True)
        h = relu(mul(x, 2.0))
        freed = weakref.ref(h.data)  # Tensor has no __weakref__ slot
        loss = tsum(mul(h, 3.0))
        del h
        gc.disable()
        try:
            loss.backward()
            assert freed() is None
        finally:
            gc.enable()
        np.testing.assert_array_equal(x.grad, np.where(x.data > 0, 6.0, 0.0))

    def test_an_intermediate_the_caller_holds_keeps_data_and_grad(self, rng):
        x = Tensor(randn(rng, 3, 4), requires_grad=True)
        h = relu(mul(x, 2.0))
        data = h.data.copy()
        tsum(mul(h, 3.0)).backward()
        assert np.array_equal(h.data, data)
        assert np.array_equal(h.grad, np.full((3, 4), 3.0, np.float32))

    @pytest.mark.parametrize("producer", ["batchnorm2d", "upconv2x2"])
    def test_an_output_no_backward_reads_is_freed_before_backward(self, rng, producer):
        """relu's backward reads its own output and concat_channels' none of
        its inputs, and graph edges hold nodes, not tensors: so with the
        cyclic collector off, the data of a batchnorm2d output under relu,
        or of an upconv2x2 output under concat_channels, is freed as soon as
        the caller drops it."""
        x = Tensor(randn(rng, 2, 3, 4, 4), requires_grad=True)
        a, b = (Tensor(randn(rng, 3), requires_grad=True) for _ in range(2))
        if producer == "batchnorm2d":
            mid = batchnorm2d(x, a, b, np.zeros(3, np.float32), np.ones(3, np.float32), "train")
            consume = relu
        else:
            mid = upconv2x2(x, Tensor(randn(rng, 3, 3, 2, 2), requires_grad=True), b)
            skip = Tensor(randn(rng, 2, 2, 8, 8), requires_grad=True)
            consume = lambda t: concat_channels(t, skip)
        freed = weakref.ref(mid.data)
        gc.disable()
        try:
            loss = tsum(mul(consume(mid), Tensor(randn(rng, 2, 1, 1, 1))))
            del mid
            assert freed() is None
        finally:
            gc.enable()
        loss.backward()
        assert np.any(x.grad != 0)


def _f64(*shape, low=None):
    """Seeded float64 inputs; uniform in [low, low + 1) when ``low`` is given."""
    g = np.random.default_rng(len(shape) * 97 + sum(shape))
    return g.standard_normal(shape) if low is None else g.random(shape) + low


# every op as a function of Tensors only, with float64 inputs
OP_CASES = {
    "add": (add, [_f64(2, 3), _f64(3)]),
    "mul": (mul, [_f64(2, 3), _f64(2, 1)]),
    "div": (div, [_f64(2, 3), _f64(3, low=0.5)]),
    "sub": (sub, [_f64(2, 3), _f64(2, 3, low=-1.0)]),
    "tsum": (tsum, [_f64(3, 4)]),
    "log": (log, [_f64(3, 4, low=0.5)]),
    "clamp": (lambda x: clamp(x, -0.5, 0.5), [_f64(3, 4)]),
    "relu": (relu, [_f64(3, 4)]),
    "sigmoid": (sigmoid, [_f64(3, 4)]),
    "conv2d": (conv2d, [_f64(2, 3, 5, 6), _f64(4, 3, 3, 3), _f64(4)]),
    "batchnorm2d": (
        lambda x, g, b: batchnorm2d(x, g, b, np.zeros(3), np.ones(3), "train"),
        [_f64(2, 3, 4, 5), _f64(3), _f64(3, low=-1.0)],
    ),
    "maxpool2x2": (maxpool2x2, [_f64(2, 3, 4, 6)]),
    "upconv2x2": (upconv2x2, [_f64(2, 3, 3, 4), _f64(3, 2, 2, 2), _f64(2)]),
    "concat_channels": (concat_channels, [_f64(2, 2, 3, 4), _f64(2, 3, 3, 4)]),
}


@pytest.mark.parametrize("name", OP_CASES)
def test_backward_applies_the_op_to_the_output_gradient(name):
    """An op's ``_backward`` reads the output gradient when called: setting
    ``out.grad = c`` and calling it gives every input the gradient, bit for
    bit, that ``backward()`` of the loss sum(out * c) gives."""
    op, arrays = OP_CASES[name]

    def input_grads(direct):
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        out = op(*inputs)
        c = np.random.default_rng(3).standard_normal(out.shape)
        if direct:
            out.grad = c
            out._backward()
        else:
            tsum(mul(out, c)).backward()
        return [t.grad for t in inputs]

    for got, want in zip(input_grads(True), input_grads(False), strict=True):
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


class TestDeterminism:
    def test_conv_bitwise_repeatable(self, rng):
        x, w, b = randn(rng, 2, 3, 8, 8), randn(rng, 4, 3, 3, 3), randn(rng, 4)
        a = conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        b2 = conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.array_equal(a, b2)


# -- linearity of the linear primitives (property-based) ----------------------

small_dims = st.integers(min_value=1, max_value=4)


@settings(max_examples=25, deadline=None)
@given(n=small_dims, c=small_dims, h=st.integers(2, 6), w=st.integers(2, 6), seed=st.integers(0, 10_000))
def test_sub_and_concat_are_linear(n, c, h, w, seed):
    g = np.random.default_rng(seed)
    a1, a2 = g.standard_normal((2, n, c, h, w))
    b1, b2 = g.standard_normal((2, n, c, h, w))
    lhs = sub(Tensor(a1 + a2), Tensor(b1 + b2)).data
    rhs = sub(Tensor(a1), Tensor(b1)).data + sub(Tensor(a2), Tensor(b2)).data
    np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-9)

    lc = concat_channels(Tensor(a1 + a2), Tensor(b1 + b2)).data
    rc = concat_channels(Tensor(a1), Tensor(b1)).data + concat_channels(Tensor(a2), Tensor(b2)).data
    np.testing.assert_allclose(lc, rc, rtol=1e-6, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    n=small_dims,
    cin=small_dims,
    cout=small_dims,
    h=st.integers(1, 5),
    w=st.integers(1, 5),
)
def test_shape_algebra(n, cin, cout, h, w):
    """Output shapes are pure functions of input shapes."""
    g = np.random.default_rng(0)
    x = Tensor(g.standard_normal((n, cin, 2 * h, 2 * w)))
    conv = conv2d(x, Tensor(g.standard_normal((cout, cin, 3, 3))), Tensor(np.zeros(cout)))
    assert conv.shape == (n, cout, 2 * h, 2 * w)
    assert maxpool2x2(x).shape == (n, cin, h, w)
    up = upconv2x2(x, Tensor(g.standard_normal((cin, cout, 2, 2))), Tensor(np.zeros(cout)))
    assert up.shape == (n, cout, 4 * h, 4 * w)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_conv2d_linear_in_input_for_fixed_weights(seed):
    g = np.random.default_rng(seed)
    a = g.standard_normal((1, 2, 5, 5))
    b = g.standard_normal((1, 2, 5, 5))
    w = Tensor(g.standard_normal((3, 2, 3, 3)))
    bias = Tensor(np.zeros(3))
    lhs = conv2d(Tensor(a + b), w, bias).data
    rhs = conv2d(Tensor(a), w, bias).data + conv2d(Tensor(b), w, bias).data
    np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-9)


def naive_conv2d(x, w, b, g):
    """Float64 per-tap reference: forward, then the weight, bias and input
    gradients for the cotangent ``g``, written as loops over kernel taps,
    output and input channels."""
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    p = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.zeros((n, cout, h, wd)) + b[None, :, None, None]
    gw = np.zeros_like(w)
    gxp = np.zeros_like(xp)
    for i in range(k):
        for j in range(k):
            patch = xp[:, :, i : i + h, j : j + wd]
            for o in range(cout):
                for c in range(cin):
                    out[:, o] += w[o, c, i, j] * patch[:, c]
                    gw[o, c, i, j] = (g[:, o] * patch[:, c]).sum()
                    gxp[:, c, i : i + h, j : j + wd] += w[o, c, i, j] * g[:, o]
    return out, gw, g.sum(axis=(0, 2, 3)), gxp[:, :, p : p + h, p : p + wd]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    cin=st.integers(1, 4),
    cout=st.integers(1, 4),
    h=st.integers(1, 7),
    w=st.integers(1, 7),
    k=st.sampled_from([1, 3]),
    seed=st.integers(0, 10_000),
)
@example(n=2, cin=3, cout=5, h=4, w=7, k=3, seed=0)
@example(n=3, cin=4, cout=2, h=6, w=3, k=1, seed=1)
@example(n=2, cin=3, cout=5, h=96, w=180, k=3, seed=2)  # H*(W+2) >= 2*_BLOCK: row blocks
@example(n=2, cin=3, cout=5, h=96, w=180, k=1, seed=3)
@example(n=1, cin=2, cout=3, h=97, w=170, k=3, seed=4)  # rows split 48 + 49
@example(n=1, cin=2, cout=3, h=7, w=3600, k=3, seed=7)  # 2 + 2 + 3: a middle block is shorter
@example(n=1, cin=2, cout=3, h=2, w=8400, k=3, seed=5)  # short and wide: one row per block
@example(n=1, cin=2, cout=3, h=1, w=18000, k=3, seed=6)  # more blocks' worth than rows
@example(n=1, cin=2, cout=3, h=130, w=128, k=3, seed=8)  # two row ranges split at row 65
def test_conv2d_matches_naive_reference(n, cin, cout, h, w, k, seed):
    g = np.random.default_rng(seed)
    x = g.standard_normal((n, cin, h, w))
    wt = g.standard_normal((cout, cin, k, k))
    b = g.standard_normal(cout)
    up = g.standard_normal((n, cout, h, w))
    tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, wt, b))
    out = conv2d(tx, tw, tb)
    tsum(mul(out, up)).backward()
    ref_out, ref_gw, ref_gb, ref_gx = naive_conv2d(x, wt, b, up)
    for got, ref in ((out.data, ref_out), (tw.grad, ref_gw), (tb.grad, ref_gb), (tx.grad, ref_gx)):
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)


# -- two row ranges on two threads ---------------------------------------------


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def split_map(rng):
    """A float32 map of at least 2 * _BLOCK positions per plane, split at
    the odd row 65 (maxpool2x2 at the even row 64)."""
    x = randn(rng, 1, 8, 130, 128)
    assert 130 * 128 >= 2 * _BLOCK
    return x


def conv2d_run(x, wt, b, up):
    tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, wt, b))
    out = conv2d(tx, tw, tb)
    tsum(mul(out, up)).backward()
    return out.data, tx.grad, tw.grad, tb.grad


def batchnorm2d_run(x, gamma, beta, mode):
    rmean, rvar = np.linspace(-1, 1, 8, dtype=np.float32), np.linspace(0.5, 2, 8, dtype=np.float32)
    with no_grad():
        out = batchnorm2d(Tensor(x), Tensor(gamma), Tensor(beta), rmean, rvar, mode)
    return out.data, rmean, rvar


class TestTwoRowRanges:
    """Each split kernel gives the same bits with two usable CPUs, its
    second row range on the worker thread, as with one, both ranges here,
    and as its body called once on the whole map, as for a small map."""

    @staticmethod
    def same_bits(monkeypatch, run):
        split = run()
        one_cpu(monkeypatch)
        serial = run()
        monkeypatch.setattr(tensor_module, "_mid_row", lambda h, w, step=1: 0)
        whole = run()
        for a, b, c in zip(split, serial, whole, strict=True):
            assert np.array_equal(a, b)
            assert np.array_equal(a, c)

    def test_conv2d(self, rng, monkeypatch):
        x, wt, b = split_map(rng), randn(rng, 6, 8, 3, 3), randn(rng, 6)
        up = randn(rng, 1, 6, 130, 128)
        self.same_bits(monkeypatch, lambda: conv2d_run(x, wt, b, up))

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_batchnorm2d(self, rng, monkeypatch, mode):
        x, gamma, beta = split_map(rng), randn(rng, 8), randn(rng, 8)
        self.same_bits(monkeypatch, lambda: batchnorm2d_run(x, gamma, beta, mode))

    def test_relu(self, rng, monkeypatch):
        x = Tensor(split_map(rng))
        self.same_bits(monkeypatch, lambda: [relu(x).data])

    def test_maxpool2x2(self, rng, monkeypatch):
        x = Tensor(split_map(rng))
        self.same_bits(monkeypatch, lambda: [maxpool2x2(x).data])


# Python 3.12 and later warn when a process with threads forks
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_forked_child_runs_a_split_conv2d(rng):
    """The worker has run a task before the fork; the child makes its own."""
    x, wt, b = Tensor(split_map(rng)), Tensor(randn(rng, 8, 8, 3, 3)), Tensor(randn(rng, 8))
    with no_grad():
        want = conv2d(x, wt, b).data
    pid = os.fork()
    if pid == 0:
        try:
            with no_grad():
                os._exit(0 if np.array_equal(conv2d(x, wt, b).data, want) else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's conv2d did not finish in 30 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_import_starts_no_thread():
    """The worker and ``concurrent.futures`` wait for the first split map."""
    script = (
        "import sys, threading, diffnet\n"
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)"
    )
    env = os.environ | {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.stdout.split() == ["1", "False"], out.stderr


# -- graph mode and the worker across threads ------------------------------------


def run_threads(*bodies):
    """Run each body on its own thread; their results in order, or the
    first body's failure raised here."""
    with ThreadPoolExecutor(len(bodies)) as pool:
        futures = [pool.submit(body) for body in bodies]
        return [f.result(timeout=30) for f in futures]


def split_threads():
    return sum(t.name.startswith("diffnet-split") for t in threading.enumerate())


def test_overlapping_no_grad_blocks_on_two_threads():
    """A enters, B enters, A leaves, B leaves: each block holds for its own
    thread only, and recording is on again once both have left."""
    x = Tensor(np.ones(3, np.float32), requires_grad=True)
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()

    def a():
        with no_grad():
            a_in.set()
            assert b_in.wait(10)
        a_out.set()

    def b():
        assert a_in.wait(10)
        with no_grad():
            b_in.set()
            assert a_out.wait(10)
            return (x * 2).requires_grad

    assert run_threads(a, b) == [None, False]
    assert (x * 2).requires_grad


def test_a_thread_records_while_another_is_in_no_grad():
    inside, done = threading.Event(), threading.Event()

    def holder():
        with no_grad():
            inside.set()
            assert done.wait(10)

    def maker():
        try:
            assert inside.wait(10)
            t = Tensor(np.ones(3, np.float32), requires_grad=True)
            return t.requires_grad, (t * 2).requires_grad
        finally:
            done.set()

    assert run_threads(holder, maker) == [None, (True, True)]


def test_no_grad_in_one_asyncio_task_leaves_another_recording():
    x = Tensor(np.ones(3, np.float32), requires_grad=True)

    async def holder():
        with no_grad():
            await asyncio.sleep(0)
            return (x * 2).requires_grad

    async def recorder():
        return (x * 2).requires_grad

    async def both():
        return await asyncio.gather(holder(), recorder())

    assert asyncio.run(both()) == [False, True]


def test_racing_first_splits_share_one_worker(monkeypatch):
    """Two threads make their first split together, both held in the
    executor's constructor until the other arrives: one executor runs both
    second ranges, and the other starts no thread."""
    made, arrived = [], threading.Barrier(2, timeout=10)

    class HeldExecutor(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.submits = 0
            made.append(self)
            arrived.wait()

        def submit(self, *args, **kwargs):
            self.submits += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", HeldExecutor)
    monkeypatch.setattr(tensor_module, "_worker", {})
    two_cpus(monkeypatch)
    ranges, before = [], split_threads()

    def first_split():
        tensor_module._halves(lambda *r: ranges.append(r), 2, 1)

    try:
        run_threads(first_split, first_split)
        assert sorted(ranges) == [(0, 1), (0, 1), (1, 2), (1, 2)]
        assert sorted(e.submits for e in made) == [0, 2]
        assert split_threads() == before + 1
    finally:
        for e in made:
            e.shutdown()


def test_no_module_rebinds_a_global():
    """Module state is bound once: per-call state lives in the context."""
    src = Path(tensor_module.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Global)
    ]
    assert found == []


# -- memory of the forward kernels ---------------------------------------------


def traced_peak(fn):
    """Bytes allocated at the peak of ``fn()`` above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


SLACK = 64 * 1024  # small arrays and Python objects


def block_bytes(n, c, h, w, k):
    """Bytes of one of ``_shifted_taps``'s block buffers, two per row
    range: the largest block of whole rows, Wp wide, over ``c`` channels."""
    wp = w + k - 1
    nb = max(1, min(h, h * wp // _BLOCK))
    return n * c * -(-h // nb) * wp * 4


def test_conv2d_forward_holds_one_block_of_temporaries(rng):
    """Padded input, output and two block buffers per row range: no
    Wp-wide sum exists at full size."""
    n, c, h, w = 1, 8, 256, 256
    x, wt, b = Tensor(randn(rng, n, c, h, w)), Tensor(randn(rng, c, c, 3, 3)), Tensor(randn(rng, c))
    with no_grad():
        out, peak = traced_peak(lambda: conv2d(x, wt, b))
    padded = n * c * ((h + 2) * (w + 2) + 2) * 4
    assert h * (w + 2) >= 2 * _BLOCK
    assert peak <= padded + out.data.nbytes + 2 * 2 * block_bytes(n, c, h, w, 3) + SLACK


def test_conv2d_input_gradient_holds_one_block_of_temporaries(rng):
    n, c, h, w = 1, 8, 256, 256
    x, wt, b = (
        Tensor(a, requires_grad=True)
        for a in (randn(rng, n, c, h, w), randn(rng, c, c, 3, 3), randn(rng, c))
    )
    out = conv2d(x, wt, b)
    out.grad = randn(rng, n, c, h, w)
    _, peak = traced_peak(out._backward)
    padded = n * c * ((h + 2) * (w + 2) + 2) * 4
    assert h * (w + 2) >= 2 * _BLOCK
    assert peak <= padded + x.grad.nbytes + 2 * 2 * block_bytes(n, c, h, w, 3) + SLACK


def test_conv2d_with_grad_keeps_no_more_than_its_output(rng):
    """Its backward pads the input again, so a 3x3 conv2d that records a
    graph keeps no padded copy of its input past the forward."""
    n, c, h, w = 1, 8, 256, 256
    x, wt, b = (
        Tensor(a, requires_grad=True)
        for a in (randn(rng, n, c, h, w), randn(rng, c, c, 3, 3), randn(rng, c))
    )
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = conv2d(x, wt, b)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert kept <= out.data.nbytes + SLACK


@pytest.mark.parametrize("mode", ["eval", "train"])
def test_batchnorm2d_forward_holds_about_one_output(rng, mode):
    x = Tensor(randn(rng, 1, 8, 256, 256))
    gamma, beta = Tensor(randn(rng, 8)), Tensor(randn(rng, 8))
    rmean, rvar = randn(rng, 8), np.abs(randn(rng, 8)) + 0.5
    with no_grad():
        out, peak = traced_peak(lambda: batchnorm2d(x, gamma, beta, rmean, rvar, mode))
    assert peak <= out.data.nbytes + SLACK


def test_pin_malloc_does_nothing_without_libc_or_mallopt(monkeypatch):
    def no_libc(name):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    assert _pin_malloc() is None
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # a libc without mallopt
    assert _pin_malloc() is None
