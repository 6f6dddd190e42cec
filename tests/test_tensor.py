"""Forward semantics and shape contracts of the autodiff primitives."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffnet.errors import ContractError, ShapeError
from diffnet.losses import LossConfig, hybrid_loss
from diffnet.tensor import (
    Tensor,
    batchnorm2d,
    clamp,
    concat_channels,
    conv2d,
    log,
    maxpool2x2,
    mul,
    relu,
    sigmoid,
    sub,
    tsum,
    upconv2x2,
)


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
        out = conv2d(x, w, Tensor(np.zeros(2, np.float32)), padding=0)
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
            None,
            None,
            mode="train",
        )
        np.testing.assert_allclose(out.data, np.broadcast_to(beta[None, :, None, None], out.shape), atol=1e-6)

    def test_eval_without_stats_is_config_error(self, rng):
        from diffnet.errors import ConfigError

        x = Tensor(randn(rng, 1, 2, 4, 4))
        with pytest.raises(ConfigError):
            batchnorm2d(
                x, Tensor(np.ones(2, np.float32)), Tensor(np.zeros(2, np.float32)),
                None, None, mode="eval",
            )

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

    def test_grad_sums_over_consumers(self, rng):
        x = Tensor(randn(rng, 2, 2), requires_grad=True)
        tsum(mul(x, 2.0) + mul(x, 3.0)).backward()
        np.testing.assert_allclose(x.grad, np.full((2, 2), 5.0), rtol=1e-6)

    def test_clamp_and_log_compose(self):
        x = Tensor(np.array([0.5], np.float64), requires_grad=True)
        tsum(log(clamp(x, 1e-7, 1 - 1e-7))).backward()
        np.testing.assert_allclose(x.grad, [2.0], rtol=1e-12)

    def test_backward_consumes_the_graph(self, small_model, small_scene):
        pre = Tensor(small_scene.pre[None, :, :32, :32])
        post = Tensor(small_scene.post[None, :, :32, :32])
        probs = small_model.forward(pre, post, mode="train")
        loss = hybrid_loss(probs, small_scene.mask[None, None, :32, :32], LossConfig())
        loss.backward()
        nodes, todo, seen = 0, [loss], set()
        while todo:
            node = todo.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes += 1
                assert node._backward is None
                todo.extend(node._parents)
        assert nodes > 100
        with pytest.raises(ContractError, match="consumed"):
            loss.backward()

    def test_loss_over_a_consumed_subgraph_rejected(self, rng):
        x = Tensor(randn(rng, 2, 2), requires_grad=True)
        first = tsum(mul(x, 2.0))
        first.backward()
        with pytest.raises(ContractError, match="consumed"):
            mul(first, 3.0).backward()
        assert np.array_equal(x.grad, np.full((2, 2), 2.0, np.float32))


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
def test_conv2d_matches_naive_reference(n, cin, cout, h, w, k, seed):
    g = np.random.default_rng(seed)
    x = g.standard_normal((n, cin, h, w))
    wt = g.standard_normal((cout, cin, k, k))
    b = g.standard_normal(cout)
    up = g.standard_normal((n, cout, h, w))
    tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, wt, b))
    out = conv2d(tx, tw, tb, padding=(k - 1) // 2)
    tsum(mul(out, up)).backward()
    ref_out, ref_gw, ref_gb, ref_gx = naive_conv2d(x, wt, b, up)
    for got, ref in ((out.data, ref_out), (tw.grad, ref_gw), (tb.grad, ref_gb), (tx.grad, ref_gx)):
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)
