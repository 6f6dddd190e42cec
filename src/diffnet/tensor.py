"""Dense float tensors with reverse-mode automatic differentiation.

The engine is deliberately small: a ``Tensor`` wraps a numpy array and
records, for every differentiable operation, a closure that scatters the
upstream gradient back to its parents.  ``Tensor.backward`` walks the
recorded graph once, in reverse topological order, summing contributions
into each participating tensor's ``grad`` buffer.

Working precision is float32; every kernel is dtype-generic, so the same
ops run in float64 for numeric gradient checking.  Image tensors use the
N x C x H x W layout, row-major.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ContractError, ShapeError

_FLOAT_DTYPES = (np.float32, np.float64)

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (inference paths)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """A dense float array that can participate in an autodiff graph.

    For tensors that require gradients, ``grad`` reads as a zeros buffer
    until a backward pass touches it, so tensors unreachable from a loss
    report a zero gradient without paying for the allocation up front.
    """

    __slots__ = ("data", "_grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents: tuple = ()):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self._grad = None
        self._parents = _parents
        self._backward = None

    @property
    def grad(self):
        """Accumulated gradient; reads as zeros until a backward pass
        reaches this tensor (the buffer is materialized lazily)."""
        if self._grad is None and self.requires_grad:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = value

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad[...] = 0

    def __repr__(self) -> str:
        return (
            f"Tensor(shape={self.shape}, dtype={self.dtype}, "
            f"requires_grad={self.requires_grad})"
        )

    # -- arithmetic sugar used by the loss functions ----------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -_as_tensor(other, self.dtype))

    def __rsub__(self, other):
        return add(_as_tensor(other, self.dtype), -self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_as_tensor(other, self.dtype), self)

    def sum(self) -> "Tensor":
        return tsum(self)

    def backward(self) -> None:
        """Propagate d(self)/d(tensor) to every reachable tensor.

        ``self`` must hold exactly one element (a scalar loss).
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        if not self.requires_grad:
            raise ContractError("loss is not connected to any differentiable tensor")

        order = _topo_order(self)
        _accum(self, np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None:
                node._backward()


def _topo_order(root: Tensor) -> list:
    """Iterative post-order DFS; reversal gives exact reverse execution order."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=dtype)
    return Tensor(arr)


def _make(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    """Wrap an op result, attaching the backward closure when needed."""
    requires = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires, _parents=parents if requires else ())
    if requires:
        out._backward = backward_fn(out)
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        if t._grad is None:
            t._grad = np.array(g)  # own the buffer; g may be a view
        else:
            t._grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if g.shape[axis] != n:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- elementwise and reduction primitives ---------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    data = a.data + b.data

    def bw(out):
        def run():
            _accum(a, _unbroadcast(out.grad, a.data.shape))
            _accum(b, _unbroadcast(out.grad, b.data.shape))

        return run

    return _make(data, (a, b), bw)


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    data = a.data * b.data

    def bw(out):
        def run():
            _accum(a, _unbroadcast(out.grad * b.data, a.data.shape))
            _accum(b, _unbroadcast(out.grad * a.data, b.data.shape))

        return run

    return _make(data, (a, b), bw)


def div(a: Tensor, b) -> Tensor:
    a = _as_tensor(a, getattr(b, "dtype", np.float32))
    b = _as_tensor(b, a.dtype)
    data = a.data / b.data

    def bw(out):
        def run():
            _accum(a, _unbroadcast(out.grad / b.data, a.data.shape))
            _accum(b, _unbroadcast(-out.grad * a.data / (b.data * b.data), b.data.shape))

        return run

    return _make(data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a - b over identically shaped tensors.

    This is the feature-differencing primitive, so shapes must match
    exactly; broadcasting subtraction is available via the ``-`` operator.
    """
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub requires identical shapes, got {a.shape} and {b.shape}")
    data = a.data - b.data

    def bw(out):
        def run():
            _accum(a, out.grad)
            _accum(b, -out.grad)

        return run

    return _make(data, (a, b), bw)


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    data = np.asarray(x.data.sum(), dtype=x.dtype)

    def bw(out):
        def run():
            _accum(x, np.broadcast_to(out.grad, x.data.shape))

        return run

    return _make(data, (x,), bw)


def log(x: Tensor) -> Tensor:
    data = np.log(x.data)

    def bw(out):
        def run():
            _accum(x, out.grad / x.data)

        return run

    return _make(data, (x,), bw)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient is 1 where the input lies inside the band."""
    data = np.clip(x.data, lo, hi)

    def bw(out):
        def run():
            inside = ((x.data >= lo) & (x.data <= hi)).astype(x.dtype)
            _accum(x, out.grad * inside)

        return run

    return _make(data, (x,), bw)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is 0."""
    data = np.maximum(x.data, 0)

    def bw(out):
        def run():
            _accum(x, out.grad * (x.data > 0))

        return run

    return _make(data, (x,), bw)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function; outputs lie strictly in (0, 1)."""
    d = x.data
    data = np.empty_like(d)
    pos = d >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    data[~pos] = ex / (1.0 + ex)

    def bw(out):
        def run():
            _accum(x, out.grad * out.data * (1.0 - out.data))

        return run

    return _make(data, (x,), bw)


# -- spatial primitives -----------------------------------------------------


def _require_4d(x: Tensor, op: str) -> None:
    if x.data.ndim != 4:
        raise ShapeError(f"{op} expects an N x C x H x W tensor, got shape {x.shape}")


def _corr2d(x: np.ndarray, k: np.ndarray, pad: int):
    """Cross-correlate (N,C,H,W) with kernels (O,C,KH,KW) at stride 1.

    Returns the output plus the padded input, which the backward pass
    windows again for the weight gradient.
    """
    kh, kw = k.shape[2], k.shape[3]
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))
    out = np.einsum("nchwkl,ockl->nohw", win, k, optimize=True)
    return out, x


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, padding: int = 1) -> Tensor:
    """2-D convolution (cross-correlation), stride 1, zero padding.

    ``weight`` is (C_out, C_in, KH, KW) with a square odd kernel; the 3x3
    kernel with padding 1 preserves spatial size, the 1x1 prediction-head
    kernel uses padding 0.
    """
    _require_4d(x, "conv2d")
    if weight.data.ndim != 4:
        raise ShapeError(f"conv2d weight must be 4-D, got shape {weight.shape}")
    n, cin, h, w = x.data.shape
    cout, cw, kh, kw = weight.data.shape
    if cw != cin:
        raise ShapeError(
            f"conv2d channel mismatch: input shape {x.shape} has {cin} channels "
            f"but weight shape {weight.shape} expects {cw}"
        )
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"conv2d kernel must be square and odd, got {kh}x{kw}")
    if padding != (kh - 1) // 2:
        raise ConfigError(
            f"conv2d supports same-size output only: kernel {kh}x{kw} needs "
            f"padding {(kh - 1) // 2}, got {padding}"
        )
    if bias.data.shape != (cout,):
        raise ShapeError(
            f"conv2d bias shape {bias.shape} does not match {cout} output channels"
        )
    out_data, x_padded = _corr2d(x.data, weight.data, padding)
    out_data += bias.data[None, :, None, None]

    def bw(out):
        def run():
            g = out.grad
            _accum(bias, g.sum(axis=(0, 2, 3)))
            win = sliding_window_view(x_padded, (kh, kw), axis=(2, 3))
            _accum(weight, np.einsum("nohw,nchwkl->ockl", g, win, optimize=True))
            if x.requires_grad:
                # full correlation with the flipped, channel-swapped kernel
                kt = np.ascontiguousarray(
                    weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
                )
                dx, _ = _corr2d(g, kt, kh - 1 - padding)
                _accum(x, dx)

        return run

    return _make(out_data, (x, weight, bias), bw)


def batchnorm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray | None,
    running_var: np.ndarray | None,
    mode: str,
    eps: float = 1e-5,
    momentum: float = 0.1,
) -> Tensor:
    """Per-channel batch normalization over the N, H, W axes.

    Train mode normalizes with the batch statistics (biased variance) and
    folds them into the running buffers by exponential moving average;
    eval mode normalizes with the running buffers only.
    """
    _require_4d(x, "batchnorm2d")
    if mode not in ("train", "eval"):
        raise ConfigError(f"batchnorm2d mode must be 'train' or 'eval', got {mode!r}")
    if eps <= 0:
        raise ConfigError(f"batchnorm2d eps must be positive, got {eps}")
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(
            f"batchnorm2d gamma/beta shapes {gamma.shape}/{beta.shape} "
            f"do not match {c} channels"
        )

    if mode == "eval":
        if running_mean is None or running_var is None:
            raise ConfigError("batchnorm2d eval mode requires running statistics")
        mean = running_mean.astype(x.dtype)
        var = running_var.astype(x.dtype)
    else:
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        if running_mean is not None and running_var is not None:
            running_mean *= 1.0 - momentum
            running_mean += momentum * mean.astype(running_mean.dtype)
            running_var *= 1.0 - momentum
            running_var += momentum * var.astype(running_var.dtype)

    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean[None, :, None, None]) * inv[None, :, None, None]
    out_data = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def bw(out):
        def run():
            g = out.grad
            _accum(gamma, (g * xhat).sum(axis=(0, 2, 3)))
            _accum(beta, g.sum(axis=(0, 2, 3)))
            if x.requires_grad:
                scale = (gamma.data * inv)[None, :, None, None]
                if mode == "eval":
                    _accum(x, g * scale)
                else:
                    m = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
                    gsum = g.sum(axis=(0, 2, 3), keepdims=True)
                    gxsum = (g * xhat).sum(axis=(0, 2, 3), keepdims=True)
                    _accum(x, scale * (g - gsum / m - xhat * gxsum / m))

        return run

    return _make(out_data, (x, gamma, beta), bw)


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2; gradient routes to the first argmax in
    scan order within each window."""
    _require_4d(x, "maxpool2x2")
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2 requires even H and W, got {h}x{w}")
    h2, w2 = h // 2, w // 2
    windows = (
        x.data.reshape(n, c, h2, 2, w2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h2, w2, 4)
    )
    idx = windows.argmax(axis=-1)
    out_data = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    def bw(out):
        def run():
            g = np.zeros((n, c, h2, w2, 4), dtype=x.dtype)
            np.put_along_axis(g, idx[..., None], out.grad[..., None], axis=-1)
            _accum(
                x,
                g.reshape(n, c, h2, w2, 2, 2)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(n, c, h, w),
            )

        return run

    return _make(out_data, (x,), bw)


def upconv2x2(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Transposed convolution with a 2x2 kernel at stride 2 (exact doubling).

    ``weight`` is (C_in, C_out, 2, 2).  Stride equals kernel size, so each
    input pixel paints a disjoint 2x2 output block.
    """
    _require_4d(x, "upconv2x2")
    n, cin, h, w = x.data.shape
    if weight.data.ndim != 4 or weight.data.shape[2:] != (2, 2):
        raise ShapeError(f"upconv2x2 weight must be (C_in, C_out, 2, 2), got {weight.shape}")
    win, cout = weight.data.shape[:2]
    if win != cin:
        raise ShapeError(
            f"upconv2x2 channel mismatch: input shape {x.shape} has {cin} channels "
            f"but weight shape {weight.shape} expects {win}"
        )
    if bias.data.shape != (cout,):
        raise ShapeError(
            f"upconv2x2 bias shape {bias.shape} does not match {cout} output channels"
        )
    blocks = np.einsum("ncij,cokl->noijkl", x.data, weight.data, optimize=True)
    out_data = (
        blocks.transpose(0, 1, 2, 4, 3, 5).reshape(n, cout, 2 * h, 2 * w)
        + bias.data[None, :, None, None]
    )

    def bw(out):
        def run():
            g = out.grad
            _accum(bias, g.sum(axis=(0, 2, 3)))
            gb = g.reshape(n, cout, h, 2, w, 2).transpose(0, 1, 2, 4, 3, 5)
            _accum(weight, np.einsum("ncij,noijkl->cokl", x.data, gb, optimize=True))
            if x.requires_grad:
                _accum(x, np.einsum("noijkl,cokl->ncij", gb, weight.data, optimize=True))

        return run

    return _make(out_data, (x, weight, bias), bw)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the channel axis; batch and spatial dims must agree."""
    _require_4d(a, "concat_channels")
    _require_4d(b, "concat_channels")
    sa, sb = a.data.shape, b.data.shape
    if sa[0] != sb[0] or sa[2:] != sb[2:]:
        raise ShapeError(
            f"concat_channels requires matching batch and spatial dims, "
            f"got {a.shape} and {b.shape}"
        )
    c1 = sa[1]
    data = np.concatenate([a.data, b.data], axis=1)

    def bw(out):
        def run():
            _accum(a, out.grad[:, :c1])
            _accum(b, out.grad[:, c1:])

        return run

    return _make(data, (a, b), bw)
