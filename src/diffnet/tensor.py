"""Dense float tensors with reverse-mode automatic differentiation.

The engine is deliberately small: a ``Tensor`` wraps a numpy array and
records, for every differentiable operation, a closure that scatters the
upstream gradient back to its parents.  ``Tensor.backward`` walks the
recorded graph once, in reverse topological order, summing contributions
into each participating tensor's ``grad`` buffer, and consumes it: each
closure is dropped after it runs, so a graph can be walked back only once.

``conv2d`` is a shifted-tap GEMM over one zero-padded flat copy of the
input (each kernel tap is a matmul against a contiguous slice of it), and
``maxpool2x2`` works on the four strided views of its 2x2 windows.

Working precision is float32; every kernel is dtype-generic, so the same
ops run in float64 for numeric gradient checking.  Image tensors use the
N x C x H x W layout, row-major.
"""

from __future__ import annotations

import numpy as np

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

        ``self`` must hold exactly one element (a scalar loss).  The pass
        consumes the graph: each op's backward closure is dropped once it
        has run, which frees the intermediate arrays and breaks the
        tensor <-> closure reference cycle.  Calling ``backward`` again on
        a consumed graph raises ``ContractError``.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        if not self.requires_grad:
            raise ContractError("loss is not connected to any differentiable tensor")

        order = _topo_order(self)
        if any(node._parents and node._backward is None for node in order):
            raise ContractError("graph already consumed by an earlier backward()")
        _accum(self, np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None:
                node._backward()
                node._backward = None


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


def _pad_flat(x: np.ndarray, k: int) -> np.ndarray:
    """Zero-pad (N,C,H,W) by (k-1)/2 and flatten each padded plane, plus
    k-1 spare zeros so that the last tap's slice stays in bounds."""
    n, c, h, w = x.shape
    p = (k - 1) // 2
    hp, wp = h + 2 * p, w + 2 * p
    flat = np.zeros((n, c, hp * wp + k - 1), dtype=x.dtype)
    flat[:, :, : hp * wp].reshape(n, c, hp, wp)[:, :, p : p + h, p : p + w] = x
    return flat


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, padding: int = 1) -> Tensor:
    """2-D convolution (cross-correlation), stride 1, zero padding.

    ``weight`` is (C_out, C_in, KH, KW) with a square odd kernel; the 3x3
    kernel with padding 1 preserves spatial size, the 1x1 prediction-head
    kernel uses padding 0.

    Shifted-tap GEMM: the input is padded once into flat planes of width
    Wp = W + 2p.  Tap (i, j) of every output row is then the contiguous
    slice at offset i*Wp + j, so each tap is one matmul of W[:, :, i, j]
    against a view, with no im2col copy.  Rows are computed Wp wide and
    the Wp - W junk columns are cropped.
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
    wp = w + 2 * padding
    span = h * wp
    offsets = [(i, j, i * wp + j) for i in range(kh) for j in range(kw)]
    flat = _pad_flat(x.data, kh)
    taps = np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1))  # (k, k, O, C)
    acc = np.matmul(taps[0, 0], flat[:, :, :span])
    tmp = np.empty_like(acc)
    for i, j, off in offsets[1:]:
        acc += np.matmul(taps[i, j], flat[:, :, off : off + span], out=tmp)
    out_data = acc.reshape(n, cout, h, wp)[..., :w] + bias.data[None, :, None, None]

    def bw(out):
        def run():
            g = out.grad
            _accum(bias, g.sum(axis=(0, 2, 3)))
            gp = np.zeros((n, cout, h, wp), dtype=g.dtype)
            gp[..., :w] = g
            gp = gp.reshape(n, cout, span)
            if weight.requires_grad:
                gw = np.empty_like(weight.data)
                for i, j, off in offsets:
                    tap = flat[:, :, off : off + span].transpose(0, 2, 1)
                    gw[:, :, i, j] = np.matmul(gp, tap).sum(axis=0)
                _accum(weight, gw)
            if x.requires_grad:
                dflat = np.zeros_like(flat)
                dtmp = np.empty((n, cin, span), dtype=g.dtype)
                for i, j, off in offsets:
                    dflat[:, :, off : off + span] += np.matmul(taps[i, j].T, gp, out=dtmp)
                hp = h + 2 * padding
                dx = dflat[:, :, : hp * wp].reshape(n, cin, hp, wp)
                _accum(x, dx[:, :, padding : padding + h, padding : padding + w])

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
    scan order within each window.

    The four window positions are strided views ``x[:, :, a::2, b::2]``;
    the forward is their elementwise maximum.  A NaN in a window makes the
    output NaN, and the gradient then goes to the window's first NaN.
    """
    _require_4d(x, "maxpool2x2")
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2 requires even H and W, got {h}x{w}")
    d = x.data
    out_data = np.maximum(
        np.maximum(d[:, :, 0::2, 0::2], d[:, :, 0::2, 1::2]),
        np.maximum(d[:, :, 1::2, 0::2], d[:, :, 1::2, 1::2]),
    )

    def bw(out):
        def run():
            g = out.grad
            gx = np.empty_like(d)
            taken = np.zeros(out_data.shape, dtype=bool)
            for a, b in ((0, 0), (0, 1), (1, 0)):  # scan order; (1, 1) gets the rest
                xq = d[:, :, a::2, b::2]
                hit = (xq == out_data) | np.isnan(xq)
                hit &= ~taken
                taken |= hit
                gx[:, :, a::2, b::2] = np.where(hit, g, 0)
            gx[:, :, 1::2, 1::2] = np.where(taken, 0, g)
            _accum(x, gx)

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
    # one matmul over (C_out*2*2, C_in) x (C_in, H*W), then interleave the
    # 2x2 blocks into the doubled grid
    w4 = weight.data.reshape(cin, cout * 4)
    x3 = x.data.reshape(n, cin, h * w)
    blocks = np.matmul(w4.T, x3).reshape(n, cout, 2, 2, h, w)
    out_data = (
        blocks.transpose(0, 1, 4, 2, 5, 3).reshape(n, cout, 2 * h, 2 * w)
        + bias.data[None, :, None, None]
    )

    def bw(out):
        def run():
            g = out.grad
            _accum(bias, g.sum(axis=(0, 2, 3)))
            g4 = (
                g.reshape(n, cout, h, 2, w, 2)
                .transpose(0, 1, 3, 5, 2, 4)
                .reshape(n, cout * 4, h * w)
            )
            gw = np.matmul(x3, g4.transpose(0, 2, 1)).sum(axis=0)
            _accum(weight, gw.reshape(cin, cout, 2, 2))
            if x.requires_grad:
                _accum(x, np.matmul(w4, g4).reshape(n, cin, h, w))

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
