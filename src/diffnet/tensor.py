"""Dense float tensors with reverse-mode automatic differentiation.

The engine is deliberately small: a ``Tensor`` wraps a numpy array and,
when it needs a gradient, a graph node (``_Node``) that holds the
gradient, the nodes of the op's inputs and the op's backward.  Every
differentiable operation has one shape.  It computes its result, defines
``bw(g, *nodes)``, a vector-Jacobian product that takes the gradient ``g``
of that result and adds its contributions into the input nodes'
gradients, and returns ``_make(data, parents, bw)``.  ``_make`` sets the
result node's ``_backward`` to a zero-argument call of ``bw`` on that
node's gradient.

Graph edges hold nodes, not tensors, and each ``bw`` closes over only
the arrays it reads, never over a tensor (its own output included), so an
intermediate whose data no backward reads is freed as soon as the model
drops it.  ``add``, ``sub``, ``tsum`` and ``concat_channels`` save no
array; ``relu`` and ``sigmoid`` save their output, ``maxpool2x2`` its
input and output, and the other ops their inputs.  ``relu`` reads its
output since ``out > 0`` is the mask ``x > 0``, signed zeros and NaN
included, so its input, a batch-norm output, is freed.  ``conv2d`` saves
its input, not the padded copy its forward reads: its backward pads the
input again for the weight gradient and frees that copy before the
input-gradient loop.  Under ``no_grad`` no node is made; graph mode is a
context variable, so it holds per thread and per asyncio task.

``Tensor.backward`` walks the nodes once, in reverse topological order,
and consumes the graph: once a node's ``_backward`` has run, the node
drops its parents and its ``_backward`` becomes ``_consumed``, which
raises.  Reference counting then frees each node, with its gradient and
the arrays its op saved, as soon as the ops that consume it have run back,
unless the caller still holds its tensor; so the backward's peak stays
close to the forward's.  A graph can be walked back only once.

``conv2d`` is a shifted-tap GEMM over one zero-padded flat copy of the
input (each kernel tap is a matmul against a contiguous slice of it), run
over blocks of whole output rows, about ``_BLOCK`` positions each, so that
each block's working set stays in cache; each block is cropped into the
result as soon as its taps are summed.  Its input gradient runs on the
same blocked loop over the zero-padded output gradient, with the
transposed taps at mirrored offsets.  ``batchnorm2d`` builds its output in
place and keeps no normalized copy (its backward recomputes x-hat from the
saved input), and ``maxpool2x2`` pools the column pairs of every row
before it pools pairs of those half-width rows; its backward selects the
gradient with a bit mask instead of ``np.where``.
A ``bw`` hands a gradient it has just allocated to ``_accum`` as owned,
so the first contribution to a node is not copied.

A map of at least ``2 * _BLOCK`` positions per H x W plane (128 x 128 and
up; the one rule is ``_mid_row``) splits its rows in two, and ``_halves``
runs the second range on one kept worker thread while the caller runs
the first, where the process may use two CPUs.  Four forward kernels
split so: ``conv2d``, its forward and input gradient, at the middle block
boundary; the elementwise tail of ``batchnorm2d``, whose statistics stay
on the caller, and ``relu``, at the middle row; and ``maxpool2x2`` at the
even row at or below the middle.  The bits cannot move: each output
element gets the same numpy calls on the same operands on either thread,
no reduction is split, the blocks are cut the same way with one CPU or
two, and the worker only fills arrays the caller allocated.  Each kernel
writes its work once, as a body over a range of rows; a smaller map calls
that body once on the whole map, without the worker, the preallocated
outputs or ``_halves``, whose per-call cost showed on 64 x 64 tiles.

Working precision is float32; every kernel is dtype-generic, so the same
ops run in float64 for numeric gradient checking.  Image tensors use the
N x C x H x W layout, row-major.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import os

import numpy as np

from .errors import ConfigError, ContractError, ShapeError

_FLOAT_DTYPES = (np.float32, np.float64)

# conv2d computes about this many flat output positions per block of
# rows, so that a block's accumulator and tap product stay in L2 across
# all taps; a map of at least two blocks splits its rows across two threads
_BLOCK = 8192

# batchnorm2d's variance offset and running-statistics update rate
_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1

# unsigned integer of each float width: maxpool2x2's backward masks bits
_UINT = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}

# glibc's mallopt parameters.  A block above M_MMAP_THRESHOLD (128 KiB at
# start) is a fresh mmap whose pages fault on first touch, and glibc raises
# that threshold only after an earlier free of a bigger block, so the
# kernels' speed would depend on what ran before.  Pinned at 32 MiB, every
# feature map (512 KiB in training, 8 MiB for a 512x512 tile) comes from
# warm heap; the trim threshold at 64 MiB keeps a freed train step's heap
# for the next step instead of handing it back to the OS.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _pin_malloc() -> None:
    """Pin glibc's mmap and trim thresholds for the whole process; does
    nothing where libc or its ``mallopt`` is missing."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_pin_malloc()

# _halves's one kept worker thread, stored once; a forked child empties the
# dict, since an executor that has run a task hangs there on its next submit
# (it counts its thread, which the fork did not copy, as idle)
_worker = {}
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_worker.clear)


def _halves(fn, end: int, mid: int) -> None:
    """Run ``fn(0, mid)`` here and ``fn(mid, end)`` on the kept worker
    thread, in a copy of this context so that ``np.errstate`` and graph
    mode hold there too; both here, in order, where the process may use
    one CPU only.  ``fn`` only fills arrays the caller allocated."""
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        fn(0, mid)
        fn(mid, end)
        return
    worker = _worker.get("split")
    if worker is None:
        from concurrent.futures import ThreadPoolExecutor

        # one racing setdefault wins; a losing executor has started no thread
        pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="diffnet-split")
        worker = _worker.setdefault("split", pool)
    second = worker.submit(contextvars.copy_context().run, fn, mid, end)
    try:
        fn(0, mid)
    finally:
        second.result()


def _mid_row(h: int, w: int, step: int = 1) -> int:
    """The row at which an H x W plane splits for ``_halves``: the middle,
    rounded down to a multiple of ``step``; 0 (no split) below ``2 * _BLOCK``
    positions.  Every split kernel asks this one rule."""
    return h // (2 * step) * step if h * w >= 2 * _BLOCK else 0


_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording in this thread or asyncio task for the body."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class _Node:
    """A tensor's place in the autodiff graph: its gradient, the nodes of
    the op inputs that need one, and the op's backward.  A node holds no
    tensor, so no tensor outlives the model's last reference to it."""

    __slots__ = ("_grad", "_parents", "_backward")

    def __init__(self, parents: tuple = ()):
        self._grad = None
        self._parents = parents
        self._backward = None


class Tensor:
    """A dense float array that can participate in an autodiff graph.

    A tensor that requires gradients has a graph node (``_node``); one
    that does not has none.  ``_parents`` and ``_backward`` read (and
    ``_backward`` writes) that node's.  For tensors that require
    gradients, ``grad`` reads as a zeros buffer until a backward pass
    touches it, so tensors unreachable from a loss report a zero gradient
    without paying for the allocation up front.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self._node = _Node() if requires_grad and _grad_enabled.get() else None

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self):
        """Accumulated gradient; reads as zeros until a backward pass
        reaches this tensor (the buffer is materialized lazily)."""
        node = self._node
        if node is None:
            return None
        if node._grad is None:
            node._grad = np.zeros_like(self.data)
        return node._grad

    @grad.setter
    def grad(self, value):
        if self._node is None:
            raise ContractError("cannot set grad: this tensor does not require a gradient")
        self._node._grad = value

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, fn) -> None:
        self._node._backward = fn

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        """Drop the gradient; ``grad`` reads as zeros until the next backward."""
        if self._node is not None:
            self._node._grad = None

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

    def backward(self) -> None:
        """Propagate d(self)/d(tensor) to every reachable tensor.

        ``self`` must hold exactly one element (a scalar loss).  The pass
        walks the graph of nodes, not tensors: an op's backward holds its
        inputs' nodes and only the arrays it reads, so an intermediate
        whose data no backward reads was freed when the model dropped it.
        The pass consumes the graph: once an op's ``_backward`` has run,
        its node drops its parents and its ``_backward`` becomes
        ``_consumed``.  That breaks the node <-> ``_backward`` reference
        cycle, and the walk pops each node off its list, so a node that no
        tensor the caller holds owns is freed, with its gradient and the
        arrays its op saved, as soon as the ops that consume it have run
        back.  Leaves and the tensors the caller holds keep their data and
        gradients.  Calling ``backward`` again on a consumed graph, or on a
        loss built on a consumed tensor, raises ``ContractError`` before
        any gradient moves.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        if self._node is None:
            raise ContractError("loss is not connected to any differentiable tensor")

        order = _topo_order(self._node)
        # an op's output always has parents until a backward consumes it
        if any(node._backward is not None and not node._parents for node in order):
            _consumed()
        _accum(self._node, np.ones_like(self.data))
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward()
                node._backward = _consumed
                node._parents = ()


def _consumed() -> None:
    """The ``_backward`` of an op output whose backward has already run."""
    raise ContractError("graph already consumed by an earlier backward()")


def _topo_order(root: _Node) -> list:
    """Iterative post-order DFS; reversal gives exact reverse execution order."""
    order: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
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


def _make(data: np.ndarray, parents: tuple, bw) -> Tensor:
    """Wrap an op result.  When it needs a gradient, its node's
    ``_backward`` calls ``bw(g, *nodes)``: ``g`` is the output's gradient
    as it stands at that call, and ``nodes`` are the parents' nodes, None
    for a parent that needs no gradient.  ``bw`` closes over the arrays it
    reads, never over a tensor, and the ``_backward`` over the node, never
    over the output."""
    inputs = tuple(p._node for p in parents)
    out = Tensor(data)
    if _grad_enabled.get() and any(n is not None for n in inputs):
        node = out._node = _Node(tuple(n for n in inputs if n is not None))
        node._backward = lambda: bw(node._grad, *inputs)
    return out


def _accum(node: _Node | None, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` into ``node``'s gradient; nothing when ``node`` is None.
    The first contribution is copied, since ``g`` may be a view of another
    gradient, unless ``owned`` says that the caller has just allocated
    ``g`` and shares it with nothing."""
    if node is not None:
        if node._grad is None:
            node._grad = g if owned else np.array(g)
        else:
            node._grad += g


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
    sa, sb = a.shape, b.shape

    def bw(g, na, nb):
        _accum(na, _unbroadcast(g, sa))
        _accum(nb, _unbroadcast(g, sb))

    return _make(data, (a, b), bw)


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    ad, bd = a.data, b.data
    data = ad * bd

    def bw(g, na, nb):
        _accum(na, _unbroadcast(g * bd, ad.shape))
        _accum(nb, _unbroadcast(g * ad, bd.shape))

    return _make(data, (a, b), bw)


def div(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    ad, bd = a.data, b.data
    data = ad / bd

    def bw(g, na, nb):
        _accum(na, _unbroadcast(g / bd, ad.shape))
        _accum(nb, _unbroadcast(-g * ad / (bd * bd), bd.shape))

    return _make(data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a - b over identically shaped tensors.

    This is the feature-differencing primitive, so shapes must match
    exactly; broadcasting subtraction is available via the ``-`` operator.
    """
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub requires identical shapes, got {a.shape} and {b.shape}")
    data = a.data - b.data

    def bw(g, na, nb):
        _accum(na, g)
        _accum(nb, -g, owned=True)

    return _make(data, (a, b), bw)


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    data = np.asarray(x.data.sum(), dtype=x.dtype)
    shape = x.shape

    def bw(g, nx):
        _accum(nx, np.broadcast_to(g, shape))

    return _make(data, (x,), bw)


def log(x: Tensor) -> Tensor:
    xd = x.data
    data = np.log(xd)

    def bw(g, nx):
        _accum(nx, g / xd, owned=True)

    return _make(data, (x,), bw)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient is 1 where the input lies inside the band."""
    xd = x.data
    data = np.clip(xd, lo, hi)

    def bw(g, nx):
        inside = ((xd >= lo) & (xd <= hi)).astype(xd.dtype)
        _accum(nx, g * inside, owned=True)

    return _make(data, (x,), bw)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is 0.

    The backward reads the output, not the input: ``out > 0`` is the mask
    ``x > 0``, for signed zeros and NaN too, and the input can be freed."""
    d = x.data
    mid = _mid_row(*d.shape[2:]) if d.ndim == 4 else 0
    if mid:
        data = np.empty_like(d)
        _halves(lambda r0, r1: np.maximum(d[:, :, r0:r1], 0, out=data[:, :, r0:r1]),
                d.shape[2], mid)
    else:
        data = np.maximum(d, 0)

    def bw(g, nx):
        _accum(nx, g * (data > 0), owned=True)

    return _make(data, (x,), bw)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function; outputs lie in [0, 1].

    In float32 the result saturates to exactly 1.0 for x >= 17 and to 0.0
    for x <= -104, so callers that take logs must clamp first (the loss
    does).  NaN stays NaN.  The backward reads the output only.
    """
    d = x.data
    e = np.exp(np.minimum(d, -d))  # exp(-|x|); -abs(x) would turn +NaN into -NaN
    data = np.where(d >= 0, 1.0, e)
    data /= e + 1.0

    def bw(g, nx):
        _accum(nx, g * data * (1.0 - data), owned=True)

    return _make(data, (x,), bw)


# -- spatial primitives -----------------------------------------------------


def _require_4d(x: Tensor, op: str) -> None:
    if x.data.ndim != 4:
        raise ShapeError(f"{op} expects an N x C x H x W tensor, got shape {x.shape}")


def _pad_flat(x: np.ndarray, k: int) -> np.ndarray:
    """Zero-pad (N,C,H,W) by (k-1)/2 and flatten each padded plane, plus
    k-1 spare zeros so that the last tap's slice stays in bounds."""
    n, c, h, w = x.shape
    if k == 1:
        return x.reshape(n, c, h * w)
    p = (k - 1) // 2
    hp, wp = h + 2 * p, w + 2 * p
    flat = np.zeros((n, c, hp * wp + k - 1), dtype=x.dtype)
    flat[:, :, : hp * wp].reshape(n, c, hp, wp)[:, :, p : p + h, p : p + w] = x
    return flat


def _shifted_taps(pairs: list, flat: np.ndarray, h: int, w: int, wp: int, bias=None) -> np.ndarray:
    """Sum ``tap @ flat[:, :, off : off + h * wp]`` over the (tap, off)
    pairs, read as H rows of Wp columns, and return each row's first W
    columns, plus ``bias`` per output channel when given, as a new
    (N, rows, H, W) array.

    The H rows split into near-equal blocks of whole rows, of about
    ``_BLOCK`` to ``2 * _BLOCK`` positions (one block when there are fewer).
    Every pair is summed into a block, in the order given, before the next
    block starts, so the sum does not depend on the blocking.  Each block's
    first W columns are then copied into the result and the bias is added
    to them in place, which is bitwise ``sum[..., :w] + bias``; the Wp-wide
    sum never exists at full size.

    On an H x W plane that ``_mid_row`` splits (which has two blocks or
    more), the blocks split at the middle block boundary into two row
    ranges, each with its own pair of block buffers, and the second range
    runs on ``_halves``'s worker thread.  A block is summed and cropped the
    same way on either thread, so the bits do not move.
    """
    (tap0, off0), rest = pairs[0], pairs[1:]
    n, rows = flat.shape[0], tap0.shape[0]
    nb = max(1, min(h, h * wp // _BLOCK))
    bounds = [h * b // nb for b in range(nb + 1)]
    dtype = np.result_type(tap0, flat)
    shape = (n, rows, h, w)
    out_dtype = dtype if bias is None else np.result_type(dtype, bias)
    mid = _mid_row(h, w) and nb // 2  # the split block, 0 for none
    size = n * rows * -(-h // nb) * wp
    # the sum and tap-product block buffers, one pair per row range
    bufs = [(np.empty(size, dtype=dtype), np.empty(size, dtype=dtype))
            for _ in range(2 if mid else 1)]
    out = np.empty(shape, dtype=out_dtype) if nb > 1 else None

    def run(b0, b1):  # blocks b0 .. b1 - 1
        nonlocal out
        acc, tmp = bufs.pop()
        for r0, r1 in zip(bounds[b0:b1], bounds[b0 + 1 : b1 + 1]):
            c0, c1 = r0 * wp, r1 * wp
            blk = acc[: n * rows * (c1 - c0)].reshape(n, rows, c1 - c0)
            np.matmul(tap0, flat[:, :, off0 + c0 : off0 + c1], out=blk)
            t = tmp[: blk.size].reshape(blk.shape)
            for tap, off in rest:
                blk += np.matmul(tap, flat[:, :, off + c0 : off + c1], out=t)
            if out is None:  # one block: free the tap scratch before the result
                tmp = t = None
                out = np.empty(shape, dtype=out_dtype)
            dst = out[:, :, r0:r1]
            dst[...] = blk.reshape(n, rows, r1 - r0, wp)[..., :w]
            if bias is not None:
                dst += bias[None, :, None, None]

    if mid:
        _halves(run, nb, mid)
    else:
        run(0, nb)
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """2-D convolution (cross-correlation), stride 1, same-size output.

    ``weight`` is (C_out, C_in, k, k) with a square odd kernel, and the input
    is zero-padded by p = (k - 1) // 2 on each side: 1 for the 3x3 block
    kernels, 0 for the 1x1 prediction head.

    Shifted-tap GEMM: the input is padded once into flat planes of width
    Wp = W + 2p.  Tap (i, j) of every output row is then the contiguous
    slice at offset i*Wp + j, so each tap is one matmul of W[:, :, i, j]
    against a view, with no im2col copy.  Rows are computed Wp wide, one
    block of whole rows at a time, and the taps are summed in the order
    (0, 0) ... (k-1, k-1); each finished block is cropped of its Wp - W
    junk columns into the output, and the bias added there
    (``_shifted_taps``).

    The input gradient is the correlation of the output gradient with the
    transposed, mirrored kernel, so it runs on the same loop: the output
    gradient is padded the same way, and tap (i, j) contributes
    W[:, :, i, j].T at offset (k-1-i)*Wp + (k-1-j), still in the order
    (0, 0) ... (k-1, k-1).  The weight gradient reads the padded output
    gradient as Wp-wide rows whose junk columns are the zero padding,
    against the input padded again: the forward's padded copy is not kept.
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
    if bias.data.shape != (cout,):
        raise ShapeError(
            f"conv2d bias shape {bias.shape} does not match {cout} output channels"
        )
    padding = (kh - 1) // 2
    wp = w + 2 * padding
    span = h * wp
    order = [(i, j) for i in range(kh) for j in range(kw)]
    xd, wd = x.data, weight.data
    flat = _pad_flat(xd, kh)
    taps = np.ascontiguousarray(wd.transpose(2, 3, 0, 1))  # (k, k, O, C)
    pairs = [(taps[i, j], i * wp + j) for i, j in order]
    out_data = _shifted_taps(pairs, flat, h, w, wp, bias.data)

    def bw(g, nx, nw, nb):
        _accum(nb, g.sum(axis=(0, 2, 3)), owned=True)
        gflat = _pad_flat(g, kh)
        # g as Wp-wide rows: the right pad and the next row's left pad
        # are the zero junk columns
        start = padding * wp + padding
        gp = gflat[:, :, start : start + span]
        if nw is not None:
            # the input padded again, not kept from the forward: a closure
            # holding it would keep a copy of every input alive per call
            flat = _pad_flat(xd, kh)
            gw = np.empty_like(wd)
            for i, j in order:
                off = i * wp + j
                tap = flat[:, :, off : off + span].transpose(0, 2, 1)
                gw[:, :, i, j] = np.matmul(gp, tap).sum(axis=0)
            flat = tap = None
            _accum(nw, gw, owned=True)
        if nx is not None:
            # the taps again, for the same reason
            k = kh - 1
            taps = np.ascontiguousarray(wd.transpose(2, 3, 0, 1))
            pairs = [(taps[i, j].T, (k - i) * wp + (k - j)) for i, j in order]
            _accum(nx, _shifted_taps(pairs, gflat, h, w, wp), owned=True)

    return _make(out_data, (x, weight, bias), bw)


def batchnorm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    mode: str,
) -> Tensor:
    """Per-channel batch normalization over the N, H, W axes.

    Train mode normalizes with the batch statistics (biased variance) and
    folds them into the running buffers in place, by exponential moving
    average; eval mode normalizes with the running buffers only.
    """
    _require_4d(x, "batchnorm2d")
    if mode not in ("train", "eval"):
        raise ConfigError(f"batchnorm2d mode must be 'train' or 'eval', got {mode!r}")
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(
            f"batchnorm2d gamma/beta shapes {gamma.shape}/{beta.shape} "
            f"do not match {c} channels"
        )

    if mode == "eval":
        mean = running_mean.astype(x.dtype)
        var = running_var.astype(x.dtype)
        buf = None
    else:
        # np.var's own steps, bit for bit, without its second mean: square
        # x - mean in place and average it; the output then reuses buf
        mean = x.data.mean(axis=(0, 2, 3))
        buf = x.data - mean[None, :, None, None]
        var = np.square(buf, out=buf).mean(axis=(0, 2, 3))
        running_mean *= 1.0 - _BN_MOMENTUM
        running_mean += _BN_MOMENTUM * mean.astype(running_mean.dtype)
        running_var *= 1.0 - _BN_MOMENTUM
        running_var += _BN_MOMENTUM * var.astype(running_var.dtype)

    inv = 1.0 / np.sqrt(var + _BN_EPS)
    mean4, inv4 = mean[None, :, None, None], inv[None, :, None, None]
    xd, gd = x.data, gamma.data

    def tail(rows, out):  # into out, or a new array when out is None
        out = np.subtract(rows, mean4, out=out)
        out *= inv4
        out *= gd[None, :, None, None]
        out += beta.data[None, :, None, None]
        return out

    mid = _mid_row(*xd.shape[2:])
    if mid:
        out_data = np.empty_like(xd) if buf is None else buf
        _halves(lambda r0, r1: tail(xd[:, :, r0:r1], out_data[:, :, r0:r1]), xd.shape[2], mid)
    else:
        out_data = tail(xd, buf)

    def bw(g, nx, ngamma, nbeta):
        xhat = xd - mean4
        xhat *= inv4
        gsum = g.sum(axis=(0, 2, 3), keepdims=True)
        gxsum = (g * xhat).sum(axis=(0, 2, 3), keepdims=True)
        _accum(ngamma, gxsum.reshape(c), owned=True)
        _accum(nbeta, gsum.reshape(c), owned=True)
        if nx is not None:
            scale = (gd * inv)[None, :, None, None]
            if mode == "eval":
                _accum(nx, g * scale, owned=True)
            else:
                # scale * (g - gsum / m - xhat * gxsum / m), same order, in place
                m = xd.shape[0] * xd.shape[2] * xd.shape[3]
                dx = g - gsum / m
                xhat *= gxsum
                xhat /= m
                dx -= xhat
                dx *= scale
                _accum(nx, dx, owned=True)

    return _make(out_data, (x, gamma, beta), bw)


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2; gradient routes to the first argmax in
    scan order within each window.

    The forward first takes the maximum of each row's column pairs, over
    every row, then the maximum of those half-width rows in pairs, which
    reads whole rows: bit for bit ``max(max(x00, x01), max(x10, x11))``
    over the four window positions ``x[:, :, a::2, b::2]``, down to the
    sign of a zero and the payload of a NaN.  (Pooling row pairs first
    would pick the other zero when only x01 and x10 tie at the maximum.)
    A NaN in a window makes the output NaN, and the gradient then goes to
    the window's first NaN.

    The backward writes ``g & mask`` straight into each window position's
    strided view of the input gradient, the mask being all ones where that
    position takes the gradient: bit for bit ``np.where(hit, g, 0)``.
    """
    _require_4d(x, "maxpool2x2")
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2 requires even H and W, got {h}x{w}")
    d = x.data

    def pool(rows, cols=None, out=None):  # an even number of rows
        cols = np.maximum(rows[..., 0::2], rows[..., 1::2], out=cols)
        return np.maximum(cols[:, :, 0::2], cols[:, :, 1::2], out=out)

    mid = _mid_row(h, w, step=2)
    if mid:
        cols = np.empty((n, c, h, w // 2), dtype=d.dtype)
        out_data = np.empty((n, c, h // 2, w // 2), dtype=d.dtype)
        _halves(lambda r0, r1: pool(d[:, :, r0:r1], cols[:, :, r0:r1],
                                    out_data[:, :, r0 // 2 : r1 // 2]), h, mid)
    else:
        out_data = pool(d)

    def bw(g, nx):
        u = _UINT[g.dtype]
        gx = np.empty_like(d)
        taken = np.zeros(out_data.shape, dtype=bool)
        for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):  # scan order
            if (a, b) == (1, 1):
                hit = ~taken  # the rest
            else:
                xq = d[:, :, a::2, b::2]
                hit = (xq == out_data) | np.isnan(xq)
                hit &= ~taken
                taken |= hit
            mask = np.negative(hit, dtype=u)  # True -> all ones
            np.bitwise_and(g.view(u), mask, out=gx.view(u)[:, :, a::2, b::2])
        _accum(nx, gx, owned=True)

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
    blocks += bias.data[None, :, None, None, None, None]
    grid = np.empty((n, cout, h, 2, w, 2), dtype=blocks.dtype)
    for a in (0, 1):
        for b in (0, 1):
            grid[:, :, :, a, :, b] = blocks[:, :, a, b]
    out_data = grid.reshape(n, cout, 2 * h, 2 * w)

    def bw(g, nx, nw, nb):
        _accum(nb, g.sum(axis=(0, 2, 3)), owned=True)
        g4 = (
            g.reshape(n, cout, h, 2, w, 2)
            .transpose(0, 1, 3, 5, 2, 4)
            .reshape(n, cout * 4, h * w)
        )
        gw = np.matmul(x3, g4.transpose(0, 2, 1)).sum(axis=0)
        _accum(nw, gw.reshape(cin, cout, 2, 2), owned=True)
        if nx is not None:
            _accum(nx, np.matmul(w4, g4).reshape(n, cin, h, w), owned=True)

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

    def bw(g, na, nb):
        _accum(na, g[:, :c1])
        _accum(nb, g[:, c1:])

    return _make(data, (a, b), bw)
