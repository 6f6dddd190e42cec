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

``conv2d`` is a shifted-tap GEMM over the zero-padded input, flattened
per plane (each kernel tap is a matmul against a contiguous slice of it),
run over blocks of whole output rows, about ``_BLOCK`` positions each, so
that each block's working set stays in cache.  The forward pads each
block's rows and their halo into a block-sized buffer, so no padded copy
of the map exists; each block is cropped into the result as soon as its
taps are summed.  Its input gradient runs on the same blocked loop over
the zero-padded output gradient, with the transposed taps at mirrored
offsets.  ``batchnorm2d`` builds its output in place and keeps no
normalized copy (its backward recomputes x-hat from the saved input), and
``maxpool2x2`` pools the column pairs of every row before it pools pairs
of those half-width rows; its backward selects the gradient with a bit
mask instead of ``np.where``.  ``upconv2x2`` is one GEMM per block of
input rows, whose 2x2 blocks are interleaved into the doubled grid.
A ``bw`` hands a gradient it has just allocated to ``_accum`` as owned,
so the first contribution to a node is not copied.

The eval epilogue: while no graph is recorded, ``conv2d`` can finish each
cropped block with the eval batch norm (``_bn_tail``, as ``batchnorm2d``
runs it) and ``max(., 0)`` in place, while the block is in cache, so
conv -> batch norm -> ReLU passes over the map once.  ``SiameseUNet``
asks for it in an eval forward under ``no_grad``, which is every
``predict()``; training and an eval forward that records a graph keep
the three ops, with their backwards.

A map of at least ``2 * _BLOCK`` positions per H x W plane (128 x 128 and
up) splits its rows in two, and ``_halves`` runs the second range on one
kept worker thread while the caller runs the first, where the process
may use two CPUs.  Three forward kernels split so: ``conv2d`` (with the
epilogue, and its input gradient) at the middle block boundary,
``upconv2x2`` at the middle row and ``maxpool2x2`` at the even row at or
below it; ``batchnorm2d`` and ``relu``, which ``predict()`` runs only
inside the epilogue, do not.  A ``conv2d`` on a smaller map splits too,
in two blocks, when its call does at least ``_SPLIT_MACS`` multiply-adds
(N * C_in * C_out * k * k * H * W), since its cost follows that count, not
the map size; but only where two CPUs are usable, as on one the two
blocks ran slower than one.  The one rule for both is ``_mid_row``.
``upconv2x2`` and ``maxpool2x2`` run each range in blocks of about
``_BLOCK`` output and input positions respectively.  The bits cannot
move: each output element gets the same numpy calls on the same operands
on either thread, no reduction is split, and a map of ``2 * _BLOCK``
positions or more has its ``conv2d`` blocks cut the same way with one
CPU or two.  (Each ``upconv2x2`` input pixel, and each output position
of a ``conv2d`` tap, is one GEMM column, which BLAS sums in the same
order at any block width, so a smaller map that splits only on two CPUs
gives the bits of its one block; the whole-map tests and the parity
digests check it.)  The worker allocates nothing:
the caller allocates every output and one set of block buffers per
range, since an array made on the worker comes from a second glibc arena
and raises peak RSS.  Each kernel writes its work once, as a body over a
range of rows; a map that does not split calls that body once on the
whole map, without the worker, the preallocated outputs or ``_halves``,
whose per-call cost showed on 64 x 64 tiles.

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

# a conv2d of at least this many multiply-adds per call splits a smaller
# map too, in two blocks, where the process may use two CPUs: every 3x3
# conv of a 512 x 512 predict() does 75.5 M or more, while train at 64 x 64,
# batch 4 does at most 9.4 M and a 64 x 64 predict() at most 2.4 M
_SPLIT_MACS = 1 << 25

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


def _two_cpus() -> bool:
    """Whether the process may run on two CPUs or more."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def _halves(fn, end: int, mid: int) -> None:
    """Run ``fn(0, mid)`` here and ``fn(mid, end)`` on the kept worker
    thread, in a copy of this context so that ``np.errstate`` and graph
    mode hold there too; both here, in order, where the process may use
    one CPU only.  ``fn`` only fills arrays the caller allocated."""
    if not _two_cpus():
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


def _mid_row(h: int, w: int, macs: int = 0) -> int:
    """The row at which an H x W plane splits for ``_halves``: the middle,
    or 0 for no split.  A plane of at least ``2 * _BLOCK`` positions
    splits; so does a smaller one whose op does at least ``_SPLIT_MACS``
    multiply-adds per call (``macs``, which only ``conv2d`` passes), but
    only where the process may use two CPUs: on one, such a map cut in two
    blocks ran about 15 % slower than in one.  Every split kernel asks
    this one rule."""
    if h * w >= 2 * _BLOCK or macs >= _SPLIT_MACS and _two_cpus():
        return h // 2
    return 0


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
    data = np.maximum(x.data, 0)

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


def _pad_rows(x: np.ndarray, k: int, r0: int, r1: int, buf: np.ndarray) -> np.ndarray:
    """Rows r0 - p .. r1 + p - 1 of ``_pad_flat(x, k)``, with its k-1 spare
    zeros, written into the front of the 1-D ``buf``: rows outside the map
    and the pad columns are zeroed, the rest copied, and nothing is
    allocated."""
    n, c, h, w = x.shape
    p = (k - 1) // 2
    wp, rows = w + 2 * p, r1 - r0 + 2 * p
    flat = buf[: n * c * (rows * wp + k - 1)].reshape(n, c, rows * wp + k - 1)
    grid = flat[:, :, : rows * wp].reshape(n, c, rows, wp)
    lo, hi = max(r0 - p, 0), min(r1 + p, h)
    top, bottom = lo - (r0 - p), hi - (r0 - p)
    grid[:, :, :top] = 0
    grid[:, :, bottom:] = 0
    grid[:, :, top:bottom, :p] = 0
    grid[:, :, top:bottom, p + w :] = 0
    grid[:, :, top:bottom, p : p + w] = x[:, :, lo:hi]
    flat[:, :, rows * wp :] = 0
    return flat


def _pad_flat(x: np.ndarray, k: int) -> np.ndarray:
    """Zero-pad (N,C,H,W) by (k-1)/2 and flatten each padded plane, plus
    k-1 spare zeros so that the last tap's slice stays in bounds; a view
    for k = 1.  On a whole map at train shapes ``np.zeros`` and one copy
    ran faster than ``_pad_rows``'s border writes."""
    n, c, h, w = x.shape
    if k == 1:
        return x.reshape(n, c, h * w)
    p = (k - 1) // 2
    hp, wp = h + 2 * p, w + 2 * p
    flat = np.zeros((n, c, hp * wp + k - 1), dtype=x.dtype)
    flat[:, :, : hp * wp].reshape(n, c, hp, wp)[:, :, p : p + h, p : p + w] = x
    return flat


def _shifted_taps(pairs: list, x: np.ndarray, k: int, bias=None, bn=None, flat=None) -> np.ndarray:
    """Sum ``tap @ flat[:, :, off : off + h * wp]`` over the (tap, off)
    pairs, where ``flat`` is the (N, C, H, W) map ``x`` padded for a k x k
    kernel by ``_pad_flat``, read as H rows of Wp = W + k - 1 columns, and
    return each row's first W columns, plus ``bias`` per output channel when
    given, as a new (N, rows, H, W) array.  With ``bn``, the per-channel
    ``(mean, inv, gamma, beta)`` of an eval batch norm, each cropped block
    then goes through ``_bn_tail`` and ``max(., 0)`` in place: bit for bit
    ``relu(batchnorm2d(.))`` of the biased sum, without another pass over
    the map.

    The H rows split into near-equal blocks of whole rows, of about
    ``_BLOCK`` to ``2 * _BLOCK`` positions (one block when there are fewer,
    two when ``_mid_row`` splits a smaller map for its multiply-adds).
    With two blocks or more, each block pads its own rows and their halo
    into a block-sized buffer (``_pad_rows``), so the padded map never
    exists at full size; one block reads ``_pad_flat(x, k)``, as does a
    1 x 1 kernel (a view of ``x``) and the caller that passes the whole
    padded copy as ``flat`` because it needs one anyway.  Every pair is
    summed into a block, in the order given, before the next block starts,
    so the sum does not depend on the blocking.  Each block's first W
    columns are then copied into the result and the bias added to them in
    place, which is bitwise ``sum[..., :w] + bias``; the Wp-wide sum never
    exists at full size.

    On an H x W plane that ``_mid_row`` splits, by its size or by the
    N * rows * C * pairs * H * W multiply-adds of the call, the blocks split
    at the middle block boundary into two row ranges, each with its own
    block buffers, and the second range runs on ``_halves``'s worker
    thread.  A block is padded, summed, cropped and normalized the same
    way on either thread, so the bits do not move.
    """
    (tap0, off0), rest = pairs[0], pairs[1:]
    n, c, h, w = x.shape
    rows, wp = tap0.shape[0], w + k - 1
    split = _mid_row(h, w, n * rows * c * len(pairs) * h * w)
    nb = max(2 if split else 1, min(h, h * wp // _BLOCK))
    if flat is None and (nb == 1 or k == 1):
        flat = _pad_flat(x, k)  # the whole map is one block, or needs no padding
    bounds = [h * b // nb for b in range(nb + 1)]
    dtype = np.result_type(tap0, x)
    shape = (n, rows, h, w)
    out_dtype = dtype if bias is None else np.result_type(dtype, bias)
    mid = split and nb // 2  # the split block, 0 for none
    tall = -(-h // nb)  # rows of the largest block
    size = n * rows * tall * wp
    pad_size = n * c * ((tall + k - 1) * wp + k - 1)
    # the result before the block buffers: they are freed on return and so
    # leave their hole above it (peak RSS of a 512 x 512 predict() -1.5 MiB)
    out = np.empty(shape, dtype=out_dtype) if nb > 1 else None
    # the sum, tap-product and padded-input block buffers, one set per row range
    bufs = [(np.empty(size, dtype=dtype), np.empty(size, dtype=dtype),
             None if flat is not None else np.empty(pad_size, dtype=x.dtype))
            for _ in range(2 if mid else 1)]

    def run(b0, b1):  # blocks b0 .. b1 - 1
        nonlocal out, flat
        acc, tmp, pad = bufs.pop()
        for r0, r1 in zip(bounds[b0:b1], bounds[b0 + 1 : b1 + 1]):
            c0, c1 = r0 * wp, r1 * wp
            src = flat[:, :, c0:] if pad is None else _pad_rows(x, k, r0, r1, pad)
            blk = acc[: n * rows * (c1 - c0)].reshape(n, rows, c1 - c0)
            np.matmul(tap0, src[:, :, off0 : off0 + c1 - c0], out=blk)
            t = tmp[: blk.size].reshape(blk.shape)
            for tap, off in rest:
                blk += np.matmul(tap, src[:, :, off : off + c1 - c0], out=t)
            if out is None:  # one block: free the scratch before the result
                tmp = t = src = flat = None
                out = np.empty(shape, dtype=out_dtype)
            dst = out[:, :, r0:r1]
            dst[...] = blk.reshape(n, rows, r1 - r0, wp)[..., :w]
            if bias is not None:
                dst += bias[None, :, None, None]
            if bn is not None:
                np.maximum(_bn_tail(dst, dst, *bn), 0, out=dst)

    if mid:
        _halves(run, nb, mid)
    else:
        run(0, nb)
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, eval_bn_relu=None) -> Tensor:
    """2-D convolution (cross-correlation), stride 1, same-size output.

    ``weight`` is (C_out, C_in, k, k) with a square odd kernel, and the input
    is zero-padded by p = (k - 1) // 2 on each side: 1 for the 3x3 block
    kernels, 0 for the 1x1 prediction head.

    Shifted-tap GEMM: the input, zero-padded, is read as flat planes of
    width Wp = W + 2p.  Tap (i, j) of every output row is then the
    contiguous slice at offset i*Wp + j, so each tap is one matmul of
    W[:, :, i, j] against a view, with no im2col copy.  Rows are computed
    Wp wide, one block of whole rows at a time, each block padding its own
    input rows and halo first, and the taps are summed in the order
    (0, 0) ... (k-1, k-1); each finished block is cropped of its Wp - W
    junk columns into the output, and the bias added there
    (``_shifted_taps``).

    The input gradient is the correlation of the output gradient with the
    transposed, mirrored kernel, so it runs on the same loop: the output
    gradient is padded the same way, once, as the weight gradient reads it
    too, and tap (i, j) contributes
    W[:, :, i, j].T at offset (k-1-i)*Wp + (k-1-j), still in the order
    (0, 0) ... (k-1, k-1).  The weight gradient reads the padded output
    gradient as Wp-wide rows whose junk columns are the zero padding,
    against the input padded again: the forward's padded copy is not kept.

    ``eval_bn_relu``, a tuple ``(gamma, beta, running_mean, running_var)``,
    fuses the eval-mode ``batchnorm2d`` over those and a ``relu`` into the
    block loop: the result is bit for bit
    ``relu(batchnorm2d(conv2d(x, weight, bias), gamma, beta, running_mean,
    running_var, "eval"))``, with no backward.  It is accepted only while no
    graph is recorded (under ``no_grad``); otherwise it raises
    ``ContractError``.
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
    taps = np.ascontiguousarray(wd.transpose(2, 3, 0, 1))  # (k, k, O, C)
    pairs = [(taps[i, j], i * wp + j) for i, j in order]
    if eval_bn_relu is not None:
        if _grad_enabled.get():
            raise ContractError("conv2d's eval batch norm and ReLU run only under no_grad")
        gamma, beta, running_mean, running_var = eval_bn_relu
        _require_bn_shapes(gamma, beta, cout)
        dtype = np.result_type(xd, wd, bias.data)  # the convolution's output
        mean, var = running_mean.astype(dtype), running_var.astype(dtype)
        bn = _bn_affine(mean, var, gamma.data, beta.data)
        return Tensor(_shifted_taps(pairs, xd, kh, bias.data, bn))
    out_data = _shifted_taps(pairs, xd, kh, bias.data)

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
            _accum(nx, _shifted_taps(pairs, g, kh, flat=gflat), owned=True)

    return _make(out_data, (x, weight, bias), bw)


def _require_bn_shapes(gamma: Tensor, beta: Tensor, c: int) -> None:
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(
            f"batchnorm2d gamma/beta shapes {gamma.shape}/{beta.shape} do not match {c} channels"
        )


def _bn_affine(mean, var, gamma, beta) -> tuple:
    """The per-channel ``(mean, 1 / sqrt(var + eps), gamma, beta)`` that
    ``_bn_tail`` applies, each shaped (1, C, 1, 1)."""
    inv = 1.0 / np.sqrt(var + _BN_EPS)
    return tuple(v[None, :, None, None] for v in (mean, inv, gamma, beta))


def _bn_tail(rows, out, mean, inv, gamma, beta):
    """``(rows - mean) * inv * gamma + beta``, in that order, into ``out``
    (a new array when None; ``rows`` itself for in place): batch norm's
    elementwise part, shared by ``batchnorm2d`` and ``conv2d``'s fused eval
    epilogue so that the two give the same bits."""
    out = np.subtract(rows, mean, out=out)
    out *= inv
    out *= gamma
    out += beta
    return out


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
    _require_bn_shapes(gamma, beta, c)

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

    affine = _bn_affine(mean, var, gamma.data, beta.data)
    mean4, inv4, gamma4 = affine[:3]
    xd = x.data
    out_data = _bn_tail(xd, buf, *affine)

    def bw(g, nx, ngamma, nbeta):
        xhat = xd - mean4
        xhat *= inv4
        gsum = g.sum(axis=(0, 2, 3), keepdims=True)
        gxsum = (g * xhat).sum(axis=(0, 2, 3), keepdims=True)
        _accum(ngamma, gxsum.reshape(c), owned=True)
        _accum(nbeta, gsum.reshape(c), owned=True)
        if nx is not None:
            scale = gamma4 * inv4
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
    every row (of a block, on a map that splits), then the maximum of those
    half-width rows in pairs, which reads whole rows: bit for bit
    ``max(max(x00, x01), max(x10, x11))`` over the four window positions
    ``x[:, :, a::2, b::2]``, down to the
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

    mid = _mid_row(h, w) // 2 * 2
    if mid:
        out_data = np.empty((n, c, h // 2, w // 2), dtype=d.dtype)
        # even rows per block, about 4 * _BLOCK positions: smaller blocks
        # ran slower than one pass per range (more ufunc calls)
        step = max(2, 4 * _BLOCK // w // 2 * 2)
        # one block of column maxima per row range
        bufs = [np.empty((n, c, step, w // 2), dtype=d.dtype) for _ in range(2)]

        def run(r0, r1):
            cols = bufs.pop()
            for b0 in range(r0, r1, step):
                b1 = min(b0 + step, r1)
                pool(d[:, :, b0:b1], cols[:, :, : b1 - b0], out_data[:, :, b0 // 2 : b1 // 2])

        _halves(run, h, mid)
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
    input pixel paints a disjoint 2x2 output block: one matmul over
    (C_out*2*2, C_in) x (C_in, rows*W) per block of input rows, plus the
    bias, then interleaved into the doubled grid.  On a map that splits,
    the blocks run through one block-sized product buffer per row range,
    so the product never exists at full size.
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
    w4 = weight.data.reshape(cin, cout * 4)
    x3 = x.data.reshape(n, cin, h * w)
    grid = np.empty((n, cout, h, 2, w, 2), dtype=np.result_type(w4, x3))

    def paint(r0, r1, out=None):  # input rows r0 .. r1 - 1; out: their block buffer
        blocks = np.matmul(w4.T, x3[:, :, r0 * w : r1 * w], out=out)
        blocks = blocks.reshape(n, cout, 2, 2, r1 - r0, w)
        blocks += bias.data[None, :, None, None, None, None]
        for a in (0, 1):
            for b in (0, 1):
                grid[:, :, r0:r1, a, :, b] = blocks[:, :, a, b]

    mid = _mid_row(h, w)
    if mid:
        step = max(1, _BLOCK // (4 * w))  # input rows per block: _BLOCK output positions
        bufs = [np.empty(n * cout * 4 * step * w, dtype=grid.dtype) for _ in range(2)]

        def run(r0, r1):
            buf = bufs.pop()
            for b0 in range(r0, r1, step):
                b1 = min(b0 + step, r1)
                size = n * cout * 4 * (b1 - b0) * w
                paint(b0, b1, buf[:size].reshape(n, cout * 4, (b1 - b0) * w))

        _halves(run, h, mid)
    else:
        paint(0, h)
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
