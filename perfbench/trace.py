"""Outside-in tracing of diffnet for the per-layer metrics.

The tracer replaces public functions in the namespaces that import them
(``diffnet.model.conv2d``, ``diffnet.cli.read_tile``, ...) with wrappers
that record spans, and restores the originals on ``uninstall``.  A
primitive's backward time is caught by wrapping the backward closure of
the tensor it returns.  Spans live in memory as
``[name, start, end, parent, unit, block, flop]`` lists and are folded into
per-op metrics after the run.  Nothing inside the program is changed.

A target that no longer exists (a later change renamed or moved it) is
recorded in ``Tracer.missing`` and skipped, never raised; the tensor
internals the wrappers read (``_backward``, ``_parents``, ``params``) are
looked up with defaults for the same reason.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
import time
from collections import defaultdict

NAME, START, END, PARENT, UNIT, BLOCK, FLOP = range(7)

PRIMITIVES = (
    "conv2d",
    "batchnorm2d",
    "relu",
    "maxpool2x2",
    "upconv2x2",
    "concat_channels",
    "sub",
    "sigmoid",
)
# enc*/dec*/head as the model names them; "diff" holds the post-minus-pre
# subtractions that sit between encoder and decoder.
BLOCKS = (
    "enc1", "enc2", "enc3", "enc4", "enc5",
    "dec4", "dec3", "dec2", "dec1",
    "head", "diff",
)
LOSS_FWD = ("losses.weighted_bce", "losses.dice_loss", "losses.auto_pos_weight")
LOSS_BWD = "losses.hybrid.bwd"

# (module, attribute path, span name, wrapper kind)
TARGETS = (
    *(("diffnet.model", p, f"tensor.{p}", "primitive") for p in PRIMITIVES),
    ("diffnet.tensor", "Tensor.backward", "tensor.backward", "backward"),
    ("diffnet.model", "SiameseUNet.forward", "model.forward", "forward"),
    ("diffnet.train", "weighted_bce", "losses.weighted_bce", "plain"),
    ("diffnet.train", "dice_loss", "losses.dice_loss", "plain"),
    ("diffnet.train", "auto_pos_weight", "losses.auto_pos_weight", "plain"),
    ("diffnet.train", "train", "train.train", "plain"),
    ("diffnet.train", "predict", "train.predict", "plain"),
    ("diffnet.train", "adam_step", "train.adam_step", "plain"),
    ("diffnet.train", "_assemble_batch", "train.assemble_batch", "plain"),
    ("diffnet.train", "checkpoint_from_model", "train.checkpoint_from_model", "plain"),
    ("diffnet.cli", "predict", "train.predict", "plain"),
    ("diffnet.cli", "load_checkpoint", "train.load_checkpoint", "plain"),
    ("diffnet.cli", "model_from_checkpoint", "train.model_from_checkpoint", "plain"),
    ("diffnet.cli", "read_tile", "data.read_tile", "plain"),
    ("diffnet.cli", "generate_scene", "data.generate_scene", "plain"),
    ("diffnet.cli", "write_tile", "data.write_tile", "plain"),
    ("diffnet.data", "generate_scene", "data.generate_scene", "plain"),
    ("diffnet.cli", "confusion_counts", "metrics.confusion_counts", "plain"),
    ("diffnet.cli", "metrics_from_counts", "metrics.metrics_from_counts", "plain"),
    ("diffnet.cli", "aggregate", "metrics.aggregate", "plain"),
    ("diffnet.cli", "main", "cli.main", "plain"),
    ("diffnet.cli", "cmd_predict", "cli.predict", "plain"),
    ("diffnet.cli", "cmd_eval", "cli.eval", "plain"),
    ("diffnet.cli", "cmd_render", "cli.render", "plain"),
)

_TRACED = "_perfbench_traced"


def _block_of(param_name: str) -> str:
    stem = param_name.split(".", 1)[0]
    return "head" if stem == "final_up" else stem


def _conv_flop(x, weight) -> float:
    n, _, h, w = x.data.shape
    cout, cin, kh, kw = weight.data.shape
    return 2.0 * n * h * w * cout * cin * kh * kw


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``unit`` names what the current spans belong to, ``("op", i)`` or
    ``("setup", k)``; while it is None nothing is recorded, so checks run
    between ops stay out of the trace.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.unit = None
        self.missing: set[str] = set()
        self._installed: list[tuple] = []
        self._param_blocks: dict[int, str] = {}
        self._block = None

    # -- span recording ---------------------------------------------------

    def open(self, name: str, block=None, flop: float = 0.0) -> int:
        if self.unit is None:
            return -1
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.unit, block, flop])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if idx < 0:
            return
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    # -- wrappers -----------------------------------------------------------

    def _plain(self, name, fn):
        def wrapped(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapped

    def _closure(self, fn, name, block, flop):
        def run():
            idx = self.open(name, block, flop)
            try:
                fn()
            finally:
                self.close(idx)

        setattr(run, _TRACED, True)
        return run

    def _primitive(self, name, fn):
        is_sub = name == "tensor.sub"
        is_conv = name == "tensor.conv2d"

        def wrapped(*args, **kwargs):
            if is_sub:
                block = "diff"
            else:
                for a in args:
                    b = self._param_blocks.get(id(a))
                    if b is not None:
                        self._block = b
                        break
                block = self._block
            flop = _conv_flop(args[0], args[1]) if is_conv else 0.0
            idx = self.open(name, block, flop)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            closure = getattr(out, "_backward", None)
            if closure is not None and self.unit is not None:
                bflop = flop * (2 if is_conv and args[0].requires_grad else 1)
                out._backward = self._closure(closure, name + ".bwd", block, bflop)
            return out

        return wrapped

    def _forward(self, name, fn):
        def wrapped(model, *args, **kwargs):
            params = getattr(model, "params", {})
            self._param_blocks = {id(t): _block_of(k) for k, t in params.items()}
            self._block = None
            idx = self.open(name)
            try:
                return fn(model, *args, **kwargs)
            finally:
                self.close(idx)

        return wrapped

    def _backward(self, name, fn):
        def wrapped(root, *args, **kwargs):
            idx = self.open(name)
            try:
                if self.unit is not None:
                    self._label_loss_graph(root)
                return fn(root, *args, **kwargs)
            finally:
                self.close(idx)

        return wrapped

    def _label_loss_graph(self, root) -> None:
        """Wrap every closure between the loss and the traced primitives.

        The walk stops at nodes whose closure is already traced, so it
        covers exactly the loss terms built on top of the model output.
        """
        seen: set[int] = set()
        todo = [root]
        while todo:
            node = todo.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            fn = getattr(node, "_backward", None)
            if fn is None or getattr(fn, _TRACED, False):
                continue
            node._backward = self._closure(fn, LOSS_BWD, None, 0.0)
            todo.extend(getattr(node, "_parents", ()))

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        factories = {
            "plain": self._plain,
            "primitive": self._primitive,
            "forward": self._forward,
            "backward": self._backward,
        }
        for module_name, path, span_name, kind in self.targets:
            full = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.add(full)
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                self.missing.add(full)
                continue
            own = vars(owner)
            had_own = attr in own
            original = own[attr] if had_own else getattr(owner, attr)
            setattr(owner, attr, factories[kind](span_name, original))
            self._installed.append((owner, attr, original, had_own))

    def uninstall(self) -> None:
        for owner, attr, original, had_own in reversed(self._installed):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed.clear()

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, one span per line."""
        keys = ("name", "start", "end", "parent", "unit", "block", "flop")
        with gzip.open(path, "wt") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(keys, s))) + "\n")


# -- folding spans into metrics ------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its direct children
    cover (overlapping children are counted once)."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        ivs = sorted(
            (max(start, spans[c][START]), min(end, spans[c][END])) for c in children[i]
        )
        covered, reach = 0.0, start
        for a, b in ivs:
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def fold(spans) -> dict:
    """Per unit: ``total:<name>``, ``self:<name>`` and ``flop:<name>`` in ms
    or flop, ``calls:<name>`` and ``block:<block>:<fwd|bwd>`` in ms."""
    per: dict = defaultdict(lambda: defaultdict(float))
    for s, st in zip(spans, self_times(spans)):
        d = per[s[UNIT]]
        name = s[NAME]
        dur = (s[END] - s[START]) * 1e3
        d["total:" + name] += dur
        d["self:" + name] += st * 1e3
        d["calls:" + name] += 1
        d["flop:" + name] += s[FLOP]
        if s[BLOCK] is not None and name.startswith("tensor."):
            d[f"block:{s[BLOCK]}:{'bwd' if name.endswith('.bwd') else 'fwd'}"] += dur
    return per


def _get(key):
    return lambda d: d.get(key, 0.0)


def _sum(*keys):
    return lambda d: sum(d.get(k, 0.0) for k in keys)


def metric_specs() -> list[tuple]:
    """(metric name, unit, unit kind, value of one unit's folded dict)."""
    specs = []
    for p in PRIMITIVES:
        specs.append((f"tensor.{p}.fwd_ms", "ms", "op", _get(f"total:tensor.{p}")))
        specs.append((f"tensor.{p}.bwd_ms", "ms", "op", _get(f"total:tensor.{p}.bwd")))
        specs.append((f"tensor.{p}.calls", "count", "op", _get(f"calls:tensor.{p}")))
    bwd_calls = [f"calls:tensor.{p}.bwd" for p in PRIMITIVES] + [f"calls:{LOSS_BWD}"]
    specs += [
        ("tensor.graph_nodes", "count", "op", _sum(*bwd_calls)),
        ("tensor.backward.self_ms", "ms", "op", _get("self:tensor.backward")),
        ("tensor.conv2d.gflop", "GFLOP", "op",
         lambda d: _sum("flop:tensor.conv2d", "flop:tensor.conv2d.bwd")(d) / 1e9),
    ]
    for b in BLOCKS:
        specs.append((f"model.{b}.fwd_ms", "ms", "op", _get(f"block:{b}:fwd")))
        specs.append((f"model.{b}.bwd_ms", "ms", "op", _get(f"block:{b}:bwd")))
    specs += [
        ("losses.hybrid.fwd_ms", "ms", "op", _sum(*(f"total:{n}" for n in LOSS_FWD))),
        ("losses.hybrid.bwd_ms", "ms", "op", _get(f"total:{LOSS_BWD}")),
        ("train.self_ms", "ms", "op", _get("self:train.train")),
        ("train.adam_step_ms", "ms", "op", _get("total:train.adam_step")),
        ("train.assemble_batch_ms", "ms", "op", _get("total:train.assemble_batch")),
        ("train.checkpoint_from_model_ms", "ms", "op",
         _get("total:train.checkpoint_from_model")),
        ("train.predict.self_ms", "ms", "op", _get("self:train.predict")),
        ("train.load_checkpoint_ms", "ms", "op", _get("total:train.load_checkpoint")),
        ("train.model_from_checkpoint_ms", "ms", "op",
         _get("total:train.model_from_checkpoint")),
        ("data.read_tile_ms", "ms", "op", _get("total:data.read_tile")),
        ("data.generate_scene_ms", "ms", "setup", _get("total:data.generate_scene")),
        ("data.write_tile_ms", "ms", "setup", _get("total:data.write_tile")),
        ("metrics.confusion_counts_ms", "ms", "op", _get("total:metrics.confusion_counts")),
        ("metrics.metrics_from_counts_ms", "ms", "op",
         _get("total:metrics.metrics_from_counts")),
        ("metrics.aggregate_ms", "ms", "op", _get("total:metrics.aggregate")),
        ("cli.main.self_ms", "ms", "op", _get("self:cli.main")),
        ("cli.predict.self_ms", "ms", "op", _get("self:cli.predict")),
        ("cli.eval.self_ms", "ms", "op", _get("self:cli.eval")),
        ("cli.render.self_ms", "ms", "op", _get("self:cli.render")),
    ]
    return specs


def layer_metrics(spans, units: dict[str, list]) -> dict[str, tuple[float, str]]:
    """Median over the units of each kind (``units["op"]``,
    ``units["setup"]``) of every metric in ``metric_specs``; a unit that
    never reached a layer counts as 0 for it."""
    per = fold(spans)
    empty: dict = {}
    out = {}
    for name, unit, kind, value in metric_specs():
        vals = [value(per.get(u, empty)) for u in units[kind]]
        out[name] = (statistics.median(vals) if vals else 0.0, unit)
    return out
