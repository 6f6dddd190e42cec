"""Command-line front end: gen, train, predict, eval and render.

Every subcommand runs inside ``_run``, which refuses clashing or
directory outputs before anything is read and, once the command
succeeds, writes a JSON manifest next to its outputs recording the
subcommand, resolved flag values and paths, so any output can be
reproduced bit-for-bit by re-running with the recorded values.

Exit codes: 0 success, 2 usage error, 3 data/parse error or out of memory,
4 numeric failure (non-finite loss or overflow).  ``DIFFNET_SEED`` overrides
the default seed when no ``--seed`` flag is given; seeds are integers >= 0.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    HEADER,
    SceneParams,
    generate_scene,
    read_mask,
    read_tile,
    refuse_nonfinite,
    write_atomic,
    write_csv,
    write_mask,
    write_tile,
)
from .errors import (
    CheckpointFormatError,
    ConfigError,
    ContractError,
    NonFiniteLossError,
    ShapeError,
    TileFormatError,
)
from .losses import LossConfig
from .metrics import (
    METRIC_NAMES,
    aggregate,
    confusion_codes,
    confusion_counts,
    metrics_from_counts,
)
from .model import ModelConfig, init_model
from .train import (
    TrainConfig,
    load_checkpoint,
    model_from_checkpoint,
    predict,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

CONFUSION_COLORS = {
    "tp": (255, 255, 255),
    "tn": (0, 0, 0),
    "fp": (255, 0, 0),
    "fn": (0, 0, 255),
    "nodata": (128, 128, 128),
}
# Row k colours overlay code k = 2*(pred == 1) + (truth == 1); row 4 is nodata.
_PALETTE = np.array(
    [CONFUSION_COLORS[k] for k in ("tn", "fn", "fp", "tp", "nodata")], dtype=np.uint8
)


def _checked(expected: str, convert, ok):
    """An argparse type: ``convert(text)`` where ``ok`` accepts it; other
    text is a usage error (exit 2) naming the flag and what was ``expected``."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


def _at_least(low: int):
    return _checked(f"an integer >= {low}", int, lambda v: v >= low)


_seed = _at_least(0)  # PCG64 takes no negative seed
# kept as typed, for the manifest
_pos_weight = _checked("'auto' or a number", str, lambda t: t == "auto" or np.isfinite(float(t)))
# the range predict() takes; false for NaN
_threshold = _checked("a number in [0, 1)", float, lambda v: 0.0 <= v < 1.0)


def resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("DIFFNET_SEED")
    if env is None:
        return 0
    try:
        return _seed(env)
    except argparse.ArgumentTypeError as e:
        raise ConfigError(f"DIFFNET_SEED: {e}") from None


def write_manifest(args: argparse.Namespace, inputs: list, outputs: list, path) -> None:
    """Record the subcommand and every flag as parsed (after seed and
    default-path resolution), keyed by flag name, at ``path``."""
    flags = {
        k.replace("_", "-"): v
        for k, v in vars(args).items()
        if k not in ("func", "subcommand")
    }
    doc = {
        "subcommand": args.subcommand,
        "tool_version": __version__,
        "args": flags,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    write_atomic(path, (text.encode(),))


def _file_key(path) -> tuple:
    """A file's device and inode, or its absolute path if it does not exist,
    and whether it is a directory: one stat, where ``Path.resolve`` takes
    one per path component."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.abspath(path), False
    return (st.st_dev, st.st_ino), stat.S_ISDIR(st.st_mode)


@contextlib.contextmanager
def _run(args, inputs: list, outputs: list[tuple[str, object]], manifest=None):
    """Check a subcommand's outputs, run its body, then write its manifest,
    by default to ``<first output>.manifest.json``; ``outputs`` pairs each
    path with its flag.  Before the body runs: ConfigError (exit 2) when an
    output or the manifest names an input or another output's file;
    IsADirectoryError (exit 3) when an output or the manifest is a
    directory.  A body that raises leaves no manifest."""
    outputs = [(flag, Path(path)) for flag, path in outputs]  # the manifest records Path's spelling
    manifest = manifest or Path(f"{outputs[0][1]}.manifest.json")
    taken = {_file_key(p)[0]: "an input" for p in inputs}
    for flag, path in [*outputs, ("the manifest", manifest)]:
        key, is_dir = _file_key(path)
        if key in taken:
            raise ConfigError(f"{flag} {path} is also {taken[key]}")
        if is_dir:
            raise IsADirectoryError(f"{flag} {path} is a directory")
        taken[key] = f"the {flag} path"
    yield
    write_manifest(args, inputs, [path for _, path in outputs], manifest)


def _load_any_mask(path: Path) -> np.ndarray:
    if path.suffix == ".btt":
        # A copy, so the mask does not keep the whole tile's buffer alive.
        return read_tile(path).mask.copy()
    return read_mask(path)


# -- confusion rendering --------------------------------------------------------


def render_confusion(pred: np.ndarray, truth: np.ndarray, out_path) -> None:
    """Binary PPM overlay: TP white, TN black, FP red, FN blue, nodata gray.
    Pred and truth of different shapes are a ShapeError (exit 3), as in eval."""
    code = confusion_codes(pred, truth)
    h, w = code.shape
    img = _PALETTE.take(code, axis=0)  # _PALETTE[code], about 2x faster at 64x64
    write_atomic(out_path, (f"P6\n{w} {h}\n255\n".encode(), img))


# -- subcommands ----------------------------------------------------------------


def cmd_gen(args) -> None:
    args.seed = resolve_seed(args.seed)
    params = SceneParams(
        channels=args.channels,
        size=(args.height, args.width),
        burn_fraction_target=args.burn_fraction,
        n_scar_blobs=args.scar_blobs,
        burn_offset_scale=args.burn_offset_scale,
        seasonal_drift_scale=args.seasonal_drift_scale,
        confuser_blobs=args.confuser_blobs,
        noise_sigma=args.noise_sigma,
    )
    out_dir = Path(args.out_dir)
    paths = [out_dir / f"tile_{i:05d}.btt" for i in range(args.count)]
    with _run(args, [], [("--out-dir", p) for p in paths], out_dir / "manifest.json"):
        for i, path in enumerate(paths):
            tile = generate_scene(params, seed=args.seed + i)
            write_tile(tile, path)


def cmd_train(args) -> None:
    args.seed = resolve_seed(args.seed)
    pos_weight = None if args.pos_weight == "auto" else float(args.pos_weight)
    cfg = TrainConfig(
        lr=args.lr,
        steps=args.steps,
        batch_size=args.batch_size,
        patch_size=args.patch_size,
        seed=args.seed,
        loss=LossConfig(alpha=args.alpha, pos_weight=pos_weight, dice_eps=args.dice_eps),
        log_every=args.log_every,
    )
    data_dir = Path(args.data_dir)
    tile_paths = sorted(data_dir.glob("*.btt"))
    if not tile_paths:
        raise ConfigError(f"no .btt tiles found in {data_dir}")
    args.log_csv = args.log_csv or f"{args.out}.log.csv"
    with _run(args, tile_paths, [("--out", args.out), ("--log-csv", args.log_csv)]):
        tiles = [read_tile(p) for p in tile_paths]

        model = init_model(
            ModelConfig(in_channels=tiles[0].channels, base_width=args.base_width),
            seed=args.model_seed,
        )
        ckpt, log = train(model, tiles, cfg)

        save_checkpoint(ckpt, args.out)
        log.to_csv(args.log_csv)


def cmd_predict(args) -> None:
    with _run(args, [args.checkpoint, args.tile], [("--out", args.out)]):
        ckpt = load_checkpoint(args.checkpoint)  # refuses NaN/Inf tensors itself
        tile = read_tile(args.tile)
        # a NaN or Inf in the images would come out as an all-zero mask
        refuse_nonfinite(args.tile, HEADER.size, TileFormatError,
                         {"pre": tile.pre, "post": tile.post})
        model = model_from_checkpoint(ckpt)
        mask = predict(model, tile, threshold=args.threshold)
        write_mask(mask, args.out)


def cmd_eval(args) -> None:
    if len(args.pred) != len(args.truth):
        raise ConfigError(
            f"site count mismatch: {len(args.pred)} predictions vs "
            f"{len(args.truth)} truth files"
        )
    with _run(args, args.pred + args.truth, [("--out", args.out)]):
        rows = []
        for pred_path, truth_path in zip(args.pred, args.truth):
            pred = _load_any_mask(Path(pred_path))
            truth = _load_any_mask(Path(truth_path))
            counts = confusion_counts(pred, truth)
            try:
                metrics = metrics_from_counts(counts)
            except ContractError as e:
                raise ContractError(f"--pred {pred_path} --truth {truth_path}: {e}") from None
            rows.append((Path(pred_path).stem, metrics))
        mean_set, std_set = aggregate([m for _, m in rows])

        table = [(site, *(f"{v:.6f}" for v in m.as_tuple()))
                 for site, m in rows + [("mean", mean_set), ("std", std_set)]]
        write_csv(args.out, [("site", *METRIC_NAMES), *table], lineterminator="\n")


def cmd_render(args) -> None:
    with _run(args, [args.pred, args.truth], [("--out", args.out)]):
        pred = _load_any_mask(Path(args.pred))
        truth = _load_any_mask(Path(args.truth))
        render_confusion(pred, truth, args.out)


# -- parser ----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``main`` call; callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="diffnet",
        description="Bitemporal burned-area change detection on synthetic embedding tiles",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("gen", help="generate synthetic bitemporal tiles")
    g.add_argument("--out-dir", required=True)
    g.add_argument("--count", type=_at_least(1), default=1)
    g.add_argument("--seed", type=_seed, default=None)
    g.add_argument("--channels", type=int, default=SceneParams.channels)
    g.add_argument("--height", type=int, default=SceneParams.size[0])
    g.add_argument("--width", type=int, default=SceneParams.size[1])
    g.add_argument("--burn-fraction", type=float, default=SceneParams.burn_fraction_target)
    g.add_argument("--scar-blobs", type=int, default=SceneParams.n_scar_blobs)
    g.add_argument("--burn-offset-scale", type=float, default=SceneParams.burn_offset_scale)
    g.add_argument("--seasonal-drift-scale", type=float, default=SceneParams.seasonal_drift_scale)
    g.add_argument("--confuser-blobs", type=int, default=SceneParams.confuser_blobs)
    g.add_argument("--noise-sigma", type=float, default=SceneParams.noise_sigma)
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train a model on a directory of .btt tiles")
    t.add_argument("--data-dir", required=True)
    t.add_argument("--out", required=True, help="checkpoint output path")
    t.add_argument("--log-csv", default=None)
    t.add_argument("--base-width", type=int, default=ModelConfig.base_width)
    t.add_argument("--model-seed", type=_seed, default=0)
    t.add_argument("--lr", type=float, default=TrainConfig.lr)
    t.add_argument("--steps", type=int, default=TrainConfig.steps)
    t.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    t.add_argument("--patch-size", type=int, default=TrainConfig.patch_size)
    t.add_argument("--seed", type=_seed, default=None)
    t.add_argument("--alpha", type=float, default=LossConfig.alpha)
    t.add_argument("--pos-weight", type=_pos_weight, default="auto")
    t.add_argument("--dice-eps", type=float, default=LossConfig.dice_eps)
    t.add_argument("--log-every", type=int, default=TrainConfig.log_every)
    t.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="binarized change mask for one tile")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tile", required=True)
    p.add_argument("--threshold", type=_threshold, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    e = sub.add_parser("eval", help="metric table over prediction/truth pairs")
    e.add_argument("--pred", nargs="+", required=True)
    e.add_argument("--truth", nargs="+", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("render", help="confusion overlay image (PPM)")
    r.add_argument("--pred", required=True)
    r.add_argument("--truth", required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else EXIT_OK
    try:
        args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (TileFormatError, CheckpointFormatError, ShapeError, ContractError, OSError,
            MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (NonFiniteLossError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# OpenBLAS functions with their C types, by the name both symbol spellings share
_OPENBLAS = {
    "get_corename": ctypes.CFUNCTYPE(ctypes.c_char_p),
    "get_num_threads": ctypes.CFUNCTYPE(ctypes.c_int),
    "set_num_threads": ctypes.CFUNCTYPE(None, ctypes.c_int),
}
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _openblas(name: str):
    """Function ``name`` of numpy's bundled OpenBLAS, or None if it bundles none."""
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))  # the copy numpy already loaded
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}"):
            if hasattr(lib, symbol):
                return _OPENBLAS[name]((symbol, lib))
    return None


def blas_core() -> str:
    """The kernel set numpy's OpenBLAS chose for this CPU or as ``OPENBLAS_CORETYPE`` forced."""
    corename = _openblas("get_corename")
    return corename().decode() if corename else "unknown"


def entrypoint() -> None:
    """The ``diffnet`` command.  On up to 2 usable CPUs, where it was
    measured, OpenBLAS gets one thread unless one of ``_BLAS_THREAD_VARS``
    is set, so that its threads leave the second CPU to the forward
    kernels, which split the rows of large maps in two."""
    set_threads = _openblas("set_num_threads")
    if (set_threads and not any(os.environ.get(v) for v in _BLAS_THREAD_VARS)
            and len(os.sched_getaffinity(0)) <= 2):
        set_threads(1)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
