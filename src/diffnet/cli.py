"""Command-line front end: gen, train, predict, eval and render.

Every run writes a JSON manifest next to its outputs recording the
subcommand, resolved flag values and paths, so any output can be
reproduced bit-for-bit by re-running with the recorded values.

Exit codes: 0 success, 2 usage error, 3 data/parse error, 4 numeric
failure (non-finite loss or overflow).  ``DIFFNET_SEED`` overrides the
default seed when no ``--seed`` flag is given.  Seeds are integers >= 0.
"""

from __future__ import annotations

import argparse
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


def _int_at_least(low: int):
    """An argparse type for integers >= ``low``; any other value is a usage
    error (exit 2) whose message names the flag."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


_seed = _int_at_least(0)  # PCG64 takes no negative seed


def _pos_weight(text: str) -> str:
    """An argparse type: ``auto`` or a finite number, kept as typed for the manifest."""
    try:
        if text == "auto" or np.isfinite(float(text)):
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 'auto' or a number, got {text!r}")


def _threshold(text: str) -> float:
    """An argparse type: a number in [0, 1), the range ``predict()`` takes."""
    try:
        if 0.0 <= float(text) < 1.0:  # false for NaN
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a number in [0, 1), got {text!r}")


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


def _manifest_path(first_output) -> Path:
    """Where ``write_manifest`` records a run that names no other path."""
    return Path(f"{first_output}.manifest.json")


def write_manifest(
    args: argparse.Namespace, inputs: list, outputs: list, path: Path | None = None
) -> None:
    """Record the subcommand and every flag as parsed (after seed and
    default-path resolution), keyed by flag name.  The manifest goes to
    ``path``, by default ``_manifest_path(outputs[0])``."""
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
    path = path or _manifest_path(outputs[0])
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


def _refuse_overwrite(inputs: list, outputs: dict[str, str]) -> None:
    """Before anything is read: ConfigError (exit 2) when an output path,
    keyed by its flag, or the manifest of the first output names an input
    or another output's file, and IsADirectoryError (exit 3) when it names
    a directory."""
    taken = {_file_key(p)[0]: "an input" for p in inputs}
    first = next(iter(outputs.values()))
    for flag, path in {**outputs, "the manifest": _manifest_path(first)}.items():
        key, is_dir = _file_key(path)
        if key in taken:
            raise ConfigError(f"{flag} {path} is also {taken[key]}")
        if is_dir:
            raise IsADirectoryError(f"{flag} {path} is a directory")
        taken[key] = f"the {flag} path"


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


def cmd_gen(args) -> int:
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
    outputs = []
    for i in range(args.count):
        tile = generate_scene(params, seed=args.seed + i)
        path = out_dir / f"tile_{i:05d}.btt"
        write_tile(tile, path)
        outputs.append(path)
    write_manifest(args, [], outputs, out_dir / "manifest.json")
    return EXIT_OK


def cmd_train(args) -> int:
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
    _refuse_overwrite(tile_paths, {"--out": args.out, "--log-csv": args.log_csv})
    tiles = [read_tile(p) for p in tile_paths]

    model = init_model(
        ModelConfig(in_channels=tiles[0].channels, base_width=args.base_width),
        seed=args.model_seed,
    )
    ckpt, log = train(model, tiles, cfg)

    out = Path(args.out)
    log_csv = Path(args.log_csv)
    save_checkpoint(ckpt, out)
    log.to_csv(log_csv)
    write_manifest(args, tile_paths, [out, log_csv])
    return EXIT_OK


def cmd_predict(args) -> int:
    _refuse_overwrite([args.checkpoint, args.tile], {"--out": args.out})
    ckpt = load_checkpoint(args.checkpoint)  # refuses NaN/Inf tensors itself
    tile = read_tile(args.tile)
    # a NaN or Inf in the images would come out as an all-zero mask
    refuse_nonfinite(args.tile, HEADER.size, TileFormatError, {"pre": tile.pre, "post": tile.post})
    model = model_from_checkpoint(ckpt)
    mask = predict(model, tile, threshold=args.threshold)
    out = Path(args.out)
    write_mask(mask, out)
    write_manifest(args, [args.checkpoint, args.tile], [out])
    return EXIT_OK


def cmd_eval(args) -> int:
    if len(args.pred) != len(args.truth):
        raise ConfigError(
            f"site count mismatch: {len(args.pred)} predictions vs "
            f"{len(args.truth)} truth files"
        )
    _refuse_overwrite(args.pred + args.truth, {"--out": args.out})
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
    out = Path(args.out)
    write_csv(out, [("site", *METRIC_NAMES), *table], lineterminator="\n")
    write_manifest(args, args.pred + args.truth, [out])
    return EXIT_OK


def cmd_render(args) -> int:
    _refuse_overwrite([args.pred, args.truth], {"--out": args.out})
    pred = _load_any_mask(Path(args.pred))
    truth = _load_any_mask(Path(args.truth))
    out = Path(args.out)
    render_confusion(pred, truth, out)
    write_manifest(args, [args.pred, args.truth], [out])
    return EXIT_OK


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
    g.add_argument("--count", type=_int_at_least(1), default=1)
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
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (TileFormatError, CheckpointFormatError, ShapeError, ContractError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (NonFiniteLossError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
