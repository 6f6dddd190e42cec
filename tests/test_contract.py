"""The public names and CLI flags are part of the behaviour contract: a
change that drops or renames one fails here, not in a user's script."""

import argparse

import diffnet
from diffnet.cli import build_parser

PUBLIC_API = [
    "BitemporalTile", "ConfusionCounts", "LossConfig", "MetricSet", "ModelConfig",
    "SceneParams", "SiameseUNet", "Tensor", "TrainConfig", "aggregate",
    "confusion_counts", "dice_loss", "generate_scene", "hybrid_loss", "init_model",
    "load_checkpoint", "metrics_from_counts", "predict", "read_tile",
    "save_checkpoint", "train", "weighted_bce", "write_tile",
]

HELP = ["-h", "--help"]
CLI_OPTIONS = {
    None: HELP + ["--version"],
    "gen": HELP + [
        "--out-dir", "--count", "--seed", "--channels", "--height", "--width",
        "--burn-fraction", "--scar-blobs", "--burn-offset-scale",
        "--seasonal-drift-scale", "--confuser-blobs", "--noise-sigma",
    ],
    "train": HELP + [
        "--data-dir", "--out", "--log-csv", "--base-width", "--model-seed", "--lr",
        "--steps", "--batch-size", "--patch-size", "--seed", "--alpha",
        "--pos-weight", "--dice-eps", "--log-every",
    ],
    "predict": HELP + ["--checkpoint", "--tile", "--threshold", "--out"],
    "eval": HELP + ["--pred", "--truth", "--out"],
    "render": HELP + ["--pred", "--truth", "--out"],
}


def _options(parser: argparse.ArgumentParser) -> list[str]:
    return sorted(s for action in parser._actions for s in action.option_strings)


def test_public_api_is_pinned():
    assert sorted(diffnet.__all__) == sorted(PUBLIC_API)
    for name in PUBLIC_API:
        assert getattr(diffnet, name) is not None, name


def test_cli_options_are_pinned():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {None: _options(parser)}
    found.update((name, _options(p)) for name, p in sub.choices.items())
    assert found == {name: sorted(opts) for name, opts in CLI_OPTIONS.items()}
