"""End-to-end subcommand behavior: files, formats, exit codes, manifests."""

import csv
import errno
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffnet import __version__, cli
from diffnet.cli import CONFUSION_COLORS, build_parser, main, render_confusion, write_manifest
from diffnet.data import (
    BitemporalTile,
    SceneParams,
    generate_scene,
    read_mask,
    read_tile,
    write_csv,
    write_mask,
    write_tile,
)
from diffnet.errors import CheckpointFormatError, ConfigError, TileFormatError
from diffnet.losses import LossConfig
from diffnet.model import ModelConfig, init_model
from diffnet.train import (
    TrainConfig,
    checkpoint_from_model,
    load_checkpoint,
    model_from_checkpoint,
    predict,
    save_checkpoint,
)

GEN_SMALL = [
    "--channels", "2", "--height", "64", "--width", "64",
    "--scar-blobs", "2", "--confuser-blobs", "1",
]


def run_gen(tmp_path, name="tiles", count=2, seed=0, extra=()):
    out = tmp_path / name
    rc = main(
        ["gen", "--out-dir", str(out), "--count", str(count), "--seed", str(seed)]
        + GEN_SMALL + list(extra)
    )
    assert rc == 0
    return out


def run_train(tmp_path, data_dir, steps=3, extra=()):
    ckpt = tmp_path / "model.sunc"
    rc = main(
        [
            "train", "--data-dir", str(data_dir), "--out", str(ckpt),
            "--base-width", "4", "--steps", str(steps), "--batch-size", "2",
            "--patch-size", "32", "--seed", "0", "--log-every", "1",
        ] + list(extra)
    )
    assert rc == 0
    return ckpt


class TestGen:
    def test_writes_count_tiles_and_manifest(self, tmp_path):
        out = run_gen(tmp_path, count=4)
        files = sorted(p.name for p in out.glob("*.btt"))
        assert files == [f"tile_{i:05d}.btt" for i in range(4)]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "gen"
        assert manifest["args"]["count"] == 4

    def test_rerun_is_bitwise_identical(self, tmp_path):
        a = run_gen(tmp_path, "a")
        b = run_gen(tmp_path, "b")
        for fa, fb in zip(sorted(a.glob("*.btt")), sorted(b.glob("*.btt"))):
            assert fa.read_bytes() == fb.read_bytes()

    def test_generated_tiles_round_trip(self, tmp_path):
        out = run_gen(tmp_path, count=1)
        tile = read_tile(out / "tile_00000.btt")
        assert tile.channels == 2 and tile.height == 64

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DIFFNET_SEED", "7")
        rc = main(["gen", "--out-dir", str(tmp_path / "env"), "--count", "1"] + GEN_SMALL)
        assert rc == 0
        manifest = json.loads((tmp_path / "env" / "manifest.json").read_text())
        assert manifest["args"]["seed"] == 7

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DIFFNET_SEED", "7")
        out = run_gen(tmp_path, "flagged", seed=3)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["args"]["seed"] == 3

    def test_negative_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DIFFNET_SEED", "-2")
        out = tmp_path / "env"
        assert main(["gen", "--out-dir", str(out)] + GEN_SMALL) == 2
        assert "DIFFNET_SEED" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, flag", [("tile_00001.btt", "--out-dir"), ("manifest.json", "the manifest")],
        ids=["tile", "manifest"],
    )
    def test_output_onto_a_directory_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                    name, flag):
        """A directory at any tile or at the manifest: exit 3, naming flag
        and path, before any scene is generated or tile written."""
        out = tmp_path / "g"
        (out / name).mkdir(parents=True)
        ran = []
        monkeypatch.setattr(cli, "generate_scene", lambda *args, **kwargs: ran.append(1))
        assert main(["gen", "--out-dir", str(out), "--count", "3"] + GEN_SMALL) == 3
        assert f"error: {flag} {out / name} is a directory" in capsys.readouterr().err
        assert not ran
        assert [p.relative_to(out) for p in out.rglob("*")] == [Path(name)]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen", "--seed", "-1"], "--seed"),
        (["gen", "--count", "0"], "--count"),
        (["gen", "--count", "-3"], "--count"),
        (["train", "--data-dir", "tiles", "--out", "m.sunc", "--seed", "-5"], "--seed"),
        (["train", "--data-dir", "tiles", "--out", "m.sunc", "--model-seed", "-1"],
         "--model-seed"),
        (["train", "--data-dir", "tiles", "--out", "m.sunc", "--pos-weight", "abc"],
         "--pos-weight"),
        (["train", "--data-dir", "tiles", "--out", "m.sunc", "--pos-weight", "nan"],
         "--pos-weight"),
    ],
    ids=["gen-seed", "gen-count-0", "gen-count-negative", "train-seed", "train-model-seed",
         "train-pos-weight-abc", "train-pos-weight-nan"],
)
def test_out_of_range_seed_or_count_is_usage_error(tmp_path, monkeypatch, capsys, argv, flag):
    """A value that would be a traceback (PCG64's, or ``float``'s for a
    ``--pos-weight``), a non-finite loss or an empty run exits 2 and names
    its flag, before anything is written."""
    monkeypatch.chdir(tmp_path)
    if argv[0] == "gen":
        argv = argv + ["--out-dir", "tiles"]
    assert main(argv) == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


NON_FINITE = [
    (lambda v: TrainConfig(lr=v), ["train", "--lr"]),
    (lambda v: TrainConfig(adam_eps=v), None),
    (lambda v: LossConfig(dice_eps=v), ["train", "--dice-eps"]),
    (lambda v: LossConfig(pos_weight=v), ["train", "--pos-weight"]),
    (lambda v: SceneParams(burn_offset_scale=v), ["gen", "--burn-offset-scale"]),
    (lambda v: SceneParams(seasonal_drift_scale=v), ["gen", "--seasonal-drift-scale"]),
    (lambda v: SceneParams(noise_sigma=v), ["gen", "--noise-sigma"]),
]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "make, flag", NON_FINITE,
    ids=["lr", "adam_eps", "dice_eps", "pos_weight", "burn_offset_scale",
         "seasonal_drift_scale", "noise_sigma"],
)
def test_non_finite_setting_is_usage_error(tmp_path, make, flag, value):
    """Every comparison with NaN is false, so each range check is written
    to pass only a finite value in range; the CLI exits 2 and writes nothing."""
    with pytest.raises(ConfigError):
        make(float(value))
    if flag is None:
        return
    if flag[0] == "gen":
        argv = flag + [value, "--out-dir", str(tmp_path / "out")] + GEN_SMALL
    else:
        data = run_gen(tmp_path, count=1)
        argv = flag + [value, "--data-dir", str(data), "--out", str(tmp_path / "m.sunc"),
                       "--base-width", "4", "--steps", "1", "--patch-size", "32"]
    assert main(argv) == 2
    assert not (tmp_path / "out").exists() and not list(tmp_path.glob("m.sunc*"))


class TestTrain:
    def test_success_writes_checkpoint_log_manifest(self, tmp_path):
        data = run_gen(tmp_path)
        ckpt = run_train(tmp_path, data)
        assert ckpt.exists()
        log = ckpt.parent / (ckpt.name + ".log.csv")
        assert log.read_text().splitlines()[0] == "step,loss,bce,dice,burn_frac"
        assert (ckpt.parent / (ckpt.name + ".manifest.json")).exists()

    def test_log_csv_directory_is_made(self, tmp_path):
        data = run_gen(tmp_path, count=1)
        log_csv = tmp_path / "logs" / "run.csv"
        ckpt = run_train(tmp_path, data, steps=1, extra=["--log-csv", str(log_csv)])
        assert log_csv.read_text().splitlines()[0] == "step,loss,bce,dice,burn_frac"
        manifest = json.loads(Path(f"{ckpt}.manifest.json").read_text())
        assert manifest["outputs"] == [str(ckpt), str(log_csv)]

    def test_settings_are_checked_before_tiles_are_read(self, tmp_path, capsys):
        data = run_gen(tmp_path, count=1)
        (data / "tile_00000.btt").write_bytes(b"garbage")
        rc = main(["train", "--data-dir", str(data), "--out", str(tmp_path / "m.sunc"),
                   "--lr", "nan"])
        assert rc == 2
        assert "error: lr and adam_eps must be positive" in capsys.readouterr().err
        assert not list(tmp_path.glob("m.sunc*"))

    def test_no_tiles_is_usage_error_naming_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["train", "--data-dir", str(empty), "--out", str(tmp_path / "m.sunc")])
        assert rc == 2
        assert str(empty) in capsys.readouterr().err

    def test_rerun_identical_log(self, tmp_path):
        data = run_gen(tmp_path)
        a = run_train(tmp_path, data)
        log_a = (a.parent / (a.name + ".log.csv")).read_bytes()
        b = tmp_path / "second.sunc"
        rc = main(
            [
                "train", "--data-dir", str(data), "--out", str(b),
                "--base-width", "4", "--steps", "3", "--batch-size", "2",
                "--patch-size", "32", "--seed", "0", "--log-every", "1",
            ]
        )
        assert rc == 0
        assert (b.parent / (b.name + ".log.csv")).read_bytes() == log_a

    def test_corrupt_tile_is_data_error(self, tmp_path):
        data = run_gen(tmp_path)
        victim = next(iter(data.glob("*.btt")))
        victim.write_bytes(b"garbage")
        rc = main(["train", "--data-dir", str(data), "--out", str(tmp_path / "m.sunc")])
        assert rc == 3

    def test_non_finite_inputs_exit_4(self, tmp_path, capsys):
        data = run_gen(tmp_path, count=1)
        tile_path = data / "tile_00000.btt"
        tile = read_tile(tile_path)
        tile.pre[:] = np.nan
        from diffnet.data import write_tile

        write_tile(tile, tile_path)
        rc = main(
            ["train", "--data-dir", str(data), "--out", str(tmp_path / "m.sunc"),
             "--base-width", "4", "--steps", "2", "--batch-size", "1",
             "--patch-size", "32", "--seed", "0"]
        )
        assert rc == 4
        assert "non-finite loss at step 1" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["0", "-32"])
    def test_non_positive_patch_size_is_usage_error(self, tmp_path, capsys, size):
        data = run_gen(tmp_path, count=1)
        out = tmp_path / "m.sunc"
        rc = main(["train", "--data-dir", str(data), "--out", str(out), "--base-width", "4",
                   "--steps", "1", "--patch-size", size])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"patch_size must be a positive multiple of 32, got {size}" in err
        assert not out.exists()

    def test_numeric_pos_weight_is_recorded_as_given(self):
        args = build_parser().parse_args(["train", "--data-dir", "d", "--out", "m.sunc",
                                          "--pos-weight", "2.5"])
        assert args.pos_weight == "2.5"

    def test_mixed_channel_counts_is_data_error(self, tmp_path, capsys):
        data = run_gen(tmp_path, count=2)
        other = tmp_path / "other"
        assert main(["gen", "--out-dir", str(other), "--count", "1", "--channels", "3",
                     "--height", "64", "--width", "64"]) == 0
        (other / "tile_00000.btt").rename(data / "tile_00009.btt")
        out = tmp_path / "m.sunc"
        rc = main(["train", "--data-dir", str(data), "--out", str(out), "--base-width", "4",
                   "--steps", "1", "--patch-size", "32"])
        assert rc == 3
        assert "tile 2 has 3 channels, model expects 2" in capsys.readouterr().err
        assert not out.exists()


TRAIN_SMALL = ["--base-width", "4", "--steps", "1", "--patch-size", "32"]


class TestOutputDirectories:
    """Every output is written through ``data.write_atomic``, which makes
    the output's missing directories; a command that fails before it
    writes makes none."""

    @pytest.fixture
    def paths(self, tmp_path):
        data = run_gen(tmp_path, count=1)
        tile = data / "tile_00000.btt"
        pred = tmp_path / "p.btm"
        write_mask(read_tile(tile).mask, pred)
        ckpt = tmp_path / "m.sunc"
        save_checkpoint(checkpoint_from_model(init_model(ModelConfig(2, 4), 0)), ckpt)
        return {"data": data, "tile": tile, "pred": pred, "ckpt": ckpt, "new": tmp_path / "new"}

    @pytest.mark.parametrize(
        "argv, outputs",
        [
            (["gen", "--out-dir", "{new}/a/b", "--count", "2"] + GEN_SMALL,
             ["a/b/tile_00000.btt", "a/b/tile_00001.btt", "a/b/manifest.json"]),
            (["train", "--data-dir", "{data}", "--out", "{new}/a/m.sunc",
              "--log-csv", "{new}/logs/run.csv"] + TRAIN_SMALL,
             ["a/m.sunc", "logs/run.csv", "a/m.sunc.manifest.json"]),
            (["predict", "--checkpoint", "{ckpt}", "--tile", "{tile}", "--out", "{new}/a/p.btm"],
             ["a/p.btm", "a/p.btm.manifest.json"]),
            (["eval", "--pred", "{pred}", "--truth", "{tile}", "--out", "{new}/a/m.csv"],
             ["a/m.csv", "a/m.csv.manifest.json"]),
            (["render", "--pred", "{pred}", "--truth", "{tile}", "--out", "{new}/a/o.ppm"],
             ["a/o.ppm", "a/o.ppm.manifest.json"]),
        ],
        ids=["gen", "train", "predict", "eval", "render"],
    )
    def test_subcommand_makes_missing_directories(self, paths, argv, outputs):
        assert main([a.format(**paths) for a in argv]) == 0
        new = paths["new"]
        assert sorted(str(p.relative_to(new)) for p in new.rglob("*") if p.is_file()) == sorted(outputs)

    def test_api_writers_make_missing_directories(self, tmp_path):
        tile = generate_scene(SceneParams(channels=2, size=(16, 16)), seed=0)
        ckpt = checkpoint_from_model(init_model(ModelConfig(2, 4), 0))
        root = tmp_path / "x"
        write_tile(tile, root / "t" / "s.btt")
        write_mask(tile.mask, root / "m" / "s.btm")
        save_checkpoint(ckpt, root / "c" / "m.sunc")
        write_csv(root / "csv" / "r.csv", [["a", "b"], [1, "x,y"]])
        assert np.array_equal(read_tile(root / "t" / "s.btt").post, tile.post)
        assert np.array_equal(read_mask(root / "m" / "s.btm"), tile.mask)
        assert load_checkpoint(root / "c" / "m.sunc").params.keys() == ckpt.params.keys()
        assert (root / "csv" / "r.csv").read_bytes() == b'a,b\r\n1,"x,y"\r\n'
        assert not list(root.rglob("*.tmp"))

    def test_bare_output_names_write_to_the_working_directory(self, paths, monkeypatch):
        work = paths["new"]
        work.mkdir()
        monkeypatch.chdir(work)
        site = ["--pred", str(paths["pred"]), "--truth", str(paths["tile"])]
        for argv in (
            ["train", "--data-dir", str(paths["data"]), "--out", "m.sunc"] + TRAIN_SMALL,
            ["predict", "--checkpoint", str(paths["ckpt"]), "--tile", str(paths["tile"]),
             "--out", "p.btm"],
            ["eval", *site, "--out", "m.csv"],
            ["render", *site, "--out", "o.ppm"],
        ):
            assert main(argv) == 0, argv[0]
        write_csv("r.csv", [["a"]])
        assert sorted(p.name for p in work.iterdir()) == [
            "m.csv", "m.csv.manifest.json", "m.sunc", "m.sunc.log.csv",
            "m.sunc.manifest.json", "o.ppm", "o.ppm.manifest.json", "p.btm",
            "p.btm.manifest.json", "r.csv",
        ]
        manifest = json.loads(Path("m.sunc.manifest.json").read_text())
        assert manifest["outputs"] == ["m.sunc", "m.sunc.log.csv"]

    @pytest.mark.parametrize(
        "argv, rc",
        [
            (["predict", "--checkpoint", "{ckpt}", "--tile", "{bad}", "--out", "{new}/p.btm"], 3),
            (["predict", "--checkpoint", "{ckpt}", "--tile", "{tile}", "--threshold", "1.5",
              "--out", "{new}/p.btm"], 2),
            (["train", "--data-dir", "{bad_dir}", "--out", "{new}/m.sunc"] + TRAIN_SMALL, 3),
            (["gen", "--out-dir", "{new}/a", "--burn-fraction", "1.5"] + GEN_SMALL, 2),
            (["eval", "--pred", "{bad}", "--truth", "{tile}", "--out", "{new}/m.csv"], 3),
            (["render", "--pred", "{pred}", "--truth", "{bad}", "--out", "{new}/o.ppm"], 3),
        ],
        ids=["predict-bad-tile", "predict-threshold", "train-bad-tile", "gen-bad-params",
             "eval-bad-pred", "render-bad-truth"],
    )
    def test_failure_before_writing_makes_no_directory(self, paths, tmp_path, argv, rc):
        bad_dir = tmp_path / "bad"
        bad_dir.mkdir()
        (bad_dir / "tile_00000.btt").write_bytes(b"garbage")
        paths = {**paths, "bad": bad_dir / "tile_00000.btt", "bad_dir": bad_dir}
        assert main([a.format(**paths) for a in argv]) == rc
        assert not paths["new"].exists()


class TestPredict:
    def test_mask_file_format_and_values(self, tmp_path):
        data = run_gen(tmp_path)
        ckpt = run_train(tmp_path, data)
        out = tmp_path / "pred.btm"
        rc = main(
            ["predict", "--checkpoint", str(ckpt), "--tile",
             str(data / "tile_00000.btt"), "--out", str(out)]
        )
        assert rc == 0
        blob = out.read_bytes()
        assert blob[:4] == b"BTM1"
        h, w = struct.unpack_from("<II", blob, 4)
        assert (h, w) == (64, 64)
        assert len(blob) == 12 + h * w
        assert set(np.unique(read_mask(out))) <= {0, 1, 255}

    def test_matches_in_process_predict_bitwise(self, tmp_path):
        data = run_gen(tmp_path)
        ckpt_path = run_train(tmp_path, data)
        out = tmp_path / "pred.btm"
        main(["predict", "--checkpoint", str(ckpt_path), "--tile",
              str(data / "tile_00001.btt"), "--out", str(out)])
        model = model_from_checkpoint(load_checkpoint(ckpt_path))
        expected = predict(model, read_tile(data / "tile_00001.btt"), threshold=0.5)
        assert np.array_equal(read_mask(out), expected)

    def test_channel_mismatch_names_both_counts(self, tmp_path, capsys):
        data = run_gen(tmp_path)
        ckpt = run_train(tmp_path, data)
        other = tmp_path / "other"
        main(["gen", "--out-dir", str(other), "--count", "1", "--seed", "0",
              "--channels", "3", "--height", "64", "--width", "64"])
        rc = main(["predict", "--checkpoint", str(ckpt), "--tile",
                   str(other / "tile_00000.btt"), "--out", str(tmp_path / "p.btm")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "3" in err and "2" in err

    def test_overflow_on_the_worker_thread_is_a_numeric_failure(self, tmp_path, capsys):
        """A 128x128 tile splits enc1's conv2d at row 64, and its finite
        but huge values lie in rows 96-127, which only the worker thread
        reads: the caller's float traps hold there too.  Warnings are
        errors here, so a worker without them fails with a RuntimeWarning."""
        model = init_model(ModelConfig(in_channels=2, base_width=4), seed=0)
        pre = np.random.default_rng(0).standard_normal((2, 128, 128)).astype(np.float32)
        pre[:, 96:] = 3e38
        tile = BitemporalTile(pre, np.zeros_like(pre), np.zeros((128, 128), np.uint8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="overflow"):
                predict(model, tile)
            save_checkpoint(checkpoint_from_model(model), tmp_path / "m.sunc")
            write_tile(tile, tmp_path / "t.btt")
            assert predict_rc(tmp_path / "m.sunc", tmp_path / "t.btt", tmp_path) == 4
        assert "overflow" in capsys.readouterr().err
        assert not (tmp_path / "p.btm").exists()


class TestEval:
    def test_identity_predictions_score_one(self, tmp_path):
        data = run_gen(tmp_path)
        preds = []
        for i, tile_path in enumerate(sorted(data.glob("*.btt"))):
            mask = read_tile(tile_path).mask
            p = tmp_path / f"site{i}.btm"
            write_mask(mask, p)
            preds.append(str(p))
        truths = [str(p) for p in sorted(data.glob("*.btt"))]
        out = tmp_path / "metrics.csv"
        rc = main(["eval", "--pred", *preds, "--truth", *truths, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "site,accuracy,precision,recall,f1,iou,dice"
        assert lines[1].startswith("site0,1.000000,1.000000")
        assert lines[-2].split(",")[0] == "mean"
        assert lines[-1].split(",")[0] == "std"

    def test_single_site_mean_equals_row(self, tmp_path):
        data = run_gen(tmp_path, count=1)
        tile_path = next(iter(data.glob("*.btt")))
        mask = read_tile(tile_path).mask
        flipped = mask.copy()
        flipped[:8] = 1 - np.minimum(flipped[:8], 1)
        p = tmp_path / "s.btm"
        write_mask(flipped, p)
        out = tmp_path / "m.csv"
        rc = main(["eval", "--pred", str(p), "--truth", str(tile_path), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[1:] == lines[2].split(",")[1:]

    def test_site_with_comma_is_quoted(self, tmp_path):
        data = run_gen(tmp_path, count=1)
        tile_path = next(iter(data.glob("*.btt")))
        p = tmp_path / "s,ite.btm"
        write_mask(read_tile(tile_path).mask, p)
        out = tmp_path / "m.csv"
        rc = main(["eval", "--pred", str(p), "--truth", str(tile_path), "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert [len(r) for r in rows] == [7] * 4
        assert rows[1][0] == "s,ite"

    def test_count_mismatch_is_usage_error(self, tmp_path):
        data = run_gen(tmp_path)
        truths = [str(p) for p in sorted(data.glob("*.btt"))]
        rc = main(["eval", "--pred", truths[0], "--truth", *truths,
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 2

    def test_site_without_valid_pixel_is_named(self, tmp_path, capsys):
        tile = run_gen(tmp_path, count=1) / "tile_00000.btt"
        good, empty = tmp_path / "b.btm", tmp_path / "a.btm"
        write_mask(read_tile(tile).mask, good)
        write_mask(np.full((64, 64), 255, np.uint8), empty)
        out = tmp_path / "m.csv"
        rc = main(["eval", "--pred", str(good), str(empty), "--truth", str(tile), str(empty),
                   "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"error: --pred {empty} --truth {empty}: " in err
        assert "at least one valid pixel" in err
        assert not out.exists()

    def test_published_table_count_fixtures_reproduce_mean_f1(self, tmp_path):
        """Mask pairs engineered to the published per-site precision/recall
        must aggregate to the published mean F1 of 0.735 within 0.001."""
        from table_fixtures import EMSR_TABLE

        preds, truths = [], []
        for site, _acc, p, r, _f1, _iou, _dice in EMSR_TABLE:
            tp = 10000
            fp = round(tp * (1.0 / p - 1.0))
            fn = round(tp * (1.0 / r - 1.0))
            width = 256
            total = -(-(tp + fp + fn) // width) * width  # pad with TN pixels
            pred = np.zeros(total, np.uint8)
            truth = np.zeros(total, np.uint8)
            pred[: tp + fp] = 1
            truth[:tp] = 1
            truth[tp + fp : tp + fp + fn] = 1
            pred_path = tmp_path / f"{site}.btm"
            truth_path = tmp_path / f"{site}_truth.btm"
            write_mask(pred.reshape(-1, width), pred_path)
            write_mask(truth.reshape(-1, width), truth_path)
            preds.append(str(pred_path))
            truths.append(str(truth_path))

        out = tmp_path / "table.csv"
        rc = main(["eval", "--pred", *preds, "--truth", *truths, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 17 + 2
        mean_row = dict(zip(lines[0].split(","), lines[-2].split(",")))
        assert mean_row["site"] == "mean"
        assert abs(float(mean_row["f1"]) - 0.735) <= 0.001

    def test_inputs_not_mutated(self, tmp_path):
        data = run_gen(tmp_path)
        before = {p.name: p.read_bytes() for p in data.glob("*.btt")}
        ckpt = run_train(tmp_path, data)
        pred = tmp_path / "p.btm"
        main(["predict", "--checkpoint", str(ckpt), "--tile",
              str(data / "tile_00000.btt"), "--out", str(pred)])
        main(["eval", "--pred", str(pred), "--truth",
              str(data / "tile_00000.btt"), "--out", str(tmp_path / "m.csv")])
        after = {p.name: p.read_bytes() for p in data.glob("*.btt")}
        assert before == after


def assert_render_matches_reference(pred, truth, out):
    """render_confusion's bytes equal an overlay painted class by class."""
    h, w = truth.shape
    img = np.zeros((h, w, 3), np.uint8)
    valid = (truth != 255) & (pred != 255)
    pp, tt = pred == 1, truth == 1
    img[valid & pp & tt] = CONFUSION_COLORS["tp"]
    img[valid & ~pp & ~tt] = CONFUSION_COLORS["tn"]
    img[valid & pp & ~tt] = CONFUSION_COLORS["fp"]
    img[valid & ~pp & tt] = CONFUSION_COLORS["fn"]
    img[~valid] = CONFUSION_COLORS["nodata"]
    render_confusion(pred, truth, out)
    assert out.read_bytes() == f"P6\n{w} {h}\n255\n".encode() + img.tobytes()


class TestRender:
    def test_two_by_two_colors(self, tmp_path):
        pred = np.array([[1, 0], [1, 0]], np.uint8)
        truth = np.array([[1, 1], [0, 0]], np.uint8)
        out = tmp_path / "o.ppm"
        render_confusion(pred, truth, out)
        blob = out.read_bytes()
        assert blob.startswith(b"P6\n2 2\n255\n")
        pixels = blob[len(b"P6\n2 2\n255\n"):]
        # row-major: TP white, FN blue, FP red, TN black
        assert pixels == bytes([255, 255, 255, 0, 0, 255, 255, 0, 0, 0, 0, 0])

    def test_identity_only_black_and_white(self, tmp_path):
        g = np.random.default_rng(0)
        mask = (g.uniform(size=(8, 8)) < 0.4).astype(np.uint8)
        out = tmp_path / "o.ppm"
        render_confusion(mask, mask, out)
        img = np.frombuffer(out.read_bytes()[len(b"P6\n8 8\n255\n"):], np.uint8)
        assert set(np.unique(img)) <= {0, 255}

    def test_header_format(self, tmp_path):
        pred = np.zeros((3, 5), np.uint8)
        out = tmp_path / "o.ppm"
        render_confusion(pred, pred, out)
        blob = out.read_bytes()
        assert blob[:3] == b"P6\n"
        assert blob[3:].startswith(b"5 3\n255\n")
        assert len(blob) == len(b"P6\n5 3\n255\n") + 3 * 15

    def test_cli_render_subcommand(self, tmp_path):
        data = run_gen(tmp_path, count=1)
        tile_path = next(iter(data.glob("*.btt")))
        mask = read_tile(tile_path).mask
        p = tmp_path / "pred.btm"
        write_mask(mask, p)
        out = tmp_path / "overlay.ppm"
        rc = main(["render", "--pred", str(p), "--truth", str(tile_path), "--out", str(out)])
        assert rc == 0
        assert out.read_bytes().startswith(b"P6\n64 64\n255\n")

    def test_dim_mismatch_is_data_error(self, tmp_path):
        a = tmp_path / "a.btm"
        b = tmp_path / "b.btm"
        write_mask(np.zeros((4, 4), np.uint8), a)
        write_mask(np.zeros((8, 8), np.uint8), b)
        rc = main(["render", "--pred", str(a), "--truth", str(b),
                   "--out", str(tmp_path / "o.ppm")])
        assert rc == 3

    def test_all_nine_value_pairs_match_reference(self, tmp_path):
        values = np.array([0, 1, 255], np.uint8)
        pred, truth = (a.reshape(3, 3) for a in np.meshgrid(values, values, indexing="ij"))
        assert_render_matches_reference(pred, truth, tmp_path / "o.ppm")

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_random_masks_match_reference(self, tmp_path_factory, data):
        h, w = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        pixel = st.sampled_from([0, 1, 255])
        pred, truth = (
            np.array(data.draw(st.lists(pixel, min_size=h * w, max_size=h * w)),
                     np.uint8).reshape(h, w)
            for _ in range(2)
        )
        assert_render_matches_reference(pred, truth, tmp_path_factory.getbasetemp() / "o.ppm")


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--checkpoint", "{ckpt}", "--tile", "{tile}", "--out", "{tile}"],
        ["predict", "--checkpoint", "{ckpt}", "--tile", "{tile}", "--out", "{ckpt}"],
        ["eval", "--pred", "{pred}", "--truth", "{tile}", "--out", "{pred}"],
        ["render", "--pred", "{pred}", "--truth", "{tile}", "--out", "{tile_alias}"],
        ["train", "--data-dir", "{data}", "--steps", "1", "--out", "{tile}"],
        ["train", "--data-dir", "{data}", "--steps", "1", "--out", "{ckpt}", "--log-csv", "{tile}"],
        ["train", "--data-dir", "{data}", "--steps", "1", "--out", "{ckpt}", "--log-csv", "{ckpt}"],
    ],
    ids=["predict-tile", "predict-ckpt", "eval", "render", "train-out", "train-log", "train-same"],
)
def test_output_onto_an_input_is_usage_error(tmp_path, capsys, argv):
    """The last flag names a file that the command would overwrite: exit 2,
    naming flag and path, before any file is read or written."""
    data = run_gen(tmp_path, count=1)
    tile = data / "tile_00000.btt"
    paths = {
        "data": data,
        "tile": tile,
        "tile_alias": data / ".." / data.name / tile.name,
        "ckpt": tmp_path / "m.sunc",
        "pred": tmp_path / "p.btm",
    }
    model = init_model(ModelConfig(in_channels=2, base_width=4), 0)
    save_checkpoint(checkpoint_from_model(model), paths["ckpt"])
    write_mask(read_tile(tile).mask, paths["pred"])
    argv = [a.format(**paths) for a in argv]
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert main(argv) == 2
    assert f"error: {argv[-2]} {argv[-1]} is also " in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize(
    "argv, message",
    [
        (["predict", "--checkpoint", "{ckpt}", "--tile", "{site}.manifest.json", "--out", "{site}"],
         "the manifest {site}.manifest.json is also an input"),
        (["train", "--data-dir", "{data}", "--steps", "1", "--out", "{ckpt}",
          "--log-csv", "{ckpt}.manifest.json"],
         "the manifest {ckpt}.manifest.json is also the --log-csv path"),
    ],
    ids=["predict-tile", "train-log"],
)
def test_manifest_onto_an_input_or_output_is_usage_error(tmp_path, capsys, argv, message):
    """The manifest goes to ``<first output>.manifest.json``; when that
    names an input or another output: exit 2, before any file is read or
    written."""
    data = run_gen(tmp_path, count=1)
    paths = {"data": data, "site": tmp_path / "site", "ckpt": tmp_path / "m.sunc"}
    (tmp_path / "site.manifest.json").write_bytes((data / "tile_00000.btt").read_bytes())
    model = init_model(ModelConfig(in_channels=2, base_width=4), 0)
    save_checkpoint(checkpoint_from_model(model), paths["ckpt"])
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert main([a.format(**paths) for a in argv]) == 2
    assert f"error: {message.format(**paths)}" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize(
    "argv, dirs",
    [
        (["predict", "--checkpoint", "{ckpt}", "--tile", "{site}.tmp", "--out", "{site}"], ()),
        (["predict", "--checkpoint", "{ckpt}", "--tile", "{site}.manifest.json.tmp",
          "--out", "{site}"], ()),
        (["train", "--data-dir", "{data}", "--steps", "1", "--out", "{new}.tmp",
          "--log-csv", "{new}"], ()),
        (["train", "--data-dir", "{data}", "--steps", "1", "--out", "{new}",
          "--log-csv", "{new}.tmp"], ()),
        (["predict", "--checkpoint", "{ckpt}", "--tile", "{tile}", "--out", "{site}"],
         ("site.tmp", "site.manifest.json.tmp")),
        (["predict", "--checkpoint", "{ckpt}", "--tile", "{tile}", "--out", "{site}"],
         ("site.manifest.json.tmp",)),
    ],
    ids=["predict-tile-temp", "predict-tile-manifest-temp", "train-log-temp", "train-out-temp",
         "predict-temp-dirs", "predict-manifest-temp-dir"],
)
def test_temp_files_never_replace_a_file(tmp_path, argv, dirs):
    """Each output and the manifest are written through a fresh temp name,
    so files and directories at ``<path>.tmp``, the run's inputs included,
    are left as they were and the run succeeds."""
    data = run_gen(tmp_path, count=1)
    paths = {"data": data, "tile": data / "tile_00000.btt", "site": tmp_path / "site",
             "ckpt": tmp_path / "m.sunc", "new": tmp_path / "new"}
    for name in ("site.tmp", "site.manifest.json.tmp"):
        if name in dirs:
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_bytes(paths["tile"].read_bytes())
    model = init_model(ModelConfig(in_channels=2, base_width=4), 0)
    save_checkpoint(checkpoint_from_model(model), paths["ckpt"])
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    argv = [a.format(**paths) for a in argv]
    assert main(argv) == 0
    manifest = Path(argv[argv.index("--out") + 1] + ".manifest.json")
    declared = {manifest, *map(Path, json.loads(manifest.read_text())["outputs"])}
    assert all(p.read_bytes() == old for p, old in before.items() if p not in declared)
    assert all((tmp_path / name).is_dir() for name in dirs)
    assert set(tmp_path.rglob("*.tmp")) <= {tmp_path / "site.tmp",
                                            tmp_path / "site.manifest.json.tmp", *declared}


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--checkpoint", "{ckpt}", "--tile", "{tile}", "--out", "{out}"],
        ["train", "--data-dir", "{data}", "--steps", "1", "--out", "{out}"],
        ["train", "--data-dir", "{data}", "--steps", "1", "--out", "{ckpt}", "--log-csv", "{out}"],
        ["eval", "--pred", "{pred}", "--truth", "{tile}", "--out", "{out}"],
        ["render", "--pred", "{pred}", "--truth", "{tile}", "--out", "{out}"],
    ],
    ids=["predict", "train", "train-log", "eval", "render"],
)
def test_output_onto_a_directory_leaves_no_temp_file(tmp_path, capsys, monkeypatch, argv):
    """The last flag names a directory: exit 3, naming flag and path,
    before ``train()`` or ``predict()`` runs, and no temp file is left."""
    data = run_gen(tmp_path, count=1)
    paths = {
        "data": data,
        "tile": data / "tile_00000.btt",
        "ckpt": tmp_path / "m.sunc",
        "pred": tmp_path / "p.btm",
        "out": tmp_path / "out",
    }
    paths["out"].mkdir()
    model = init_model(ModelConfig(in_channels=2, base_width=4), 0)
    save_checkpoint(checkpoint_from_model(model), paths["ckpt"])
    write_mask(read_tile(paths["tile"]).mask, paths["pred"])
    ran = []
    monkeypatch.setattr(cli, "train", lambda *args: ran.append("train"))
    monkeypatch.setattr(cli, "predict", lambda *args, **kwargs: ran.append("predict"))
    argv = [a.format(**paths) for a in argv]
    assert main(argv) == 3
    assert f"error: {argv[-2]} {argv[-1]} is a directory" in capsys.readouterr().err
    assert not ran
    assert not list(tmp_path.rglob("*.tmp")) and not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize(
    "argv, target",
    [
        (["eval", "--pred", "{pred}", "--truth", "{tile}", "--out", "{dir}/e.csv"], "e.csv"),
        (["eval", "--pred", "{pred}", "--truth", "{tile}", "--out", "{dir}/e.csv"],
         "e.csv.manifest.json"),
        (["render", "--pred", "{pred}", "--truth", "{tile}", "--out", "{dir}/o.ppm"], "o.ppm"),
        (["train", "--data-dir", "{data}", "--out", "{dir}/m.sunc", "--base-width", "4",
          "--steps", "1", "--patch-size", "32"], "m.sunc.log.csv"),
    ],
    ids=["eval", "manifest", "render", "train-log"],
)
def test_a_failed_write_keeps_the_old_file(tmp_path, monkeypatch, argv, target):
    """Every output is written to a temp file and renamed over the old one:
    when the rename fails, the old file is left whole and the temp file is
    removed."""
    data = run_gen(tmp_path, count=1)
    paths = {"data": data, "tile": data / "tile_00000.btt", "pred": tmp_path / "p.btm",
             "dir": tmp_path}
    write_mask(read_tile(paths["tile"]).mask, paths["pred"])
    old = tmp_path / target
    old.write_bytes(b"old")
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst) == old:
            raise OSError(errno.ENOSPC, "No space left on device")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert main([a.format(**paths) for a in argv]) == 3
    assert old.read_bytes() == b"old"
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--out-dir", "{out}"],
        ["predict", "--checkpoint", "{ckpt}", "--tile", "{tile}", "--out", "{out}/p.btm"],
    ],
    ids=["gen", "predict"],
)
def test_out_of_memory_is_a_data_error(tmp_path, capsys, monkeypatch, argv):
    """A MemoryError, as numpy raises for an array too large to allocate,
    is exit 3 with its message, not a traceback, and writes nothing."""
    data = run_gen(tmp_path, count=1)
    paths = {"tile": data / "tile_00000.btt", "ckpt": tmp_path / "m.sunc",
             "out": tmp_path / "out"}
    model = init_model(ModelConfig(in_channels=2, base_width=4), 0)
    save_checkpoint(checkpoint_from_model(model), paths["ckpt"])

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "generate_scene", exhausted)
    monkeypatch.setattr(cli, "predict", exhausted)
    assert main([a.format(**paths) for a in argv]) == 3
    assert "error: Unable to allocate 7.28 TiB" in capsys.readouterr().err
    assert not paths["out"].exists()


class TestUsage:
    def test_unknown_subcommand_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_exits_2(self):
        assert main(["gen"]) == 2

    def test_manifests_written_for_every_subcommand(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DIFFNET_SEED", "5")
        data = tmp_path / "tiles"
        assert main(["gen", "--out-dir", str(data), "--count", "2"] + GEN_SMALL) == 0
        ckpt = tmp_path / "model.sunc"
        assert main(["train", "--data-dir", str(data), "--out", str(ckpt),
                     "--base-width", "4", "--steps", "2", "--batch-size", "2",
                     "--patch-size", "32"]) == 0
        tile = str(data / "tile_00000.btt")
        pred = tmp_path / "p.btm"
        assert main(["predict", "--checkpoint", str(ckpt), "--tile", tile,
                     "--out", str(pred)]) == 0
        csv_out = tmp_path / "m.csv"
        assert main(["eval", "--pred", str(pred), "--truth", tile,
                     "--out", str(csv_out)]) == 0
        ppm = tmp_path / "o.ppm"
        assert main(["render", "--pred", str(pred), "--truth", tile,
                     "--out", str(ppm)]) == 0
        expected = {
            data / "manifest.json": ("gen", {
                "out-dir": str(data), "count": 2, "seed": 5, "channels": 2,
                "height": 64, "width": 64, "burn-fraction": 0.15, "scar-blobs": 2,
                "burn-offset-scale": 1.0, "seasonal-drift-scale": 0.3,
                "confuser-blobs": 1, "noise-sigma": 0.05,
            }),
            tmp_path / "model.sunc.manifest.json": ("train", {
                "data-dir": str(data), "out": str(ckpt), "log-csv": f"{ckpt}.log.csv",
                "base-width": 4, "model-seed": 0, "lr": 0.001, "steps": 2,
                "batch-size": 2, "patch-size": 32, "seed": 5, "alpha": 0.5,
                "pos-weight": "auto", "dice-eps": 1.0, "log-every": 10,
            }),
            tmp_path / "p.btm.manifest.json": ("predict", {
                "checkpoint": str(ckpt), "tile": tile, "threshold": 0.5,
                "out": str(pred),
            }),
            tmp_path / "m.csv.manifest.json": ("eval", {
                "pred": [str(pred)], "truth": [tile], "out": str(csv_out),
            }),
            tmp_path / "o.ppm.manifest.json": ("render", {
                "pred": str(pred), "truth": tile, "out": str(ppm),
            }),
        }
        for artifact, (subcommand, args) in expected.items():
            doc = json.loads(artifact.read_text())
            assert doc["subcommand"] == subcommand
            assert doc["tool_version"]
            assert doc["args"] == args


    def test_manifest_of_required_flags_records_dataclass_defaults(self, tmp_path):
        """Flag defaults come from the dataclasses that hold them."""
        scene, cfg, loss = SceneParams(), TrainConfig(), LossConfig()
        defaults = {
            "gen": {
                "channels": scene.channels, "height": scene.size[0], "width": scene.size[1],
                "burn-fraction": scene.burn_fraction_target, "scar-blobs": scene.n_scar_blobs,
                "burn-offset-scale": scene.burn_offset_scale,
                "seasonal-drift-scale": scene.seasonal_drift_scale,
                "confuser-blobs": scene.confuser_blobs, "noise-sigma": scene.noise_sigma,
            },
            "train": {
                "base-width": ModelConfig().base_width, "lr": cfg.lr, "steps": cfg.steps,
                "batch-size": cfg.batch_size, "patch-size": cfg.patch_size,
                "alpha": loss.alpha, "pos-weight": "auto", "dice-eps": loss.dice_eps,
                "log-every": cfg.log_every,
            },
        }
        for argv in (["gen", "--out-dir", "tiles"], ["train", "--data-dir", "d", "--out", "m"]):
            out = tmp_path / argv[0]
            write_manifest(build_parser().parse_args(argv), [], [out], f"{out}.manifest.json")
            recorded = json.loads(Path(f"{out}.manifest.json").read_text())["args"]
            for flag, value in defaults[argv[0]].items():
                assert recorded[flag] == value and type(recorded[flag]) is type(value), flag


def blas_threads_in_child(script: str, **env) -> list[int]:
    """The numbers a child running ``script`` prints, with the BLAS thread
    variables unset but for ``env``."""
    env = {k: v for k, v in os.environ.items() if k not in cli._BLAS_THREAD_VARS} | env
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return [int(n) for n in out.stdout.split()]


@pytest.mark.skipif(
    cli._openblas("get_num_threads") is None or len(os.sched_getaffinity(0)) < 2,
    reason="numpy bundles no OpenBLAS, or OpenBLAS would take one thread anyway",
)
class TestEntrypoint:
    """The ``diffnet`` command runs OpenBLAS on one thread on up to 2 usable
    CPUs, so that its threads leave the second CPU to the split forward
    kernels.  The child sees ``cpus`` usable CPUs and prints the thread
    count before ``entrypoint`` and inside ``main``."""

    @staticmethod
    def stub(cpus: int = 2) -> str:
        return (
            "import os\n"
            f"os.sched_getaffinity = lambda pid: set(range({cpus}))\n"
            "from diffnet import cli\n"
            "get = cli._openblas('get_num_threads')\n"
            "print(get())\n"
            "cli.main = lambda: print(get()) or 0\n"
            "cli.entrypoint()\n"
        )

    def test_sets_one_thread(self):
        before, inside = blas_threads_in_child(self.stub())
        assert before > 1 and inside == 1

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_keeps_the_users_thread_count(self, var):
        assert blas_threads_in_child(self.stub(), **{var: "2"}) == [2, 2]

    def test_leaves_hosts_of_more_than_two_cpus_at_the_default(self):
        """One thread was measured only on 2 CPUs."""
        before, inside = blas_threads_in_child(self.stub(cpus=3))
        assert before > 1 and inside == before

    def test_import_leaves_the_thread_count(self):
        """Read before the import without diffnet's own lookup."""
        script = (
            "import ctypes, pathlib, numpy\n"
            "libs = pathlib.Path(numpy.__file__).parents[1] / 'numpy.libs'\n"
            "lib = ctypes.CDLL(str(next(libs.glob('*openblas*.so*'))))\n"
            "get = getattr(lib, 'scipy_openblas_get_num_threads64_', None)"
            " or lib.openblas_get_num_threads\n"
            "before = get()\n"
            "import diffnet, diffnet.cli\n"
            "print(before, get())\n"
        )
        before, after = blas_threads_in_child(script)
        assert before > 1 and after == before


def test_manifest_bytes(tmp_path):
    """Two-space indent, keys sorted at every level, one trailing newline."""
    out = tmp_path / "o.ppm"
    argv = ["render", "--pred", "p.btm", "--truth", "t.btt", "--out", str(out)]
    write_manifest(build_parser().parse_args(argv), ["p.btm", "t.btt"], [out],
                   f"{out}.manifest.json")
    assert Path(f"{out}.manifest.json").read_text() == (
        '{\n  "args": {\n    "out": %s,\n    "pred": "p.btm",\n    "truth": "t.btt"\n  },\n'
        '  "inputs": [\n    "p.btm",\n    "t.btt"\n  ],\n  "outputs": [\n    %s\n  ],\n'
        '  "subcommand": "render",\n  "tool_version": "%s"\n}\n'
    ) % (json.dumps(str(out)), json.dumps(str(out)), __version__)


def predict_rc(ckpt, tile, tmp_path):
    return main(["predict", "--checkpoint", str(ckpt), "--tile", str(tile),
                 "--out", str(tmp_path / "p.btm")])


def replace_once(path, old, new):
    blob = path.read_bytes()
    assert blob.count(old) == 1
    path.write_bytes(blob.replace(old, new))


class TestMalformedInputs:
    """Each malformed file is its typed error and exit 3, never a traceback
    and never a silent load."""

    @pytest.fixture
    def site(self, tmp_path):
        data = run_gen(tmp_path, count=1)
        return data / "tile_00000.btt", run_train(tmp_path, data)

    def test_broadcastable_tensor_shape_rejected(self, site, tmp_path):
        tile, path = site
        ckpt = load_checkpoint(path)
        ckpt.params["enc1.conv.bias"] = np.zeros(1, np.float32)
        save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointFormatError, match="enc1.conv.bias"):
            model_from_checkpoint(load_checkpoint(path))
        assert predict_rc(path, tile, tmp_path) == 3

    def test_missing_running_buffer_rejected(self, site, tmp_path):
        tile, path = site
        ckpt = load_checkpoint(path)
        del ckpt.buffers["enc1.bn.running_mean"]
        save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointFormatError, match="enc1.bn.running_mean"):
            model_from_checkpoint(load_checkpoint(path))
        assert predict_rc(path, tile, tmp_path) == 3

    def test_non_integer_header_value(self, site, tmp_path, capsys):
        tile, path = site
        replace_once(path, b"step=3\n", b"step=x\n")
        assert predict_rc(path, tile, tmp_path) == 3
        assert "'step=x' is not key=integer at byte 37" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (b"step=3\n", b"step=-3", "step must be >= 0, got -3 at byte 37"),
            (b"in_channels=2\n", b"step=3\nstep=3\n", "repeated header key 'step' at byte 17"),
            (b"step=3\n", b"stop=3\n", "unknown header key 'stop' at byte 37"),
            (b"base_width=4\n", b"base_width=+4\n",
             "header line 'base_width=+4' is not key=integer at byte 24"),
            (b"step=3\n", b"step=0_0\n", "header line 'step=0_0' is not key=integer at byte 37"),
            (b"base_width=4\n", b"base_width= 4 \n",
             "header line 'base_width= 4 ' is not key=integer at byte 24"),
            (b"step=3\n", "step=\u0660\n".encode(),
             "header line 'step=\u0660' is not key=integer at byte 37"),
            (b"base_width=4\n", b"base_width=4\x0c",
             r"header line 'base_width=4\x0cstep=3' is not key=integer at byte 24"),
            (b"base_width=4\n", b"base_width=4\r\n",
             r"header line 'base_width=4\r' is not key=integer at byte 24"),
            (b"base_width=4\n", "base_width=4\u2028".encode(),
             r"header line 'base_width=4\u2028step=3' is not key=integer at byte 24"),
        ],
        ids=["negative_step", "repeated_key", "unknown_key", "plus_sign", "underscore",
             "spaces", "arabic_indic_digit", "form_feed", "crlf", "line_separator"],
    )
    def test_bad_header_key_or_step(self, site, tmp_path, capsys, old, new, message):
        """Header lines end in ``\\n`` and values are ``-?[0-9]+``, as
        ``save_checkpoint`` writes them; the header length is rewritten to fit."""
        tile, path = site
        blob = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 6)
        header = blob[10:10 + hlen]
        assert header.count(old) == 1
        header = header.replace(old, new)
        path.write_bytes(blob[:6] + struct.pack("<I", len(header)) + header + blob[10 + hlen:])
        assert predict_rc(path, tile, tmp_path) == 3
        assert message in capsys.readouterr().err

    def test_non_utf8_tensor_name(self, site, tmp_path, capsys):
        tile, path = site
        replace_once(path, b"enc1.conv.weight", b"\xffnc1.conv.weight")
        assert predict_rc(path, tile, tmp_path) == 3
        assert "tensor name is not valid UTF-8" in capsys.readouterr().err

    def test_dims_product_beyond_int64(self, site, tmp_path, capsys):
        tile, path = site
        blob = path.read_bytes()
        at = blob.index(b"enc1.conv.weight") + len(b"enc1.conv.weight")
        assert struct.unpack_from("<5I", blob, at) == (4, 4, 2, 3, 3)
        dims = struct.pack("<4I", 2**21, 2**21, 2**21, 2)  # product 2**64
        path.write_bytes(blob[: at + 4] + dims + blob[at + 20 :])
        assert predict_rc(path, tile, tmp_path) == 3
        assert "truncated data of 'enc1.conv.weight'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "image, where, value",
        [("pre", np.s_[0, :8, :8], np.inf), ("post", np.s_[1], np.nan)],
        ids=["inf-corner-in-pre", "nan-in-post"],
    )
    def test_non_finite_tile_rejected(self, site, tmp_path, capsys, image, where, value):
        tile_path, ckpt = site
        tile = read_tile(tile_path)
        arr = getattr(tile, image)
        arr[where] = value
        write_tile(tile, tile_path)
        bad = np.flatnonzero(~np.isfinite(arr))
        at = 16 + (image == "post") * arr.nbytes + 4 * int(bad[0])  # 16-byte header
        assert not np.isfinite(np.frombuffer(tile_path.read_bytes(), "<f4", 1, at))
        assert predict_rc(ckpt, tile_path, tmp_path) == 3
        err = capsys.readouterr().err
        assert f"{image} holds" in err
        assert f"{image} holds {bad.size} non-finite value(s), the first at byte {at}" in err
        assert not (tmp_path / "p.btm").exists()

    def test_non_finite_weight_rejected(self, site, tmp_path, capsys):
        tile, path = site
        ckpt = load_checkpoint(path)
        ckpt.params["enc2.conv.weight"][0, 0, 1, 1] = np.nan
        save_checkpoint(ckpt, path)
        assert predict_rc(path, tile, tmp_path) == 3
        assert "enc2.conv.weight holds 1 non-finite value(s)" in capsys.readouterr().err
        assert not (tmp_path / "p.btm").exists()

    def test_overflowing_forward_is_a_numeric_failure(self, site, tmp_path, capsys):
        """Finite weights so large that the forward overflows float32 exit 4,
        with no traceback and no mask."""
        tile, path = site
        ckpt = load_checkpoint(path)
        ckpt.params["enc1.conv.weight"][...] = 3e38
        save_checkpoint(ckpt, path)
        assert predict_rc(path, tile, tmp_path) == 4
        assert "overflow" in capsys.readouterr().err
        assert not (tmp_path / "p.btm").exists()

    @pytest.mark.parametrize("subcommand", ["eval", "render"])
    def test_zero_size_mask_rejected(self, tmp_path, capsys, subcommand):
        mask = tmp_path / "empty.btm"
        mask.write_bytes(b"BTM1" + struct.pack("<II", 0, 5))
        out = tmp_path / "out"
        rc = main([subcommand, "--pred", str(mask), "--truth", str(mask), "--out", str(out)])
        assert rc == 3
        assert "H=0, W=5 at byte 4" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_names_the_damaged_file(self, tmp_path, capsys):
        """Over several sites, the error names the one bad file."""
        tile = run_gen(tmp_path, count=1) / "tile_00000.btt"
        good, bad = tmp_path / "good.btm", tmp_path / "bad.btm"
        write_mask(read_tile(tile).mask, good)
        bad.write_bytes(b"BTM1" + struct.pack("<II", 0, 5))
        rc = main(["eval", "--pred", str(good), str(bad), "--truth", str(tile), str(tile),
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 3
        assert f"error: {bad}: dimension zero or overflow: H=0, W=5 at byte 4" in capsys.readouterr().err

    @pytest.mark.parametrize("damaged", ["checkpoint", "tile"])
    def test_predict_names_the_damaged_file(self, site, tmp_path, capsys, damaged):
        tile, ckpt = site
        path = {"checkpoint": ckpt, "tile": tile}[damaged]
        path.write_bytes(path.read_bytes()[:-1])
        assert predict_rc(ckpt, tile, tmp_path) == 3
        assert f"error: {path}: truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1.5", "nan", "-0.1", "1", "inf", "half"])
    def test_threshold_out_of_range_is_usage_error(self, tmp_path, capsys, value):
        """``--threshold`` is checked when the flags are parsed: exit 2
        naming the flag, before the checkpoint or the malformed tile is read."""
        garbage = tmp_path / "garbage"
        garbage.write_bytes(b"garbage")
        out = tmp_path / "p.btm"
        rc = main(["predict", "--checkpoint", str(garbage), "--tile", str(garbage),
                   "--threshold", value, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"argument --threshold: expected a number in [0, 1), got '{value}'" in err
        assert not list(tmp_path.glob("p.btm*"))

    def test_threshold_is_still_checked_by_predict(self):
        model = init_model(ModelConfig(2, 4), 0)
        tile = generate_scene(SceneParams(channels=2, size=(32, 32)), seed=0)
        for value in (1.5, float("nan")):
            with pytest.raises(ConfigError, match="threshold must lie in"):
                predict(model, tile, threshold=value)

    def test_mask_byte_outside_domain(self, tmp_path, capsys):
        tile = run_gen(tmp_path, count=1) / "tile_00000.btt"
        pred = tmp_path / "p.btm"
        write_mask(read_tile(tile).mask, pred)
        blob = bytearray(pred.read_bytes())
        blob[-1] = 7
        pred.write_bytes(bytes(blob))
        rc = main(["eval", "--pred", str(pred), "--truth", str(tile),
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 3
        assert f"invalid mask value 7 at byte {len(blob) - 1}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A 32x32 two-channel tile, its mask and a checkpoint that fits it,
    with the byte offsets where each format's damage is most telling."""
    d = tmp_path_factory.mktemp("valid")
    tile = generate_scene(SceneParams(channels=2, size=(32, 32)), seed=0)
    write_tile(tile, d / "valid.btt")
    write_mask(tile.mask, d / "valid.btm")
    ckpt = checkpoint_from_model(init_model(ModelConfig(in_channels=2, base_width=4), 0))
    save_checkpoint(ckpt, d / "valid.sunc")
    blobs = {fmt: (d / f"valid.{fmt}").read_bytes() for fmt in ("btt", "btm", "sunc")}
    btt, sunc = len(blobs["btt"]), blobs["sunc"]
    records = [
        i
        for name, arr in {**ckpt.params, **ckpt.buffers}.items()
        for start in [sunc.index(name.encode()) - 4]
        for i in range(start, start + 8 + len(name) + 4 * arr.ndim)
    ]
    hot = {  # header fields, mask bytes, record fields, RNG words
        "btt": [range(16), range(btt - 16, btt)],
        "btm": [range(12), range(12, 28)],
        "sunc": [range(sunc.index(b"step=") + 8), records, range(len(sunc) - 32, len(sunc))],
    }
    return d, blobs, hot


@settings(max_examples=200, deadline=None)
@given(fmt=st.sampled_from(["btt", "btm", "sunc"]), data=st.data())
def test_damaged_files_give_typed_errors_and_exit_codes(valid_files, fmt, data):
    """Mutating, truncating or extending a valid BTT1, BTM1 or SUNC file:
    only the format's error escapes its reader, and ``main`` only ever
    returns an exit code."""
    d, blobs, hot = valid_files
    blob = blobs[fmt]
    kind = data.draw(st.sampled_from(["mutate", "truncate", "extend"]))
    if kind == "truncate":
        blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
    elif kind == "extend":
        blob = blob + data.draw(st.binary(min_size=1, max_size=8))
    else:
        out = bytearray(blob)
        where = st.one_of(
            *(st.sampled_from(h) for h in hot[fmt]), st.integers(0, len(blob) - 1)
        )
        for i in data.draw(st.lists(where, min_size=1, max_size=4)):
            out[i] = data.draw(st.integers(0, 255))
        blob = bytes(out)
    path = d / f"damaged.{fmt}"
    path.write_bytes(blob)

    reader = {"btt": read_tile, "btm": read_mask, "sunc": load_checkpoint}[fmt]
    try:
        got = reader(path)
    except (TileFormatError, CheckpointFormatError):
        got = None
    if got is not None and fmt != "sunc":  # an accepted mask holds only 0, 1, 255
        mask = got.mask if fmt == "btt" else got
        assert set(np.unique(mask)) <= {0, 1, 255}

    valid = {f: str(d / f"valid.{f}") for f in blobs}
    valid[fmt] = str(path)
    outs = [str(d / name) for name in ("out.btm", "out.csv", "out.ppm")]
    for argv in (
        ["predict", "--checkpoint", valid["sunc"], "--tile", valid["btt"], "--out", outs[0]],
        ["eval", "--pred", valid["btm"], "--truth", valid["btt"], "--out", outs[1]],
        ["render", "--pred", valid["btm"], "--truth", valid["btt"], "--out", outs[2]],
    ):
        if str(path) in argv:
            assert main(argv) in (0, 2, 3, 4)
