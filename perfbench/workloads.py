"""The three workloads: set-up, one op, and the check of one op's output.

Every workload is a closed loop with one client in one process.  It reaches
the toolkit through ``train``, ``predict`` and ``cli.main`` (and, for
inputs, the scene generator), looked up on their modules at call time so
that the tracer's wrappers see every call.  Checks tolerate ulp-level drift
in the numerics but catch wrong results; a failed check is reported, never
dropped.
"""

from __future__ import annotations

import csv
import importlib
import struct
from pathlib import Path

import numpy as np

NODATA = 255
# Pixels whose reference probability lies this close to the 0.5 threshold
# may flip under float32 rounding; the float32/float64 gap measured here is
# below 1e-6, so the band leaves room for reordered sums.
DECISION_BAND = 1e-4
MIN_DECISIVE = 0.9

METRIC_COLUMNS = ("accuracy", "precision", "recall", "f1", "iou", "dice")
COLORS = {"tp": (255, 255, 255), "tn": (0, 0, 0), "fp": (255, 0, 0),
          "fn": (0, 0, 255), "nodata": (128, 128, 128)}


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def _mod(name: str):
    # ``diffnet.train`` as an attribute is the function, so go through
    # importlib to get the module.
    return importlib.import_module(name)


def model_arrays(params: dict, buffers: dict) -> dict:
    """Arrays in the layout ``perfbench.reference`` reads."""
    out = {f"param/{k}": np.asarray(getattr(v, "data", v)) for k, v in params.items()}
    out.update({f"buffer/{k}": np.asarray(v) for k, v in buffers.items()})
    return out


def check_mask(pred, probs_ref, truth_mask, what: str) -> None:
    """``pred`` must be the 0.5-threshold of the reference wherever the
    reference is decisive, 0/1 elsewhere, and nodata where the truth is."""
    pred = np.asarray(pred)
    if pred.shape != truth_mask.shape or pred.dtype != np.uint8:
        raise CheckFailed(f"{what}: mask {pred.shape}/{pred.dtype}, "
                          f"expected {truth_mask.shape}/uint8")
    nodata = truth_mask == NODATA
    if not (pred[nodata] == NODATA).all():
        raise CheckFailed(f"{what}: nodata not propagated")
    valid = ~nodata
    if not np.isin(pred[valid], (0, 1)).all():
        raise CheckFailed(f"{what}: values outside {{0, 1}} on valid pixels")
    decisive = valid & (np.abs(probs_ref - 0.5) > DECISION_BAND)
    if decisive.sum() < MIN_DECISIVE * valid.sum():
        raise CheckFailed(f"{what}: too few decisive pixels for a meaningful check")
    wrong = int((pred[decisive] != (probs_ref[decisive] >= 0.5)).sum())
    if wrong:
        raise CheckFailed(f"{what}: {wrong} decisive pixels disagree with the reference")


def expected_metrics(pred, truth) -> dict:
    valid = (truth != NODATA) & (pred != NODATA)
    p, t = pred == 1, truth == 1
    tp = int((valid & p & t).sum())
    fp = int((valid & p & ~t).sum())
    tn = int((valid & ~p & ~t).sum())
    fn = int((valid & ~p & t).sum())

    def ratio(a, b):
        return a / b if b else 0.0

    precision, recall = ratio(tp, tp + fp), ratio(tp, tp + fn)
    f1 = ratio(2 * precision * recall, precision + recall)
    return {
        "accuracy": ratio(tp + tn, tp + fp + tn + fn),
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "iou": ratio(tp, tp + fp + fn),
        "dice": ratio(2 * tp, 2 * tp + fp + fn),
    }


def read_btm(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:4] != b"BTM1":
        raise CheckFailed(f"{path}: not a BTM1 mask")
    h, w = struct.unpack_from("<II", blob, 4)
    if len(blob) != 12 + h * w:
        raise CheckFailed(f"{path}: {len(blob)} bytes for a {h}x{w} mask")
    return np.frombuffer(blob, dtype=np.uint8, offset=12).reshape(h, w)


def expected_overlay(pred, truth) -> np.ndarray:
    h, w = truth.shape
    img = np.empty((h, w, 3), dtype=np.uint8)
    valid = (truth != NODATA) & (pred != NODATA)
    p, t = pred == 1, truth == 1
    img[valid & p & t] = COLORS["tp"]
    img[valid & ~p & ~t] = COLORS["tn"]
    img[valid & p & ~t] = COLORS["fp"]
    img[valid & ~p & t] = COLORS["fn"]
    img[~valid] = COLORS["nodata"]
    return img


class Workload:
    name = ""
    items_per_op = 1
    setup_reps = 5
    warmup_ops = 1
    # peak_rss_mib is read after this many timed ops, not at the end of the
    # run: the autodiff graph is freed by the cyclic garbage collector, so
    # the peak keeps growing for tens of ops and would otherwise depend on
    # how many ops fit in the run.
    rss_ops = 4

    def setup(self, seed: int, work: Path):
        """Build the inputs with the toolkit; timed as ``setup_s``."""
        raise NotImplementedError

    def reference_inputs(self, state) -> dict | None:
        """Arrays for ``perfbench.reference``, or None if not needed."""
        return None

    def accept_reference(self, state, probs: dict) -> None:
        pass

    def op(self, state, i: int):
        raise NotImplementedError

    def check(self, state, i: int, result) -> None:
        """Raise CheckFailed if the op's output is wrong."""

    def finish(self, state) -> None:
        """Run-level checks after the last op; raise CheckFailed."""


class Train(Workload):
    """``train()`` at the acceptance config on one model that keeps
    learning across ops.  An item is one patch sample."""

    name = "train"
    steps_per_op = 4
    batch_size = 4
    items_per_op = steps_per_op * batch_size
    setup_reps = 9
    rss_ops = 8

    def setup(self, seed, work):
        d = _mod("diffnet")
        gen = _mod("diffnet.data").generate_scene
        params = d.SceneParams(channels=8, size=(64, 64), burn_fraction_target=0.15)
        tiles = [gen(params, seed=seed * 100 + k) for k in range(8)]
        model = d.init_model(d.ModelConfig(in_channels=8, base_width=8), seed=seed)
        return {"seed": seed, "work": work, "tiles": tiles, "model": model,
                "losses": [], "prev": None}

    def op(self, state, i):
        t = _mod("diffnet.train")
        cfg = t.TrainConfig(lr=1e-3, steps=self.steps_per_op, batch_size=self.batch_size,
                            patch_size=64, seed=state["seed"] * 100_000 + i)
        return t.train(state["model"], state["tiles"], cfg)

    def check(self, state, i, result):
        t = _mod("diffnet.train")
        ckpt, log = result
        losses = [r.loss for r in log.records]
        if [r.step for r in log.records] != [1, self.steps_per_op]:
            raise CheckFailed(f"log steps {[r.step for r in log.records]}")
        if not all(np.isfinite(v) and 0.0 < v < 1e3 for v in losses):
            raise CheckFailed(f"implausible losses {losses}")
        if ckpt.step != self.steps_per_op:
            raise CheckFailed(f"checkpoint step {ckpt.step}")
        model = state["model"]
        for name, p in model.parameter_list():
            if not np.array_equal(ckpt.params[name], p.data):
                raise CheckFailed(f"checkpoint {name} differs from the model")
            if not np.isfinite(p.data).all():
                raise CheckFailed(f"non-finite parameter {name}")
        path = state["work"] / "train.sunc"
        t.save_checkpoint(ckpt, path)
        back = t.load_checkpoint(path)
        for table, ref in ((back.params, ckpt.params), (back.buffers, ckpt.buffers)):
            if table.keys() != ref.keys() or not all(
                np.array_equal(table[k], ref[k]) for k in ref
            ):
                raise CheckFailed("checkpoint does not round-trip")
        if state["prev"] is not None and all(
            np.array_equal(state["prev"][k], ckpt.params[k]) for k in ckpt.params
        ):
            raise CheckFailed("parameters did not move")
        state["prev"] = ckpt.params
        state["losses"].append(float(np.mean(losses)))

    def finish(self, state):
        # Training must make progress over the run: the first quarter of
        # ops has a higher mean loss than the last quarter.
        losses = state["losses"]
        q = len(losses) // 4
        if q >= 2 and not np.mean(losses[-q:]) < np.mean(losses[:q]):
            raise CheckFailed(
                f"loss did not fall: first quarter {np.mean(losses[:q]):.4f}, "
                f"last quarter {np.mean(losses[-q:]):.4f}"
            )


class Predict512(Workload):
    """``predict()`` on one 512x512, 8-channel tile with a strip of nodata.
    An item is one tile."""

    name = "predict-512"

    def setup(self, seed, work):
        d = _mod("diffnet")
        gen = _mod("diffnet.data").generate_scene
        tile = gen(d.SceneParams(channels=8, size=(512, 512)), seed=seed)
        rng = np.random.default_rng(seed)
        y = int(rng.integers(0, 448))
        tile.mask[y : y + 64, :32] = NODATA
        model = d.init_model(d.ModelConfig(in_channels=8, base_width=8), seed=seed)
        return {"tile": tile, "model": model}

    def reference_inputs(self, state):
        tile, model = state["tile"], state["model"]
        arrays = model_arrays(model.params, model.buffers)
        arrays.update({"pre/0": tile.pre, "post/0": tile.post})
        return arrays

    def accept_reference(self, state, probs):
        state["probs"] = probs["0"]

    def op(self, state, i):
        return _mod("diffnet.train").predict(state["model"], state["tile"])

    def check(self, state, i, result):
        check_mask(result, state["probs"], state["tile"].mask, "predict-512")


class ScoreSites(Workload):
    """One op scores one site through the CLI: ``predict``, ``eval`` and
    ``render`` on a 64x64 tile, cycling over 16 sites.  Outputs are written
    beside the tiles.  An item is one site."""

    name = "score-sites"
    sites = 16
    warmup_ops = 2
    rss_ops = 32

    def setup(self, seed, work):
        main = _mod("diffnet.cli").main
        sites = work / "sites"
        gen = ["gen", "--out-dir", str(sites), "--count", str(self.sites),
               "--seed", str(seed * 100), "--channels", "8", "--height", "64",
               "--width", "64"]
        ckpt = work / "model.sunc"
        train = ["train", "--data-dir", str(sites), "--out", str(ckpt),
                 "--base-width", "8", "--model-seed", str(seed), "--steps", "3",
                 "--seed", str(seed)]
        for argv in (gen, train):
            if main(argv) != 0:
                raise RuntimeError(f"set-up command failed: diffnet {' '.join(argv)}")
        tiles = sorted(sites.glob("*.btt"))
        return {"ckpt": ckpt, "tiles": tiles}

    def reference_inputs(self, state):
        t = _mod("diffnet.train")
        read_tile = _mod("diffnet.data").read_tile
        ckpt = t.load_checkpoint(state["ckpt"])
        arrays = model_arrays(ckpt.params, ckpt.buffers)
        state["truth"] = []
        for k, path in enumerate(state["tiles"]):
            tile = read_tile(path)
            arrays[f"pre/{k}"], arrays[f"post/{k}"] = tile.pre, tile.post
            state["truth"].append(tile.mask)
        return arrays

    def accept_reference(self, state, probs):
        state["probs"] = [probs[str(k)] for k in range(len(state["tiles"]))]

    def _paths(self, state, i):
        k = i % len(state["tiles"])
        tile = state["tiles"][k]
        stem = tile.with_suffix("")
        return k, tile, Path(f"{stem}.pred.btm"), Path(f"{stem}.csv"), Path(f"{stem}.ppm")

    def op(self, state, i):
        main = _mod("diffnet.cli").main
        _, tile, pred, table, overlay = self._paths(state, i)
        return (
            main(["predict", "--checkpoint", str(state["ckpt"]), "--tile", str(tile),
                  "--out", str(pred)]),
            main(["eval", "--pred", str(pred), "--truth", str(tile), "--out", str(table)]),
            main(["render", "--pred", str(pred), "--truth", str(tile), "--out", str(overlay)]),
        )

    def check(self, state, i, result):
        if result != (0, 0, 0):
            raise CheckFailed(f"exit codes {result}")
        k, _, pred_path, table, overlay = self._paths(state, i)
        truth = state["truth"][k]
        pred = read_btm(pred_path)
        check_mask(pred, state["probs"][k], truth, pred_path.name)

        want = expected_metrics(pred, truth)
        with open(table, newline="") as f:
            rows = list(csv.reader(f))
        if rows[0] != ["site", *METRIC_COLUMNS]:
            raise CheckFailed(f"{table.name}: header {rows[0]}")
        if [r[0] for r in rows[1:]] != [pred_path.stem, "mean", "std"]:
            raise CheckFailed(f"{table.name}: rows {[r[0] for r in rows[1:]]}")
        expect = {
            pred_path.stem: [want[c] for c in METRIC_COLUMNS],
            "mean": [want[c] for c in METRIC_COLUMNS],
            "std": [0.0] * len(METRIC_COLUMNS),
        }
        for row in rows[1:]:
            got = [float(v) for v in row[1:]]
            if len(got) != len(METRIC_COLUMNS) or any(
                abs(g - e) > 1e-6 for g, e in zip(got, expect[row[0]])
            ):
                raise CheckFailed(f"{table.name}: row {row} != {expect[row[0]]}")

        h, w = truth.shape
        header = f"P6\n{w} {h}\n255\n".encode()
        blob = overlay.read_bytes()
        if not blob.startswith(header) or blob[len(header):] != expected_overlay(
            pred, truth
        ).tobytes():
            raise CheckFailed(f"{overlay.name}: overlay differs from the confusion colours")


WORKLOADS = {w.name: w for w in (Train, Predict512, ScoreSites)}
