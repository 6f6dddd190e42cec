"""Print SHA-256 digests of outputs that a kernel change must keep bitwise.

First come the scene generator's outputs: one digest over the pre, post
and mask bytes of each of three seeded scenes (the 512x512 C=8 scene that
``predict`` scores below, a scene at the CLI defaults, and a 97x513 C=3
scene with no blobs and no noise).  A seeded 12-step ``train`` at the
acceptance config gives its TrainLog and
every checkpoint tensor; the trained model's eval-mode probabilities on a
seeded 512x512 and a 96x160 scene follow.  Then come the gradients of every
parameter after one train-mode forward and backward of a fresh model, before
any Adam step, so that a backward change shows which gradient moved.  Last
comes the CLI path: the trained checkpoint is saved, and ``diffnet predict``
and ``diffnet render`` load it to score a seeded 64x64 site, giving the mask
and overlay file bytes.  Run it on two commits and diff:

    PYTHONPATH=src python scripts/parity.py > after.txt

The output opens with the machine key, ``# field: value`` lines naming the
CPU model, the Python, numpy and BLAS versions and the BLAS core, since
float digests may differ across these.  ``tests/test_parity.py`` checks the
output against ``tests/golden/parity.txt``, which is regenerated with:

    PYTHONPATH=src python scripts/parity.py > tests/golden/parity.txt
"""

import hashlib
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from diffnet.cli import blas_core, main as cli_main
from diffnet.data import NODATA, SceneParams, generate_scene, write_tile
from diffnet.losses import LossConfig
from diffnet.model import ModelConfig, init_model
from diffnet.tensor import Tensor, no_grad
from diffnet.train import TrainConfig, hybrid_loss, save_checkpoint, train


def digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


SCENES = {
    "512x512x8.seed11": (SceneParams(channels=8, size=(512, 512)), 11),
    "128x128x64.seed0": (SceneParams(), 0),
    "97x513x3.plain": (
        SceneParams(
            channels=3, size=(97, 513), n_scar_blobs=0, confuser_blobs=0, noise_sigma=0.0
        ),
        5,
    ),
}


def digests():
    """Yield (name, SHA-256 hex digest) pairs in a fixed order."""
    for name, (params, seed) in SCENES.items():
        tile = generate_scene(params, seed)
        blob = b"".join(a.tobytes() for a in (tile.pre, tile.post, tile.mask))
        yield f"scene.{name}", hashlib.sha256(blob).hexdigest()
    tiles = [generate_scene(SceneParams(channels=8, size=(64, 64)), seed=s) for s in range(4)]
    model = init_model(ModelConfig(in_channels=8, base_width=8), seed=3)
    ckpt, log = train(model, tiles, TrainConfig(steps=12, batch_size=4, seed=0, log_every=1))
    rows = [(r.step, r.loss, r.bce, r.dice, r.burn_frac) for r in log.records]
    yield "train.log", digest(np.array(rows, dtype=np.float64))
    for name, arr in {**ckpt.params, **ckpt.buffers}.items():
        yield f"train.{name}", digest(arr)
    for h, w in ((512, 512), (96, 160)):
        tile = generate_scene(SceneParams(channels=8, size=(h, w)), seed=11)
        with no_grad():
            probs = model.forward(Tensor(tile.pre[None]), Tensor(tile.post[None]))
        yield f"predict.{h}x{w}", digest(probs.data)
    model = init_model(ModelConfig(in_channels=8, base_width=8), seed=3)
    pre, post = (Tensor(np.stack([getattr(t, k) for t in tiles])) for k in ("pre", "post"))
    probs = model.forward(pre, post, mode="train")
    hybrid_loss(probs, np.stack([t.mask[None] for t in tiles]), LossConfig()).backward()
    for name, param in model.parameter_list():
        yield f"grad.{name}", digest(param.grad)
    with tempfile.TemporaryDirectory() as d:
        sunc, site, mask, ppm = (Path(d, f) for f in ("m.sunc", "site.btt", "p.btm", "o.ppm"))
        save_checkpoint(ckpt, sunc)
        tile = generate_scene(SceneParams(channels=8, size=(64, 64)), seed=12)
        tile.mask[:8, :8] = NODATA  # so the overlay shows all five colours
        write_tile(tile, site)
        for argv in (
            ["predict", "--checkpoint", str(sunc), "--tile", str(site), "--out", str(mask)],
            ["render", "--pred", str(mask), "--truth", str(site), "--out", str(ppm)],
        ):
            if cli_main(argv) != 0:
                raise SystemExit(f"diffnet {argv[0]} failed")
        for name, path in (("predict", mask), ("render", ppm)):
            yield f"cli.{name}.64x64", hashlib.sha256(path.read_bytes()).hexdigest()


def machine_key() -> dict[str, str]:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except KeyError:
        blas = "unknown"
    python = "%d.%d" % sys.version_info[:2]
    key = {"cpu": cpu, "python": python, "numpy": np.__version__, "blas": blas}
    return key | {"blas_core": blas_core()}


def lines():
    """The output, line by line: the machine key, then the digests."""
    for field, value in machine_key().items():
        yield f"# {field}: {value}"
    for name, hexdigest in digests():
        yield f"{name} {hexdigest}"


if __name__ == "__main__":
    for line in lines():
        print(line)
