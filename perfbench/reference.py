"""Independent float64 forward pass of the Siamese U-Net, used to check
``predict`` outputs.

It shares no code with ``diffnet``: convolution is a sum of per-tap
matrix products, pooling a reshape-max, and the transposed convolution an
einsum.  Run as ``python -m perfbench.reference IN.npz OUT.npz``, it reads
``param/<name>``, ``buffer/<name>``, ``pre/<k>`` and ``post/<k>`` arrays
and writes the change probabilities as ``probs/<k>``.  The benchmark runs
it in a child process so that its memory stays out of ``peak_rss_mib``.
"""

from __future__ import annotations

import sys

import numpy as np

LEVELS = 5
BN_EPS = 1e-5


def _conv(x, w, b):
    """Same-size cross-correlation of (C, H, W) with (O, C, k, k)."""
    k = w.shape[2]
    p = k // 2
    _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    out = np.zeros((w.shape[0], h, wd))
    for i in range(k):
        for j in range(k):
            out += np.tensordot(w[:, :, i, j], xp[:, i : i + h, j : j + wd], axes=(1, 0))
    return out + b[:, None, None]


def _pool(x):
    c, h, w = x.shape
    return x.reshape(c, h // 2, 2, w // 2, 2).max(axis=(2, 4))


def _up(x, w, b):
    """Stride-2 transposed convolution with a (C_in, C_out, 2, 2) kernel."""
    _, h, wd = x.shape
    out = np.einsum("cij,cokl->oikjl", x, w).reshape(w.shape[1], 2 * h, 2 * wd)
    return out + b[:, None, None]


def forward(params: dict, buffers: dict, pre, post) -> np.ndarray:
    """Eval-mode change probabilities (H, W) for one (C, H, W) image pair."""
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    bufs = {k: np.asarray(v, dtype=np.float64) for k, v in buffers.items()}

    def block(x, stem):
        y = _conv(x, p[f"{stem}.conv.weight"], p[f"{stem}.conv.bias"])
        mean = bufs[f"{stem}.bn.running_mean"][:, None, None]
        inv = 1.0 / np.sqrt(bufs[f"{stem}.bn.running_var"][:, None, None] + BN_EPS)
        y = p[f"{stem}.bn.gamma"][:, None, None] * (y - mean) * inv
        return np.maximum(y + p[f"{stem}.bn.beta"][:, None, None], 0.0)

    def encode(img):
        feats, x = [], np.asarray(img, dtype=np.float64)
        for level in range(1, LEVELS + 1):
            x = _pool(block(x, f"enc{level}"))
            feats.append(x)
        return feats

    deltas = [b - a for a, b in zip(encode(pre), encode(post))]
    x = deltas[-1]
    for level in range(LEVELS - 1, 0, -1):
        x = _up(x, p[f"dec{level}.up.weight"], p[f"dec{level}.up.bias"])
        x = block(np.concatenate([x, deltas[level - 1]]), f"dec{level}")
    x = _up(x, p["final_up.weight"], p["final_up.bias"])
    logits = _conv(x, p["head.weight"], p["head.bias"])[0]
    return 1.0 / (1.0 + np.exp(-logits))


def main(argv) -> int:
    src, dst = argv
    with np.load(src) as z:
        arrays = {k: z[k] for k in z.files}
    group = lambda prefix: {  # noqa: E731
        k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)
    }
    params, buffers = group("param/"), group("buffer/")
    pre, post = group("pre/"), group("post/")
    out = {f"probs/{k}": forward(params, buffers, pre[k], post[k]) for k in pre}
    np.savez(dst, **out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
