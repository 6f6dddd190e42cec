"""Finite-difference gradient checking for the autodiff primitives.

The check runs the op in float64, projects its output onto a fixed random
cotangent to obtain a scalar, and compares the analytic gradient of that
scalar against central differences per input element.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, mul, tsum

_EPS = 1e-5  # central-difference step
_ABS_FLOOR = 1e-4  # above the difference noise, ~1e-16 * |f| / _EPS


def gradcheck(fn: Callable[..., Tensor], inputs: Sequence[np.ndarray], seed: int = 0) -> float:
    """Worst relative error of ``fn``'s analytic gradient against central differences.

    ``fn`` maps Tensors to a Tensor of any shape; ``inputs`` are the arrays
    to differentiate with respect to (evaluated in float64).  Each element
    is moved by +-``_EPS``; its relative error is |ga - gn| / max(|ga|, |gn|,
    ``_ABS_FLOOR``), whose floor keeps the central-difference noise (~1e-9
    absolute here) from swamping near-zero gradients.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in inputs]

    # fixed cotangent so the scalar projection is identical across evals
    out_shape = fn(*[Tensor(a) for a in arrays]).shape
    cotangent = np.random.default_rng(seed).standard_normal(out_shape)

    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = tsum(mul(fn(*tensors), cotangent))
    loss.backward()
    analytic = [t.grad.copy() for t in tensors]

    max_rel = 0.0
    for i, base in enumerate(arrays):
        flat = base.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + _EPS
            f_plus = float((fn(*[Tensor(a) for a in arrays]).data * cotangent).sum())
            flat[j] = orig - _EPS
            f_minus = float((fn(*[Tensor(a) for a in arrays]).data * cotangent).sum())
            flat[j] = orig
            numeric = (f_plus - f_minus) / (2.0 * _EPS)
            ga = analytic[i].reshape(-1)[j]
            rel = abs(ga - numeric) / max(abs(ga), abs(numeric), _ABS_FLOOR)
            max_rel = max(max_rel, rel)

    return max_rel
