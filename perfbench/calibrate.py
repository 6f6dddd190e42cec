"""A fixed numpy kernel that gauges how fast the machine runs right now.

On a shared host the speed of a vCPU drifts by 20-30 % over seconds to
minutes, because of load the benchmark cannot see or control.  Ten runs of
identical code then spread by more than any useful bound.  The benchmark
therefore times this kernel after every op (outside the op's time) and
reports op times scaled to a nominal machine speed:

    scaled op time = measured op time * NOMINAL_S / (probe time around it)

The kernel shares no code with ``diffnet``, so a change to the toolkit
cannot move it.  A slower or faster toolkit moves the scaled figures by the
same factor as the raw ones.  It mixes a small matrix product with
elementwise and pooling passes over arrays that fit in L2, as the
toolkit's ops do, and times a second, warm pass so that cache state left
by the op does not leak into the reading.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe time on a 2-vCPU Intel Xeon, Python 3.11, numpy 2.4.6 with
# OpenBLAS 0.3.31, one BLAS thread.  Only ratios matter; the constant keeps
# the scaled figures close to raw ones on that machine.
NOMINAL_S = 0.0022

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((96, 96)).astype(np.float32)
_X = _rng.standard_normal((8, 64, 64)).astype(np.float32)


def _kernel() -> None:
    for _ in range(2):
        _A @ _A
        np.maximum(_X * 0.5 + 0.1, 0).sum(axis=0)
        _X.reshape(8, 32, 2, 32, 2).max(axis=(2, 4))


def probe() -> float:
    """Seconds taken by one warm pass of the kernel."""
    _kernel()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scaled_times(times, probes, k: int = 2) -> list[float]:
    """Scale each op time to the nominal machine speed.

    ``probes[i]`` was taken right after op ``i``.  Op ``i`` is scaled by the
    median of the probes of ops ``i-k`` to ``i+k``, which follows the
    machine's speed as it drifts during the run while one stray probe
    cannot swing it.
    """
    if len(times) != len(probes):
        raise ValueError(f"{len(times)} op times but {len(probes)} probes")
    out = []
    for i, t in enumerate(times):
        local = statistics.median(probes[max(0, i - k) : i + k + 1])
        out.append(t * NOMINAL_S / local)
    return out
