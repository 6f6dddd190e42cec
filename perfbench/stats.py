"""Percentile rules and the machine record attached to every result."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path

# A percentile above the median is reported only when at least this many
# samples lie beyond it; below that the tail is one or two unlucky ops.
MIN_BEYOND = 10

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def percentile(values, q: float) -> float | None:
    """The q-th percentile (0 < q < 100) by linear interpolation.

    The median is always reported.  A higher percentile is None unless at
    least MIN_BEYOND samples lie beyond its rank, i.e. n * (1 - q/100) >= 10.
    """
    if not values:
        return None
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    n = len(values)
    if q > 50 and n * (100 - q) / 100 < MIN_BEYOND:
        return None
    xs = sorted(values)
    rank = (n - 1) * q / 100
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def highest_reportable(values, candidates=(99, 95, 90, 75)) -> tuple[float, float] | None:
    """(q, value) of the highest candidate percentile with enough samples
    beyond it, or None."""
    for q in candidates:
        v = percentile(values, q)
        if v is not None:
            return q, v
    return None


def median(values) -> float:
    return statistics.median(values)


def _blas_info() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except (TypeError, AttributeError):  # numpy < 1.25 has no dict mode
        return {}
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, so a result names the code it
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_record(root: Path) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(root / "src"),
    }
