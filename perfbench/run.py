"""Benchmark of the diffnet toolkit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Workloads: ``train``, ``predict-512`` and ``score-sites`` (see
``perfbench/README.md``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones.  The last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``.

This launcher fixes BLAS and OpenMP to one thread in the environment of a
child process, so the setting is in place before numpy loads, and runs the
measurement there (``perfbench/worker.py``).  It exits non-zero, without a
result, when the toolkit's sources are not under ``src/``.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "predict-512", "score-sites")
THREADS = "1"
# The child must finish inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT))
    from perfbench.stats import THREAD_VARS

    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (ROOT / "src" / "diffnet" / "__init__.py").is_file():
        print(f"error: no diffnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({k: THREADS for k in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("DIFFNET_SEED", None)
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    # A session of its own, so that a timeout also stops the reference
    # process the worker may have started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
