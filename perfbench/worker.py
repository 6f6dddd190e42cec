"""One benchmark run in a process whose BLAS/OpenMP thread counts the
launcher (``perfbench/run.py``) fixed before numpy loaded.

Prints a details line (machine, per-op statistics, missing trace targets)
and, last, the result object the benchmark contract defines.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

from perfbench import calibrate

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "_results"
MAX_FAILURES = 20
REFERENCE_TIMEOUT_S = 120
MEMORY_OPS = 2


def _compute_reference(arrays: dict, work: Path) -> dict:
    import numpy as np

    src, dst = work / "ref_in.npz", work / "ref_out.npz"
    np.savez(src, **arrays)
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.reference", str(src), str(dst)],
        cwd=ROOT, timeout=REFERENCE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"reference forward exited with {proc.returncode}")
    with np.load(dst) as z:
        return {k[len("probs/"):]: z[k] for k in z.files}


class Loop:
    """Closed-loop measurement: op times, attempts and failures."""

    def __init__(self, wl, state):
        self.wl, self.state = wl, state
        self.i = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.minflt: list[int] = []
        self.peak_rss_mib: float | None = None
        self.timed_ids: list[int] = []
        self.probes: list[float] = []

    def one(self, tracer=None) -> float | None:
        """Run, time and check one op; returns its seconds, or None if it
        raised or its check failed (counted as failed, and not timed)."""
        i, self.i = self.i, self.i + 1
        self.attempted += 1
        if tracer is not None:
            tracer.unit = ("op", i)
        t0 = time.perf_counter()
        try:
            result = self.wl.op(self.state, i)
        except Exception:  # every failure is counted, whatever its type
            result, err = None, traceback.format_exc(limit=3)
        else:
            err = None
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.unit = None
        if err is None:
            try:
                self.wl.check(self.state, i, result)
            except Exception:
                err = traceback.format_exc(limit=3)
        if err is not None:
            self.failed += 1
            self.errors.append(f"op {i}: {err}")
            return None
        return dt

    def measure(self, seconds: float, tracer=None, between=None, every=0.0) -> list[float]:
        """Warm up, then run ops until their summed time reaches ``seconds``.

        Records each timed op's minor page faults in ``self.minflt`` and
        the calibration probe taken right after it in ``self.probes``.
        ``between`` is called, untimed, each time another ``every`` seconds
        of op time have passed, once ``peak_rss_mib`` has been read.
        """
        for _ in range(self.wl.warmup_ops):
            self.one()
        times: list[float] = []
        self.timed_ids = []
        self.probes = []
        spent, due = 0.0, every
        while spent < seconds and self.failed < MAX_FAILURES:
            faults = _minflt()
            dt = self.one(tracer)
            if dt is None:
                continue
            self.minflt.append(_minflt() - faults)
            self.probes.append(calibrate.probe())
            times.append(dt)
            self.timed_ids.append(self.i - 1)
            spent += dt
            if len(times) == self.wl.rss_ops:
                self.peak_rss_mib = _peak_rss_mib()
            if between and spent >= due and self.peak_rss_mib is not None:
                between()
                due += every
        if self.peak_rss_mib is None:
            self.peak_rss_mib = _peak_rss_mib()
        return times

    def traced_peak_mib(self, n: int) -> float:
        """Largest tracemalloc peak over ``n`` ops, run apart from the timed
        ones because tracemalloc slows every allocation."""
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(n):
                tracemalloc.reset_peak()
                if self.one() is not None:
                    peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
        return max(peaks, default=0.0)


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed_setup(wl, seed, work, tracer=None, unit=None):
    """Run one set-up into ``work``; returns (state, seconds, seconds scaled
    to the nominal machine speed by the median of three probes after it)."""
    work.mkdir(parents=True, exist_ok=True)
    if tracer:
        tracer.install()
        tracer.unit = unit
    t0 = time.perf_counter()
    try:
        state = wl.setup(seed, work)
    finally:
        dt = time.perf_counter() - t0
        if tracer:
            tracer.unit = None
            tracer.uninstall()
    probe = statistics.median(calibrate.probe() for _ in range(3))
    return state, dt, dt * calibrate.NOMINAL_S / probe


def _throughput(wl, times) -> float:
    return wl.items_per_op * len(times) / sum(times) if times else 0.0


def _scaled(loop, times) -> list[float]:
    return calibrate.scaled_times(times, loop.probes)


def run(args) -> int:
    import diffnet

    from perfbench import stats
    from perfbench.trace import Tracer, layer_metrics
    from perfbench.workloads import WORKLOADS

    if Path(diffnet.__file__).resolve().parent != ROOT / "src" / "diffnet":
        print(f"error: imported diffnet from {diffnet.__file__}, not src/", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    # the generators need a non-negative seed; any integer maps to one
    seed = args.seed % 2**31
    work = ROOT / "perfbench" / "_work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        state, raw, scaled = _timed_setup(wl, seed, work, tracer, ("setup", 0))
        setup_raw, setup_s = [raw], [scaled]
        if tracer:
            for k in range(1, wl.setup_reps):
                _, raw, scaled = _timed_setup(wl, seed, work / f"setup-{k}", tracer, ("setup", k))
                setup_raw.append(raw)
                setup_s.append(scaled)
        arrays = wl.reference_inputs(state)
        if arrays is not None:
            wl.accept_reference(state, _compute_reference(arrays, work))

        loop = Loop(wl, state)
        details: dict = {"setup_s": setup_s, "raw_setup_s": setup_raw}
        if not args.trace:
            # The other set-up repetitions are spread over the run, so that
            # their median samples the machine at several moments rather
            # than in one burst before the first op.
            def more_setup():
                if len(setup_s) < wl.setup_reps:
                    _, raw, scaled = _timed_setup(wl, seed, work / f"setup-{len(setup_s)}")
                    setup_raw.append(raw)
                    setup_s.append(scaled)

            times = loop.measure(args.seconds, between=more_setup,
                                 every=args.seconds / wl.setup_reps)
            scaled = _scaled(loop, times)
            metrics = {
                "throughput": (_throughput(wl, scaled), "item/s"),
                "op_ms_p50": (stats.median(scaled) * 1e3 if times else 0.0, "ms"),
                "peak_rss_mib": (loop.peak_rss_mib, "MiB"),
                "setup_s": (stats.median(setup_s), "s"),
            }
        else:
            untraced = loop.measure(args.seconds / 2)
            untraced_scaled = _scaled(loop, untraced)
            tracer.install()
            try:
                times = loop.measure(args.seconds / 2, tracer=tracer)
            finally:
                tracer.uninstall()
            scaled = _scaled(loop, times)
            peak_mib = loop.traced_peak_mib(MEMORY_OPS)
            units = {
                "op": [("op", i) for i in loop.timed_ids],
                "setup": [("setup", k) for k in range(wl.setup_reps)],
            }
            metrics = layer_metrics(tracer.spans, units)
            t_un, t_tr = _throughput(wl, untraced_scaled), _throughput(wl, scaled)
            metrics.update({
                "mem.minflt_per_op": (stats.median(loop.minflt), "count"),
                "mem.peak_traced_mib": (peak_mib, "MiB"),
                "trace.untraced_throughput": (t_un, "item/s"),
                "trace.traced_throughput": (t_tr, "item/s"),
                "trace.overhead_pct": ((t_un / t_tr - 1) * 100 if t_tr else 0.0, "%"),
                "trace.missing_targets": (float(len(tracer.missing)), "count"),
            })
            details["missing_targets"] = sorted(tracer.missing)
            details["untraced_ops"] = len(untraced)
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl.gz"
            tracer.write(spans_path)
            details["spans"] = str(spans_path.relative_to(ROOT))

        run_error = None
        if loop.failed < MAX_FAILURES:
            try:
                wl.finish(state)
            except Exception:
                run_error = traceback.format_exc(limit=3)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    p90 = stats.percentile(scaled, 90)
    tail = stats.highest_reportable(scaled)
    details.update({
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": stats.machine_record(ROOT),
        "timed_ops": len(times),
        "raw_throughput": _throughput(wl, times),
        "raw_op_ms_p50": stats.median(times) * 1e3 if times else None,
        "probe_ms_median": stats.median(loop.probes) * 1e3 if loop.probes else None,
        "op_ms_p90": None if p90 is None else p90 * 1e3,
        "tail_ms": tail and {"q": tail[0], "value": tail[1] * 1e3},
        "error_rate": loop.failed / loop.attempted,
        "errors": loop.errors[:5],
        "run_check": run_error,
    })
    for line in loop.errors[:5] + ([run_error] if run_error else []):
        print(line, file=sys.stderr)
    result = {
        "correct": loop.failed == 0 and run_error is None,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record = {"details": details, "result": result, "op_ms": [t * 1e3 for t in times]}
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(prog="perfbench worker")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
