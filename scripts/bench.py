"""Record the benchmark's numbers for one checkout as a BENCH_<n>.json and
diff them against the newest earlier record.

For each workload in ``BENCHMARK.json`` this runs ``perfbench/run.py``
untraced once per seed and traced once on the first seed, one run at a
time, and writes:

- the commit, whether ``src/`` differs from it, and the machine block that
  perfbench reports, plus the OpenBLAS core that ``diffnet.cli.blas_core``
  names;
- the ``attempted`` and ``failed`` op counts of the untraced runs, and
  how many of them perfbench judged not ``correct`` (a failed op, or a
  failed run-level check such as train's "loss did not fall");
- the median, q1 and q3 over the seeds of each end-to-end metric, and
  each seed's values;
- the traced run's per-layer metrics;
- one tier-1 run (``pytest --durations=0`` with ``src/`` on the path):
  its test outcomes, its seconds, and the seconds of acceptance criteria
  4 and 8, which take most of it.

A seed whose every op fails is reported and left out of the statistics:
for some predict-512 seeds too few pixels are decisive for the mask check
on any code (seed 115).  Its counts stay in ``attempted`` and ``failed``.

Then it prints the diff against the newest ``BENCH_<m>.json`` with m < n
beside the output.  It flags each end-to-end metric whose median worsened
by more than its ``BENCHMARK.json`` bound, a larger share of failed ops,
more runs that are not correct, and records taken over other seeds, run
lengths, named BLAS cores or usable CPU counts, and it prints both tier-1
runs.  perfbench and BENCHMARK.json are only read.

Given several checkouts, such as a parent and a change, it runs them in
turns and writes one record for each, so that the machine's slow spells
fall on both.

Every run takes BENCHMARK.json's ``run_seconds``.  Usage, from the root of
a checkout:

    python3 scripts/bench.py --out BENCH_14.json
    python3 scripts/bench.py --out BENCH_13.json BENCH_14.json --root ../parent .
    python3 scripts/bench.py --diff BENCH_13.json BENCH_14.json
"""

import argparse
import datetime
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (741, 742, 743)
# per-layer metrics that moved by at least this share are listed in a diff
LAYER_SHOWN = 0.10
# the tier-1 tests whose durations a record keeps
CRITERIA = {
    "criterion_4_s": "test_acceptance.py::test_criterion_4_overfit_smoke",
    "criterion_8_s": "test_acceptance.py::test_criterion_8_generalization_across_regimes",
}

NOTES = (
    "The checkout directory alone moves predict-512 peak_rss_mib by about "
    "0.9 MiB; count a flagged RSS shift only once a second pair of "
    "checkout directories confirms it.",
    "predict-512 throughput can step by 1-5 % between two checkouts of the "
    "same predict code; a claim there needs alternating pairs in fresh clones.",
    "score-sites ops spend milliseconds in ext4 writeback: each op replaces "
    "six existing files (mask, CSV, PPM and their manifests) and ext4's "
    "auto_da_alloc flushes a file's data when a rename replaces it; unlinking "
    "each target before its rename (not adopted: it drops that flush) raised "
    "throughput from 91-94 to 106-115 item/s and cut raw op_ms p99 from "
    "14-15 to 12-13 ms, so the disk's load moves this workload.",
    "predict-512's forward runs on two threads, and perfbench's calibration "
    "probe times only the calling thread's vCPU: with the other vCPU busy, "
    "raw op times rise and the probe may not, so read raw_op_ms_p50 and "
    "probe_ms_median in the run details beside the scaled figures.",
)


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    print(f"$ {' '.join(cmd[1:])}", file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"perfbench exited {proc.returncode} without a result:\n{proc.stderr[-2000:]}")
    details = json.loads(lines[-2])["details"]
    result = json.loads(lines[-1])
    return {"details": details, "result": result}


def tier1_summary(out: str) -> dict:
    """Test outcomes and seconds of a ``pytest --durations`` run, and the
    seconds of each of ``CRITERIA`` (None where not found), from its
    output."""
    summaries = [
        m for line in out.splitlines()
        if (m := re.fullmatch(r"=*\s*((?:\d+ \w+,? ?)+) in ([\d.]+)s\b.*", line.strip()))
    ]
    record = {"outcomes": {}, "seconds": None}
    if summaries:
        counts, seconds = summaries[-1].groups()
        record["outcomes"] = {w: int(n) for n, w in re.findall(r"(\d+) (\w+)", counts)}
        record["seconds"] = float(seconds)
    for key, test in CRITERIA.items():
        m = re.search(rf"^([\d.]+)s call\s+\S*{re.escape(test)}$", out, re.M)
        record[key] = float(m.group(1)) if m else None
    return record


def run_tier1(root: Path) -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=0",
           "--continue-on-collection-errors"]
    print(f"$ {' '.join(cmd[1:])}  (in {root})", file=sys.stderr, flush=True)
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    return tier1_summary(proc.stdout)


def quartiles(values: list) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def src_differs(root: Path) -> bool | None:
    proc = subprocess.run(
        ["git", "status", "--porcelain", "--", "src"], cwd=root, capture_output=True, text=True
    )
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def run_row(root: Path, workload: str, seed: int, seconds: float, record: dict) -> dict:
    r = run_once(root, workload, seed, seconds, 0)
    record.setdefault("commit", r["details"]["machine"].get("git_commit"))
    record.setdefault("machine", r["details"]["machine"])
    res = r["result"]
    return {
        "seed": seed, "attempted": res["attempted"], "failed": res["failed"],
        "correct": res["correct"], "run_check": r["details"]["run_check"],
        "metrics": {k: v["value"] for k, v in res["metrics"].items()},
    }


def summarize(workload: str, runs: list, traced: dict, bench: dict) -> dict:
    excluded = [r["seed"] for r in runs if r["attempted"] and r["failed"] == r["attempted"]]
    for seed in excluded:
        print(f"note: {workload} seed {seed} failed every op; not counted", file=sys.stderr)
    counted = [r for r in runs if r["seed"] not in excluded]
    return {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "incorrect_runs": sum(not r["correct"] for r in runs),
        "excluded_seeds": excluded,
        "end_to_end": {
            m["name"]: dict(quartiles([r["metrics"][m["name"]] for r in counted]), unit=m["unit"])
            for m in bench["end_to_end"]
            if counted
        },
        "runs": runs,
        "per_layer": {
            "attempted": traced["attempted"],
            "failed": traced["failed"],
            "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
        },
    }


def measure(roots: list, bench: dict) -> list:
    """One record per checkout.  The checkouts take turns run by run, and
    the one that goes first changes from seed to seed, so that a slow
    spell of the machine falls on all of them alike."""
    seeds, seconds = list(SEEDS), bench["run_seconds"]
    records = [
        {"recorded": datetime.date.today().isoformat(), "seconds": seconds, "seeds": seeds, "workloads": {}}
        for _ in roots
    ]
    turns = [[(i + k) % len(roots) for k in range(len(roots))] for i in range(len(seeds) + 1)]
    for k in turns[0]:
        records[k]["tier1"] = run_tier1(roots[k])
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [[] for _ in roots]
        for seed, order in zip(seeds, turns):
            for k in order:
                runs[k].append(run_row(roots[k], workload, seed, seconds, records[k]))
        traced = {k: run_once(roots[k], workload, seeds[0], seconds, 1)["result"] for k in turns[-1]}
        for k, record in enumerate(records):
            record["workloads"][workload] = summarize(workload, runs[k], traced[k], bench)
    sys.path.insert(0, str(ROOT / "src"))
    from diffnet.cli import blas_core
    for root, record in zip(roots, records):
        record["src_differs_from_commit"] = src_differs(root)
        record["machine"]["blas_core"] = blas_core()
    return records


def change(old: float, new: float) -> float:
    return (new - old) / abs(old) if old else (0.0 if new == old else float("inf"))


def label(record: dict) -> str:
    """The commit and the hash of the ``src/`` that was measured, marked
    when ``src/`` was not the commit's."""
    sha = record["machine"].get("src_sha256") or "?"
    dirty = " (uncommitted)" if record.get("src_differs_from_commit") else ""
    return f"{(record.get('commit') or '?')[:12]} src {sha[:12]}{dirty}"


def diff(old: dict, new: dict, bench: dict) -> int:
    """Print the new record against the old one; return the number of
    flags."""
    flags = 0
    print(f"{label(old)} -> {label(new)}")
    for key in ("seeds", "seconds"):
        if old.get(key) != new.get(key):
            print(f"FLAG: {key} differ: {old.get(key)} -> {new.get(key)}")
            flags += 1
    for key, what in (("blas_core", "BLAS cores"), ("affinity", "usable CPU counts")):
        pair = [r["machine"].get(key) for r in (old, new)]
        if None not in pair and pair[0] != pair[1]:
            print(f"FLAG: {what} differ: {pair[0]} -> {pair[1]}")
            flags += 1
    diff_tier1(old.get("tier1"), new.get("tier1"))
    for workload, w in new["workloads"].items():
        o = old["workloads"].get(workload)
        if o is None:
            print(f"{workload}: not in the earlier record")
            continue
        print(f"{workload}: failed {o['failed']}/{o['attempted']} -> {w['failed']}/{w['attempted']}")
        if w["attempted"] and w["failed"] / w["attempted"] > o["failed"] / max(o["attempted"], 1):
            print("  FLAG: a larger share of ops failed")
            flags += 1
        if w["incorrect_runs"] > o["incorrect_runs"]:
            print(f"  FLAG: runs not correct {o['incorrect_runs']} -> {w['incorrect_runs']}")
            flags += 1
        for r in w["runs"]:
            if r["run_check"]:
                print(f"  seed {r['seed']} run check: {r['run_check']}")
        for m in bench["end_to_end"]:
            a, b = o["end_to_end"].get(m["name"]), w["end_to_end"].get(m["name"])
            if a is None or b is None:
                print(f"  {m['name']}: no counted seed on one side")
                flags += 1
                continue
            rel = change(a["median"], b["median"])
            worse = -rel if m["better"] == "higher" else rel
            flag = worse > m["bound"]
            flags += flag
            print(
                f"  {m['name']:>13}: {a['median']:.4g} [{a['q1']:.4g}, {a['q3']:.4g}] -> "
                f"{b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] {m['unit']} "
                f"({rel:+.1%}){'  FLAG: worse than the bound ' + format(m['bound'], '.0%') if flag else ''}"
            )
        ol, nl = o["per_layer"]["metrics"], w["per_layer"]["metrics"]
        moved = [(k, ol[k], nl[k]) for k in nl if k in ol and abs(change(ol[k], nl[k])) >= LAYER_SHOWN]
        for k, a, b in moved:
            print(f"    {k}: {a:.4g} -> {b:.4g} ({change(a, b):+.1%})")
        print(f"    ({len(nl) - len(moved)} other per-layer metrics moved less than {LAYER_SHOWN:.0%})")
    print("Known effects, not regressions by themselves:")
    for note in NOTES:
        print(f"- {note}")
    return flags


def diff_tier1(old: dict | None, new: dict | None) -> None:
    """Print the tier-1 outcomes and seconds of both records."""
    if old is None or new is None:
        print("tier-1: not in both records")
        return
    a, b = (", ".join(f"{n} {w}" for w, n in t["outcomes"].items()) or "no summary" for t in (old, new))
    print(f"tier-1: {a} -> {b}")
    for key in ("seconds", *CRITERIA):
        a, b = ("?" if t[key] is None else f"{t[key]:.1f}" for t in (old, new))
        print(f"  {key.removesuffix('_s')}: {a} -> {b} s")


def previous(out: Path) -> Path | None:
    n = int(re.fullmatch(r"BENCH_(\d+)\.json", out.name).group(1))
    older = [
        (int(m.group(1)), p)
        for p in out.parent.glob("BENCH_*.json")
        if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name)) and int(m.group(1)) < n
    ]
    return max(older)[1] if older else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", type=Path, nargs="+", help="BENCH_<n>.json to write, one per --root")
    ap.add_argument("--root", type=Path, nargs="+", default=[ROOT], help="checkouts to measure")
    ap.add_argument("--diff", type=Path, nargs=2, metavar=("OLD", "NEW"), help="only diff two records")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.diff:
        old, new = (json.loads(p.read_text()) for p in args.diff)
        return 1 if diff(old, new, bench) else 0
    if not args.out or not all(re.fullmatch(r"BENCH_\d+\.json", p.name) for p in args.out):
        ap.error("--out must name BENCH_<n>.json files")
    if len(args.out) != len(args.root):
        ap.error("give one --out per --root")
    records = measure([r.resolve() for r in args.root], bench)
    for out, record in zip(args.out, records):
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out}")
    flags = 0
    for out, record in zip(args.out, records):
        prev = previous(out)
        if prev is None:
            print(f"{out}: no earlier BENCH_<n>.json to diff against")
            continue
        print(f"{out} against {prev}:")
        flags += diff(json.loads(prev.read_text()), record, bench)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
