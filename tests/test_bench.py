"""``scripts/bench.py --diff``: what it flags between two benchmark records."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(src_sha256="a" * 64, differs=False):
    metrics = {m["name"]: 1.0 for m in BENCH["end_to_end"]}
    runs = [
        {"seed": s, "attempted": 10, "failed": 0, "correct": True, "run_check": None, "metrics": metrics}
        for s in (741, 742, 743)
    ]
    workload = {
        "attempted": 30, "failed": 0, "incorrect_runs": 0, "excluded_seeds": [],
        "end_to_end": {k: {"median": v, "q1": v, "q3": v, "unit": ""} for k, v in metrics.items()},
        "runs": runs,
        "per_layer": {"attempted": 10, "failed": 0, "metrics": {"fwd_ms": 1.0}},
    }
    return {
        "commit": "1" * 40, "machine": {"src_sha256": src_sha256}, "src_differs_from_commit": differs,
        "seeds": [741, 742, 743], "seconds": BENCH["run_seconds"],
        "workloads": {"train": workload},
    }


def test_identical_records_raise_no_flag(bench, capsys):
    assert bench.diff(record(), record(), BENCH) == 0
    assert "FLAG" not in capsys.readouterr().out


def test_header_names_the_measured_src(bench, capsys):
    bench.diff(record(), record("b" * 64, differs=True), BENCH)
    header = capsys.readouterr().out.splitlines()[0]
    assert header == f"{'1' * 12} src {'a' * 12} -> {'1' * 12} src {'b' * 12} (uncommitted)"


def test_a_run_that_is_not_correct_is_flagged_with_its_check(bench, capsys):
    new = record()
    w = new["workloads"]["train"]
    w["runs"][1].update(correct=False, run_check="loss did not fall: 0.69 -> 0.70")
    w["incorrect_runs"] = 1
    assert bench.diff(record(), new, BENCH) == 1
    out = capsys.readouterr().out
    assert "FLAG: runs not correct 0 -> 1" in out
    assert "seed 742 run check: loss did not fall" in out


def test_other_seeds_or_run_lengths_are_flagged(bench, capsys):
    new = record()
    new["seeds"] = [1, 2, 3]
    new["seconds"] = 5
    assert bench.diff(record(), new, BENCH) == 2
    out = capsys.readouterr().out
    assert "FLAG: seeds differ" in out and "FLAG: seconds differ" in out


def test_a_median_beyond_its_bound_is_flagged(bench, capsys):
    new = copy.deepcopy(record())
    m = next(m for m in BENCH["end_to_end"] if m["name"] == "throughput")
    new["workloads"]["train"]["end_to_end"]["throughput"]["median"] = 1.0 - 2 * m["bound"]
    assert bench.diff(record(), new, BENCH) == 1
    assert "FLAG: worse than the bound" in capsys.readouterr().out
