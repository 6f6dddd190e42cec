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


def test_other_blas_cores_are_flagged(bench, capsys):
    old, new = record(), record()
    old["machine"]["blas_core"], new["machine"]["blas_core"] = "SkylakeX", "Haswell"
    assert bench.diff(old, new, BENCH) == 1
    assert "FLAG: BLAS cores differ: SkylakeX -> Haswell" in capsys.readouterr().out


def test_other_cpu_counts_are_flagged(bench, capsys):
    """The forward kernels split large maps across two threads, so their
    speed depends on how many CPUs the run may use."""
    old, new = record(), record()
    old["machine"]["affinity"], new["machine"]["affinity"] = 2, 1
    assert bench.diff(old, new, BENCH) == 1
    assert "FLAG: usable CPU counts differ: 2 -> 1" in capsys.readouterr().out


def test_a_side_without_a_blas_core_is_not_flagged(bench, capsys):
    old, new = record(), record()
    new["machine"]["blas_core"] = "Haswell"
    assert bench.diff(old, new, BENCH) == 0
    assert bench.diff(new, old, BENCH) == 0
    assert "FLAG" not in capsys.readouterr().out


def test_blas_core_comes_from_parity():
    """``scripts/parity.py`` names the core with ``diffnet.cli.blas_core``,
    which ``scripts/bench.py`` imports too, and no other file in ``src/``
    or ``scripts/`` opens numpy's OpenBLAS, so both name the same core."""
    import diffnet.cli

    spec = importlib.util.spec_from_file_location("parity", ROOT / "scripts" / "parity.py")
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    assert parity.blas_core is diffnet.cli.blas_core
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    opening = [p.name for p in files if "ctypes" in (t := p.read_text()) and "openblas" in t.lower()]
    assert opening == ["cli.py"]


def test_a_median_beyond_its_bound_is_flagged(bench, capsys):
    new = copy.deepcopy(record())
    m = next(m for m in BENCH["end_to_end"] if m["name"] == "throughput")
    new["workloads"]["train"]["end_to_end"]["throughput"]["median"] = 1.0 - 2 * m["bound"]
    assert bench.diff(record(), new, BENCH) == 1
    assert "FLAG: worse than the bound" in capsys.readouterr().out


DURATIONS = """\
........................................................................ [ 98%]
.......                                                                  [100%]
============================= slowest durations ==============================
17.03s call     tests/test_acceptance.py::test_criterion_8_generalization_across_regimes
11.90s call     tests/test_acceptance.py::test_criterion_4_overfit_smoke
1.90s call     tests/test_cli.py::test_damaged_files_give_typed_errors_and_exit_codes
0.01s setup    tests/test_acceptance.py::test_criterion_4_overfit_smoke

(1160 durations < 0.005s hidden.  Use -vv to show these durations.)
"""


@pytest.mark.parametrize(
    "summary, outcomes, seconds",
    [
        ("367 passed in 43.56s", {"passed": 367}, 43.56),
        ("2 failed, 365 passed, 1 warning in 63.12s (0:01:03)",
         {"failed": 2, "passed": 365, "warning": 1}, 63.12),
        ("======= 1 error in 0.50s =======", {"error": 1}, 0.5),
    ],
)
def test_tier1_summary_reads_outcomes_and_criterion_times(bench, summary, outcomes, seconds):
    got = bench.tier1_summary(DURATIONS + summary + "\n")
    assert got == {"outcomes": outcomes, "seconds": seconds,
                   "criterion_4_s": 11.90, "criterion_8_s": 17.03}


def test_tier1_summary_without_a_summary_or_criteria(bench):
    got = bench.tier1_summary("ERROR: file or directory not found: tests\n")
    assert got == {"outcomes": {}, "seconds": None, "criterion_4_s": None, "criterion_8_s": None}


def test_diff_prints_tier1_outcomes_and_times(bench, capsys):
    old, new = record(), record()
    old["tier1"] = bench.tier1_summary(DURATIONS + "367 passed in 43.56s\n")
    new["tier1"] = bench.tier1_summary(DURATIONS.replace("11.90s", "9.50s") + "1 failed, 366 passed in 40.00s\n")
    assert bench.diff(old, new, BENCH) == 0
    out = capsys.readouterr().out
    assert "tier-1: 367 passed -> 1 failed, 366 passed" in out
    assert "seconds: 43.6 -> 40.0 s" in out
    assert "criterion_4: 11.9 -> 9.5 s" in out and "criterion_8: 17.0 -> 17.0 s" in out
    bench.diff(record(), new, BENCH)
    assert "tier-1: not in both records" in capsys.readouterr().out
